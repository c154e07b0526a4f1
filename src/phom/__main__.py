"""`python -m phom`: the phom command line."""

import sys

from .cli import main

sys.exit(main())
