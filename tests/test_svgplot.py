"""Deterministic SVG rendering of diagrams."""

import math
import re
import sys

import pytest

from phom import PersistenceDiagram
from phom.svgplot import diagram_svg, save_diagram_svg


def sample_diagram():
    return PersistenceDiagram.from_points([
        (0, 0.0, math.inf), (0, 0.1, 0.6), (1, 0.4, 0.9), (2, 0.5, 0.7)])


def test_svg_structure():
    text = diagram_svg(sample_diagram(), title="demo")
    assert text.startswith('<?xml version="1.0"')
    assert text.rstrip().endswith("</svg>")
    assert ">demo</text>" in text
    assert ">birth</text>" in text
    assert ">death</text>" in text
    # One marker shape per dimension present.
    assert "<circle" in text
    assert "<rect" in text.split("</svg>")[0]
    assert "<polygon" in text
    assert ">inf</text>" in text
    assert ">H0</text>" in text and ">H1</text>" in text


def test_svg_is_deterministic():
    assert diagram_svg(sample_diagram()) == diagram_svg(sample_diagram())


def test_svg_empty_diagram():
    text = diagram_svg(PersistenceDiagram.from_points([]))
    assert "<svg" in text
    assert ">inf</text>" not in text


def test_save_writes_same_bytes(tmp_path):
    p1 = tmp_path / "a.svg"
    p2 = tmp_path / "b.svg"
    save_diagram_svg(str(p1), sample_diagram(), title="t")
    save_diagram_svg(str(p2), sample_diagram(), title="t")
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text() == diagram_svg(sample_diagram(), title="t")


@pytest.mark.parametrize("points", [
    [(0, 1e308, math.inf)],
    [(0, sys.float_info.max, math.inf)],
    [(1, -sys.float_info.max, -1e308), (0, -1e308, math.inf)],
    [(1, -sys.float_info.max, sys.float_info.max)],
], ids=["unit-vanishes", "largest", "margin-overflows", "span-overflows"])
def test_svg_near_float_limits(points):
    """A range whose margins overflow, or next to which a unit rounds
    away, is laid out scaled: every coordinate is a finite number, and
    only the axis labels may read inf."""
    text = diagram_svg(PersistenceDiagram.from_points(points))
    markup = re.sub(r">[^<]*<", "><", text)
    assert "nan" not in text and "inf" not in markup
    assert len(re.findall(r"<(?:circle|rect|polygon) ", text)) > len(points)
