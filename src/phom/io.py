"""File formats: CSV clouds and diagrams, PGM/PPM, voxel text, caches.

All writers format floats with repr (shortest round-trip), so equal
data always produces byte-equal files.  Parsers raise InputError with
the file name and a line or byte position.

The cloud, diagram, PGM and voxel readers parse in one pass: they split
the whole body once, convert the tokens with map(int) or map(float) and
run their checks on the arrays.  Only when that pass finds a fault does
the reader's line (or token) loop run over the same bytes, to raise the
message of the first faulty line.
"""

from __future__ import annotations

import json
import math
import re
from io import StringIO

import numpy as np

from .errors import InputError, InternalError
from .persistence import Filtration, PersistenceDiagram
from .vectorize import PersistenceImage
from .distances import DiagramDistanceReport


def _fmt(x: float) -> str:
    return repr(float(x))


def _open_read(path: str, text: bool = True):
    """A file's bytes, or for text an ASCII stream: an unreadable file or
    a non-ASCII byte in a text file is an InputError."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        return StringIO(data.decode("ascii"), newline=None) if text else data
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(
            f"{path}: non-ASCII byte at byte {exc.start}") from None


# ---------------------------------------------------------------- CSV clouds

def _line_fault(line_loop, path: str, *args) -> InternalError:
    """Run line_loop(path, *args), which raises the InputError of the
    first faulty line; reaching the end means the two passes disagree."""
    line_loop(path, *args)
    return InternalError(f"{path}: the line loop found no fault")


def _rows(lines: list[str]) -> list[str]:
    """The stripped lines that are neither blank nor '#' comments."""
    return [t for t in lines if t and t[0] != "#"]


def _numbered_rows(text: str) -> list[tuple[int, str]]:
    """_rows of text's lines, each with its line number, for messages."""
    return [(ln, t) for ln, t in enumerate(map(str.strip, text.split("\n")), 1)
            if t and t[0] != "#"]


_NOT_SEPARATOR = bytes(sorted(set(range(256)) - set(b",\n")))


def _fields(rows: list[str], width: int) -> list[str]:
    """The comma-separated fields of rows that each hold `width` of them,
    row by row; ValueError when a row holds another number."""
    if not rows:
        return []
    body = "\n".join(rows)
    shape = body.encode().translate(None, _NOT_SEPARATOR) + b"\n"
    if shape != (b"," * (width - 1) + b"\n") * len(rows):
        raise ValueError("rows of different widths")
    return body.replace("\n", ",").split(",")


def _stripped_lines(path: str) -> tuple[str, list[str]]:
    """A text file's content, newlines read as '\\n', and its lines
    stripped of surrounding whitespace."""
    text = _open_read(path).getvalue()
    return text, list(map(str.strip, text.split("\n")))


def read_point_cloud(path: str) -> np.ndarray:
    """Read an (n, d) cloud from comma-separated text.

    Lines starting with '#' and blank lines are skipped; every data row
    needs the same number of columns.
    """
    text, lines = _stripped_lines(path)
    rows = _rows(lines)
    if not rows:
        raise InputError(f"{path}: no points")
    width = rows[0].count(",") + 1
    try:
        values = list(map(float, _fields(rows, width)))
    except ValueError:
        raise _line_fault(_cloud_lines, path, text) from None
    arr = np.array(values, dtype=np.float64).reshape(len(rows), width)
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{path}: non-finite coordinates")
    return arr


def _cloud_lines(path: str, text: str) -> None:
    width = None
    for ln, row in _numbered_rows(text):
        parts = row.split(",")
        if width is None:
            width = len(parts)
        elif len(parts) != width:
            raise InputError(
                f"{path}:{ln}: expected {width} columns, got {len(parts)}")
        try:
            [float(p) for p in parts]
        except ValueError as exc:
            raise InputError(f"{path}:{ln}: {exc}") from None


def write_point_cloud(path: str, points: np.ndarray,
                      header: str | None = None) -> None:
    pts = np.asarray(points, dtype=np.float64)
    with open(path, "w", encoding="ascii") as fh:
        if header:
            fh.write(f"# {header}\n")
        for row in pts:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def read_distance_matrix(path: str) -> np.ndarray:
    """Read a square distance matrix from CSV (same syntax as clouds)."""
    arr = read_point_cloud(path)
    if arr.shape[0] != arr.shape[1]:
        raise InputError(
            f"{path}: distance matrix must be square, got {arr.shape}")
    return arr


# ------------------------------------------------------------------ diagrams

def write_diagram_csv(path: str, pd: PersistenceDiagram) -> None:
    """dim,birth,death rows in the diagram's order; death inf allowed.

    Diagram metadata is kept in leading '# key=value' comment lines so
    downstream commands (vectorization caps, direction) can recover it.
    """
    head = []
    for key in sorted(pd.metadata):
        val = pd.metadata[key]
        text = _fmt(val) if isinstance(val, float) else str(val)
        head.append(f"# {key}={text}\n")
    head.append("dim,birth,death\n")
    rows = zip(pd.dims.tolist(), pd.births.tolist(), pd.deaths.tolist())
    with open(path, "w", encoding="ascii") as fh:
        fh.write("".join(head) + "".join(  # repr(inf) is 'inf'
            [f"{d},{b!r},{x!r}\n" for d, b, x in rows]))


# The number forms phom writes, by shape (the text without its digits):
# "-"? digits ["." digits] ["e" [+-]? digits], and inf, -inf and nan.
_NUMBER_SHAPES = frozenset(
    [s + p + e for s in (b"", b"-") for p in (b"", b".")
     for e in (b"", b"e", b"e+", b"e-")] + [b"inf", b"-inf", b"nan"])
_SHAPE = bytes.maketrans(b"123456789,", b"000000000\n")
_UNWRITTEN = "a number not in a form phom writes (1, -0.5, 2.5e-07, inf)"


def _first_unwritten(texts: list[str]) -> int:
    """Index of the first text (numbers, split by commas or newlines, that
    int() or float() has read) with a number in a form phom does not
    write, or -1: "1_0", "Infinity", "+1", "1E5" or " 1" by its shape,
    "1." or ".5" by a "." without a digit on each side."""
    def bad(text: str) -> bool:
        blob = text.encode().translate(_SHAPE)
        shapes = blob.translate(None, b"0")
        return (shapes.count(b".") != blob.count(b"0.0")
                or not _NUMBER_SHAPES.issuperset(shapes.split(b"\n")))
    if not bad("\n".join(texts)):
        return -1
    return next(i for i, text in enumerate(texts) if bad(text))


def _parse_meta_value(text: str):
    """An int or float when text is one in phom's forms, else the text."""
    for cast in (int, float):
        try:
            value = cast(text)
        except ValueError:
            continue
        return value if _first_unwritten([text]) < 0 else text
    return text


def read_diagram_csv(path: str) -> PersistenceDiagram:
    """Read a diagram CSV whose numbers are in the forms phom writes."""
    text, lines = _stripped_lines(path)
    metadata: dict = {}
    comments = [t for t in lines if t[:1] == "#"] if "#" in text else []
    for line in comments:
        body = line[1:].strip()
        if "=" in body:
            key, _, val = body.partition("=")
            metadata[key.strip()] = _parse_meta_value(val.strip())
    rows = _rows(lines)
    if not rows:
        raise InputError(f"{path}: missing 'dim,birth,death' header")
    try:
        if rows[0] != "dim,birth,death":
            raise ValueError("no header")
        del rows[0]
        fields = _fields(rows, 3)
        dims = list(map(int, fields[0::3]))
        births = np.array(list(map(float, fields[1::3])), dtype=np.float64)
        deaths = np.array(list(map(float, fields[2::3])), dtype=np.float64)
        if dims and not 0 <= min(dims) <= max(dims) < 2**63:
            raise ValueError("dimension out of range")
        if not (np.isfinite(births).all() and (births <= deaths).all()):
            raise ValueError("bad birth")
        if _first_unwritten(rows) >= 0:
            raise ValueError("unwritten number")
    except ValueError:
        raise _line_fault(_diagram_lines, path, text) from None
    pd = PersistenceDiagram(dims, births, deaths, metadata)
    if "death_cap" in metadata:
        # vectorize caps essential points at death_cap.
        cap = metadata["death_cap"]
        try:
            cap = math.nan if isinstance(cap, str) else float(cap)
        except OverflowError:
            cap = math.nan
        if not math.isfinite(cap):
            raise InputError(f"{path}: death_cap must be a finite number")
        if np.any(np.isinf(pd.deaths) & (pd.births > cap)):
            raise InputError(f"{path}: death_cap {cap!r} is below the birth "
                             "of an essential point")
    return pd


def _diagram_lines(path: str, text: str) -> None:
    rows, lns = [], []
    saw_header = False
    for ln, row in _numbered_rows(text):
        if not saw_header:
            if row != "dim,birth,death":
                raise InputError(
                    f"{path}:{ln}: expected header 'dim,birth,death'")
            saw_header = True
            continue
        parts = row.split(",")
        if len(parts) != 3:
            raise InputError(f"{path}:{ln}: expected 3 columns")
        try:
            d = int(parts[0])
            b = float(parts[1])
            dth = math.inf if parts[2] == "inf" else float(parts[2])
        except ValueError as exc:
            raise InputError(f"{path}:{ln}: {exc}") from None
        if d < 0:
            raise InputError(f"{path}:{ln}: negative dimension")
        if d >= 2**63:  # the diagram stores int64 dims
            raise InputError(f"{path}:{ln}: dimension exceeds 2**63 - 1")
        if not math.isfinite(b):
            raise InputError(f"{path}:{ln}: birth must be finite")
        if not b <= dth:
            raise InputError(f"{path}:{ln}: birth exceeds death")
        rows.append(row)
        lns.append(ln)
    r = _first_unwritten(rows)
    if r >= 0:
        raise InputError(f"{path}:{lns[r]}: {_UNWRITTEN}")


# ----------------------------------------------------------------- PGM / PPM

# A '#' where a token would start opens a comment up to the end of the
# line; a token is any other run of non-whitespace bytes.
_PGM_TOKEN = re.compile(rb"#[^\n]*|([^\s#]\S*)")


def _pgm_tokens(path: str, data: bytes, count: int, start: int
                ) -> tuple[list[int], int]:
    """Read `count` ASCII integer tokens from data[start:], '#' comments ok.

    Returns the integers and the position just after the last one.
    """
    out: list[int] = []
    for m in _PGM_TOKEN.finditer(data, start):
        tok = m[1]
        if tok is None:
            continue
        try:
            out.append(int(tok))
        except ValueError:
            raise InputError(
                f"{path}: bad integer {tok!r} at byte {m.start()}") from None
        if len(out) == count:
            return out, m.end()
    raise InputError(
        f"{path}: truncated header at byte {max(start, len(data))}")


def read_pgm(path: str) -> np.ndarray:
    """Read PGM (P2/P5) or PPM (P3/P6) into a float64 (h, w) grid.

    Grayscale values are the raw samples (0..maxval).  Colour images are
    converted by the channel mean rescaled to [0, 255].  maxval up to
    65535 (two-byte big-endian samples in the binary forms).
    """
    data = _open_read(path, text=False)
    if len(data) < 2:
        raise InputError(f"{path}: not a PGM/PPM file")
    magic = data[:2].decode("ascii", "replace")
    if magic not in ("P2", "P5", "P3", "P6"):
        raise InputError(f"{path}: unsupported magic {magic!r}")
    color = magic in ("P3", "P6")
    binary = magic in ("P5", "P6")
    header, pos = _pgm_tokens(path, data, 3, 2)
    width, height, maxval = header
    if width < 1 or height < 1:
        raise InputError(f"{path}: bad dimensions {width}x{height}")
    if not 1 <= maxval <= 65535:
        raise InputError(f"{path}: maxval {maxval} outside [1, 65535]")
    n_samples = width * height * (3 if color else 1)
    if binary:
        pos += 1  # single whitespace after maxval
        wide = maxval > 255
        need = n_samples * (2 if wide else 1)
        raw = data[pos:pos + need]
        if len(raw) < need:
            raise InputError(
                f"{path}: expected {need} sample bytes, got {len(raw)}")
        dtype = ">u2" if wide else np.uint8
        samples = np.frombuffer(raw, dtype=dtype, count=n_samples)
        samples = samples.astype(np.float64)
    else:
        body = data[pos:]
        # Without a '#', bytes.split gives the regex's tokens, 4x faster.
        toks = (list(filter(None, _PGM_TOKEN.findall(body))) if b"#" in body
                else body.split())
        try:
            if len(toks) < n_samples:
                raise ValueError("truncated")
            samples = np.array(list(map(int, toks[:n_samples])),
                               dtype=np.float64)
        except ValueError:
            raise _line_fault(_pgm_tokens, path, data, n_samples, pos
                              ) from None
    if samples.min() < 0 or samples.max() > maxval:
        raise InputError(f"{path}: sample outside [0, {maxval}]")
    if color:
        rgb = samples.reshape(height, width, 3)
        return rgb.mean(axis=2) * (255.0 / maxval)
    return samples.reshape(height, width)


def write_pgm(path: str, samples: np.ndarray, maxval: int = 255) -> None:
    """Write integer samples as ASCII P2."""
    arr = np.asarray(samples)
    if arr.ndim != 2:
        raise InputError("PGM output needs a 2-d array")
    ints = np.rint(arr).astype(np.int64)
    if ints.min() < 0 or ints.max() > maxval:
        raise InputError(f"PGM samples outside [0, {maxval}]")
    h, w = ints.shape
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"P2\n{w} {h}\n{maxval}\n")
        for row in ints:
            fh.write(" ".join(str(v) for v in row) + "\n")


def quantize_grid(grid: np.ndarray, maxval: int = 65535) -> np.ndarray:
    """Map a float grid affinely onto integers 0..maxval."""
    g = np.asarray(grid, dtype=np.float64)
    lo, hi = float(g.min()), float(g.max())
    if hi == lo:
        return np.zeros(g.shape, dtype=np.int64)
    return np.rint((g - lo) / (hi - lo) * maxval).astype(np.int64)


# -------------------------------------------------------------------- voxels

def read_voxel(path: str) -> np.ndarray:
    """Read the text voxel format: 'nx ny nz' then x-fastest values.

    Returns a (nz, ny, nx) float64 array (x on the fastest axis).
    """
    text, lines = _stripped_lines(path)
    body = _rows(lines)
    if not body:
        raise InputError(f"{path}: empty voxel file")
    try:
        nx, ny, nz = map(int, body[0].split())
        toks = " ".join(body[1:]).split()
        if min(nx, ny, nz) < 1 or len(toks) != nx * ny * nz:
            raise ValueError("bad shape")
        arr = np.array(list(map(float, toks)), dtype=np.float64)
    except ValueError:
        raise _line_fault(_voxel_lines, path, text) from None
    arr = arr.reshape(nz, ny, nx)
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{path}: non-finite voxel values")
    return arr


def _voxel_lines(path: str, text: str) -> None:
    body = _numbered_rows(text)
    ln0, head = body[0]
    parts = head.split()
    if len(parts) != 3:
        raise InputError(f"{path}:{ln0}: header must be 'nx ny nz'")
    try:
        nx, ny, nz = (int(p) for p in parts)
    except ValueError as exc:
        raise InputError(f"{path}:{ln0}: {exc}") from None
    if nx < 1 or ny < 1 or nz < 1:
        raise InputError(f"{path}:{ln0}: dimensions must be positive")
    count = 0
    for ln, row in body[1:]:
        for tok in row.split():
            try:
                float(tok)
            except ValueError:
                raise InputError(f"{path}:{ln}: bad value {tok!r}") from None
            count += 1
        if count > nx * ny * nz:
            raise InputError(
                f"{path}:{ln}: more than {nx * ny * nz} values")
    if count != nx * ny * nz:
        raise InputError(
            f"{path}: expected {nx * ny * nz} values, got {count}")


def write_voxel(path: str, grid: np.ndarray) -> None:
    """Write a (nz, ny, nx) grid in the text voxel format."""
    g = np.asarray(grid, dtype=np.float64)
    if g.ndim == 2:
        g = g[None, :, :]
    if g.ndim != 3:
        raise InputError("voxel output needs a 3-d array")
    nz, ny, nx = g.shape
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{nx} {ny} {nz}\n")
        for z in range(nz):
            for y in range(ny):
                fh.write(" ".join(_fmt(v) for v in g[z, y]) + "\n")


# --------------------------------------------------------- persistence image

def write_image_json(path: str, img: PersistenceImage) -> None:
    """Serialize with 17 significant digits, keys in fixed order."""

    def f(x: float) -> str:
        return format(float(x), ".17g")

    (b0, b1), (p0, p1) = img.support
    nb, npers = img.resolution
    pix = ", ".join(f(v) for v in img.flat())
    text = ('{"resolution": [%d, %d], "range": [[%s, %s], [%s, %s]], '
            '"sigma": %s, "weight": "%s", "pixels": [%s]}\n'
            % (nb, npers, f(b0), f(b1), f(p0), f(p1),
               f(img.sigma), img.weight, pix))
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def read_image_json(path: str) -> PersistenceImage:
    """Read a persistence image that persistence_image could have made:
    a resolution of two integers >= 1 whose product is the pixel count,
    a finite range of positive extent, a finite sigma > 0, a known
    weight and finite pixels."""
    try:
        with _open_read(path) as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: {exc}") from None
    try:
        nb, npers = obj["resolution"]
        (b0, b1), (p0, p1) = ((float(a), float(b)) for a, b in obj["range"])
        sigma = float(obj["sigma"])
        weight = obj["weight"]
        pixels = np.array(obj["pixels"], dtype=np.float64)
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        raise InputError(f"{path}: malformed persistence image: {exc}"
                         ) from None
    if not all(type(n) is int and n >= 1 for n in (nb, npers)):
        problem = f"resolution {[nb, npers]} is not two integers >= 1"
    elif pixels.shape != (nb * npers,):
        problem = f"{pixels.size} pixels for resolution {nb}x{npers}"
    elif not (math.isfinite(b1 - b0) and math.isfinite(p1 - p0)
              and b1 > b0 and p1 > p0):
        problem = "range must be finite with positive extent"
    elif not (math.isfinite(sigma) and sigma > 0):
        problem = "sigma must be finite and positive"
    elif weight not in ("linear", "constant"):
        problem = f"unknown weight {weight!r}"
    elif not np.isfinite(pixels).all():
        problem = "pixels must be finite"
    else:
        return PersistenceImage(pixels.reshape(nb, npers),
                                ((b0, b1), (p0, p1)), sigma, weight)
    raise InputError(f"{path}: malformed persistence image: {problem}")


# ----------------------------------------------------------- distance report

def write_distance_report(path: str, report: DiagramDistanceReport) -> None:
    obj = {
        "metric": report.metric,
        "dim": report.dim,
        "p": report.p,
        "value": "inf" if math.isinf(report.value) else report.value,
        "matching": [[l, r] for l, r in report.matching],
        "essential_matching": [[i, j] for i, j in report.essential_matching],
    }
    with open(path, "w", encoding="ascii") as fh:
        fh.write(json.dumps(obj, sort_keys=True) + "\n")


def read_distance_report(path: str) -> DiagramDistanceReport:
    try:
        with _open_read(path) as fh:
            obj = json.load(fh)
        value = math.inf if obj["value"] == "inf" else float(obj["value"])
        return DiagramDistanceReport(
            metric=str(obj["metric"]), dim=int(obj["dim"]), value=value,
            matching=[(l, r) for l, r in obj["matching"]],
            essential_matching=[(int(i), int(j))
                                for i, j in obj["essential_matching"]],
            p=None if obj["p"] is None else float(obj["p"]))
    except (json.JSONDecodeError, KeyError, ValueError, TypeError) as exc:
        raise InputError(f"{path}: malformed distance report: {exc}"
                         ) from None


# -------------------------------------------------------------- cell caches

CACHE_MAGIC = "# phom-complex 1"


def write_complex_cache(path: str, K, meta: dict | None = None) -> None:
    """Cache a filtered complex as text: one cell per line.

    Line layout after the header: dimension, value (repr), label, then
    the cell's face positions.  Faces always precede their cofaces, so
    the file round-trips through read_complex_cache losslessly.
    """
    labels = K.labels()
    with open(path, "w", encoding="ascii") as fh:
        fh.write(CACHE_MAGIC + "\n")
        for key in sorted((meta or {})):
            fh.write(f"meta {key} {(meta or {})[key]}\n")
        fh.write(f"cells {len(K.values)}\n")
        for i in range(len(K.values)):
            faces = " ".join(str(int(f)) for f in K.boundary(i))
            line = f"{int(K.dims[i])} {_fmt(K.values[i])} {labels[i]}"
            fh.write(line + (" " + faces if faces else "") + "\n")


def read_complex_cache(path: str) -> Filtration:
    """Load a cache written by write_complex_cache as a Filtration.

    Each cell line is checked before it is used: its faces precede it,
    each face appears once and has dimension dim - 1, values are finite
    and never decrease, the boundary of its boundary is zero, and it has
    dim + 1 faces (2 * dim when `meta kind` starts with "cubical"; none
    for a vertex).  The file holds exactly `cells N` cell lines, N >= 0,
    and only blank lines after them.  The cells keep their labels as keys.
    """
    with _open_read(path) as fh:
        lines = [l.rstrip("\n") for l in fh]
    if not lines or lines[0] != CACHE_MAGIC:
        raise InputError(f"{path}: not a phom complex cache")
    meta: dict = {}
    i = 1
    while i < len(lines) and lines[i].startswith("meta "):
        parts = lines[i].split(" ", 2)
        if len(parts) != 3:
            raise InputError(f"{path}:{i + 1}: expected 'meta KEY VALUE'")
        meta[parts[1]] = parts[2]
        i += 1
    if i >= len(lines) or not lines[i].startswith("cells "):
        raise InputError(f"{path}:{i + 1}: expected 'cells N'")
    try:
        count = int(lines[i].split()[1])
        if _first_unwritten(lines[i].split()[1:2]) >= 0:
            raise ValueError
    except (IndexError, ValueError):
        raise InputError(f"{path}:{i + 1}: bad cell count") from None
    if count < 0:
        raise InputError(f"{path}:{i + 1}: negative cell count")
    i += 1
    cubical = meta.get("kind", "").startswith("cubical")
    dims: list[int] = []
    values: list[float] = []
    labels: list[str] = []
    flat: list[int] = []
    off = [0]
    numbers: list[str] = []  # per cell line, all but the label
    for c in range(count):
        ln = i + c
        if ln >= len(lines) or not lines[ln].strip():
            raise InputError(f"{path}: expected {count} cells, got {c}")
        where = f"{path}:{ln + 1}"
        parts = lines[ln].split()
        if len(parts) < 3:
            raise InputError(f"{where}: malformed cell line")
        try:
            dim = int(parts[0])
            value = float(parts[1])
            faces = [int(p) for p in parts[3:]]
        except ValueError as exc:
            raise InputError(f"{where}: {exc}") from None
        if dim < 0:
            raise InputError(f"{where}: negative dimension")
        if not math.isfinite(value):
            raise InputError(f"{where}: value must be finite")
        if len(set(faces)) != len(faces):
            raise InputError(f"{where}: a face is listed twice")
        dd: set[int] = set()
        for f in faces:
            if not 0 <= f < c:
                raise InputError(
                    f"{where}: face {f} does not precede cell {c}")
            if dims[f] != dim - 1:
                raise InputError(
                    f"{where}: face {f} has dimension {dims[f]}, "
                    f"not {dim - 1}")
            dd.symmetric_difference_update(flat[off[f]:off[f + 1]])
        if dd:
            raise InputError(f"{where}: boundary of the boundary of cell "
                             f"{c} is not zero")
        want = 2 * dim if cubical else (dim + 1 if dim else 0)
        if len(faces) != want:
            raise InputError(f"{where}: a {dim}-cell needs {want} faces, "
                             f"not {len(faces)}")
        if c and value < values[-1]:
            raise InputError(f"{where}: values must be non-decreasing")
        dims.append(dim)
        values.append(value)
        labels.append(parts[2])
        flat.extend(faces)
        off.append(len(flat))
        numbers.append("\n".join(parts[:2] + parts[3:]))
    c = _first_unwritten(numbers)
    if c >= 0:
        raise InputError(f"{path}:{i + c + 1}: {_UNWRITTEN}")
    for ln in range(i + count, len(lines)):
        if lines[ln].strip():
            raise InputError(
                f"{path}:{ln + 1}: a line after the last of {count} cells")
    return Filtration(np.array(values, dtype=np.float64),
                      np.array(dims, dtype=np.int32),
                      np.array(off, dtype=np.int64),
                      np.array(flat, dtype=np.int64), labels, meta, str)
