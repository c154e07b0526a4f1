"""File formats: CSV clouds and diagrams, PGM/PPM, voxel text, caches.

All writers format floats with repr (shortest round-trip), so equal
data always produces byte-equal files.  Parsers raise InputError with
the file name and a line or byte position.
"""

from __future__ import annotations

import json
import math
import re
from io import StringIO

import numpy as np

from .errors import InputError
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

def read_point_cloud(path: str) -> np.ndarray:
    """Read an (n, d) cloud from comma-separated text.

    Lines starting with '#' and blank lines are skipped; every data row
    needs the same number of columns.
    """
    rows = []
    width = None
    with _open_read(path) as fh:
        for ln, line in enumerate(fh, 1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            parts = text.split(",")
            if width is None:
                width = len(parts)
            elif len(parts) != width:
                raise InputError(
                    f"{path}:{ln}: expected {width} columns, got {len(parts)}")
            try:
                rows.append([float(p) for p in parts])
            except ValueError as exc:
                raise InputError(f"{path}:{ln}: {exc}") from None
    if not rows:
        raise InputError(f"{path}: no points")
    arr = np.array(rows, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{path}: non-finite coordinates")
    return arr


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
    """dim,birth,death rows sorted by (dim, birth, death); death inf allowed.

    Diagram metadata is kept in leading '# key=value' comment lines so
    downstream commands (vectorization caps, direction) can recover it.
    """
    with open(path, "w", encoding="ascii") as fh:
        for key in sorted(pd.metadata):
            val = pd.metadata[key]
            text = _fmt(val) if isinstance(val, float) else str(val)
            fh.write(f"# {key}={text}\n")
        fh.write("dim,birth,death\n")
        for d, b, dth in sorted(pd.points):
            dtext = "inf" if math.isinf(dth) else _fmt(dth)
            fh.write(f"{d},{_fmt(b)},{dtext}\n")


def _parse_meta_value(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def read_diagram_csv(path: str) -> PersistenceDiagram:
    points: list[tuple[int, float, float]] = []
    metadata: dict = {}
    saw_header = False
    with _open_read(path) as fh:
        for ln, line in enumerate(fh, 1):
            text = line.strip()
            if not text:
                continue
            if text.startswith("#"):
                body = text[1:].strip()
                if "=" in body:
                    key, _, val = body.partition("=")
                    metadata[key.strip()] = _parse_meta_value(val.strip())
                continue
            if not saw_header:
                if text != "dim,birth,death":
                    raise InputError(
                        f"{path}:{ln}: expected header 'dim,birth,death'")
                saw_header = True
                continue
            parts = text.split(",")
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
            if not math.isfinite(b):
                raise InputError(f"{path}:{ln}: birth must be finite")
            if not b <= dth:
                raise InputError(f"{path}:{ln}: birth exceeds death")
            points.append((d, b, dth))
    if not saw_header:
        raise InputError(f"{path}: missing 'dim,birth,death' header")
    if "death_cap" in metadata:
        # vectorize caps essential points at death_cap.
        try:
            cap = float(metadata["death_cap"])
        except (ValueError, OverflowError):
            cap = math.nan
        if not math.isfinite(cap):
            raise InputError(f"{path}: death_cap must be a finite number")
        if any(math.isinf(dth) and b > cap for _, b, dth in points):
            raise InputError(f"{path}: death_cap {cap!r} is below the birth "
                             "of an essential point")
    points.sort()
    return PersistenceDiagram(points=points, metadata=metadata)


# ----------------------------------------------------------------- PGM / PPM

# A '#' where a token would start opens a comment up to the end of the
# line; a token is any other run of non-whitespace bytes.
_PGM_TOKEN = re.compile(rb"#[^\n]*|([^\s#]\S*)")


def _pgm_tokens(data: bytes, path: str, count: int, start: int
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
    header, pos = _pgm_tokens(data, path, 3, 2)
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
        toks, _ = _pgm_tokens(data, path, n_samples, pos)
        samples = np.array(toks, dtype=np.float64)
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
    with _open_read(path) as fh:
        lines = fh.readlines()
    body: list[tuple[int, str]] = []
    for ln, line in enumerate(lines, 1):
        text = line.strip()
        if text and not text.startswith("#"):
            body.append((ln, text))
    if not body:
        raise InputError(f"{path}: empty voxel file")
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
    vals: list[float] = []
    for ln, text in body[1:]:
        for tok in text.split():
            try:
                vals.append(float(tok))
            except ValueError:
                raise InputError(f"{path}:{ln}: bad value {tok!r}") from None
        if len(vals) > nx * ny * nz:
            raise InputError(
                f"{path}:{ln}: more than {nx * ny * nz} values")
    if len(vals) != nx * ny * nz:
        raise InputError(
            f"{path}: expected {nx * ny * nz} values, got {len(vals)}")
    arr = np.array(vals, dtype=np.float64).reshape(nz, ny, nx)
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{path}: non-finite voxel values")
    return arr


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
        json.dump(obj, fh, sort_keys=True)
        fh.write("\n")


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
    for ln in range(i + count, len(lines)):
        if lines[ln].strip():
            raise InputError(
                f"{path}:{ln + 1}: a line after the last of {count} cells")
    return Filtration(np.array(values, dtype=np.float64),
                      np.array(dims, dtype=np.int32),
                      np.array(off, dtype=np.int64),
                      np.array(flat, dtype=np.int64), labels, meta, str)
