"""Span tracing of phom's modules from outside the program.

A `Tracer` replaces public functions with wrappers where the calling
module looks them up (`phom.cli.rips_filtration`, the `compute_persistence`
that `phom.cubical` imported, the `phom.io` module functions that the CLI
reaches through `io.`). Each call records a span (name, start, end,
parent span, op id) in memory, and some wrappers add counts taken from
the call's arguments or returned objects. `uninstall` puts the original
functions back, so untraced ops run the program unchanged.

Span names are `<layer>.<what>`; the layer is the phom module.
"""

from __future__ import annotations

import functools
import json
import os
import time
import tracemalloc
from collections import defaultdict

import numpy as np

from phom import cli, cubical, datagen, io


def _complex_counts(counts, args, kwargs, K) -> None:
    dims = np.asarray(K.dims)
    counts["simplicial.cells"] += int(dims.size)
    counts["simplicial.triangles"] += int(np.count_nonzero(dims == 2))


def _reduction_counts(counts, args, kwargs, result) -> None:
    """Columns the twist reduction worked on, pairs and diagram points.

    The reduction runs dimensions build_dim..1 and skips (clears) every
    column whose cell was already paired as a birth of dimension >= 1.
    """
    diagram, pairing = result
    dims = np.asarray(pairing.complex.dims)
    top = int(dims.max()) if dims.size else 0
    build_dim = min(top, pairing.max_dim + 1)
    births = np.fromiter((i for i, _ in pairing.pairs), dtype=np.int64,
                         count=len(pairing.pairs))
    cleared = int(np.count_nonzero(dims[births] >= 1)) if births.size else 0
    counts["persistence.columns"] += int(
        np.count_nonzero((dims >= 1) & (dims <= build_dim))) - cleared
    counts["persistence.pairs"] += len(pairing.pairs)
    counts["persistence.points"] += len(diagram.points)
    counts["persistence.useful_points"] += sum(
        1 for d, _, _ in diagram.points if d >= 1)


def _cubical_cells(counts, args, kwargs, result) -> None:
    counts["cubical.cells"] += len(args[0].values)
    _reduction_counts(counts, args, kwargs, result)


def _distance_counts(counts, args, kwargs, result) -> None:
    dim = int(kwargs.get("dim", args[2] if len(args) > 2 else 1))
    counts["distances.points"] += sum(
        sum(1 for d, _, _ in pd.points if d == dim) for pd in args[:2])
    counts["distances.calls"] += 1


def _image_counts(counts, args, kwargs, result) -> None:
    dim = int(kwargs.get("dim", args[1] if len(args) > 1 else 0))
    counts["vectorize.points"] += sum(1 for d, _, _ in args[0].points
                                      if d == dim)


def _written(counts, args, kwargs, result) -> None:
    counts["io.files_written"] += 1
    counts["io.bytes_written"] += os.path.getsize(args[0])


def op_targets() -> list[tuple[object, str, str, object]]:
    """(owner, attribute, span name, count function) for every traced call
    an op can make."""
    targets = [
        (cli, "main", "cli.main", None),
        (cli, "point_cloud_distances", "simplicial.distances", None),
        (cli, "rips_filtration", "simplicial.rips", _complex_counts),
        (cli, "compute_persistence", "persistence.reduce",
         _reduction_counts),
        (cli, "image_persistence", "cubical.image", None),
        (cli, "superlevel_persistence", "cubical.superlevel", None),
        (cli, "voxel_persistence", "cubical.voxel", None),
        (cubical, "compute_persistence", "persistence.reduce",
         _cubical_cells),
        (cli, "bottleneck_distance", "distances.bottleneck",
         _distance_counts),
        (cli, "wasserstein_distance", "distances.wasserstein",
         _distance_counts),
        (cli, "persistence_image", "vectorize.image", _image_counts),
        (cli, "sliding_windows", "datagen.windows", None),
    ]
    for name in sorted(vars(io)):
        if name.startswith(("read_", "write_")) and callable(getattr(io, name)):
            targets.append((io, name, f"io.{name}",
                            _written if name.startswith("write_") else None))
    return targets


def setup_targets() -> list[tuple[object, str, str, object]]:
    """The generators the benchmark's own set-up calls."""
    return [(datagen, name, f"datagen.{name}", None)
            for name in ("sample_annulus", "gen_diffusion_field",
                         "gen_periodic_pair")]


class Tracer:
    """Spans and counts of traced calls, per op id ("setup" for set-up)."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, dict[str, int]] = defaultdict(
            lambda: defaultdict(int))
        self.op = "setup"
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _patch(self, owner, attr: str, make_wrapper) -> None:
        """Replace owner.attr by make_wrapper(original) until uninstall."""
        orig = getattr(owner, attr)
        self._saved.append((owner, attr, orig))
        setattr(owner, attr, functools.wraps(orig)(make_wrapper(orig)))

    def install(self, targets) -> None:
        for owner, attr, span, count in targets:
            self._patch(owner, attr, functools.partial(
                self._spanned, span=span, count=count))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def _spanned(self, fn, span: str, count):
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            rec = [span, 0.0, 0.0, self._stack[-1] if self._stack else None,
                   self.op]
            self.spans.append(rec)
            self._stack.append(sid)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(self.counts[self.op], args, kwargs, result)
            return result
        return wrapper

    def _durations(self, op):
        """(span, duration, time in its direct children) for one op's spans."""
        sids = [i for i, s in enumerate(self.spans) if s[4] == op]
        child: dict[int, float] = defaultdict(float)
        for i in sids:
            name, start, end, parent, _ = self.spans[i]
            if parent is not None:
                child[parent] += end - start
        return [(self.spans[i], self.spans[i][2] - self.spans[i][1], child[i])
                for i in sids]

    def inclusive(self, op, prefix: str) -> float:
        """Seconds in spans whose name starts with `prefix`, counting a
        span nested in another such span once."""
        total = 0.0
        for span, dur, _ in self._durations(op):
            parent = self.spans[span[3]] if span[3] is not None else None
            if span[0].startswith(prefix) and not (
                    parent is not None and parent[0].startswith(prefix)):
                total += dur
        return total

    def self_time(self, op, layer: str) -> float:
        """Seconds spent in a layer's spans outside their child spans."""
        return sum(dur - child for span, dur, child in self._durations(op)
                   if span[0].split(".")[0] == layer)

    def alloc_peaks(self, run_op) -> dict[str, float]:
        """Peak bytes allocated inside Rips builds and reductions, in MB.

        Runs one op with only these wrappers installed. Each wrapped call
        runs under tracemalloc, started at its entry and stopped at its
        exit, so its peak counts only what the call itself allocated and
        the rest of the op runs at full speed. The largest peak over the
        op is kept.
        """
        peaks = {"simplicial.alloc_peak_mb": 0.0,
                 "persistence.alloc_peak_mb": 0.0}

        def measured(fn, key):
            def wrapper(*args, **kwargs):
                tracemalloc.start()
                try:
                    return fn(*args, **kwargs)
                finally:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    peaks[key] = max(peaks[key], peak / 2 ** 20)
            return wrapper

        for owner, attr, key in [
                (cli, "rips_filtration", "simplicial.alloc_peak_mb"),
                (cli, "compute_persistence", "persistence.alloc_peak_mb"),
                (cubical, "compute_persistence",
                 "persistence.alloc_peak_mb")]:
            self._patch(owner, attr, functools.partial(measured, key=key))
        try:
            run_op()
        finally:
            self.uninstall()
        return peaks

    def write(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for sid, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "op": op}) + "\n")
