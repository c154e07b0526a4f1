"""Command line front end.

Every run resolves its parameters up front, executes, and drops a
run-manifest JSON next to the outputs; `phom --manifest FILE` re-runs a
manifest and reproduces the outputs byte for byte (seeds are stored
resolved, so later environment changes cannot leak in).

Exit codes: 0 success, 2 malformed input data, 3 bad parameters (an
output that cannot be written included), 4 internal error (an invariant
breach or any unexpected exception).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import Iterable

import numpy as np

from . import __version__, io
from .cubical import (build_cubical_filtration, image_persistence,
                      superlevel_persistence, voxel_persistence)
from .datagen import (Perturbation, gen_diffusion_field, gen_periodic_pair,
                      kde_grid, sample_annulus, sample_double_annulus,
                      sliding_windows)
from .distances import bottleneck_distance, wasserstein_distance
from .errors import InputError, InternalError, ParameterError
from .persistence import (check_budget, compute_persistence,
                          representative_cycle, sparsify_cycle)
from .simplicial import (_BLOCK_ENTRIES, point_cloud_distances,
                         rips_filtration, rips_persistence,
                         rips_persistence_batch)
from .svgplot import save_diagram_svg
from .vectorize import persistence_image


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ParameterError(message)


def _resolve_seed(seed: int | None) -> int:
    if seed is not None:
        return int(seed)
    env = os.environ.get("PH_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise ParameterError(f"PH_SEED={env!r} is not an integer") from None


def _sibling(output: str, suffix: str) -> str:
    stem, _ = os.path.splitext(output)
    return stem + suffix


# ------------------------------------------------------------------ rips

def _enclosing_scale(dmats: Iterable[np.ndarray], conv: str) -> float:
    """Default `max_scale`: the largest enclosing radius of the matrices.

    The enclosing radius is min_i max_j of the edge values (halved
    distances under the radius convention).  From it on, one vertex is
    joined to all others and the complex is a cone, so a larger scale
    gives the same diagram points.  Falls back to 1.0 when it is 0.
    """
    radius = max(float(d.max(axis=1).min()) for d in dmats)
    if conv == "radius":
        radius /= 2.0
    return radius if radius > 0 else 1.0


def run_rips(p: dict) -> None:
    if p["distance_matrix"]:
        d = io.read_distance_matrix(p["input"])
        cloud_dim = None
    else:
        cloud = io.read_point_cloud(p["input"])
        cloud_dim = cloud.shape[1]
        d = point_cloud_distances(cloud)
    n = d.shape[0]
    conv = p["convention"]
    hdim = p["max_dim"]
    if hdim is None:
        hdim = 2 if (cloud_dim is not None and cloud_dim >= 3) else 1
    max_scale = p["max_scale"]
    if max_scale is None:
        max_scale = _enclosing_scale([d], conv)
    diagram = rips_persistence(
        d, int(hdim), max_scale, conv,
        metadata={"filtration": "rips", "convention": conv,
                  "max_scale": float(max_scale)})
    io.write_diagram_csv(p["output"], diagram)
    if p["svg"]:
        save_diagram_svg(_sibling(p["output"], ".svg"), diagram,
                         title="Rips persistence")
    if p["save_complex"]:
        simplex_dim = min(int(hdim) + 1, n - 1) if n > 1 else 0
        io.write_complex_cache(p["save_complex"],
                               rips_filtration(d, simplex_dim, max_scale,
                                               conv),
                               meta={"kind": "rips", "convention": conv})


# ----------------------------------------------------------- image / voxel

def run_cubical(p: dict, read, persistence, title: str) -> None:
    """`image` and `voxel`: read a grid, then the same cubical pipeline."""
    g = read(p["input"])
    if p["superlevel"]:
        diagram = superlevel_persistence(g, max_dim=p["max_dim"])
    else:
        diagram = persistence(g, max_dim=p["max_dim"])
    io.write_diagram_csv(p["output"], diagram)
    if p["svg"]:
        save_diagram_svg(_sibling(p["output"], ".svg"), diagram, title=title)
    if p["save_complex"]:
        grid = -g if p["superlevel"] else g
        kind = "cubical-superlevel" if p["superlevel"] else "cubical-sublevel"
        io.write_complex_cache(p["save_complex"],
                               build_cubical_filtration(grid),
                               meta={"kind": kind})


# ------------------------------------------------------------- vectorize

def run_vectorize(p: dict) -> None:
    pd = io.read_diagram_csv(p["input"])
    support = None
    if p["range"] is not None:
        b0, b1, p0, p1 = (float(v) for v in p["range"])
        support = ((b0, b1), (p0, p1))
    img = persistence_image(
        pd, dim=int(p["dim"]),
        resolution=(int(p["resolution"][0]), int(p["resolution"][1])),
        sigma=p["sigma"], support=support, weight=p["weight"],
        essentials=p["essentials"])
    io.write_image_json(p["output"], img)


# -------------------------------------------------------------- distance

def run_distance(p: dict) -> None:
    pd1 = io.read_diagram_csv(p["input_a"])
    pd2 = io.read_diagram_csv(p["input_b"])
    if p["metric"] == "bottleneck":
        report = bottleneck_distance(pd1, pd2, dim=int(p["dim"]))
    else:
        report = wasserstein_distance(pd1, pd2, dim=int(p["dim"]),
                                      p=float(p["p"]))
    io.write_distance_report(p["output"], report)


# ---------------------------------------------------------------- series

def run_series(p: dict) -> None:
    series = io.read_point_cloud(p["input"])
    if series.shape[1] != 2:
        raise InputError(
            f"{p['input']}: series file needs exactly 2 columns")
    wins = sliding_windows(series, int(p["window"]), int(p["stride"]))
    conv = p["convention"]
    # Every window's distances are checked before the out dir exists;
    # each matrix is dropped once its radius is read.
    radius = _enclosing_scale(map(point_cloud_distances, wins), conv)
    max_scale = radius if p["max_scale"] is None else p["max_scale"]
    os.makedirs(p["out_dir"], exist_ok=True)
    diagrams = []
    # Equal-size windows go to the engine together, in chunks whose
    # stacked rank matrices hold about _BLOCK_ENTRIES entries; a chunk's
    # matrices are built again when it is reached.
    step = max(1, _BLOCK_ENTRIES // len(wins[0]) ** 2)
    for s in range(0, len(wins), step):
        diagrams += rips_persistence_batch(
            [point_cloud_distances(w) for w in wins[s:s + step]], 1,
            max_scale, conv,
            [{"filtration": "rips", "convention": conv,
              "max_scale": float(max_scale), "window": k}
             for k in range(s, min(s + step, len(wins)))])
        for k in range(s, len(diagrams)):
            io.write_diagram_csv(
                os.path.join(p["out_dir"], f"window_{k:03d}.csv"),
                diagrams[k])
    with open(os.path.join(p["out_dir"], "score.csv"), "w",
              encoding="ascii") as fh:
        fh.write("window,bottleneck\n")
        for k, dg in enumerate(diagrams):
            val = bottleneck_distance(dg, diagrams[0], dim=1).value
            text = "inf" if math.isinf(val) else repr(float(val))
            fh.write(f"{k},{text}\n")


# -------------------------------------------------------------- sparsify

def run_sparsify(p: dict) -> None:
    budget = check_budget(int(p["budget"]))
    K = io.read_complex_cache(p["complex"])
    pd = io.read_diagram_csv(p["diagram"])
    idx = int(p["point"])
    if not 0 <= idx < len(pd):
        raise ParameterError(
            f"--point {idx} outside diagram with {len(pd)} points")
    point = tuple(c[idx].item() for c in (pd.dims, pd.births, pd.deaths))
    _, pairing = compute_persistence(K)
    try:
        cycle = representative_cycle(pairing, point)
    except ParameterError:
        raise InputError(
            f"diagram point {point} not found in the cached complex; "
            "diagram and cache disagree") from None
    sparse = sparsify_cycle(cycle, budget=budget)
    d, b, dth = point
    obj = {
        "point": {"dim": d, "birth": b,
                  "death": "inf" if math.isinf(dth) else dth},
        "size_before": len(cycle),
        "size": len(sparse),
        "budget": budget,
        "cells_before": cycle.labels(),
        "cells": sparse.labels(),
    }
    with open(p["output"], "w", encoding="ascii") as fh:
        fh.write(json.dumps(obj, sort_keys=True) + "\n")


# ------------------------------------------------------------------- gen

def run_gen(p: dict) -> None:
    kind = p["kind"]
    if kind == "annulus":
        pts = sample_annulus(int(p["n"]), radius=float(p["radius"]),
                             noise=float(p["noise"]), seed=int(p["seed"]))
        io.write_point_cloud(p["output"], pts, header="x,y")
    elif kind == "double-annulus":
        pts = sample_double_annulus(
            int(p["n"]), radii=(float(p["radii"][0]), float(p["radii"][1])),
            separation=float(p["separation"]), noise=float(p["noise"]),
            seed=int(p["seed"]))
        io.write_point_cloud(p["output"], pts, header="x,y")
    elif kind == "periodic":
        pert = None
        if p["perturb"] is not None:
            q = p["perturb"]
            pert = Perturbation(str(q["kind"]), float(q["magnitude"]),
                                int(q["start"]), int(q["end"]))
        arr = gen_periodic_pair(
            int(p["n"]), amplitude=float(p["amplitude"]),
            frequency=float(p["frequency"]), perturbation=pert,
            noise_sigma=float(p["noise"]), seed=int(p["seed"]))
        io.write_point_cloud(p["output"], arr, header="f1,f2")
    elif kind == "diffusion":
        u = gen_diffusion_field(n=int(p["size"]), coeff=float(p["coeff"]),
                                steps=int(p["steps"]), dt=float(p["dt"]),
                                seed=int(p["seed"]))
        if p["format"] == "vox":
            io.write_voxel(p["output"], u)
        else:
            io.write_pgm(p["output"], io.quantize_grid(u, 65535),
                         maxval=65535)
    elif kind == "kde":
        pts = io.read_point_cloud(p["input"])
        if pts.shape[1] != 2:
            raise InputError(f"{p['input']}: kde needs a 2-column cloud")
        field = kde_grid(pts, resolution=int(p["resolution"]),
                         bandwidth=p["bandwidth"])
        io.write_voxel(p["output"], field.values)
    else:
        raise ParameterError(f"unknown generator {kind!r}")


def _run(sub: str, p: dict) -> None:
    """Run subcommand sub on params p, then record p as its manifest:
    `run.manifest.json` in a series' out_dir, else the `.manifest.json`
    sibling of the output."""
    RUNNERS[sub](p)
    path = (os.path.join(p["out_dir"], "run.manifest.json") if sub == "series"
            else _sibling(p["output"], ".manifest.json"))
    obj = {"tool": "phom", "version": __version__,
           "subcommand": sub, "params": p}
    with open(path, "w", encoding="ascii") as fh:
        fh.write(json.dumps(obj, sort_keys=True) + "\n")


def _cmd(args) -> None:
    """Run a subcommand; its parsed options are its manifest params.

    A generator's seed is stored resolved and its --perturb as a typed
    dict, so a replay does not depend on the environment.
    """
    p = {k: v for k, v in vars(args).items()
         if k not in ("manifest", "subcommand")}
    if "seed" in p:
        p["seed"] = _resolve_seed(p["seed"])
    if p.get("perturb") is not None:
        kind, mag, start, end = p["perturb"]
        try:
            p["perturb"] = {"kind": kind, "magnitude": float(mag),
                            "start": int(start), "end": int(end)}
        except ValueError as exc:
            raise ParameterError(f"bad --perturb: {exc}") from None
    _run(args.subcommand, p)


# The reader and the persistence function are looked up on each call, so
# replacing a module attribute (io.read_pgm, image_persistence) takes effect.
RUNNERS = {
    "rips": run_rips,
    "image": lambda p: run_cubical(p, io.read_pgm, image_persistence,
                                   "Cubical persistence"),
    "voxel": lambda p: run_cubical(p, io.read_voxel, voxel_persistence,
                                   "Voxel persistence"),
    "vectorize": run_vectorize,
    "distance": run_distance,
    "series": run_series,
    "sparsify": run_sparsify,
    "gen": run_gen,
}


def replay_manifest(path: str) -> None:
    """Re-run a recorded manifest once its params pass _check_params."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            obj = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or bytes
        raise InputError(f"{path}: cannot read manifest: {exc}") from None
    if not isinstance(obj, dict) or obj.get("tool") != "phom":
        raise InputError(f"{path}: not a phom run manifest")
    sub = obj.get("subcommand")
    if sub not in RUNNERS:
        raise InputError(f"{path}: unknown subcommand {sub!r}")
    params = obj.get("params")
    if not isinstance(params, dict):
        raise InputError(f"{path}: manifest params must be an object")
    subs = next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    _check_params(path, subs.choices[sub], params)
    _run(sub, params)


def _is(kind, value) -> bool:
    """Whether value has the JSON type of argparse type kind (None: str)."""
    if kind in (int, float):
        return (isinstance(value, int if kind is int else (int, float))
                and not isinstance(value, bool))
    return isinstance(value, str)


# _cmd records these resolved, not as the parser gives them.
_RESOLVED = {
    "seed": lambda v: _is(int, v),
    "perturb": lambda v: v is None or (isinstance(v, dict) and all(
        k in v and _is(t, v[k]) for k, t in
        (("kind", str), ("magnitude", float), ("start", int), ("end", int)))),
}


def _check_params(path: str, parser: argparse.ArgumentParser,
                  params: dict) -> None:
    """InputError naming the first param that parser records (through
    _cmd) but a replayed manifest lacks, or whose JSON type (or choice)
    parser and _cmd cannot record."""
    for act in parser._actions:
        if act.default == argparse.SUPPRESS:  # --help records nothing
            continue
        if act.dest not in params:
            raise InputError(f"{path}: manifest params lack {act.dest!r}")
        v = params[act.dest]
        if isinstance(act, argparse._SubParsersAction):
            ok = isinstance(v, str) and v in act.choices
        elif act.dest in _RESOLVED:
            ok = _RESOLVED[act.dest](v)
        elif isinstance(act, argparse._StoreTrueAction):
            ok = isinstance(v, bool)
        elif v is None:
            ok = act.default is None and not act.required
        elif isinstance(act.nargs, int):
            ok = (isinstance(v, list) and len(v) == act.nargs
                  and all(_is(act.type, x) for x in v))
        else:
            ok = _is(act.type, v) and (not act.choices or v in act.choices)
        if not ok:
            raise InputError(
                f"{path}: manifest param {act.dest!r} has a wrong type or "
                f"value: {v!r}")
        if isinstance(act, argparse._SubParsersAction):
            _check_params(path, act.choices[v], params)


@functools.cache
def build_parser() -> _Parser:
    top = _Parser(prog="phom",
                  description="Persistent homology pipelines")
    top.add_argument("--manifest", metavar="FILE",
                     help="replay a recorded run instead of a subcommand")
    top.add_argument("--version", action="version",
                     version=f"phom {__version__}")
    sub = top.add_subparsers(dest="subcommand")

    q = sub.add_parser("rips", help="Rips persistence of a point cloud")
    q.add_argument("input")
    q.add_argument("-o", "--output", required=True)
    q.add_argument("--distance-matrix", action="store_true",
                   help="input is a distance matrix, not a cloud")
    q.add_argument("--max-dim", type=int, default=None,
                   help="largest homology dimension (default 1, or 2 for "
                        "3-d clouds)")
    q.add_argument("--max-scale", type=float, default=None)
    q.add_argument("--convention", choices=["radius", "diameter"],
                   default="radius")
    q.add_argument("--svg", action="store_true")
    q.add_argument("--save-complex", metavar="FILE", default=None)

    for name, what in (("image", "a PGM/PPM"), ("voxel", "a voxel grid")):
        q = sub.add_parser(name, help=f"cubical persistence of {what}")
        q.add_argument("input")
        q.add_argument("-o", "--output", required=True)
        q.add_argument("--superlevel", action="store_true")
        q.add_argument("--max-dim", type=int, default=None)
        q.add_argument("--svg", action="store_true")
        q.add_argument("--save-complex", metavar="FILE", default=None)

    q = sub.add_parser("vectorize", help="diagram to persistence image")
    q.add_argument("input")
    q.add_argument("-o", "--output", required=True)
    q.add_argument("--dim", type=int, default=1)
    q.add_argument("--resolution", type=int, nargs=2, default=[20, 20],
                   metavar=("NB", "NP"))
    q.add_argument("--sigma", type=float, default=None)
    q.add_argument("--range", type=float, nargs=4, default=None,
                   metavar=("B0", "B1", "P0", "P1"))
    q.add_argument("--weight", choices=["linear", "constant"],
                   default="linear")
    q.add_argument("--essentials", choices=["auto", "cap", "skip"],
                   default="auto")

    q = sub.add_parser("distance", help="distance between two diagrams")
    q.add_argument("input_a")
    q.add_argument("input_b")
    q.add_argument("-o", "--output", required=True)
    q.add_argument("--metric", choices=["bottleneck", "wasserstein"],
                   default="bottleneck")
    q.add_argument("--p", type=float, default=2.0)
    q.add_argument("--dim", type=int, default=1)

    q = sub.add_parser("series",
                       help="sliding-window loop scores of a 2-column series")
    q.add_argument("input")
    q.add_argument("--out-dir", required=True)
    q.add_argument("--window", type=int, default=64)
    q.add_argument("--stride", type=int, default=64)
    q.add_argument("--max-scale", type=float, default=None)
    q.add_argument("--convention", choices=["radius", "diameter"],
                   default="radius")

    q = sub.add_parser("sparsify", help="shrink a representative cycle")
    q.add_argument("--complex", required=True, metavar="CACHE")
    q.add_argument("--diagram", required=True, metavar="CSV")
    q.add_argument("--point", type=int, required=True,
                   help="row index into the diagram CSV")
    q.add_argument("--budget", type=int, default=20)
    q.add_argument("-o", "--output", required=True)

    q = sub.add_parser("gen", help="seeded data generators")
    gensub = q.add_subparsers(dest="kind", required=True)

    g = gensub.add_parser("annulus")
    g.add_argument("-n", type=int, default=200)
    g.add_argument("--radius", type=float, default=1.0)
    g.add_argument("--noise", type=float, default=0.0)
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("-o", "--output", required=True)

    g = gensub.add_parser("double-annulus")
    g.add_argument("-n", type=int, default=200)
    g.add_argument("--radii", type=float, nargs=2, default=[1.0, 1.0])
    g.add_argument("--separation", type=float, default=1.2)
    g.add_argument("--noise", type=float, default=0.0)
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("-o", "--output", required=True)

    g = gensub.add_parser("periodic")
    g.add_argument("-n", type=int, default=256)
    g.add_argument("--amplitude", type=float, default=1.0)
    g.add_argument("--frequency", type=float, default=1.0 / 64.0)
    g.add_argument("--noise", type=float, default=0.0)
    g.add_argument("--perturb", nargs=4, default=None,
                   metavar=("KIND", "MAG", "START", "END"))
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("-o", "--output", required=True)

    g = gensub.add_parser("diffusion")
    g.add_argument("--size", type=int, default=32)
    g.add_argument("--coeff", type=float, default=0.5)
    g.add_argument("--steps", type=int, default=50)
    g.add_argument("--dt", type=float, default=0.2)
    g.add_argument("--format", choices=["vox", "pgm"], default="vox")
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("-o", "--output", required=True)

    g = gensub.add_parser("kde")
    g.add_argument("input", help="2-column point cloud CSV")
    g.add_argument("--resolution", type=int, default=64)
    g.add_argument("--bandwidth", type=float, default=None)
    g.add_argument("-o", "--output", required=True)

    return top


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.manifest is not None:
            if args.subcommand is not None:
                raise ParameterError(
                    "--manifest replaces the subcommand")
            replay_manifest(args.manifest)
            return 0
        if args.subcommand is None:
            raise ParameterError("a subcommand is required (see --help)")
        _cmd(args)
        return 0
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # reads raise InputError: an unwritable output
        print(f"error: {exc.filename}: {exc.strerror or exc}",
              file=sys.stderr)
        return 3
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # a bug, not bad input: never a traceback
        msg = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {msg}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
