"""The four benchmark workloads: seeded inputs, the CLI calls of one op,
and the fingerprints its outputs are checked by.

Every workload has a fixed set of `per_run` input instances. Instance
`i` is generated with `phom.datagen` from datagen seed `i` and written
with `phom.io`; `refs.json` holds the output fingerprints of every
instance, recorded once with `record_refs.py`. A run seed only sets the
order in which a run goes through the instances, so every seed times
the same inputs and each has a reference. `per_run` is sized so that one
op on each instance takes about 15 s in all on a 2-CPU machine, and it
is at least 11, the fewest ops that give the tail figure a value.

Fingerprints:
- diagram CSVs: SHA-256 of the point rows. `#` metadata lines are left
  out, so a change of metadata alone (such as a new default
  `max_scale`) does not read as a wrong diagram;
- persistence-image JSON and series `score.csv`: SHA-256 of the whole
  file;
- distance reports: the value, compared to 1e-9, plus whether the value
  equals `phom.matching_cost` of the report's own matching to 1e-9.
"""

from __future__ import annotations

import hashlib
import math
import os

import numpy as np

import phom
from phom import cli, datagen, io

TOLERANCE = 1e-9


def run_calls(calls: list[list[str]]) -> str | None:
    """Run the CLI calls of one op in this process, stopping at the first
    failure. Returns None on success, else why the op failed.

    `cli.main` is looked up on each call, so a span wrapper installed on
    it is used.
    """
    for argv in calls:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            return f"SystemExit({exc.code})"
        except Exception as exc:  # any crash is a failed op, not a dead run
            return f"{type(exc).__name__}: {exc}"[:200]
        if code != 0:
            return f"exit code {code}"
    return None


def rows_sha(path: str) -> str:
    """SHA-256 of a diagram CSV without its `#` metadata lines."""
    with open(path, "rb") as fh:
        rows = [ln for ln in fh.read().splitlines(keepends=True)
                if not ln.startswith(b"#")]
    return hashlib.sha256(b"".join(rows)).hexdigest()


def file_sha(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def distance_fingerprint(report_path: str, a_path: str, b_path: str,
                         key: str) -> dict:
    report = io.read_distance_report(report_path)
    cost = phom.matching_cost(report, io.read_diagram_csv(a_path),
                              io.read_diagram_csv(b_path))
    return {key: report.value,
            key + "_matches_cost": abs(cost - report.value) <= TOLERANCE}


def matches(got: dict, ref: dict) -> bool:
    """Hashes and flags must be equal, distance values within 1e-9."""
    if got.keys() != ref.keys():
        return False
    for key, want in ref.items():
        have = got[key]
        if isinstance(want, float):
            if not (isinstance(have, float) and math.isfinite(have)
                    and abs(have - want) <= TOLERANCE):
                return False
        elif have != want:
            return False
    return True


class RipsAnnulus:
    """`phom rips` on an n=200 annulus cloud, H1, scale 0.6."""

    name = "rips-annulus"
    per_run = 11

    def make_input(self, inst: int, indir: str) -> None:
        pts = datagen.sample_annulus(200, noise=0.05, seed=inst)
        io.write_point_cloud(os.path.join(indir, f"cloud_{inst}.csv"), pts,
                             header="x,y")

    def calls(self, inst: int, indir: str, out: str) -> list[list[str]]:
        return [["rips", os.path.join(indir, f"cloud_{inst}.csv"),
                 "-o", os.path.join(out, "diagram.csv"),
                 "--max-scale", "0.6"]]

    def fingerprint(self, inst: int, indir: str, out: str) -> dict:
        return {"diagram.csv": rows_sha(os.path.join(out, "diagram.csv"))}


class GridCubical:
    """`phom image` sublevel and superlevel on a 128x128 diffusion field,
    `phom voxel` on a 24^3 grid, then `phom vectorize`."""

    name = "grid-cubical"
    per_run = 16

    def make_input(self, inst: int, indir: str) -> None:
        field = datagen.gen_diffusion_field(n=128, seed=inst)
        io.write_pgm(os.path.join(indir, f"field_{inst}.pgm"),
                     io.quantize_grid(field, 65535), maxval=65535)
        slices = [datagen.gen_diffusion_field(n=24, steps=5,
                                              seed=1000 * (inst + 1) + z)
                  for z in range(24)]
        io.write_voxel(os.path.join(indir, f"grid_{inst}.vox"),
                       np.stack(slices))

    def calls(self, inst: int, indir: str, out: str) -> list[list[str]]:
        pgm = os.path.join(indir, f"field_{inst}.pgm")
        sub = os.path.join(out, "sub.csv")
        return [["image", pgm, "-o", sub],
                ["image", pgm, "--superlevel", "-o",
                 os.path.join(out, "sup.csv")],
                ["voxel", os.path.join(indir, f"grid_{inst}.vox"),
                 "-o", os.path.join(out, "voxel.csv")],
                ["vectorize", sub, "-o", os.path.join(out, "image.json")]]

    def fingerprint(self, inst: int, indir: str, out: str) -> dict:
        fp = {name: rows_sha(os.path.join(out, name))
              for name in ("sub.csv", "sup.csv", "voxel.csv")}
        fp["image.json"] = file_sha(os.path.join(out, "image.json"))
        return fp


def noise_grid_diagram(seed: int, size: int, path: str) -> None:
    """H0/H1 sublevel diagram of a uniform-noise grid (diffusion, 0 steps)."""
    grid = datagen.gen_diffusion_field(n=size, steps=0, seed=seed)
    io.write_diagram_csv(path, phom.image_persistence(grid))


class DiagramDistance:
    """`phom distance`, bottleneck then Wasserstein p=2, between the H1
    diagrams (about 180 points each) of two 32x32 noise grids."""

    name = "diagram-distance"
    per_run = 12

    def make_input(self, inst: int, indir: str) -> None:
        for side, path in enumerate(self._pair(inst, indir)):
            noise_grid_diagram(2 * inst + side, 32, path)

    def _pair(self, key, indir: str) -> tuple[str, str]:
        return (os.path.join(indir, f"pd_{key}_0.csv"),
                os.path.join(indir, f"pd_{key}_1.csv"))

    def calls(self, inst, indir: str, out: str) -> list[list[str]]:
        a, b = self._pair(inst, indir)
        return [["distance", a, b, "-o", os.path.join(out, "bottleneck.json")],
                ["distance", a, b, "-o", os.path.join(out, "wasserstein.json"),
                 "--metric", "wasserstein", "--p", "2"]]

    def fingerprint(self, inst, indir: str, out: str) -> dict:
        a, b = self._pair(inst, indir)
        fp = distance_fingerprint(os.path.join(out, "bottleneck.json"), a, b,
                                  "bottleneck")
        fp.update(distance_fingerprint(os.path.join(out, "wasserstein.json"),
                                       a, b, "wasserstein"))
        return fp

    def make_probe(self, seed: int, indir: str) -> None:
        """The probe: H1 diagrams of two 64x64 noise grids, about 790
        points each, compared by one bottleneck call.

        It has no recorded reference, because it raised RecursionError
        at the commit that recorded refs.json; `probe_ok` checks the
        value against the report's own matching alone.
        """
        for side, path in enumerate(self._pair("probe", indir)):
            noise_grid_diagram(10_000 + 2 * seed + side, 64, path)

    def probe_calls(self, indir: str, out: str) -> list[list[str]]:
        return self.calls("probe", indir, out)[:1]

    def probe_ok(self, indir: str, out: str) -> bool:
        fp = distance_fingerprint(os.path.join(out, "bottleneck.json"),
                                  *self._pair("probe", indir), "bottleneck")
        return math.isfinite(fp["bottleneck"]) and fp["bottleneck_matches_cost"]


class SeriesWindows:
    """`phom series` on a perturbed periodic pair: n=256, window 32,
    stride 16, default max_scale. 15 windows, 15 small Rips complexes,
    15 bottleneck calls, 15 diagram files plus score.csv and a manifest."""

    name = "series-windows"
    per_run = 16

    def make_input(self, inst: int, indir: str) -> None:
        series = datagen.gen_periodic_pair(
            256, frequency=1.0 / 32.0,
            perturbation=datagen.Perturbation("scale", 0.35, 96, 128),
            noise_sigma=0.05, seed=inst)
        io.write_point_cloud(os.path.join(indir, f"series_{inst}.csv"),
                             series, header="f1,f2")

    def calls(self, inst: int, indir: str, out: str) -> list[list[str]]:
        return [["series", os.path.join(indir, f"series_{inst}.csv"),
                 "--out-dir", os.path.join(out, "run"),
                 "--window", "32", "--stride", "16"]]

    def fingerprint(self, inst: int, indir: str, out: str) -> dict:
        run = os.path.join(out, "run")
        names = sorted(n for n in os.listdir(run) if n.startswith("window_"))
        digest = hashlib.sha256()
        for name in names:
            digest.update(name.encode() + b"\n")
            digest.update(rows_sha(os.path.join(run, name)).encode() + b"\n")
        return {"windows": len(names), "windows.csv": digest.hexdigest(),
                "score.csv": file_sha(os.path.join(run, "score.csv"))}


WORKLOADS = {w.name: w for w in (RipsAnnulus(), GridCubical(),
                                 DiagramDistance(), SeriesWindows())}


def instances(workload) -> list[int]:
    """The input instances of a workload."""
    return list(range(workload.per_run))


def instances_for(workload, seed: int) -> list[int]:
    """The instances in the op order of a run seed."""
    rng = np.random.default_rng(seed)
    return [int(i) for i in rng.permutation(instances(workload))]
