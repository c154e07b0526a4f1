"""Golden bytes for the commands that `test_rips_golden.py` does not pin:
every `phom gen` kind, `image` (sub- and superlevel), `voxel`,
`vectorize`, bottleneck and Wasserstein `distance`, and `sparsify` on a
cubical cache.

Each case runs small, seeded inputs through `cli.main` and hashes its
output files (SHA-256 over the files in order).  Manifests hold input
paths and are left out.  The hashes were recorded under the numpy and
scipy versions in RECORDED; a mismatch under other versions may come from
the libraries rather than from phom, and the failure message says which
versions were used.
"""

import hashlib

import numpy as np
import pytest
import scipy

from phom import cli
from phom.io import read_diagram_csv, write_voxel

RECORDED = {"numpy": "2.4.6", "scipy": "1.17.1"}


def run(*argv):
    assert cli.main([str(a) for a in argv]) == 0


def digest(*paths):
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


def gen_outputs(tmp):
    """One output per generator kind; the kde reads the annulus."""
    out = {k: tmp / f"{k}.{ext}" for k, ext in (
        ("annulus", "csv"), ("double-annulus", "csv"), ("periodic", "csv"),
        ("diffusion-vox", "vox"), ("diffusion-pgm", "pgm"), ("kde", "vox"))}
    run("gen", "annulus", "-n", 40, "--noise", 0.05, "--seed", 2,
        "-o", out["annulus"])
    run("gen", "double-annulus", "-n", 40, "--radii", 1.0, 0.7,
        "--noise", 0.05, "--seed", 3, "-o", out["double-annulus"])
    run("gen", "periodic", "-n", 64, "--noise", 0.02, "--perturb", "shift",
        0.3, 20, 30, "--seed", 5, "-o", out["periodic"])
    run("gen", "diffusion", "--size", 12, "--steps", 10, "--seed", 4,
        "-o", out["diffusion-vox"])
    run("gen", "diffusion", "--size", 12, "--steps", 10, "--seed", 4,
        "--format", "pgm", "-o", out["diffusion-pgm"])
    run("gen", "kde", out["annulus"], "--resolution", 16,
        "-o", out["kde"])
    return out


def image_outputs(tmp):
    """Diagrams of a diffusion image, sub- and superlevel, with SVG; a
    voxel diagram of a 6^3 noise grid; their caches."""
    g = gen_outputs(tmp)
    out = {}
    for name, extra in (("image", []), ("image-super", ["--superlevel"])):
        out[name] = tmp / f"{name}.csv"
        run("image", g["diffusion-pgm"], "-o", out[name], "--svg",
            "--save-complex", tmp / f"{name}.cplx", *extra)
    vox = tmp / "noise.vox"
    write_voxel(str(vox), np.random.default_rng(8).uniform(size=(6, 6, 6)))
    out["voxel"] = tmp / "voxel.csv"
    run("voxel", vox, "-o", out["voxel"], "--svg")
    return out


def case_gen(tmp):
    return list(gen_outputs(tmp).values())


def case_image(tmp):
    d = image_outputs(tmp)
    return [d["image"], tmp / "image.svg", tmp / "image.cplx"]


def case_image_superlevel(tmp):
    d = image_outputs(tmp)
    return [d["image-super"], tmp / "image-super.svg",
            tmp / "image-super.cplx"]


def case_voxel(tmp):
    d = image_outputs(tmp)
    return [d["voxel"], tmp / "voxel.svg"]


def case_vectorize(tmp):
    d = image_outputs(tmp)
    outs = []
    for dim, extra in ((0, ["--essentials", "cap"]),
                       (1, ["--weight", "constant", "--sigma", 0.01])):
        outs.append(tmp / f"pi{dim}.json")
        run("vectorize", d["image"], "-o", outs[-1], "--dim", dim,
            "--resolution", 8, 6, *extra)
    return outs


def case_distance(tmp):
    d = image_outputs(tmp)
    outs = []
    for dim in (0, 1):
        for metric in ("bottleneck", "wasserstein"):
            outs.append(tmp / f"{metric}{dim}.json")
            run("distance", d["image"], d["image-super"], "-o", outs[-1],
                "--metric", metric, "--dim", dim)
    return outs


def case_sparsify(tmp):
    d = image_outputs(tmp)
    outs = []
    for i in range(min(len(read_diagram_csv(str(d["image"]))), 6)):
        outs.append(tmp / f"sparse{i}.json")
        run("sparsify", "--complex", tmp / "image.cplx", "--diagram",
            d["image"], "--point", i, "--budget", 4, "-o", outs[-1])
    return outs


CASES = {
    "gen": case_gen,
    "image": case_image,
    "image-superlevel": case_image_superlevel,
    "voxel": case_voxel,
    "vectorize": case_vectorize,
    "distance": case_distance,
    "sparsify": case_sparsify,
}

GOLDEN = {
    "distance":
        "d66d0ba364bc094e8d9e0fa5475278b3a4b4b38b0c4fbf3b9100628087f3634c",
    "gen":
        "1cad2aa47a420984adf028ab8de4f2962b12c5c635395f3bbe2248ac00768a2e",
    "image":
        "cdcb5d6ac6659edd8c38aa2a5b6c16e149f5289fcbe6daaa96717b3c54fd7103",
    "image-superlevel":
        "0b923132d2eace7744df6396d327bdeece1efa1e4ba9fc86fa20577ed8c061f0",
    "sparsify":
        "49dd0bbf4ff3fa2fc7e0b758175eb50064ebfeb932cfa3dc7de560ecaeae501c",
    "vectorize":
        "ff4b02d9e5b31f8f8e4d2e9a96b537c1b66a9c88f828efdb83bbba8a3cd064a8",
    "voxel":
        "7d0f33556ce72aa706e106da2b0a4db4ce348d5bf0ec1dade5e888b5622b45db",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_bytes(tmp_path, name):
    got = digest(*CASES[name](tmp_path))
    versions = {"numpy": np.__version__, "scipy": scipy.__version__}
    assert got == GOLDEN[name], (
        f"{name}: output bytes changed (sha256 {got}); recorded under "
        f"{RECORDED}, run under {versions}")
