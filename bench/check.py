"""Output check of one hardykit CLI run against the benchmark's reference.

`extract()` reads an outdir into the facts the check compares: the file list,
the verdict fields (compared exactly) and the numeric outputs (compared to a
relative tolerance).  reference.json holds these facts for every CLI run of
every workload, captured with `python3 bench/run.py --write-reference`.
"""

from __future__ import annotations

import json
from pathlib import Path

# rounding level: reordered float sums or a refactored solver may move the
# last digits, never more
RTOL = 1e-8


def _column(path: Path, name: str) -> list:
    lines = path.read_text().splitlines()
    i = lines[0].split(",").index(name)
    return [float(line.split(",")[i]) for line in lines[1:]]


def extract(outdir: Path) -> dict:
    files = sorted(p.name for p in outdir.iterdir())
    exact, approx = {}, {}

    def load(name):
        return json.loads((outdir / name).read_text())

    if "hypotheses.json" in files:
        h = load("hypotheses.json")
        exact["classification"] = h["classification"]
        exact["h2_prime"] = h["h2_prime"]
        exact["N0"] = h["profile"]["N0"]
        approx["c0_mu"] = [h["profile"]["c0_mu"]]
    if "sweep.json" in files:
        exact["c_hat"] = load("sweep.json")["c_hat"]
    if "sharpness.json" in files:
        s = load("sharpness.json")
        exact["strictly_decreasing"] = s["phi_n"]["strictly_decreasing"]
        exact["constant_attained_hint"] = s["constant_attained_hint"]
        approx["phi_n.quotient"] = _column(outdir / "phi_n.csv", "quotient")
        approx["phi_gamma.quotient"] = _column(outdir / "phi_gamma.csv", "quotient")
    if "evolution.json" in files:
        e = load("evolution.json")
        exact["verdict"] = e["verdict"]
        exact["spectral_verdict"] = e["spectral_verdict"]
        approx["evolution.norm"] = _column(outdir / "evolution.csv", "norm")
    return {"files": files, "exact": exact, "approx": approx}


def _close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= RTOL * max(abs(a), abs(b))


def problems(outdir: Path, schemas: dict, reference: dict) -> list:
    """Every way the outdir differs from `reference`; empty when it passes."""
    found = []
    for path in sorted(outdir.glob("*.csv")):
        header = path.read_text().split("\n", 1)[0].split(",")
        if header != schemas.get(path.name):
            found.append(f"{path.name}: header {header} is not {schemas.get(path.name)}")
    try:
        facts = extract(outdir)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return found + [f"unreadable outputs: {exc!r}"]
    if facts["files"] != reference["files"]:
        found.append(f"files {facts['files']} are not {reference['files']}")
    for key, want in reference["exact"].items():
        got = facts["exact"].get(key)
        if got != want:
            found.append(f"{key} = {got!r}, reference {want!r}")
    for key, want in reference["approx"].items():
        got = facts["approx"].get(key, [])
        if len(got) != len(want) or not all(map(_close, got, want)):
            worst = max((abs(a - b) / max(abs(a), abs(b), 1e-300)
                         for a, b in zip(got, want)), default=float("nan"))
            found.append(f"{key}: {len(got)} values vs {len(want)}, "
                         f"worst relative difference {worst:.3g} (tolerance {RTOL:g})")
    return found
