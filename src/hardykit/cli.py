"""Command-line entry point.

Subcommands: analyze, spectrum, sweep, sharpness, evolve, report-all.
Flags: --config <path>, --out <dir>, --override section.key=value (repeat).
Exit codes: 0 success, 2 config error, 3 numeric failure.

Config grammar (see also README): line-oriented `key = value` under
`[section]` headers; sections run/family/grid/spectral/evolution;
a family block is e.g.

    [family]
    kind = exp_power      # lebesgue | exp_power | power_exp_power |
                          # log_weight | oscillating
    dimension = 3
    b = 1.0
    m = 2.0
    beta = 0.0
    alpha = 0.0

Every task reads the one profile of dmu (on the hardy module's fixed
ladder), and every spectral ladder, evolve's cross-check included, is the
four grids of spectral.rung_grids on [grid].  The sweep bisects its bracket
to spectral.SWEEP_TOL, and its c_hat is consistent within SWEEP_TOL + 0.05
of c0(N0).
report-all runs each stage once and composes summary.md and index.json in
memory from the stages' payloads.

Runners compute and write nothing; `main` writes their files only once the
runner has returned, so a run that exits 2 or 3 leaves the outdir as it was.
All floats in CSV output are serialized with 17 significant digits, each
file write is atomic (temp + rename) under the process umask, and identical
configs produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .config import RunConfig, apply_overrides, load_config, serialize_config
from .errors import BadBracket, ConfigError, HardyKitError
from .hardy import check_hypotheses, compute_profile, estimate_N0
from .schemas import EIGVEC, EVOLUTION, PHI_GAMMA, PHI_N, SPECTRUM_LADDER, SWEEP_TRACE
from .spectral import (
    SWEEP_TOL,
    critical_sweep,
    ground_state,
    lambda1,
    phi_gamma_ladder,
    phi_n_gamma_bounds,
    quotient_phi_n,
    require_phi_n_quotient,
)
from .evolution import dichotomy_verdict

# the phi_n ladder: c = c0(N0) + _PHI_N_C_OFFSET, n in _PHI_N_LADDER
_PHI_N_C_OFFSET = 0.25
_PHI_N_LADDER = (4, 16, 64, 256)


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _csv(header, rows) -> str:
    return "".join(",".join(map(_fmt, row)) + "\n" for row in (header, *rows))


def _json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def run_analyze(cfg: RunConfig):
    profile = compute_profile(cfg.family)
    n0 = estimate_N0(cfg.family)  # diagnostics that no other task reads
    report = check_hypotheses(cfg.family)
    payload = report.to_json_dict()
    payload["profile"] = {**profile.to_json_dict(), "n0_quadrature_estimate": n0.quadrature,
                          "n0_estimators_agree": n0.agrees}
    return {"hypotheses.json": _json(payload), "hypotheses.txt": report.to_table()}, payload


def run_spectrum(cfg: RunConfig):
    res = lambda1(cfg.family, cfg.spectral.c, cfg.grid)
    payload = {
        "family": cfg.family.label(),
        "c": cfg.spectral.c,
        "lambda1": res.lambda1,
        "residual": res.residual,
        "verdict": res.verdict,
        "ladder": [{"n_points": n, "r_min": r, "lambda1": lam} for n, r, lam in res.ladder],
    }
    return {
        "spectrum_ladder.csv": _csv(SPECTRUM_LADDER, [(cfg.spectral.c, r_min, n, lam, res.verdict)
                                                      for n, r_min, lam in res.ladder]),
        "eigvec.csv": _csv(EIGVEC, zip(res.nodes, res.eigvec)),
        "spectrum.json": _json(payload),
    }, payload


def run_sweep(cfg: RunConfig):
    family = cfg.family
    s = cfg.spectral
    profile = compute_profile(family)
    try:
        res = critical_sweep(family, s.sweep_c_lo, s.sweep_c_hi, grid=cfg.grid)
    except BadBracket as exc:
        if exc.verdicts == ("Bounded", "Bounded") and s.sweep_c_hi <= profile.c0_mu:
            raise BadBracket(
                f"{exc}; [spectral] sweep_c_hi = {s.sweep_c_hi:g} is not above "
                f"c0_mu = {profile.c0_mu:g}, raise spectral.sweep_c_hi past it",
                exc.verdicts,
            ) from exc
        raise
    rows = [(entry["c"], r_min, n, lam, entry["verdict"])
            for entry in res.trace for n, r_min, lam in entry["ladder"]]
    # operational additive constant: -lambda1 at the weighted Hardy coupling
    # (couplings <= 0 are trivially valid and need no constant)
    if profile.c0_mu > 0.0:
        c_mu_op = max(0.0, -ground_state(family, profile.c0_mu, cfg.grid)[0])
    else:
        c_mu_op = 0.0
    payload = {
        "family": family.label(),
        "c_hat": res.c_hat,
        "bracket": [res.c_lo, res.c_hi],
        "c0_N0_expected": profile.c0_N0,
        # the bisection width plus the ladder's detection bias
        "consistent": abs(res.c_hat - profile.c0_N0) <= SWEEP_TOL + 0.05,
        "C_mu_operational": c_mu_op,
    }
    return {"sweep_trace.csv": _csv(SWEEP_TRACE, rows), "sweep.json": _json(payload)}, payload


def run_sharpness(cfg: RunConfig):
    family = cfg.family
    profile = compute_profile(family)
    c_n = profile.c0_N0 + _PHI_N_C_OFFSET
    lo, hi = phi_n_gamma_bounds(c_n, profile.N0)
    gamma = 0.75 * lo + 0.25 * hi   # a fixed interior point of the admissible range
    rows_n = []
    for n in _PHI_N_LADDER:
        q = quotient_phi_n(family, c_n, gamma, n)
        rows_n.append((c_n, gamma, n, q.value, q.upper_bound))

    c_g = profile.c0_N0
    rows_g = []
    gamma_diverges = None
    if c_g > 0:
        ladder = phi_gamma_ladder(family, c_g)
        rows_g = [(c_g, g, q) for g, q in ladder]
        qs = [q for _, q in ladder]
        gamma_diverges = qs[-1] < -1e2 and qs[-1] < qs[0]
    payload = {
        "family": family.label(),
        "phi_n": {"c": c_n, "gamma": gamma,
                  "quotients": [r[3] for r in rows_n],
                  "strictly_decreasing": all(b < a for a, b in zip([r[3] for r in rows_n], [r[3] for r in rows_n][1:]))},
        "phi_gamma": {"c": c_g, "diverges": gamma_diverges},
        "constant_attained_hint": None if gamma_diverges is None else (not gamma_diverges),
    }
    return {"phi_n.csv": _csv(PHI_N, rows_n), "phi_gamma.csv": _csv(PHI_GAMMA, rows_g),
            "sharpness.json": _json(payload)}, payload


def run_evolve(cfg: RunConfig):
    run = dichotomy_verdict(cfg.family, cfg.evolution.c, cfg.evolution, spectral_grid=cfg.grid)
    rows = [(t, s.cap, nn) for s in run.series for t, nn in zip(s.times, s.norms)]
    payload = run.to_json_dict()
    return {"evolution.csv": _csv(EVOLUTION, rows), "evolution.json": _json(payload)}, payload


def run_report_all(cfg: RunConfig):
    # fail fast: a failed run writes nothing either way, this saves the stage time
    require_phi_n_quotient(compute_profile(cfg.family).N0)
    stages = [runner(cfg) for runner in (run_analyze, run_sweep, run_sharpness, run_evolve)]
    files = {name: text for stage_files, _ in stages for name, text in stage_files.items()}
    hyp, sweep, sharp, evo = (payload for _, payload in stages)
    profile = hyp["profile"]
    lines = [
        f"# Report: {hyp['family']}",
        "",
        "| quantity | value |",
        "|---|---|",
        f"| c0(N) | {profile['c0_N']:.6g} |",
        f"| c0_mu | {profile['c0_mu']:.6g} |",
        f"| N0 | {profile['N0']:.6g} |",
        f"| c0(N0) | {profile['c0_N0']:.6g} |",
        f"| hypotheses | {hyp['classification']} (H2'={'yes' if hyp['h2_prime'] else 'no'}, H3' diverges={'yes' if hyp['h3p_iii']['diverges'] else 'no'}) |",
        f"| critical sweep c_hat | {sweep['c_hat']:.6g} (expected {sweep['c0_N0_expected']:.6g}; consistent={sweep['consistent']}) |",
        f"| phi_n quotients decreasing | {sharp['phi_n']['strictly_decreasing']} |",
        f"| constant attained (phi_gamma hint) | {sharp['constant_attained_hint']} |",
        f"| evolution verdict (c={evo['c']:g}) | {evo['verdict']} (spectral: {evo['spectral_verdict']}, agrees={evo['agrees_with_spectral']}) |",
        "",
    ]
    files["summary.md"] = "\n".join(lines)
    index = {"family": hyp["family"], "artifacts": sorted(files)}
    files["index.json"] = _json(index)
    return files, index


# task -> runner(cfg), returning ({artifact file name: text}, its JSON payload);
# a runner computes only, and main writes the files once it has returned
_RUNNERS = {
    "analyze": run_analyze,
    "spectrum": run_spectrum,
    "sweep": run_sweep,
    "sharpness": run_sharpness,
    "evolve": run_evolve,
    "report-all": run_report_all,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hardykit",
        description="Weighted Hardy inequality toolkit: hypothesis audits, "
                    "spectral sweeps, sharpness witnesses, parabolic dichotomy runs.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="task", required=True)
    for task in _RUNNERS:
        p = sub.add_parser(task, help=f"run the {task} pipeline")
        p.add_argument("--config", type=Path, default=None,
                       help="config file (defaults used when omitted)")
        p.add_argument("--out", type=Path, default=None,
                       help="output directory (overrides config outdir)")
        p.add_argument("--override", action="append", default=[],
                       metavar="SECTION.KEY=VALUE", help="config override (repeatable)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        cfg = apply_overrides(cfg, args.override)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    outdir = Path(args.out) if args.out else Path(cfg.outdir)
    try:
        # the nearest existing ancestor must be a directory, before any stage runs
        if not next(p for p in (outdir, *outdir.parents) if p.exists()).is_dir():
            raise ConfigError(f"output directory {outdir} is, or lies under, a file")
        files, _ = _RUNNERS[args.task](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except HardyKitError as exc:
        print(f"numeric failure [{args.task}]: {exc}", file=sys.stderr)
        return 3
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        for name in sorted(files):
            _atomic_write(outdir / name, files[name])
        _atomic_write(outdir / "config_used.ini", serialize_config(cfg))
    except OSError as exc:
        print(f"config error: cannot write to output directory {outdir}: {exc}", file=sys.stderr)
        return 2
    for name in sorted(files):
        print(outdir / name)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
