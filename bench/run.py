"""hardykit CLI benchmark.

Runs a workload as a sequence of real `hardykit` CLI runs, one child process
at a time, checks every run's outputs against reference.json and prints each
metric with its unit.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.  Run it from the repository
root; the children import hardykit from ./src.

    python3 bench/run.py --workload pipeline --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --trace 1 --record bench/results/seed.json
    python3 bench/run.py --write-reference

With --trace 0 a run reports the end-to-end metrics; with --trace 1 it runs
one untraced pass and two traced passes and reports the per-layer metrics,
failing the check when a work count differs between the two traced passes.
See bench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import check
from tracer import layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
DEADLINE_S = 170.0     # a run must end within 180 s
SETUP_SAMPLES = 5      # import-only children top a pass's children up to this
MIN_PASSES = 3         # so the median of an untraced run drops one slow pass
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass(frozen=True)
class CliRun:
    run_id: str
    task: str
    overrides: tuple = ()


_AUDIT_FAMILIES = {
    "exp_power3": ("family.kind=exp_power", "family.dimension=3"),
    "log_weight3": ("family.kind=log_weight", "family.alpha=1",
                    "grid.r_max=0.95", "evolution.r_max=0.95"),
    "oscillating3": ("family.kind=oscillating", "family.dimension=3"),
}
WORKLOADS = {
    # the default config through every layer
    "pipeline": [CliRun("report-all-exp_power3", "report-all")],
    # quadrature-bound audits: no time stepping, almost no eigen-solves
    "audit": [CliRun(f"{task}-{family}", task, overrides)
              for family, overrides in _AUDIT_FAMILIES.items()
              for task in ("analyze", "sharpness")],
    # problem size: pencils at n = 2048..16384, stepping on 8190 unknowns
    "refine": [
        CliRun("sweep-exp_power3-n2048", "sweep",
               ("family.kind=exp_power", "family.dimension=3", "grid.n_points=2048")),
        CliRun("sweep-power_exp_power4-n2048", "sweep",
               ("family.kind=power_exp_power", "family.dimension=4", "family.beta=1",
                "grid.n_points=2048")),
        CliRun("sweep-lebesgue4-n2048", "sweep",
               ("family.kind=lebesgue", "family.dimension=4", "grid.n_points=2048",
                "spectral.sweep_c_lo=0.5", "spectral.sweep_c_hi=1.5")),
        CliRun("evolve-exp_power3-n8192", "evolve",
               ("family.kind=exp_power", "family.dimension=3", "evolution.n_points=8192",
                "evolution.caps=10,100,1000")),
    ],
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Child:
    wall_s: float
    rc: int
    rss_mb: float
    data: dict | None
    log: Path


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(work: Path, mode: str, cli_args: list, deadline: float) -> Child:
    """Run bench/child.py to completion; the wall time spans spawn to exit."""
    result, log = work / "child.json", work / "child.log"
    result.unlink(missing_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = [sys.executable, str(BENCH / "child.py"), str(result), str(SRC), mode, *cli_args]
    fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        t0 = time.perf_counter()
        pid = os.posix_spawn(sys.executable, argv, env, file_actions=[
            (os.POSIX_SPAWN_DUP2, fd, 1), (os.POSIX_SPAWN_DUP2, fd, 2)])
    finally:
        os.close(fd)
    timer = threading.Timer(max(0.0, deadline - time.perf_counter()), _kill, (pid,))
    timer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        timer.cancel()
    wall_s = time.perf_counter() - t0
    data = json.loads(result.read_text()) if result.exists() else None
    return Child(wall_s, os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024.0, data, log)


def _cli_args(run: CliRun, out: Path) -> list:
    """The CLI arguments of `run`, writing into a fresh, empty `out`."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    args = [run.task, "--out", str(out)]
    for item in run.overrides:
        args += ["--override", item]
    return args


def run_pass(runs, mode: str, work: Path, deadline: float, reference: dict) -> list:
    """Run each CLI run once, in order, and check its outputs."""
    records = []
    for run in runs:
        out = work / run.run_id
        child = spawn(work, mode, _cli_args(run, out), deadline)
        data = child.data or {}
        if child.rc != 0 or not data:
            tail = child.log.read_text(errors="replace").strip().splitlines()[-1:]
            issues = [f"exit code {child.rc}: {' '.join(tail)}"]
        elif run.run_id not in reference:
            issues = ["no reference outputs for this run"]
        else:
            issues = check.problems(out, data["schemas"], reference[run.run_id])
        records.append({
            "run": run, "child": child, "issues": issues,
            "bytes": sum(p.stat().st_size for p in out.iterdir() if p.is_file()),
        })
        for issue in issues:
            print(f"FAILED {run.run_id}: {issue}", file=sys.stderr)
    return records


def _wall(records) -> float:
    return sum(r["child"].wall_s for r in records)


def _main_s(records, task=None) -> float:
    return sum(r["child"].data["main_s"] for r in records
               if r["child"].data and task in (None, r["run"].task))


def end_to_end(passes, setup_samples) -> tuple:
    """(metrics, task metrics): medians over passes of per-pass sums."""
    metrics = {
        "wall_s": statistics.median(_wall(p) for p in passes),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": max(r["child"].rss_mb for p in passes for r in p),
    }
    tasks = {"task_s": statistics.median(_main_s(p) for p in passes)}
    for task in sorted({r["run"].task for r in passes[0]}):
        tasks[task.replace("-", "_") + "_s"] = statistics.median(
            _main_s(p, task) for p in passes)
    return metrics, tasks


def traced_metrics(traced, untraced) -> tuple:
    """(per-layer metrics, names of work counts that differ between passes)."""
    per_pass = [layer_metrics([r["child"].data["trace"] for r in p if r["child"].data
                               and "trace" in r["child"].data],
                              sum(r["bytes"] for r in p)) for p in traced]
    metrics, unstable = {}, []
    for key, first in per_pass[0].items():
        values = [m[key] for m in per_pass]
        if key.endswith("_s"):
            metrics[key] = statistics.median(values)
        else:
            metrics[key] = first
            if any(v != first for v in values):
                unstable.append(key)
    metrics["trace.overhead_s"] = (
        statistics.median(_wall(p) for p in traced)
        - statistics.median(_wall(p) for p in untraced))
    return metrics, unstable


def environment(versions: dict) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": versions.get("numpy"),
        "scipy": versions.get("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas_threads": {k: os.environ[k] for k in BLAS_VARS if k in os.environ},
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, reference: dict,
                 work: Path) -> dict:
    deadline = time.perf_counter() + DEADLINE_S
    runs = list(WORKLOADS[name])
    random.Random(seed).shuffle(runs)
    spawn(work, "import", [], deadline)            # warm-up: not measured
    if trace:
        untraced = [run_pass(runs, "run", work, deadline, reference)]
        traced = [run_pass(runs, "trace", work, deadline, reference) for _ in range(2)]
        passes = untraced + traced
    else:
        start = time.perf_counter()
        probes = [spawn(work, "import", [], deadline)
                  for _ in range(SETUP_SAMPLES - len(runs))]
        passes = [run_pass(runs, "run", work, deadline, reference)]
        pass_s = time.perf_counter() - start
        while ((len(passes) < MIN_PASSES or time.perf_counter() - start < seconds)
               and time.perf_counter() + 2 * pass_s < deadline):
            passes.append(run_pass(runs, "run", work, deadline, reference))
    records = [r for p in passes for r in p]
    failed = sum(1 for r in records if r["issues"])
    versions = next((r["child"].data["versions"] for r in records if r["child"].data), {})
    out = {"workload": name, "seed": seed, "passes": len(passes),
           "attempted": len(records), "failed": failed,
           "environment": environment(versions)}
    if trace:
        metrics, unstable = traced_metrics(traced, untraced)
        for key in unstable:
            print(f"FAILED {name}: work count {key} differs between traced passes",
                  file=sys.stderr)
        out["correct"] = failed == 0 and not unstable
        out["metrics"] = {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()}
    else:
        setup_samples = [c.data["setup_s"] for c in probes if c.data] + [
            r["child"].data["setup_s"] for r in records if r["child"].data]
        metrics, tasks = end_to_end(passes, setup_samples)
        out["correct"] = failed == 0 and all(c.rc == 0 for c in probes)
        out["metrics"] = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
        out["task_metrics"] = {k: {"value": v, "unit": "s"} for k, v in tasks.items()}
        out["failed_frac"] = failed / len(records)
        out["setup_samples"] = len(setup_samples)
    return out


def _unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    return "ratio" if key == "spectral.assembly_per_solve" else "count"


def report(out: dict) -> None:
    samples = f"  setup samples {out['setup_samples']}" if "setup_samples" in out else ""
    print(f"workload {out['workload']}  seed {out['seed']}  passes {out['passes']}  "
          f"cli runs {out['attempted']}  failed {out['failed']}{samples}")
    rows = dict(out["metrics"])
    rows.update(out.get("task_metrics", {}))
    if "failed_frac" in out:
        rows["failed_frac"] = {"value": out["failed_frac"], "unit": "1"}
    for key, m in rows.items():
        print(f"  {key:<44} {m['value']:>16.6g} {m['unit']}")
    print(f"  environment {json.dumps(out['environment'], sort_keys=True)}")


def write_reference(work: Path) -> int:
    """Capture every CLI run's outputs as the reference the check compares to."""
    deadline = time.perf_counter() + 3600.0
    runs = {}
    for name, workload in WORKLOADS.items():
        for run in workload:
            out = work / run.run_id
            child = spawn(work, "run", _cli_args(run, out), deadline)
            if child.rc != 0:
                print(f"{run.run_id}: exit code {child.rc}", file=sys.stderr)
                return 1
            runs[run.run_id] = check.extract(out)
            print(f"captured {run.run_id}")
    REFERENCE.write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0,
                        help="orders the CLI runs of a pass; the inputs are fixed configs")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="untraced runs start passes until this much time has "
                             "passed, and run at least 3")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, default=None,
                        help="append the results, with the environment, to this JSON list")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "hardykit" / "cli.py").is_file():
        print(f"no hardykit sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    work = ROOT / ".bench_runs" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.write_reference:
            return write_reference(work)
        reference = json.loads(REFERENCE.read_text())
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = []
        for name in names:
            out = run_workload(name, args.seed, args.seconds, bool(args.trace), reference, work)
            report(out)
            results.append(out)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.record is not None:
        history = json.loads(args.record.read_text()) if args.record.exists() else []
        history.append({"seconds": args.seconds, "trace": args.trace, "results": results})
        args.record.write_text(json.dumps(history, indent=1) + "\n")
    prefix = len(results) > 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(f"{r['workload']}.{k}" if prefix else k): v
                    for r in results for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
