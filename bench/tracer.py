"""Per-layer tracing of one hardykit CLI run, measured from outside the program.

`Tracer.install()` replaces hardykit's public layer functions with wrappers,
in every hardykit module namespace that binds them (a `from .weights import
weighted_integral` in `hardy` is a binding of its own).  A wrapper records
either a span (name, parent index, start, end) or a work count.  Spans stay in
memory until `finish()` returns them; `layer_metrics()` turns the spans and
counts of the CLI runs of one pass into the per-layer metrics.
"""

from __future__ import annotations

import functools
import sys
import time

# metric prefix -> the functions whose spans it sums; defining module first
SPAN_GROUPS = {
    "weights.weighted_integral": ("hardykit.weights", ("weighted_integral",)),
    "weights.hat_element_integrals": ("hardykit.weights", ("hat_element_integrals",)),
    "hardy.compute_profile": ("hardykit.hardy", ("compute_profile",)),
    "hardy.check_hypotheses": ("hardykit.hardy", ("check_hypotheses",)),
    "spectral.lambda1": ("hardykit.spectral", ("lambda1",)),
    "spectral.critical_sweep": ("hardykit.spectral", ("critical_sweep",)),
    "spectral.quotients": ("hardykit.spectral", ("quotient_phi_n", "phi_gamma_ladder")),
    "evolution.run_capped": ("hardykit.evolution", ("run_capped",)),
    "evolution.dichotomy_verdict": ("hardykit.evolution", ("dichotomy_verdict",)),
    "cli.main": ("hardykit.cli", ("main",)),
    "config.apply_overrides": ("hardykit.config", ("apply_overrides",)),
}

# work counts made by the wrappers; each repeats exactly for identical runs
COUNTS = (
    "weights.log_mu.calls",         # integrand evaluations inside weighted_integral
    "weights.log_mu.points",
    "weights.hat_element_integrals.elements",
    "hardy.compute_profile.misses",  # delta of compute_profile.cache_info()
    "spectral.eigensolves",          # eigh_tridiagonal calls
    "spectral.eigensolve_rows",
    "evolution.time_steps",          # solve_banded calls bound in evolution
    "evolution.step_unknowns",
)


def _rebind(original, wrapper, module_names=None) -> None:
    """Point every hardykit module binding of `original` at `wrapper`."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "hardykit" or name.startswith("hardykit.")):
            continue
        if module_names is not None and name not in module_names:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


class Tracer:
    def __init__(self):
        self.spans = []          # [name, parent index or -1, start, end]
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack = []
        self._open = {}          # span name -> number of open spans
        self._profile_cache = None
        self._profile_misses = 0

    def _spanned(self, name, fn):
        spans, stack, opened, clock = self.spans, self._stack, self._open, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(record)
            opened[name] = opened.get(name, 0) + 1
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
                opened[name] -= 1

        return wrapper

    def install(self) -> None:
        """Wrap the layer functions; call after `import hardykit.cli`."""
        modules = {name: sys.modules[name] for name, _ in SPAN_GROUPS.values()}
        self._profile_cache = modules["hardykit.hardy"].compute_profile
        self._profile_misses = self._profile_cache.cache_info().misses
        for module_name, functions in SPAN_GROUPS.values():
            for fn_name in functions:
                original = getattr(modules[module_name], fn_name)
                _rebind(original, self._spanned(fn_name, original))

        weights = modules["hardykit.weights"]
        spectral = modules["hardykit.spectral"]
        evolution = modules["hardykit.evolution"]
        counts, opened = self.counts, self._open

        log_mu = weights.log_mu

        def counted_log_mu(family, s):
            if opened.get("weighted_integral"):
                counts["weights.log_mu.calls"] += 1
                counts["weights.log_mu.points"] += getattr(s, "size", 1)
            return log_mu(family, s)

        _rebind(log_mu, counted_log_mu)

        hat = weights.hat_element_integrals   # already the span wrapper

        def counted_hat(family, nodes):
            counts["weights.hat_element_integrals.elements"] += len(nodes) - 1
            return hat(family, nodes)

        _rebind(hat, counted_hat)

        eigh = spectral.eigh_tridiagonal

        def counted_eigh(d, e, *args, **kwargs):
            counts["spectral.eigensolves"] += 1
            counts["spectral.eigensolve_rows"] += len(d)
            return eigh(d, e, *args, **kwargs)

        _rebind(eigh, counted_eigh)

        solve = evolution.solve_banded

        def counted_solve(l_and_u, ab, b, *args, **kwargs):
            counts["evolution.time_steps"] += 1
            counts["evolution.step_unknowns"] += len(b)
            return solve(l_and_u, ab, b, *args, **kwargs)

        _rebind(solve, counted_solve, module_names={"hardykit.evolution"})

    def finish(self) -> dict:
        """The spans and counts recorded since `install()`, as plain data."""
        self.counts["hardy.compute_profile.misses"] = (
            self._profile_cache.cache_info().misses - self._profile_misses
        )
        return {"spans": self.spans, "counts": self.counts}


def layer_metrics(traces, bytes_written: int) -> dict:
    """Per-layer metrics of one pass: `traces` holds each CLI run's `finish()`.

    `total_s` sums the outermost spans of a group, so nested calls of the
    group count once; `self_s` is each span's duration minus its child spans.
    """
    group_of = {fn: prefix for prefix, (_, fns) in SPAN_GROUPS.items() for fn in fns}
    out = {}
    for prefix in SPAN_GROUPS:
        out[f"{prefix}.calls"] = 0
        out[f"{prefix}.total_s"] = 0.0
        out[f"{prefix}.self_s"] = 0.0
    out.update(dict.fromkeys(COUNTS, 0))
    out["spectral.critical_sweep.probes"] = 0
    for trace in traces:
        spans = trace["spans"]
        for key, value in trace["counts"].items():
            out[key] += value
        child_s = [0.0] * len(spans)
        for _, parent, start, end in spans:
            if parent >= 0:
                child_s[parent] += end - start
        for i, (name, parent, start, end) in enumerate(spans):
            prefix = group_of[name]
            out[f"{prefix}.calls"] += 1
            out[f"{prefix}.self_s"] += end - start - child_s[i]
            ancestors = set()
            while parent >= 0:
                ancestors.add(group_of[spans[parent][0]])
                parent = spans[parent][1]
            if prefix not in ancestors:
                out[f"{prefix}.total_s"] += end - start
            if name == "lambda1" and "spectral.critical_sweep" in ancestors:
                out["spectral.critical_sweep.probes"] += 1
    solves = out["spectral.eigensolves"]
    out["spectral.assembly_per_solve"] = (
        out["weights.hat_element_integrals.calls"] / solves if solves else 0.0
    )
    out["cli.bytes_written"] = bytes_written
    return out
