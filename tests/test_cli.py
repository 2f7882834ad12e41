import filecmp
import json
import math
import os
import re
import shutil
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from hardykit import cli, hardy, weights
from hardykit.cli import main
from hardykit.config import (
    RunConfig,
    apply_overrides,
    parse_config,
    serialize_config,
)
from hardykit.errors import ConfigError, NoConvergence, ProfileUndefined, QuadratureFailure
from hardykit import schemas
from hardykit.weights import Kind, RadialGrid, WeightFamily, eval_mu


def _ini_keys(text):
    """The (section, key) pairs an ini text names; values and comments ignored."""
    keys, section = set(), None
    for line in text.splitlines():
        if m := re.match(r"\[(\w+)\]", line):
            section = m.group(1)
        elif m := re.match(r"(\w+)\s*=", line):
            keys.add((section, m.group(1)))
    return keys


class TestConfig:
    def test_roundtrip_identity(self):
        cfg = RunConfig()
        assert parse_config(serialize_config(cfg)) == cfg

    def test_roundtrip_after_parse(self):
        text = """
[run]
outdir = somewhere

[family]
kind = log_weight
dimension = 3
alpha = -1.0

[spectral]
sweep_c_lo = 0.1
"""
        cfg = parse_config(text)
        assert cfg.family.kind == "log_weight"
        assert cfg.family.alpha == -1.0
        assert cfg.spectral.sweep_c_lo == 0.1
        assert parse_config(serialize_config(cfg)) == cfg

    def test_defaults_cover_all_tunables(self):
        keys = _ini_keys(serialize_config(RunConfig()))
        for key in (("spectral", "sweep_c_hi"), ("evolution", "caps"),
                    ("evolution", "records"), ("grid", "n_points")):
            assert key in keys, key
        assert len(keys - {("run", "outdir")}) == 19

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[family]\nkindd = lebesgue\n")
        with pytest.raises(ConfigError, match=re.escape("unknown key [nosuch] x")):
            parse_config("[nosuch]\nx = 1\n")
        with pytest.raises(ConfigError, match=re.escape("unknown section [nosuch]")):
            parse_config("[nosuch]\n")
        with pytest.raises(ConfigError, match=re.escape("unknown key [nosuch] x")):
            apply_overrides(RunConfig(), ["nosuch.x=1"])
        with pytest.raises(ConfigError):
            parse_config("[run]\ntask = frobnicate\n")

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[family]\nkind = bogus\n")
        with pytest.raises(ConfigError):
            parse_config("[grid]\nn_points = many\n")

    @pytest.mark.parametrize("assignment,message", [
        ("sweep_c_lo = 0.6", "sweep_c_lo = 0.6, sweep_c_hi = 0.6 need sweep_c_lo < sweep_c_hi"),
        ("sweep_c_hi = 0.01", "sweep_c_lo = 0.05, sweep_c_hi = 0.01 need sweep_c_lo <"),
    ])
    def test_spectral_ranges_rejected(self, assignment, message):
        with pytest.raises(ConfigError, match=re.escape(f"[spectral] {message}")):
            parse_config(f"[spectral]\n{assignment}\n")

    def test_deepest_rung_at_the_cap_accepted(self):
        # 2^17 * 2^3 = 2^20 nodes exactly
        assert parse_config("[grid]\nn_points = 131072\n").grid.n_points == 131072
        with pytest.raises(ConfigError, match=re.escape(
                "[grid] rung 3 of the ladder, r_min = 1e-05 / 4^3 and n_points = 131073 * 2^3: "
                "n_points = 1048584 must lie in [16, 1048576]")):
            parse_config("[grid]\nn_points = 131073\n")

    def test_readme_config_block_loads_as_defaults(self):
        # the block carries inline ; comments after values and section headers
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        assert parse_config(block) == RunConfig()

    def test_family_section_is_the_library_family(self):
        # one definition of the family defaults: the Gaussian exp(-r^2) in R^3
        assert RunConfig().family == WeightFamily() == WeightFamily(Kind.EXP_POWER, 3)
        for r in (0.1, 0.5, 1.0, 2.0):
            assert eval_mu(WeightFamily(), r) == pytest.approx(math.exp(-r * r), rel=1e-14)

    def test_overrides(self):
        cfg = apply_overrides(RunConfig(), ["family.kind=lebesgue",
                                            "family.dimension=4",
                                            "spectral.c=0.9"])
        assert cfg.family.kind == "lebesgue"
        assert cfg.family.dimension == 4
        assert cfg.spectral.c == 0.9
        with pytest.raises(ConfigError):
            apply_overrides(RunConfig(), ["nonsense"])
        with pytest.raises(ConfigError):
            apply_overrides(RunConfig(), ["bad.key=1"])

    @pytest.mark.parametrize("overrides", [
        ["spectral.sweep_c_lo=0.7", "spectral.sweep_c_hi=1.5"],
        ["spectral.sweep_c_hi=1.5", "spectral.sweep_c_lo=0.7"],
    ])
    def test_overrides_of_one_section_apply_together(self, overrides):
        # sweep_c_lo = 0.7 alone breaks sweep_c_lo < sweep_c_hi against the default 0.6
        cfg = apply_overrides(RunConfig(), overrides)
        assert (cfg.spectral.sweep_c_lo, cfg.spectral.sweep_c_hi) == (0.7, 1.5)

    def test_override_parses_by_the_declared_type(self):
        # r_max = 20 set in code is an int, but [grid] r_max is a float key
        cfg = apply_overrides(RunConfig(grid=RadialGrid(1e-5, 20, 256)), ["grid.r_max=30.5"])
        assert cfg.grid.r_max == 30.5

    def test_deepest_rung_r_min_at_the_smallest_normal_accepted(self):
        r_min = sys.float_info.min * 4.0**3
        assert apply_overrides(RunConfig(), [f"grid.r_min={r_min!r}"]).grid.r_min == r_min
        with pytest.raises(ConfigError, match=re.escape(
                f"[grid] rung 3 of the ladder, r_min = {r_min / 2:g} / 4^3 and "
                f"n_points = 256 * 2^3: r_min = {r_min / 2 / 64!r} must be a normal double, "
                f">= 2.23e-308")):
            apply_overrides(RunConfig(), [f"grid.r_min={r_min / 2!r}"])

    def test_grid_rules_read_alike_in_both_sections(self, tmp_path, capsys):
        # the [grid] and [evolution] grids are both RadialGrids: one rule text
        errs = []
        for section in ("grid", "evolution"):
            assert main(["spectrum", "--out", str(tmp_path / "o"),
                         "--override", f"{section}.n_points=8"]) == 2
            errs.append(capsys.readouterr().err)
        assert errs == [f"config error: [{section}] n_points = 8 must lie in [16, 1048576]\n"
                        for section in ("grid", "evolution")]
        assert not (tmp_path / "o").exists()

    def test_float_17_digits_roundtrip(self):
        cfg = apply_overrides(RunConfig(), ["spectral.c=0.1234567890123456789"])
        again = parse_config(serialize_config(cfg))
        assert again.spectral.c == cfg.spectral.c


class TestCli:
    def test_analyze_writes_reports(self, tmp_path):
        rc = main(["analyze", "--out", str(tmp_path / "o"),
                   "--override", "family.kind=exp_power"])
        assert rc == 0
        payload = json.loads((tmp_path / "o" / "hypotheses.json").read_text())
        assert payload["classification"] == "H2"
        assert payload["h2_ii"]["c0_mu"] == pytest.approx(0.25, abs=1e-6)
        assert payload["h3_N0"] == 3.0
        assert (tmp_path / "o" / "hypotheses.txt").exists()
        assert (tmp_path / "o" / "config_used.ini").exists()

    @pytest.mark.parametrize("argv", [["bogus"], [], ["analyze", "--bogus"],
                                      ["analyze", "sweep"], ["--out"]])
    def test_bad_arguments_exit_2_with_one_line(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("hardykit: error: ") and err.count("\n") == 1

    def test_flags_go_before_or_after_the_task(self, tmp_path):
        for argv in (["--out", str(tmp_path / "a"), "analyze"],
                     ["analyze", "--out", str(tmp_path / "b")]):
            assert main(argv) == 0
        assert filecmp.cmp(tmp_path / "a" / "hypotheses.json", tmp_path / "b" / "hypotheses.json",
                           shallow=False)

    def test_payloads_embed_no_record(self):
        # the result records are named tuples, which json writes silently as a
        # list: every payload is built from plain dicts, lists and scalars
        def tuples(node):
            if isinstance(node, tuple):
                yield node
            elif isinstance(node, dict):
                for value in node.values():
                    yield from tuples(value)
            elif isinstance(node, list):
                for value in node:
                    yield from tuples(value)

        for task, runner in cli._RUNNERS.items():
            _, payload = runner(RunConfig())
            assert list(tuples(payload)) == [], task

    @pytest.mark.parametrize("b", ["1", "2000", "1e6"])
    def test_analyze_invariant_under_b(self, tmp_path, b):
        # exp(-b r^2) is exp(-r^2) on a rescaled r: the verdicts do not depend on
        # b, where b = 2000 used to exit 3 in the effective-dimension bracket
        rc = main(["analyze", "--out", str(tmp_path / "o"), "--override", f"family.b={b}"])
        assert rc == 0
        payload = json.loads((tmp_path / "o" / "hypotheses.json").read_text())
        assert payload["classification"] == "H2"
        assert payload["h2_i"] is True
        assert payload["h3_N0"] == 3.0

    @pytest.mark.parametrize("N", [82, 165, 343])
    def test_analyze_at_every_admitted_dimension(self, tmp_path, N):
        # omega_N delta^N leaves the double range from N = 82 on: the small-ball
        # fit reads log mu(B_delta), and the H2 i blocks near the bottom of the
        # double range still settle
        rc = main(["analyze", "--out", str(tmp_path / "o"),
                   "--override", f"family.dimension={N}"])
        assert rc == 0
        payload = json.loads((tmp_path / "o" / "hypotheses.json").read_text())
        assert payload["classification"] == "H2"
        assert payload["h2_i"] is True
        assert all(math.isfinite(c["exponent"]) for c in payload["cond1"].values())

    @pytest.mark.parametrize("m", ["0.5", "1"])
    def test_analyze_h2_i_settles_at_large_b(self, tmp_path, m):
        # the H2 i blocks [-2, -1] and [-1, 0] of exp(-2000 r^m) did not settle
        # and read as "H2 i fails"; b-scaling says the family is H2
        rc = main(["analyze", "--out", str(tmp_path / "o"),
                   "--override", f"family.m={m}", "--override", "family.b=2000"])
        assert rc == 0
        payload = json.loads((tmp_path / "o" / "hypotheses.json").read_text())
        assert payload["h2_i"] is True
        assert payload["classification"] == "H2"

    def test_h2_i_quadrature_failure_exit_3(self, tmp_path, capsys, monkeypatch):
        # a quadrature that does not settle is a numeric failure, not "H2 i fails"
        def unsettled(*args, **kwargs):
            raise QuadratureFailure("quadrature did not settle on [-2, -1] within 100 levels")

        monkeypatch.setattr(weights, "_quad_block", unsettled)
        rc = main(["analyze", "--out", str(tmp_path / "o")])
        assert rc == 3
        assert capsys.readouterr().err.endswith(
            "numeric failure [analyze]: quadrature did not settle on [-2, -1] within 100 levels\n")
        assert not (tmp_path / "o").exists()

    def test_analyze_log_weight_large_alpha_exit_3(self, tmp_path, capsys):
        # mu(B_1) = omega q^-401 Gamma(401, q log 2) exceeds a double, so the N0
        # bisection's bracket fails (a bracket on the log-moment would read a
        # c0_mu this audit cannot yet trust)
        rc = main(["analyze", "--out", str(tmp_path / "o"),
                   "--override", "family.kind=log_weight", "--override", "family.alpha=400",
                   "--override", "grid.r_max=0.95", "--override", "evolution.r_max=0.95"])
        assert rc == 3
        assert "effective-dimension bisection bracket failed" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_analyze_oscillating_summary_claims(self, tmp_path):
        rc = main(["analyze", "--out", str(tmp_path / "o"),
                   "--override", "family.kind=oscillating"])
        assert rc == 0
        payload = json.loads((tmp_path / "o" / "hypotheses.json").read_text())
        assert payload["h2_ii"]["c0_mu"] < 0.25
        assert payload["h2_prime"] is True
        assert payload["h3_N0"] == 3.0

    def test_report_all_power_exp_power(self, tmp_path):
        rc = main(["report-all", "--out", str(tmp_path / "o"),
                   "--override", "family.kind=power_exp_power",
                   "--override", "family.dimension=4",
                   "--override", "family.beta=1.0"])
        assert rc == 0
        sweep = json.loads((tmp_path / "o" / "sweep.json").read_text())
        assert sweep["c0_N0_expected"] == pytest.approx(0.25)
        assert sweep["consistent"] is True
        assert 0.20 <= sweep["c_hat"] <= 0.31

    def test_report_all_log_weight_constant_not_attained(self, tmp_path):
        # compact-support weight: keep every grid inside the support
        rc = main(["report-all", "--out", str(tmp_path / "o"),
                   "--override", "family.kind=log_weight",
                   "--override", "family.alpha=1.0",
                   "--override", "grid.r_max=0.95",
                   "--override", "evolution.r_max=0.95",
                   "--override", "evolution.c=0.1"])
        assert rc == 0
        sharp = json.loads((tmp_path / "o" / "sharpness.json").read_text())
        assert sharp["phi_gamma"]["diverges"] is True
        assert sharp["constant_attained_hint"] is False
        summary = (tmp_path / "o" / "summary.md").read_text()
        assert "constant attained (phi_gamma hint) | False" in summary

    def test_hypothesis_failures_are_findings_not_errors(self, tmp_path):
        rc = main(["analyze", "--out", str(tmp_path / "o"),
                   "--override", "family.kind=log_weight",
                   "--override", "family.alpha=1.0"])
        assert rc == 0  # H2 iv fails, exit code still 0
        payload = json.loads((tmp_path / "o" / "hypotheses.json").read_text())
        assert payload["h2_iv"]["holds"] is False
        assert payload["classification"] == "H2_prime_only"

    def test_effective_dimension_below_one_half(self, tmp_path):
        # N0 = N - beta = 1/2: the N0 bisection bracket must reach below it
        rc = main(["analyze", "--out", str(tmp_path / "o"),
                   "--override", "family.kind=power_exp_power",
                   "--override", "family.dimension=3",
                   "--override", "family.beta=2.5"])
        assert rc == 0
        profile = json.loads((tmp_path / "o" / "hypotheses.json").read_text())["profile"]
        assert profile["N0"] == 0.5
        assert profile["n0_estimators_agree"] is True

    @pytest.mark.parametrize("beta", [2.2, 2.4])
    def test_h3p_ladder_settles_for_beta_in_last_unit(self, tmp_path, beta):
        # N - 1 < beta < N: lambda * int_B1 r^{lambda - N0} dmu tends to omega_3 = 4 pi
        # only if the power law and r^{N + power} do not cancel in the exponent
        rc = main(["analyze", "--out", str(tmp_path / "o"),
                   "--override", "family.kind=power_exp_power",
                   "--override", "family.dimension=3",
                   "--override", f"family.beta={beta}"])
        assert rc == 0
        h3p = json.loads((tmp_path / "o" / "hypotheses.json").read_text())["h3p_iii"]
        assert h3p["diverges"] is False
        assert len(h3p["values"]) == 20
        assert h3p["values"][-1] == pytest.approx(4.0 * math.pi, rel=1e-6)

    def test_beta_at_dimension_exit_2(self, tmp_path, capsys):
        # mu = r^{-3} is not locally integrable in R^3
        rc = main(["analyze", "--out", str(tmp_path / "o"),
                   "--override", "family.kind=power_exp_power",
                   "--override", "family.dimension=3",
                   "--override", "family.beta=3"])
        assert rc == 2
        assert "beta" in capsys.readouterr().err

    def test_n0_above_the_dimension_exit_0(self, tmp_path):
        # N0 = N - beta = 5 lies above N + 1.5, where the N0 bisection's bracket ended
        rc = main(["analyze", "--out", str(tmp_path / "o"),
                   "--override", "family.kind=power_exp_power",
                   "--override", "family.beta=-2"])
        assert rc == 0
        hyp = json.loads((tmp_path / "o" / "hypotheses.json").read_text())
        assert hyp["classification"] == "H2"
        assert hyp["profile"]["n0_quadrature_estimate"] == pytest.approx(5.0, abs=0.05)
        assert hyp["profile"]["n0_estimators_agree"]

    def test_config_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[family]\nkind = bogus\n")
        assert main(["analyze", "--config", str(bad), "--out", str(tmp_path)]) == 2
        assert main(["analyze", "--config", str(tmp_path / "missing.ini")]) == 2
        assert main(["analyze", "--override", "family.kind=nope",
                     "--out", str(tmp_path)]) == 2
        empty = tmp_path / "empty_family.ini"
        empty.write_text("[family]\n\n[spectral]\nc = 0.2\n")
        assert main(["analyze", "--config", str(empty), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("kind", ["custom", "bogus"])
    def test_unknown_kind_exit_2(self, tmp_path, capsys, kind):
        # there are no custom profiles: "custom" is as unknown as any other name
        rc = main(["analyze", "--out", str(tmp_path / "o"), "--override", f"family.kind={kind}"])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"config error: [family] unknown weight kind {kind!r}; expected one of "
            f"lebesgue, exp_power, power_exp_power, log_weight, oscillating\n")
        assert not (tmp_path / "o").exists()

    def test_kind_case_is_normalized_in_the_outdir(self, tmp_path):
        upper, lower = tmp_path / "upper", tmp_path / "lower"
        assert main(["analyze", "--out", str(upper), "--override", "family.kind=EXP_POWER"]) == 0
        assert main(["analyze", "--out", str(lower), "--override", "family.kind=exp_power"]) == 0
        names = sorted(os.listdir(lower))
        assert "config_used.ini" in names and sorted(os.listdir(upper)) == names
        assert filecmp.cmpfiles(upper, lower, names, shallow=False) == (names, [], [])

    def test_weight_overflow_on_the_grid_exit_3(self, tmp_path, capsys):
        # mu = r^300 overflows a double at r ~ 10.6, inside the default grid
        rc = main(["spectrum", "--out", str(tmp_path / "o"),
                   "--override", "family.kind=power_exp_power",
                   "--override", "family.b=0", "--override", "family.beta=-300"])
        assert rc == 3
        assert capsys.readouterr().err == (
            "numeric failure [spectrum]: weight not finite on the grid\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("dimension", [343, 344, 10**6])
    def test_dimension_past_the_range_of_omega_n_exit_2(self, tmp_path, capsys, dimension):
        # omega_N's Gamma(N/2) overflows a double from N = 344 on (at 10**6
        # pi^(N/2) overflows first), and every task ended in a traceback
        for task in ("analyze", "spectrum", "sweep", "sharpness", "evolve", "report-all"):
            rc = main([task, "--out", str(tmp_path / task),
                       "--override", f"family.dimension={dimension}"])
            err = capsys.readouterr().err
            if dimension == 343:  # in range; the numerics may still fail
                assert rc in (0, 3) and len(err.splitlines()) == (rc == 3)
            else:
                assert rc == 2
                assert err == (f"config error: [family] dimension must be an integer "
                               f"from 3 to 343, got {dimension}\n")
            assert rc == 0 or not (tmp_path / task).exists()

    def test_run_outdir_override_names_the_outdir(self, tmp_path):
        rc = main(["analyze", "--override", f"run.outdir={tmp_path / 'o'}"])
        assert rc == 0
        assert (tmp_path / "o" / "hypotheses.json").exists()

    def test_bare_outdir_override_exit_2(self, tmp_path, capsys):
        override = f"outdir={tmp_path / 'o'}"
        assert main(["analyze", "--override", override]) == 2
        assert capsys.readouterr().err == (
            f"config error: override must be section.key=value, got {override!r}\n")
        assert not (tmp_path / "o").exists()

    def test_config_file_roundtrips_through_cli(self, tmp_path):
        cfg_file = tmp_path / "cfg.ini"
        from hardykit.config import RunConfig, serialize_config
        cfg_file.write_text(serialize_config(RunConfig()))
        rc = main(["analyze", "--config", str(cfg_file), "--out", str(tmp_path / "o")])
        assert rc == 0

    @pytest.mark.parametrize("override", [
        "caps=100,1000", "caps=-10,100,1000", "T=0", "records=4", "n_points=8", "r_min=0",
        "r_min=10", "r_max=0.2", "r_max=inf",
    ])
    def test_bad_evolution_values_exit_2(self, tmp_path, capsys, override):
        rc = main(["evolve", "--out", str(tmp_path / "o"),
                   "--override", f"evolution.{override}"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: [evolution]")
        assert not (tmp_path / "o").exists()

    def test_records_above_the_cap_exit_2(self, tmp_path, capsys):
        # an evolve of 1e6 records held over 1 GB and ran for minutes
        assert parse_config("[evolution]\nrecords = 4096\n").evolution.records == 4096
        rc = main(["evolve", "--out", str(tmp_path / "o"), "--override", "evolution.records=4097"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "config error: [evolution] records = 4097 must lie in [8, 4096]\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("override", ["r_max=0.2", "r_min=1.5"])
    def test_grid_missing_the_bump_exit_2(self, tmp_path, capsys, override):
        # the datum would be 0 on the grid, and so would every record
        rc = main(["evolve", "--out", str(tmp_path / "o"),
                   "--override", f"evolution.{override}"])
        assert rc == 2
        r_min, r_max = {"r_max=0.2": (0.0001, 0.2), "r_min=1.5": (1.5, 8.0)}[override]
        assert capsys.readouterr().err == (
            f"config error: [evolution] r_min = {r_min}, r_max = {r_max} miss the support "
            f"(0.25, 1) of the initial bump\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("T", ["1e-16", "1e-14"])
    def test_evolve_rate_below_the_records_accuracy_exit_3(self, tmp_path, capsys, T):
        # the fitted half spreads 7e-15 (T = 1e-16) or 1e-13 (T = 1e-14) in
        # log-norm, within the Krylov records' 1e-13 accuracy: the fit read
        # omega = -142 and -20.7 for the t -> 0 rate -19.65
        rc = main(["evolve", "--out", str(tmp_path / "o"), "--override", f"evolution.T={T}"])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith(f"numeric failure [evolve]: at cap 100 the log-norms up to "
                              f"t = {T} spread ")
        assert err.endswith("ten times the records' accuracy: too short a time to resolve "
                            "a rate\n")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "o").exists()

    def test_evolve_short_time_reads_the_datums_rate(self, tmp_path):
        # as t -> 0 the rate is the datum's Rayleigh quotient, -19.6488 from
        # the implicit-Euler step (S - I) / dt
        rc = main(["evolve", "--out", str(tmp_path / "o"), "--override", "evolution.T=1e-12"])
        assert rc == 0
        evo = json.loads((tmp_path / "o" / "evolution.json").read_text())
        assert [e["omega"] for e in evo["envelopes"]] == \
            [pytest.approx(-19.6488, rel=0.01)] * 3

    @pytest.mark.parametrize("task, overrides", [
        ("spectrum", ["spectral.c=nan"]),
        ("evolve", ["evolution.c=inf"]),
        ("evolve", ["evolution.caps=100,nan,10000"]),
        ("analyze", ["family.b=nan"]),
        ("analyze", ["family.kind=log_weight", "family.alpha=1", "grid.r_max=0.95",
                     "evolution.r_max=0.95", "family.alpha=nan"]),
    ], ids=lambda v: v[-1] if isinstance(v, list) else v)
    def test_non_finite_values_exit_2(self, tmp_path, capsys, task, overrides):
        # a nan passes every comparison-free rule and would flip a verdict
        rc = main([task, "--out", str(tmp_path / "o"),
                   *(arg for o in overrides for arg in ("--override", o))])
        assert rc == 2
        section, key_value = overrides[-1].split(".", 1)
        key, value = key_value.split("=")
        assert capsys.readouterr().err == (
            f"config error: [{section}] {key} = {value} must be finite\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("override", [
        # the audit meshes and thresholds (constants of hardykit.hardy)
        "hardy.h2iv_k_max=40", "hardy.h2iii_radii=0.1,1,10", "hardy.h2iii_r_hi=1000.0",
        "hardy.h2iii_per_decade=40", "hardy.h3p_j_max=20", "hardy.h3p_threshold=1000.0",
        "hardy.cond1_p=1,2,3", "hardy.cond1_k_min=2", "hardy.cond1_k_max=12",
        "hardy.cond1_tol=0.02",
        # the eigenpair residual gate and the phi_gamma ladder length (hardykit.spectral)
        "spectral.residual_tol=1e-8", "sharpness.gamma_j_max=12",
        # the verdict rules (constants of hardykit.evolution)
        "evolution.t_star_frac=0.5", "evolution.blowup_ratio=2.0", "evolution.omega_rtol=0.1",
        # the ladder geometry (hardykit.config) and the cascade thresholds
        # calibrated to it (hardykit.spectral)
        "spectral.rmin_shrink=4.0", "spectral.n_grow=2.0", "spectral.diverge_factor=4.0",
        "spectral.lambda_floor=1e-6",
        # the profile ladder (hardykit.hardy) and the phi_n exponent (hardykit.cli)
        "hardy.k_min=10", "hardy.k_max=40", "hardy.tail_window=10", "sharpness.gamma=0.0",
        # the phi_n ladder and the sweep width (hardykit.cli), the evolve's step,
        # its clamp (hardykit.evolution) and its initial bump (hardykit.config)
        "sharpness.c_offset=0.25", "sharpness.n_ladder=4,16,64,256", "spectral.sweep_tol=0.02",
        "evolution.dt=0.01", "evolution.cap_dt_safety=0.5", "evolution.u0_lo=0.25",
        "evolution.u0_hi=1.0",
        # the ladder depth (hardykit.config), to which the cascade thresholds are calibrated
        "spectral.rungs=4",
    ])
    def test_removed_key_is_unknown(self, tmp_path, capsys, override):
        key, value = override.split("=")
        section, name = key.split(".")
        message = f"config error: unknown key [{section}] {name}\n"
        assert main(["analyze", "--out", str(tmp_path / "o"), "--override", override]) == 2
        assert capsys.readouterr().err == message
        cfg_file = tmp_path / "cfg.ini"
        cfg_file.write_text(f"[family]\nkind = exp_power\n\n[{section}]\n{name} = {value}\n")
        assert main(["analyze", "--config", str(cfg_file), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == message
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("override, message", [
        ("r_min=0", "r_min = 0.0, r_max = 20.0 need 0 < r_min < r_max < inf"),
        ("r_max=1e-6", "r_min = 1e-05, r_max = 1e-06 need 0 < r_min < r_max < inf"),
        ("n_points=8", "n_points = 8 must lie in [16, 1048576]"),
        ("r_max=inf", "r_min = 1e-05, r_max = inf need 0 < r_min < r_max < inf"),
    ], ids=["r_min=0", "r_max=1e-6", "n_points=8", "r_max=inf"])
    def test_bad_grid_values_exit_2(self, tmp_path, capsys, override, message):
        rc = main(["sweep", "--out", str(tmp_path / "o"), "--override", f"grid.{override}"])
        assert rc == 2
        assert capsys.readouterr().err == f"config error: [grid] {message}\n"
        assert not (tmp_path / "o").exists()

    def test_subnormal_evolution_r_min_exit_2(self, tmp_path, capsys):
        # a grid rule: the run must not reach the element kernel and exit 3
        # on the vanished lumped mass
        rc = main(["evolve", "--out", str(tmp_path / "o"), "--override", "evolution.r_min=1e-310"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "config error: [evolution] r_min = 1e-310 must be a normal double, >= 2.23e-308\n")
        assert not (tmp_path / "o").exists()

    def test_fractional_node_count_exit_2(self, tmp_path, capsys):
        rc = main(["sweep", "--out", str(tmp_path / "o"), "--override", "grid.n_points=2.5"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: cannot parse [grid] n_points")
        assert not (tmp_path / "o").exists()

    def test_report_all_runs_each_stage_once(self, tmp_path, monkeypatch):
        calls = []
        original = cli.check_hypotheses

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, "check_hypotheses", counted)
        cli.compute_profile.cache_clear()
        rc = main(["report-all", "--out", str(tmp_path / "o"),
                   "--override", "evolution.caps=10,100,1000",
                   "--override", "evolution.T=1"])
        assert rc == 0
        assert len(calls) == 1
        assert cli.compute_profile.cache_info().misses == 1

    def test_summary_c0_mu_is_the_audits(self, tmp_path):
        rc = main(["report-all", "--out", str(tmp_path / "o"),
                   "--override", "family.kind=log_weight",
                   "--override", "family.alpha=1.0",
                   "--override", "grid.r_max=0.95",
                   "--override", "evolution.r_max=0.95",
                   "--override", "evolution.c=0.1",
                   "--override", "evolution.caps=10,100,1000",
                   "--override", "evolution.T=1"])
        assert rc == 0
        hyp = json.loads((tmp_path / "o" / "hypotheses.json").read_text())
        summary = (tmp_path / "o" / "summary.md").read_text()
        assert f"| c0_mu | {hyp['profile']['c0_mu']:.6g} |" in summary.splitlines()

    def test_evolve_cross_check_reads_spectral_ladder(self, tmp_path):
        # the cross-check is the spectrum task's ladder on [grid] at evolution.c
        rc = main(["evolve", "--out", str(tmp_path / "o"),
                   "--override", "evolution.c=0.35",
                   "--override", "evolution.caps=10,100,1000",
                   "--override", "evolution.T=1"])
        assert rc == 0
        assert main(["spectrum", "--out", str(tmp_path / "s"),
                     "--override", "spectral.c=0.35"]) == 0
        evo = json.loads((tmp_path / "o" / "evolution.json").read_text())
        spectrum = json.loads((tmp_path / "s" / "spectrum.json").read_text())
        assert evo["spectral_verdict"] == spectrum["verdict"] == "Diverging"

    def test_only_analyze_estimates_n0(self, tmp_path, capsys, monkeypatch):
        # the N0 estimators are analyze's diagnostics: a sweep does not run
        # them, so their failure cannot stop it
        def failing(family):
            raise ProfileUndefined("effective-dimension bisection bracket failed")

        monkeypatch.setattr(hardy, "estimate_N0", failing)
        monkeypatch.setattr(cli, "estimate_N0", failing)
        cli.compute_profile.cache_clear()
        assert main(["sweep", "--out", str(tmp_path / "s")]) == 0
        assert main(["analyze", "--out", str(tmp_path / "a")]) == 3
        assert capsys.readouterr().err.endswith(
            "numeric failure [analyze]: effective-dimension bisection bracket failed\n")
        assert not (tmp_path / "a").exists()

    def test_numeric_failure_exit_3(self, tmp_path):
        # both sweep endpoints subcritical: BadBracket
        rc = main(["sweep", "--out", str(tmp_path / "o"),
                   "--override", "spectral.sweep_c_lo=0.05",
                   "--override", "spectral.sweep_c_hi=0.1"])
        assert rc == 3

    @pytest.mark.parametrize("task, override", [
        ("spectrum", "grid.r_min=1e-107"),
        ("evolve", "evolution.r_min=1e-107"),
    ])
    def test_subnormal_mass_exit_3(self, tmp_path, capsys, task, override):
        # the first lumped masses are subnormal: spectrum used to fail in
        # LAPACK with no cause named, and evolve ran on them and exited 0
        rc = main([task, "--out", str(tmp_path / "o"), "--override", override])
        assert rc == 3
        assert "the measure underflows at r_min = 1e-107 -- raise r_min" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.filterwarnings("error::pytest.PytestUnhandledThreadExceptionWarning")
    def test_shallowest_rung_failure_is_reported(self, tmp_path, capsys):
        # rung 0 fails in dstebz; rungs 2 and 3 (r_min = 6.25e-104) would fail
        # in assembly.  The rungs are solved in order, so the LAPACK failure
        # is reported
        rc = main(["spectrum", "--out", str(tmp_path / "o"), "--override", "grid.r_min=1e-102"])
        assert rc == 3
        assert capsys.readouterr().err.strip() == \
            "numeric failure [spectrum]: LAPACK dstebz failed (info=4)"
        assert not (tmp_path / "o").exists()

    def test_bracket_below_c0_mu_names_sweep_c_hi(self, tmp_path, capsys):
        # lebesgue N=5: c0_mu = 9/4 lies above the default sweep_c_hi = 0.6
        rc = main(["sweep", "--out", str(tmp_path / "o"),
                   "--override", "family.kind=lebesgue",
                   "--override", "family.dimension=5"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "Bounded/Bounded" in err
        assert "spectral.sweep_c_hi" in err
        assert "0.6" in err and "2.25" in err

    def test_report_all_without_phi_n_quotient_runs_no_stage(self, tmp_path, capsys,
                                                              monkeypatch):
        # N0 = 3 - 1.5 <= 2: the sharpness stage would refuse, so nothing runs
        def no_stage(*args, **kwargs):
            raise AssertionError("a stage ran before phi_n was rejected")

        monkeypatch.setattr(cli, "check_hypotheses", no_stage)
        monkeypatch.setattr(cli, "critical_sweep", no_stage)
        rc = main(["report-all", "--out", str(tmp_path / "o"),
                   "--override", "family.kind=power_exp_power",
                   "--override", "family.dimension=3",
                   "--override", "family.beta=1.5"])
        assert rc == 3
        assert "N0 = 1.5" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("task, overrides", [
        ("sharpness", ()),
        ("report-all", ("grid.r_max=0.1", "evolution.r_max=0.3")),
    ])
    def test_phi_n_bound_underflow_exit_3(self, tmp_path, capsys, task, overrides):
        # exp(-2000 r) underflows on both [1, 2] and [1/2, 1], so phi_n's bound
        # has no denominator C2: this ended in a ZeroDivisionError traceback.
        # report-all reaches its sharpness stage on grids where the weight
        # does not underflow
        args = [task, "--out", str(tmp_path / "o"),
                "--override", "family.b=2000", "--override", "family.m=1"]
        for o in overrides:
            args += ["--override", o]
        assert main(args) == 3
        assert capsys.readouterr().err.strip() == (
            f"numeric failure [{task}]: phi_n's bound has no denominator C2: "
            "the weight underflows on both [1, 2] and [1/2, 1]")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("beta", [1.5, 2.5])
    def test_phi_n_without_quotient_names_n0(self, tmp_path, capsys, beta):
        # N0 = 3 - beta <= 2: int_0^{1/n} r^-2 dmu diverges
        rc = main(["sharpness", "--out", str(tmp_path / "o"),
                   "--override", "family.kind=power_exp_power",
                   "--override", "family.dimension=3",
                   "--override", f"family.beta={beta}"])
        assert rc == 3
        assert f"N0 = {3 - beta:g}" in capsys.readouterr().err

    def test_spectrum_outputs_schema(self, tmp_path):
        rc = main(["spectrum", "--out", str(tmp_path / "o"),
                   "--override", "spectral.c=0.2",
                   "--override", "grid.n_points=64",
                   "--override", "grid.r_min=0.001"])
        assert rc == 0
        ladder = (tmp_path / "o" / "spectrum_ladder.csv").read_text().splitlines()
        assert ladder[0] == ",".join(schemas.SPECTRUM_LADDER)
        # header + rungs 0-2: they read Bounded whatever rung 3 would read,
        # so the deepest rung is not solved
        assert len(ladder) == 4
        assert [tuple(row.split(",")[1:3]) for row in ladder[1:]] == [
            ("0.001", "64"), ("0.00025000000000000001", "128"), ("6.2500000000000001e-05", "256")]
        assert [row.split(",")[4] for row in ladder[1:]] == ["Bounded"] * 3
        eig = (tmp_path / "o" / "eigvec.csv").read_text().splitlines()
        assert eig[0] == ",".join(schemas.EIGVEC)
        assert len(eig) == 63  # header + interior nodes

    @pytest.mark.parametrize("override,message", [
        ("grid.n_points=2000000", "[grid] n_points = 2000000 must lie in [16, 1048576]"),
        ("evolution.n_points=2000000", "[evolution] n_points = 2000000 must lie in [16, 1048576]"),
        ("grid.n_points=131073", "[grid] rung 3 of the ladder, r_min = 1e-05 / 4^3 and "
                                 "n_points = 131073 * 2^3: n_points = 1048584 must lie in "
                                 "[16, 1048576]"),
        ("grid.r_min=1e-306", "[grid] rung 3 of the ladder, r_min = 1e-306 / 4^3 and "
                              "n_points = 256 * 2^3: r_min = 1.5625e-308 must be a normal "
                              "double, >= 2.23e-308"),
    ])
    def test_oversized_grid_exit_2(self, tmp_path, capsys, override, message):
        # config errors, raised before any allocation
        rc = main(["spectrum", "--out", str(tmp_path / "o"), "--override", override])
        assert rc == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_failed_report_all_leaves_no_outdir(self, tmp_path):
        # lebesgue N=4: c0_mu = 1 lies above sweep_c_hi, so the sweep stage fails
        rc = main(["report-all", "--out", str(tmp_path / "o"),
                   "--override", "family.kind=lebesgue", "--override", "family.dimension=4"])
        assert rc == 3
        assert not (tmp_path / "o").exists()

    def test_failed_report_all_leaves_earlier_report_unchanged(self, tmp_path):
        out, before = tmp_path / "o", tmp_path / "before"
        rc = main(["report-all", "--out", str(out),
                   "--override", "evolution.caps=10,100,1000", "--override", "evolution.T=1"])
        assert rc == 0
        shutil.copytree(out, before)
        rc = main(["report-all", "--out", str(out),
                   "--override", "family.kind=lebesgue", "--override", "family.dimension=4"])
        assert rc == 3
        names = sorted(os.listdir(before))
        assert sorted(os.listdir(out)) == names
        match, mismatch, errors = filecmp.cmpfiles(before, out, names, shallow=False)
        assert (match, mismatch, errors) == (names, [], [])

    def test_sweep_failing_after_the_bisection_writes_nothing(self, tmp_path, monkeypatch):
        # cli.ground_state is only the C_mu_operational solve; the bisection's
        # ladders solve through the spectral module's own binding
        def no_convergence(*args, **kwargs):
            raise NoConvergence("stalled")

        monkeypatch.setattr(cli, "ground_state", no_convergence)
        rc = main(["sweep", "--out", str(tmp_path / "o")])
        assert rc == 3
        assert not (tmp_path / "o" / "sweep_trace.csv").exists()
        assert not (tmp_path / "o").exists()

    def test_outputs_respect_umask(self, tmp_path):
        old = os.umask(0o027)
        try:
            assert main(["analyze", "--out", str(tmp_path / "o")]) == 0
        finally:
            os.umask(old)
        modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in (tmp_path / "o").iterdir()}
        assert sorted(modes) == ["config_used.ini", "hypotheses.json", "hypotheses.txt"]
        assert set(modes.values()) == {0o666 & ~0o027}

    @pytest.mark.parametrize("sub", ["", "sub"])
    def test_outdir_under_a_file_exit_2_before_any_stage(self, tmp_path, capsys, monkeypatch,
                                                         sub):
        def no_stage(*args, **kwargs):
            raise AssertionError("a stage ran before the outdir was rejected")

        monkeypatch.setattr(cli, "check_hypotheses", no_stage)
        blocker = tmp_path / "file"
        blocker.write_text("x")
        out = blocker / sub
        assert main(["analyze", "--out", str(out)]) == 2
        assert f"output directory {out} is, or lies under, a file" in capsys.readouterr().err
        assert blocker.read_text() == "x"

    def test_write_failure_exit_2_names_the_path(self, tmp_path, capsys):
        # a directory where a report file goes: os.replace cannot put the file there
        (tmp_path / "o" / "hypotheses.txt").mkdir(parents=True)
        assert main(["analyze", "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write to output directory {tmp_path / 'o'}")
        assert "hypotheses.txt" in err
        assert not [p for p in (tmp_path / "o").iterdir() if p.name.endswith(".tmp")]

    def test_analyze_deterministic(self, tmp_path):
        for d in ("a", "b"):
            main(["analyze", "--out", str(tmp_path / d),
                  "--override", "family.kind=oscillating"])
        a = (tmp_path / "a" / "hypotheses.json").read_bytes()
        b = (tmp_path / "b" / "hypotheses.json").read_bytes()
        assert a == b

    def test_readme_config_in_sync(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        assert _ini_keys(block) == _ini_keys(serialize_config(RunConfig()))

    def test_schema_doc_in_sync(self):
        doc = Path(__file__).resolve().parents[1] / "docs" / "output_schemas.md"
        text = doc.read_text()
        for name, cols in schemas.ALL.items():
            assert name in text
            assert ",".join(cols) in text


def test_import_leaves_unused_scipy_out():
    # hardykit imports no scipy package, and its Gauss-Legendre rules are
    # tables, so numpy.polynomial is not imported either; configparser loads
    # only to read a config file: each would cost start-up time and memory
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, hardykit.cli; "
            "print(hardykit.cli.__file__); "
            "print([m for m in ('scipy.integrate', 'scipy.optimize', 'scipy.sparse', "
            "'numpy.polynomial', 'configparser') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.splitlines()
    assert out[0].startswith(src)
    assert out[1] == "[]"


def test_solved_rungs_are_the_first_rows_of_a_four_rung_ladder(tmp_path, monkeypatch):
    # the benchmark's three refine sweeps and the default report-all: every
    # ladder's rows are bitwise the first rows of a plain loop over all four
    # rungs, and its verdict is that loop's.  Only the report-all probe at
    # c = 0.3078125 needs rung 3 for its verdict
    from hardykit import evolution, spectral
    real, seen = spectral.lambda1, []

    def recorded(family, c, grid):
        res = real(family, c, grid)
        seen.append((family, c, grid, res))
        return res

    for module in (spectral, cli, evolution):
        monkeypatch.setattr(module, "lambda1", recorded)
    runs = [
        ("sweep", ("family.kind=exp_power", "family.dimension=3", "grid.n_points=2048")),
        ("sweep", ("family.kind=power_exp_power", "family.dimension=4", "family.beta=1",
                   "grid.n_points=2048")),
        ("sweep", ("family.kind=lebesgue", "family.dimension=4", "grid.n_points=2048",
                   "spectral.sweep_c_lo=0.5", "spectral.sweep_c_hi=1.5")),
        ("report-all", ()),
    ]
    for i, (task, overrides) in enumerate(runs):
        args = [task, "--out", str(tmp_path / str(i))]
        for o in overrides:
            args += ["--override", o]
        assert main(args) == 0
    deepest = []
    for family, c, grid, res in seen:
        rows = []
        for k, g in enumerate(spectral.rung_grids(grid)):
            lam = spectral._solve_smallest(*spectral.assemble(family, c, g), enforce=k == 0)[0]
            rows.append((g.n_points, g.r_min, lam))
        assert len(rows) == 4 and len(res.ladder) in (3, 4)
        assert res.ladder == rows[:len(res.ladder)], (family, c)
        assert res.verdict == spectral._ladder_verdict([lam for *_, lam in rows]), (family, c)
        if len(res.ladder) == 4:
            deepest.append(c)
    assert len(seen) == 22 + 8  # 22 sweep probes; report-all's 7 and its evolve's cross-check
    assert deepest == [pytest.approx(0.3078125, abs=1e-12)]


def _run_with_blas_threads(code, threads):
    """stdout of `python -c code` on ./src, with OPENBLAS_NUM_THREADS unset
    (threads None) or set to `threads`."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout.strip()


@pytest.mark.parametrize("preset, first, want", [
    (None, "hardykit", "1 False"), (None, "numpy", "1 False"), ("2", "hardykit", "2 True"),
])
def test_lapack_pins_openblas_to_one_thread(preset, first, want):
    # two BLAS threads round the deep rungs' dot products differently: once
    # hardykit.lapack is loaded (on the first solve), the OpenBLAS its
    # routines come from, numpy's, runs on one thread, whichever of numpy and
    # hardykit was imported first, so outputs match a one-thread run, and the
    # environment a child process would inherit is as it was.  A user's
    # setting is kept
    code = (f"import os, {first}; from hardykit import lapack; "
            "print(lapack._OPENBLAS[0](), 'OPENBLAS_NUM_THREADS' in os.environ)")
    assert _run_with_blas_threads(code, preset) == want


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux /proc")
def test_a_solve_starts_no_thread():
    # the first solve loads no library with a thread pool of its own, and the
    # ladder starts no thread: the threads are numpy's.  The kernel task of a
    # joined thread can outlive join() (1.2% of 20000 start/join pairs), so
    # the count has up to 1 s to come back
    code = """
import os, time, numpy
count = lambda: len(os.listdir('/proc/self/task'))
before = count()
from hardykit import Kind, RadialGrid, WeightFamily, lambda1
lambda1(WeightFamily(Kind.EXP_POWER, 3), 0.3, RadialGrid())
deadline = time.monotonic() + 1.0
while count() > before and time.monotonic() < deadline:
    time.sleep(0.001)
print(count() - before)
"""
    assert _run_with_blas_threads(code, None) == "0"


def test_audit_tasks_never_load_scipy_linalg(tmp_path):
    # no task imports scipy.linalg: the first eigen-solve or factorization
    # imports hardykit.lapack, which binds the LAPACK numpy links.  analyze
    # and sharpness have none, so it is not loaded after
    # them; sweep has, so it is loaded after that (the check is not vacuous)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, hardykit.cli; "
            "state = lambda: print([m in sys.modules for m in ('scipy.linalg', 'hardykit.lapack')]); "
            "state(); "
            "hardykit.cli.main(['analyze', '--out', sys.argv[1]]); "
            "hardykit.cli.main(['sharpness', '--out', sys.argv[1]]); "
            "state(); "
            "hardykit.cli.main(['sweep', '--out', sys.argv[1]]); "
            "state(); "
            "hardykit.cli.main(['evolve', '--out', sys.argv[1]]); "
            "state()")
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "o")], env=env,
                         capture_output=True, text=True, check=True).stdout.splitlines()
    states = [line for line in out if line.startswith("[")]
    assert states == ["[False, False]", "[False, False]", "[False, True]", "[False, True]"]


def test_evolve_too_short_to_fit_prints_one_line(tmp_path):
    # at T = 1e-200 the squares of the record times underflow: the envelope
    # fit ended in a LinAlgError traceback, after LAPACK's own complaints
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-m", "hardykit.cli", "evolve",
                          "--out", str(tmp_path / "o"), "--override", "evolution.T=1e-200"],
                         env=env, capture_output=True, text=True)
    assert out.returncode == 3
    assert out.stderr == ("numeric failure [evolve]: times up to 1e-200 are too small to fit: "
                          "t^2 underflows\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs Linux /proc")
def test_report_all_maps_no_second_lapack(tmp_path):
    # the six LAPACK routines come from the library numpy links: a whole
    # report-all maps neither scipy's _flapack nor scipy's OpenBLAS (numpy's
    # wheel links libscipy_openblas64_, scipy's libscipy_openblas-<hash>)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, hardykit.cli; "
            "assert hardykit.cli.main(['report-all', '--out', sys.argv[1]]) == 0; "
            "maps = open('/proc/self/maps').read(); "
            "print('hardykit.lapack' in sys.modules, "
            "[name for name in ('_flapack', 'libscipy_openblas-') if name in maps])")
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "o")], env=env,
                         capture_output=True, text=True, check=True).stdout.splitlines()
    assert out[-1] == "True []"


@pytest.mark.parametrize("T, code, message", [
    ("5e-324", 2, "config error: [evolution] T / records = 5e-324 / 64 must be a normal "
                  "double, >= 2.23e-308\n"),
    ("1e-150", 3, "numeric failure [evolve]: log-norms up to t = 1e-150 spread 0, within "
                  "rounding of their size 0.0886: too short a time to fit a rate\n"),
], ids=["5e-324", "1e-150"])
def test_evolve_too_short_for_a_rate_prints_one_line(tmp_path, T, code, message):
    # at T = 5e-324 the record spacing is 0, which ended in a ZeroDivisionError
    # traceback; at T = 1e-150 the norms do not move beyond rounding, and the
    # run exited 0 with omega = 4.9e133, a fit of that rounding
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-m", "hardykit.cli", "evolve",
                          "--out", str(tmp_path / "o"), "--override", f"evolution.T={T}"],
                         env=env, capture_output=True, text=True)
    assert out.returncode == code
    assert out.stderr == message
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("task, override, c", [
    ("spectrum", "spectral.c", "1e300"),
    ("spectrum", "spectral.c", "-1e300"),
    ("sweep", "spectral.sweep_c_hi", "1e300"),
], ids=["1e300", "-1e300", "sweep-1e300"])
def test_overflowing_pencil_prints_one_line(tmp_path, task, override, c):
    # the pencil's scaling by the lumped mass overflows: the one line on
    # stderr names the coupling, with no numpy warning before it
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-m", "hardykit.cli", task,
                          "--out", str(tmp_path / "o"), "--override", f"{override}={c}"],
                         env=env, capture_output=True, text=True)
    assert out.returncode == 3
    assert out.stderr == (f"numeric failure [{task}]: the pencil at c = {float(c):g}, or its "
                          f"scaling by the lumped mass, leaves the double range\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("b, m", [("1e308", "0.01"), ("1e200", "0.5")])
def test_profile_overflow_prints_one_line(tmp_path, b, m):
    # U_mu overflows on the dyadic ladder: the one line on stderr is the
    # failure, with no numpy warning before it
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-m", "hardykit.cli", "analyze",
                          "--out", str(tmp_path / "o"),
                          "--override", f"family.b={b}", "--override", f"family.m={m}"],
                         env=env, capture_output=True, text=True)
    assert out.returncode == 3
    assert out.stderr == "numeric failure [analyze]: r^2 U_mu not finite on the dyadic ladder\n"
    assert not (tmp_path / "o").exists()
