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

from hardykit import cli
from hardykit.cli import main
from hardykit.config import (
    RunConfig,
    apply_overrides,
    parse_config,
    serialize_config,
)
from hardykit.errors import ConfigError, NoConvergence
from hardykit import schemas
from hardykit.weights import RadialGrid


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
sweep_tol = 0.01
"""
        cfg = parse_config(text)
        assert cfg.family.kind == "log_weight"
        assert cfg.family.alpha == -1.0
        assert cfg.spectral.sweep_tol == 0.01
        assert parse_config(serialize_config(cfg)) == cfg

    def test_defaults_cover_all_tunables(self):
        text = serialize_config(RunConfig())
        for key in ("tail_window", "diverge_factor", "lambda_floor", "rmin_shrink",
                    "n_grow", "cap_dt_safety", "c_offset", "n_ladder", "sweep_tol"):
            assert key in text, key

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[family]\nkindd = lebesgue\n")
        with pytest.raises(ConfigError):
            parse_config("[nosuch]\nx = 1\n")
        with pytest.raises(ConfigError):
            parse_config("[run]\ntask = frobnicate\n")

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[family]\nkind = bogus\n")
        with pytest.raises(ConfigError):
            parse_config("[grid]\nn_points = many\n")

    @pytest.mark.parametrize("assignment,message", [
        ("sweep_tol = 0", "sweep_tol = 0.0 must be > 0"),
        ("sweep_tol = -1", "sweep_tol = -1.0 must be > 0"),
        ("sweep_tol = nan", "sweep_tol = nan must be > 0"),
        ("sweep_c_lo = 0.6", "sweep_c_lo = 0.6, sweep_c_hi = 0.6 need sweep_c_lo < sweep_c_hi"),
        ("sweep_c_hi = 0.01", "sweep_c_lo = 0.05, sweep_c_hi = 0.01 need sweep_c_lo <"),
        ("rmin_shrink = 1", "rmin_shrink = 1.0 must be > 1"),
        ("n_grow = 0.5", "n_grow = 0.5 must be >= 1"),
        ("diverge_factor = 1", "diverge_factor = 1.0 must be >= 2"),
        ("diverge_factor = 0.5", "diverge_factor = 0.5 must be >= 2"),
        ("diverge_factor = nan", "diverge_factor = nan must be >= 2"),
        ("diverge_factor = 1.0001", "diverge_factor = 1.0001 must be >= 2"),
        ("diverge_factor = 1.5", "diverge_factor = 1.5 must be >= 2"),
        ("lambda_floor = -1e5", "lambda_floor = -100000.0 must be >= 0"),
    ])
    def test_spectral_ranges_rejected(self, assignment, message):
        with pytest.raises(ConfigError, match=re.escape(f"[spectral] {message}")):
            parse_config(f"[spectral]\n{assignment}\n")

    @pytest.mark.parametrize("assignment,message", [
        ("n_ladder =", "n_ladder = () needs >= 2 entries, each >= 2, strictly increasing"),
        ("n_ladder = 16", "n_ladder = (16,) needs >= 2 entries"),
        ("n_ladder = 1,4", "n_ladder = (1, 4) needs >= 2 entries, each >= 2"),
        ("n_ladder = 16,4", "n_ladder = (16, 4) needs >= 2 entries, each >= 2, strictly increasing"),
        ("n_ladder = 4,4,16", "n_ladder = (4, 4, 16) needs"),
        ("c_offset = 0", "c_offset = 0.0 must be finite and > 0"),
        ("c_offset = -5", "c_offset = -5.0 must be finite and > 0"),
        ("c_offset = inf", "c_offset = inf must be finite and > 0"),
        ("c_offset = nan", "c_offset = nan must be finite and > 0"),
    ])
    def test_sharpness_ranges_rejected(self, assignment, message):
        with pytest.raises(ConfigError, match=re.escape(f"[sharpness] {message}")):
            parse_config(f"[sharpness]\n{assignment}\n")

    @pytest.mark.parametrize("assignment,message", [
        ("k_min = 50", "tail_window = 10, k_min = 50, k_max = 40 need 3 <= tail_window"),
        ("tail_window = 2", "tail_window = 2, k_min = 10, k_max = 40 need 3 <= tail_window"),
        ("tail_window = 0", "tail_window = 0, k_min = 10, k_max = 40 need 3 <= tail_window"),
        ("tail_window = 32", "tail_window = 32, k_min = 10, k_max = 40 need 3 <= tail_window"),
        # r = 2^-k <= 1/2 keeps the ladder off the closures of log_weight and oscillating
        ("k_min = 0", "k_min = 0 must be >= 1"),
        ("k_min = -3", "k_min = -3 must be >= 1"),
    ])
    def test_hardy_ranges_rejected(self, assignment, message):
        with pytest.raises(ConfigError, match=re.escape(f"[hardy] {message}")):
            parse_config(f"[hardy]\n{assignment}\n")

    def test_deepest_rung_at_the_cap_accepted(self):
        # 256 * 2^12 = 2^20 nodes exactly
        assert parse_config("[spectral]\nrungs = 13\n").spectral.rungs == 13

    def test_readme_config_block_loads_as_defaults(self):
        # the block carries inline ; comments after values and section headers
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        assert parse_config(block) == RunConfig()

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
        with pytest.raises(ConfigError, match=re.escape("[spectral] the deepest rung has r_min")):
            apply_overrides(RunConfig(), [f"grid.r_min={r_min / 2!r}"])

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
                   "--override", "evolution.u0_lo=0.05",
                   "--override", "evolution.u0_hi=0.2",
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
        "caps=100,1000", "caps=-10,100,1000", "cap_dt_safety=0", "dt=0", "T=0",
        "records=4", "n_points=8", "u0_lo=-1", "r_min=0", "r_min=10", "r_max=0.2",
        "r_max=inf",
    ])
    def test_bad_evolution_values_exit_2(self, tmp_path, capsys, override):
        rc = main(["evolve", "--out", str(tmp_path / "o"),
                   "--override", f"evolution.{override}"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: [evolution]")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("task, overrides", [
        ("spectrum", ["spectral.c=0.5", "spectral.lambda_floor=nan"]),
        ("spectrum", ["spectral.c=nan"]),
        ("evolve", ["evolution.c=inf"]),
        ("evolve", ["evolution.caps=100,nan,10000"]),
        ("evolve", ["evolution.dt=inf"]),
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

    @pytest.mark.parametrize("override", ["r_min=0", "r_max=1e-6", "n_points=8", "r_max=inf"])
    def test_bad_grid_values_exit_2(self, tmp_path, capsys, override):
        rc = main(["sweep", "--out", str(tmp_path / "o"), "--override", f"grid.{override}"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: [grid]")
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

    def test_hardy_knobs_reach_summary(self, tmp_path):
        rc = main(["report-all", "--out", str(tmp_path / "o"),
                   "--override", "family.kind=log_weight",
                   "--override", "family.alpha=1.0",
                   "--override", "grid.r_max=0.95",
                   "--override", "evolution.r_max=0.95",
                   "--override", "evolution.u0_lo=0.05",
                   "--override", "evolution.u0_hi=0.2",
                   "--override", "evolution.c=0.1",
                   "--override", "evolution.caps=10,100,1000",
                   "--override", "evolution.T=1",
                   "--override", "hardy.k_max=24",
                   "--override", "hardy.tail_window=6"])
        assert rc == 0
        hyp = json.loads((tmp_path / "o" / "hypotheses.json").read_text())
        summary = (tmp_path / "o" / "summary.md").read_text()
        assert f"| c0_mu | {hyp['profile']['c0_mu']:.6g} |" in summary.splitlines()

    def test_evolve_cross_check_reads_spectral_ladder(self, tmp_path):
        rc = main(["evolve", "--out", str(tmp_path / "o"),
                   "--override", "evolution.c=0.35",
                   "--override", "spectral.diverge_factor=1e6",
                   "--override", "evolution.caps=10,100,1000",
                   "--override", "evolution.T=1"])
        assert rc == 0
        evo = json.loads((tmp_path / "o" / "evolution.json").read_text())
        assert evo["spectral_verdict"] == "Bounded"

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
        # in assembly, and rung 3 is assembled first, for the worker thread.
        # The rungs fail in serial order, so the LAPACK failure is reported
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

    def test_sweep_tol_zero_exit_2(self, tmp_path, capsys):
        # the bisection cannot shrink the bracket below adjacent floats
        rc = main(["sweep", "--out", str(tmp_path / "o"), "--override", "spectral.sweep_tol=0"])
        assert rc == 2
        assert "sweep_tol = 0.0 must be > 0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

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
                   "--override", "grid.r_min=0.001",
                   "--override", "spectral.rungs=2"])
        assert rc == 0
        ladder = (tmp_path / "o" / "spectrum_ladder.csv").read_text().splitlines()
        assert ladder[0] == ",".join(schemas.SPECTRUM_LADDER)
        assert len(ladder) == 3  # header + 2 rungs
        eig = (tmp_path / "o" / "eigvec.csv").read_text().splitlines()
        assert eig[0] == ",".join(schemas.EIGVEC)
        assert len(eig) == 63  # header + interior nodes

    def test_spectrum_short_ladder_unresolved(self, tmp_path):
        rc = main(["spectrum", "--out", str(tmp_path / "o"),
                   "--override", "spectral.c=0.5",
                   "--override", "spectral.rungs=1"])
        assert rc == 0
        payload = json.loads((tmp_path / "o" / "spectrum.json").read_text())
        assert payload["verdict"] == "Unresolved"
        ladder = (tmp_path / "o" / "spectrum_ladder.csv").read_text().splitlines()
        assert ladder[1].endswith(",Unresolved")

    @pytest.mark.parametrize("task", ["sweep", "report-all"])
    def test_sweep_short_ladder_exit_2(self, tmp_path, capsys, monkeypatch, task):
        def no_audit(*args, **kwargs):
            raise AssertionError("a stage ran before the ladder was rejected")

        monkeypatch.setattr(cli, "check_hypotheses", no_audit)
        monkeypatch.setattr(cli, "critical_sweep", no_audit)
        rc = main([task, "--out", str(tmp_path / "o"), "--override", "spectral.rungs=2"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: [spectral] rungs = 2")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("override,message", [
        ("spectral.rungs=0", "[spectral] rungs = 0 must be >= 1"),
        ("spectral.rungs=-1", "[spectral] rungs = -1 must be >= 1"),
        ("spectral.n_grow=1e6", "[spectral] the deepest rung has grid.n_points * "
                                "n_grow^(rungs - 1) = 256 * 1e+06^3 nodes, above the cap of 1048576"),
        ("spectral.rungs=14", "= 256 * 2^13 nodes, above the cap of 1048576"),
        ("spectral.rungs=40", "= 256 * 2^39 nodes, above the cap"),
        ("spectral.rungs=100000", "= 256 * 2^99999 nodes, above the cap"),
        ("grid.n_points=2000000", "= 2000000 * 2^3 nodes, above the cap"),
        ("evolution.n_points=2000000", "[evolution] n_points = 2000000 must lie in [16, 1048576]"),
        ("spectral.rmin_shrink=1e200", "[spectral] the deepest rung has r_min = grid.r_min / "
                                       "rmin_shrink^(rungs - 1) = 1e-05 / 1e+200^3 = 10^-605.0, "
                                       "below the smallest normal double 2.23e-308"),
    ])
    def test_oversized_grid_exit_2(self, tmp_path, capsys, override, message):
        # config errors, raised before any allocation (n_grow=1e6 would ask for 22.9 GiB)
        rc = main(["spectrum", "--out", str(tmp_path / "o"), "--override", override])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: [") and message in err
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
        # cli.lambda1 is only the C_mu_operational solve; the bisection has its own binding
        def no_convergence(*args, **kwargs):
            raise NoConvergence("stalled")

        monkeypatch.setattr(cli, "lambda1", no_convergence)
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
    # of scipy, hardykit loads only the compiled LAPACK extension, on the
    # first solve (hardykit.lapack); the subpackages would cost start-up time
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, hardykit.cli; "
            "print(hardykit.cli.__file__); "
            "print([m for m in ('scipy.integrate', 'scipy.optimize', 'scipy.sparse') "
            "if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.splitlines()
    assert out[0].startswith(src)
    assert out[1] == "[]"


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
    # the spectral ladder runs a second thread of its own: once hardykit.lapack
    # is loaded (on the first solve), numpy's and scipy's OpenBLAS run on one
    # thread, whichever of numpy and hardykit was imported first, and the
    # environment a child process would inherit is as it was.  A user's
    # setting is kept
    code = (f"import os, {first}; from hardykit import lapack; "
            "print(lapack.blas_threads(), 'OPENBLAS_NUM_THREADS' in os.environ)")
    assert _run_with_blas_threads(code, preset) == want


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux /proc")
def test_a_solve_starts_no_thread():
    # scipy's OpenBLAS, loaded on the first solve, starts no pool thread, and
    # the ladder's worker thread is joined: the threads are numpy's
    code = ("import os, numpy; before = len(os.listdir('/proc/self/task')); "
            "from hardykit import Kind, RadialGrid, SpectralProblem, WeightFamily, lambda1; "
            "lambda1(SpectralProblem(WeightFamily(Kind.EXP_POWER, 3), 0.3, RadialGrid())); "
            "print(len(os.listdir('/proc/self/task')) - before)")
    assert _run_with_blas_threads(code, None) == "0"


def test_audit_tasks_never_load_scipy_linalg(tmp_path):
    # no task imports scipy.linalg: the first eigen-solve or factorization
    # imports hardykit.lapack, which loads only scipy's compiled LAPACK
    # extension.  analyze and sharpness have none, so it is not loaded after
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
