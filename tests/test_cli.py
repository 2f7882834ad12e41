import json
from pathlib import Path

import pytest

from hardykit.cli import main
from hardykit.config import (
    RunConfig,
    apply_overrides,
    parse_config,
    serialize_config,
)
from hardykit.errors import ConfigError
from hardykit import schemas


class TestConfig:
    def test_roundtrip_identity(self):
        cfg = RunConfig()
        assert parse_config(serialize_config(cfg)) == cfg

    def test_roundtrip_after_parse(self):
        text = """
[run]
task = analyze
outdir = somewhere

[family]
kind = log_weight
dimension = 3
alpha = -1.0

[spectral]
sweep_tol = 0.01
"""
        cfg = parse_config(text)
        assert cfg.task == "analyze"
        assert cfg.family.kind == "log_weight"
        assert cfg.family.alpha == -1.0
        assert cfg.spectral.sweep_tol == 0.01
        assert parse_config(serialize_config(cfg)) == cfg

    def test_defaults_cover_all_tunables(self):
        text = serialize_config(RunConfig())
        for key in ("tail_window", "diverge_factor", "lambda_floor", "rmin_shrink",
                    "n_grow", "blowup_ratio", "h3p_threshold", "cond1_tol",
                    "t_star_frac", "cap_dt_safety", "c_offset", "n_ladder",
                    "sweep_tol", "omega_rtol"):
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

    def test_config_file_roundtrips_through_cli(self, tmp_path):
        cfg_file = tmp_path / "cfg.ini"
        from hardykit.config import RunConfig, serialize_config
        cfg_file.write_text(serialize_config(RunConfig()))
        rc = main(["analyze", "--config", str(cfg_file), "--out", str(tmp_path / "o")])
        assert rc == 0

    @pytest.mark.parametrize("override", [
        "caps=100,1000", "caps=-10,100,1000", "cap_dt_safety=0", "dt=0", "T=0",
        "records=4", "n_points=8", "u0_lo=-1", "r_min=0", "r_min=10", "t_star_frac=2",
    ])
    def test_bad_evolution_values_exit_2(self, tmp_path, capsys, override):
        rc = main(["evolve", "--out", str(tmp_path / "o"),
                   "--override", f"evolution.{override}"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: [evolution]")
        assert not (tmp_path / "o").exists()

    def test_numeric_failure_exit_3(self, tmp_path):
        # both sweep endpoints subcritical: BadBracket
        rc = main(["sweep", "--out", str(tmp_path / "o"),
                   "--override", "spectral.sweep_c_lo=0.05",
                   "--override", "spectral.sweep_c_hi=0.1"])
        assert rc == 3

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

    def test_analyze_deterministic(self, tmp_path):
        for d in ("a", "b"):
            main(["analyze", "--out", str(tmp_path / d),
                  "--override", "family.kind=oscillating"])
        a = (tmp_path / "a" / "hypotheses.json").read_bytes()
        b = (tmp_path / "b" / "hypotheses.json").read_bytes()
        assert a == b

    def test_schema_doc_in_sync(self):
        doc = Path(__file__).resolve().parents[1] / "docs" / "output_schemas.md"
        text = doc.read_text()
        for name, cols in schemas.ALL.items():
            assert name in text
            assert ",".join(cols) in text
