import math
import subprocess
import sys
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from rissim import cli, harness, ris
from rissim.channels import ChannelModel, LinkRole
from rissim.cli import main
from rissim.precoding import InfeasibleError, min_power_precoder
from rissim.scenario import default_config, dump_config, full_config, load_config

SMALL_INI = """
[bs]
n_y = 2
n_z = 2

[ris]
tile_n_y = 2
tile_n_z = 2

[run]
trials = 3
models = iid_rayleigh, iid_rician

[sweep]
q = 8
n_ue = 2
"""


class TestConfigRoundTrip:
    def test_dump_load_identity(self):
        cfg = default_config()
        text = dump_config(cfg)
        again = dump_config(load_config(text))
        assert text == again

    def test_overrides_apply(self):
        cfg = load_config(SMALL_INI)
        assert cfg.bs_counts == (2, 2)
        assert cfg.tile_shape == (2, 2)
        assert cfg.sweep_q == [8]
        assert cfg.trials == 3
        assert cfg.models == [ChannelModel.IID_RAYLEIGH, ChannelModel.IID_RICIAN]
        # untouched defaults survive
        assert cfg.links[LinkRole.DIRECT].eta == 3.5
        assert cfg.links[LinkRole.DIRECT].blockage_db == -40.0

    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError):
            load_config("[typo]\nx = 1\n")

    def test_full_preset(self):
        cfg = full_config()
        assert cfg.trials == 1000
        assert 4096 in cfg.sweep_q


class TestConfigValidation:
    @pytest.mark.parametrize(
        "name", ["carrier_hz", "bandwidth_hz", "gamma_thr", "spacing_wavelengths"]
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    def test_not_finite_or_not_positive_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            replace(default_config(), **{name: value})

    @pytest.mark.parametrize(
        "section, key",
        [("system", "carrier_hz"), ("system", "bandwidth_hz"), ("system", "gamma_thr"),
         ("ris", "spacing_wavelengths")],
    )
    def test_nan_in_ini_rejected(self, section, key):
        with pytest.raises(ValueError, match=key):
            load_config(f"[{section}]\n{key} = nan\n")

    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0, 1.0, 2.0])
    def test_bad_precoder_tol_rejected(self, value):
        with pytest.raises(ValueError, match="precoder_tol"):
            replace(default_config(), precoder_tol=value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_ue_area_side_rejected(self, value):
        with pytest.raises(ValueError, match="ue_side"):
            replace(default_config(), ue_side=value)

    @pytest.mark.parametrize("value", [0, -3])
    def test_precoder_max_iters_below_one_rejected(self, value):
        with pytest.raises(ValueError, match="precoder_max_iters"):
            replace(default_config(), precoder_max_iters=value)

    @pytest.mark.parametrize(
        "text, name",
        [
            ("[precoder]\ntol = nan\n", "precoder_tol"),
            ("[precoder]\ntol = 0\n", "precoder_tol"),
            ("[precoder]\ntol = 1\n", "precoder_tol"),
            ("[precoder]\nmax_iters = 0\n", "precoder_max_iters"),
            ("[ue]\narea_side = nan\n", "ue_side"),
            ("[ue]\narea_side = -8\n", "ue_side"),
        ],
    )
    def test_bad_precoder_and_area_in_ini_rejected(self, text, name):
        with pytest.raises(ValueError, match=name):
            load_config(text)


class TestCliRun:
    def test_run_writes_csv(self, tmp_path):
        ini = tmp_path / "cfg.ini"
        ini.write_text(SMALL_INI)
        out = tmp_path / "agg.csv"
        rc = main(["run", "--config", str(ini), "--out", str(out), "--raw"])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "model,Q,n_ue,trials,feasible_frac,mean_ptx_dbm,std_ptx_db,seed"
        assert len(lines) == 3  # two models, one cell each
        raw = (tmp_path / "agg.raw.csv").read_text().splitlines()
        assert raw[0] == "model,Q,n_ue,trial,feasible,ptx_watts,seed"
        assert len(raw) == 7

    def test_seed_and_trials_flags(self, tmp_path):
        ini = tmp_path / "cfg.ini"
        ini.write_text(SMALL_INI)
        out = tmp_path / "agg.csv"
        main(["run", "--config", str(ini), "--seed", "99", "--trials", "2", "--out", str(out)])
        body = out.read_text()
        assert body.splitlines()[1].endswith(",99")
        assert ",2," in body.splitlines()[1]

    def test_raw_without_out_fails(self, tmp_path, monkeypatch):
        sweeps = []
        monkeypatch.setattr(harness, "run_sweep", lambda config: sweeps.append(config))
        ini = tmp_path / "cfg.ini"
        ini.write_text(SMALL_INI)
        assert main(["run", "--config", str(ini), "--raw"]) == 2
        assert sweeps == []


class TestCliScenario:
    def test_prints_resolved_config(self, capsys):
        assert main(["scenario"]) == 0
        text = capsys.readouterr().out
        assert "[system]" in text
        assert "carrier_hz = 5000000000" in text
        reloaded = load_config(text)
        assert reloaded == default_config()

    def test_preset_flag(self, capsys):
        main(["scenario", "--preset", "full"])
        assert "trials = 1000" in capsys.readouterr().out


class TestCliCheck:
    def test_oracle_suite_passes(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 7 and "FAIL" not in out
        assert "all 16 tile selections (K=1 to 4)" in out
        assert "PASS pipeline-tiles: all 80 tile searches on pipeline channels" in out
        assert "PASS lowrank-kron: 6 links match the dense steering oracle" in out

    @pytest.mark.parametrize(
        "flags",
        [["--trials", "5"], ["--preset", "full"], ["--config", "/nonexistent.ini"]],
        ids=["trials", "preset", "config"],
    )
    def test_sweep_flags_rejected(self, flags):
        # check takes only --seed; a sweep flag is an error, not ignored
        with pytest.raises(SystemExit) as exc:
            main(["check", *flags])
        assert exc.value.code == 2


class TestCheckPipelineTiles:
    """The ``pipeline-tiles`` line fails when the K >= 3 search loses a winner."""

    def test_fails_when_the_pivot_test_keeps_no_candidate(self, monkeypatch):
        # only the top-8 candidates by bound are then solved
        monkeypatch.setattr(ris, "_lambda_min_above", lambda grams, tau: np.zeros(len(grams), bool))
        ok, detail = cli._check_pipeline_tiles(1234)
        assert not ok
        assert "mismatches" in detail


def _gram_without_leave_one_out(h, gamma_thr, noise_power, tol=1e-10):
    """A seeded defect: the Gram-form fixed point with Sherman-Morrison's
    leave-one-out factor ``noise * (M^-1)_ii`` dropped, ``q_i = gamma / a_i``."""
    gram = np.conj(h).T @ h
    q = np.zeros(h.shape[1])
    for iterations in range(1, 501):
        mi = np.linalg.inv(noise_power * np.eye(len(q)) + gram * q)
        q_new = gamma_thr / (mi * gram.T).sum(axis=1).real
        if not q_new.max() < 1e12:
            raise InfeasibleError("dual uplink powers diverged", "diverged")
        delta, q = (np.abs(q_new - q) / q_new).max(), q_new
        if delta < tol:
            return SimpleNamespace(iterations=iterations, total_power=float(q.sum()))
    raise InfeasibleError("dual fixed point did not converge", "not_converged")


class TestCheckPrecoderGram:
    """The ``precoder-gram`` line passes on the program and fails on defects."""

    @pytest.mark.parametrize("seed", [6, 16, 18, 29])
    def test_reference_rounding_is_allowed(self, seed):
        # at gamma = 1e4 the N_t-space reference stops later than the Gram
        # form at these seeds, within its own rounding floor of tol
        ok, detail = cli._check_precoder_gram(seed)
        assert ok, detail
        assert "(1 stopped later by the reference within its rounding floor" in detail

    @pytest.mark.parametrize(
        "defect",
        [
            lambda h, gamma, noise: min_power_precoder(h, gamma, noise, tol=1e-9),
            _gram_without_leave_one_out,
        ],
        ids=["stops-at-10-tol", "no-leave-one-out-factor"],
    )
    def test_fails_on_a_seeded_defect(self, monkeypatch, defect):
        monkeypatch.setattr(cli, "min_power_precoder", defect)
        ok, detail = cli._check_precoder_gram(1234)
        assert not ok
        assert "mismatches" in detail


class TestCliErrors:
    """A bad flag, config or seed is one ``rissim: error:`` line on stderr, exit code 2."""

    def error_line(self, capsys, argv) -> str:
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("rissim: error: ") and captured.err.count("\n") == 1
        return captured.err

    def test_negative_run_seed(self, capsys):
        assert "master_seed" in self.error_line(capsys, ["run", "--seed", "-1"])

    def test_unknown_ini_key(self, tmp_path, capsys):
        ini = tmp_path / "typo.ini"
        ini.write_text("[run]\ntrails = 5\n")
        assert "'trails'" in self.error_line(capsys, ["run", "--config", str(ini)])

    def test_negative_check_seed(self, capsys):
        assert "--seed" in self.error_line(capsys, ["check", "--seed", "-1"])

    @pytest.mark.parametrize(
        "argv", [["run", "--trials", "abc"], ["check", "--seed", "abc"]], ids=["run", "check"]
    )
    def test_non_integer_flag(self, capsys, argv):
        assert "invalid int value: 'abc'" in self.error_line(capsys, argv)

    @pytest.mark.parametrize("command", ["run", "scenario"])
    @pytest.mark.parametrize(
        "text, name",
        [
            ("[ris]\ntile_n_y = 0\n", "tile_shape"),
            ("[ris]\ntile_n_y = -8\n", "tile_shape"),
            ("[bs]\nn_y = -4\nn_z = -4\n", "bs_counts"),
            ("[bs]\nn_y = 0\n", "bs_counts"),
            ("[link.bs_ue]\nbeta_db = 3000\nshadow_db = 3000\n", "beta_db + blockage_db + shadow_db"),
            ("[link.bs_ris]\nbeta_db = 3000\n", "bs_ris + ris_ue link budget"),
        ],
        ids=["tile-zero", "tile-negative", "bs-negative", "bs-zero", "db-budget", "cascaded-budget"],
    )
    def test_bad_size_or_budget_fails_before_first_trial(
        self, tmp_path, capsys, monkeypatch, command, text, name
    ):
        trials = []
        monkeypatch.setattr(harness, "run_trial", lambda *a, **k: trials.append(a))
        ini = tmp_path / "bad.ini"
        ini.write_text(text)
        assert name in self.error_line(capsys, [command, "--config", str(ini)])
        assert trials == []

    def test_overflowing_pathloss(self, tmp_path, capsys, monkeypatch):
        # the closest UE the square allows bounds the distance term, so this
        # fails when the config is built
        trials = []
        monkeypatch.setattr(harness, "run_trial", lambda *a, **k: trials.append(a))
        ini = tmp_path / "overflow.ini"
        ini.write_text("[run]\nmodels = iid_rayleigh\n[link.bs_ue]\nd0 = 1e6\neta = 100\n")
        assert "bs_ue link budget" in self.error_line(
            capsys, ["run", "--trials", "1", "--config", str(ini)]
        )
        assert trials == []

    @pytest.mark.parametrize(
        "out, raw",
        [("missing/x.csv", False), (".", False), ("x.csv", True)],
        ids=["missing-dir", "is-dir", "raw-is-dir"],
    )
    def test_unusable_out_fails_before_first_trial(self, tmp_path, capsys, monkeypatch, out, raw):
        trials = []

        def no_trial(*args, **kwargs):
            trials.append(args)
            raise RuntimeError("a trial ran before --out was checked")

        monkeypatch.setattr(harness, "run_trial", no_trial)
        (tmp_path / "x.raw.csv").mkdir()  # where --raw would write for x.csv
        argv = ["run", "--trials", "2", "--out", str(tmp_path / out)] + ["--raw"] * raw
        assert ("--raw" if raw else "--out") in self.error_line(capsys, argv)
        assert trials == [] and not (tmp_path / "x.csv").exists()


class TestSubprocessEntry:
    def test_module_invocation(self, tmp_path):
        ini = tmp_path / "cfg.ini"
        ini.write_text(SMALL_INI)
        proc = subprocess.run(
            [sys.executable, "-m", "rissim", "run", "--config", str(ini), "--trials", "2"],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("model,Q,n_ue,")

    def test_config_error_is_one_line(self):
        proc = subprocess.run(
            [sys.executable, "-m", "rissim", "run", "--seed", "-1"],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == ["rissim: error: master_seed must be >= 0, got -1"]
