import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qetchain
from qetchain import NumericsError
from qetchain.cli import build_parser, cli_main, parse_config, run_validate
from qetchain.experiment import RunConfig


class TestExitCodes:
    def test_setting1_writes_csv(self, tmp_path):
        out = tmp_path / "s1.csv"
        code = cli_main(["setting1", "--n", "20", "--alpha", "a1", "--d-max", "5",
                         "--out", str(out), "--threads", "1"])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 7  # header + d = 0..5
        assert lines[0].startswith("d,E_B_opt")

    def test_full_separation_sweep_row_count(self, tmp_path):
        out = tmp_path / "s1.csv"
        code = cli_main(["setting1", "--n", "100", "--alpha", "a4", "--d-max", "40",
                         "--out", str(out)])
        assert code == 0
        assert len(out.read_text().strip().split("\n")) == 42  # header + d = 0..40

    def test_size_sweep_row_count(self, tmp_path):
        out = tmp_path / "size.csv"
        code = cli_main(["size-sweep", "--alpha", "a4", "--n-list", "20,40,60,80,100",
                         "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 6  # header + 5 sizes
        assert lines[0] == "N,delta_E_N,E_B_abs,beta"

    def test_unknown_flag(self, capsys):
        assert cli_main(["setting1", "--frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert cli_main(["teleport"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_malformed_value(self, capsys):
        assert cli_main(["setting1", "--n", "twelve"]) == 1
        assert "invalid" in capsys.readouterr().err

    def test_out_of_range_grid(self, capsys):
        assert cli_main(["setting2", "--n", "10", "--ell-max", "9", "--threads", "1"]) == 1
        err = capsys.readouterr().err
        assert "ell" in err

    def test_bad_alpha_literal(self, capsys):
        assert cli_main(["setting1", "--alpha", "huge"]) == 1

    def test_empty_size_list(self, capsys):
        assert cli_main(["size-sweep", "--n-list", ","]) == 1
        assert "n-list" in capsys.readouterr().err

    def test_numerical_failure_maps_to_exit_2(self, monkeypatch, capsys):
        import qetchain.experiment as experiment

        def boom(config):
            raise NumericsError("synthetic failure")

        monkeypatch.setattr(experiment, "sweep_setting1", boom)
        assert cli_main(["setting1", "--n", "20", "--alpha", "a1"]) == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_failing_row_names_its_grid_point(self, monkeypatch, capsys):
        # The sweep collects the recursion's forms before it evaluates any
        # row, so the fault is planted in the recursion, at ell = 37.
        import qetchain.experiment as experiment

        real = experiment.setting2_forms

        def flaky(params, hi):
            for ell, form in enumerate(real(params, hi), start=1):
                if ell == 37:
                    raise np.linalg.LinAlgError("synthetic failure")
                yield form

        monkeypatch.setattr(experiment, "setting2_forms", flaky)
        assert cli_main(["setting2", "--n", "100", "--alpha", "a1", "--ell-min", "36", "--ell-max", "38"]) == 2
        err = capsys.readouterr().err
        assert "numerical failure" in err and "ell=37" in err and "synthetic failure" in err

    def test_unphysical_row_names_its_grid_point(self, monkeypatch, capsys):
        # dp + 1 at ell = 37 pushes the target's symplectic eigenvalue below
        # 1/2 there, and only there.
        import qetchain.experiment as experiment

        real = experiment.setting2_forms

        def inflated(params, hi):
            for ell, (dp, dq, jq) in enumerate(real(params, hi), start=1):
                yield (dp + 1.0 if ell == 37 else dp), dq, jq

        monkeypatch.setattr(experiment, "setting2_forms", inflated)
        assert cli_main(["setting2", "--n", "100", "--alpha", "a1", "--ell-min", "36", "--ell-max", "38"]) == 2
        err = capsys.readouterr().err
        assert "numerical failure: ell=37: target symplectic eigenvalue^2" in err and "< 1/4" in err

    def test_unphysical_size_row_names_its_size_and_block(self, monkeypatch, capsys):
        # A target that starts as a pure product state (x^2 - 1 = 0) has no
        # entanglement to lose, so the measurement at N = 20 (ell = 8) fails.
        import qetchain.experiment as experiment

        monkeypatch.setattr(experiment, "target_x2m1", lambda g, h: 0.0)
        assert cli_main(["size-sweep", "--alpha", "a1", "--n-list", "20", "--threads", "1"]) == 2
        err = capsys.readouterr().err
        assert "numerical failure: N=20: ell=8: target symplectic eigenvalue^2" in err and "< 1/4" in err

    def test_failing_setting1_row_names_its_separation(self, monkeypatch, capsys):
        # The sweep evaluates every separation in one pass, so the fault is
        # planted in the correlators the pass reads: only the pair at
        # r = d + 1 = 4 is unphysical, with (g_0 - g_4)(h_0 + h_4) < 0.
        import qetchain.qet_protocol as qet_protocol

        real = qet_protocol.correlation_vectors

        def unphysical_at_4(n_sites, alpha):
            g, h = (v.copy() for v in real(n_sites, alpha))
            g[4] = 2.0 * g[0]
            return g, h

        monkeypatch.setattr(qet_protocol, "correlation_vectors", unphysical_at_4)
        assert cli_main(["setting1", "--n", "20", "--alpha", "a1", "--d-max", "5", "--threads", "1"]) == 2
        err = capsys.readouterr().err
        assert "numerical failure" in err and "d=3" in err and "non-finite cell" in err

    @pytest.mark.parametrize("args", [["validate", "--threads", "1"], ["setting1", "--seed", "1"]])
    def test_flag_the_mode_never_reads_is_rejected(self, args, capsys):
        assert cli_main(args) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_bad_size_list_names_the_flag(self, capsys):
        assert cli_main(["size-sweep", "--n-list", "a,b"]) == 1
        assert "argument --n-list: must be comma-separated integers, got 'a,b'" in capsys.readouterr().err

    def test_negative_seed_fails_before_any_check(self, capsys):
        assert cli_main(["validate", "--seed", "-1"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "seed must be >= 0, got -1" in err

    def test_unwritable_out_names_the_path(self, tmp_path, capsys):
        out = tmp_path / "missing" / "s1.csv"
        assert cli_main(["setting1", "--n", "20", "--d-max", "3", "--threads", "1", "--out", str(out)]) == 1
        assert f"qetchain: error: cannot write {out}: " in capsys.readouterr().err

    def test_unwritable_out_fails_before_the_sweep(self, tmp_path, monkeypatch, capsys):
        import qetchain.experiment as experiment

        monkeypatch.setattr(experiment, "sweep_setting1", lambda config: pytest.fail("sweep ran before --out"))
        out = tmp_path / "missing" / "s1.csv"
        assert cli_main(["setting1", "--n", "20", "--d-max", "3", "--out", str(out)]) == 1
        assert f"qetchain: error: cannot write {out}: No such file or directory" in capsys.readouterr().err

    def test_failing_sweep_leaves_an_existing_out_intact(self, tmp_path, monkeypatch):
        import qetchain.experiment as experiment

        def boom(config):
            raise NumericsError("synthetic failure")

        monkeypatch.setattr(experiment, "sweep_setting1", boom)
        out = tmp_path / "s1.csv"
        out.write_text("d,E_B_opt\n0,-1\n")
        assert cli_main(["setting1", "--n", "20", "--d-max", "3", "--out", str(out)]) == 2
        assert out.read_text() == "d,E_B_opt\n0,-1\n"


def test_module_entry_point_runs_without_warnings():
    # `python -m qetchain.cli` must not find qetchain.cli already imported by the package.
    src = str(Path(qetchain.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "qetchain.cli",
         "setting1", "--n", "20", "--alpha", "a1", "--d-max", "5", "--threads", "1"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "E_B_abs" in done.stdout


class TestConfigFile:
    def test_file_values_used(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 16\nalpha = a1\nd-max = 4\nthreads = 1\n")
        out = tmp_path / "out.csv"
        code = cli_main(["setting1", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert len(out.read_text().strip().split("\n")) == 6

    def test_cli_flags_override_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 16\nalpha = a1\nd-max = 4\nthreads = 1\n")
        out = tmp_path / "out.csv"
        code = cli_main(["setting1", "--config", str(cfg), "--d-max", "2", "--out", str(out)])
        assert code == 0
        assert len(out.read_text().strip().split("\n")) == 4

    def test_unknown_key_is_fatal(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 16\nd_max = 4\n")  # wrong spelling: hyphen expected
        assert cli_main(["setting1", "--config", str(cfg)]) == 1
        assert "unknown key" in capsys.readouterr().err

    def test_malformed_line_is_fatal(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n 16\n")
        assert cli_main(["setting1", "--config", str(cfg)]) == 1

    def test_bad_size_list_names_file_and_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = a1\nn-list = a,b\n")
        assert cli_main(["size-sweep", "--config", str(cfg)]) == 1
        assert f"{cfg}:2: malformed value for 'n-list': 'a,b'" in capsys.readouterr().err


# One value per flag, each different from the RunConfig default.
FLAG_VALUES = {
    "n": "24", "alpha": "a2", "omega": "1.5", "seed": "9", "threads": "2", "d-max": "7",
    "ell-min": "2", "ell-max": "5", "n-list": "8,10,12", "fit-min": "3", "fit-max": "9", "out": "x.csv",
}


# Each mode's flags, which are also its config keys: a mode takes only what it reads.
SWEEP_KEYS = {"n", "alpha", "omega", "threads", "fit-min", "fit-max", "out"}
MODE_KEYS = {
    "setting1": SWEEP_KEYS | {"d-max"},
    "setting2": SWEEP_KEYS | {"ell-min", "ell-max"},
    "size-sweep": SWEEP_KEYS | {"n-list"},
    "validate": {"n", "alpha", "omega", "seed"},
}


@pytest.mark.parametrize("mode", ["setting1", "setting2", "size-sweep", "validate"])
def test_every_flag_is_a_config_key_with_the_same_meaning(mode, tmp_path):
    subparser = build_parser().modes[mode]
    keys = [option[2:] for action in subparser._actions for option in action.option_strings
            if option.startswith("--") and option not in ("--config", "--help")]
    assert set(keys) == MODE_KEYS[mode]
    cfg = tmp_path / "all.cfg"
    cfg.write_text("".join(f"{key} = {FLAG_VALUES[key]}\n" for key in keys))
    from_file = parse_config([mode, "--config", str(cfg)])
    from_flags = parse_config([mode] + [arg for key in keys for arg in (f"--{key}", FLAG_VALUES[key])])
    assert from_file == from_flags
    default = RunConfig(mode=mode)
    for action in subparser._actions:
        if action.dest not in ("config", "help"):
            assert getattr(from_file, action.dest) != getattr(default, action.dest), action.dest


@pytest.mark.parametrize("key", ["d-max", "out", "threads"])
def test_validate_rejects_sweep_keys(key, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {FLAG_VALUES[key]}\n")
    assert cli_main(["validate", "--config", str(cfg)]) == 1
    assert "unknown key" in capsys.readouterr().err


class TestDeterministicOutput:
    def test_same_config_same_bytes(self, tmp_path):
        args = ["size-sweep", "--alpha", "a1", "--n-list", "6,8,10"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli_main(args + ["--out", str(out1)]) == 0
        assert cli_main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_fit_summary_lines(self, capsys, tmp_path):
        code = cli_main(["setting1", "--n", "30", "--alpha", "a4", "--d-max", "12",
                         "--fit-min", "2", "--fit-max", "12", "--threads", "1"])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        named = {line.split()[0] for line in lines}
        assert {"E_B_abs", "delta_S_M"} <= named
        # quantity amplitude exponent offset r2 window
        for line in lines:
            parts = line.split()
            assert len(parts) == 6
            assert parts[3] == "-"
            assert ".." in parts[5]


class TestValidateSuite:
    def test_all_invariants_pass(self, capsys):
        config = RunConfig(mode="validate", n_sites=20, alpha=0.9, seed=11)
        assert run_validate(config) is True
        out = capsys.readouterr().out
        assert out.count("PASS") == 9
        assert "FAIL" not in out

    def test_monte_carlo_lines_are_pinned(self, capsys):
        # The Monte Carlo draw and its estimator are bit-sensitive: these lines pin the seed-1 output.
        assert cli_main(["validate", "--seed", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2:] == [
            "PASS monte-carlo-energy: analytic -3.2788e-04, sampled -3.1158e-04 +- 2.1e-05",
            "PASS perturbed-plan-not-better: perturbed -3.0979e-04 vs optimum -3.2788e-04",
        ]

    def test_cli_validate_exit_code(self, capsys):
        assert cli_main(["validate", "--n", "20", "--alpha", "a1", "--seed", "3"]) == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("flag, value", [("--n", "5"), ("--omega", "-1"), ("--alpha", "1.0")])
    def test_bad_chain_parameter_fails_before_any_check(self, flag, value, capsys):
        assert cli_main(["validate", flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "qetchain: error:" in captured.err
