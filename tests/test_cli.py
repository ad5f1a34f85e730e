import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qetchain
from qetchain import NumericsError
from qetchain.cli import _config_keys, build_parser, cli_main, parse_config, run_validate
from qetchain.experiment import RunConfig


EB_3_POINTS = "E_B_abs aborted: need at least 4 points, got 3"


class TestExitCodes:
    def test_setting1_writes_csv(self, tmp_path):
        out = tmp_path / "s1.csv"
        code = cli_main(["setting1", "--n", "20", "--alpha", "a1", "--d-max", "5",
                         "--out", str(out)])
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
        assert cli_main(["setting2", "--n", "10", "--ell-max", "9"]) == 1
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
        assert cli_main(["size-sweep", "--alpha", "a1", "--n-list", "20"]) == 2
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
        assert cli_main(["setting1", "--n", "20", "--alpha", "a1", "--d-max", "5"]) == 2
        err = capsys.readouterr().err
        assert "numerical failure" in err and "d=3" in err and "non-finite cell" in err

    @pytest.mark.parametrize("args", [["validate", "--threads", "1"], ["setting1", "--seed", "1"],
                                      ["setting2", "--fit-min", "3"], ["setting2", "--threads", "1"],
                                      ["size-sweep", "--n", "50"]])
    def test_flag_the_mode_never_reads_is_rejected(self, args, tmp_path, capsys):
        assert cli_main(args) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        mode, flag, value = args
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{flag[2:]} = {value}\n")
        assert cli_main([mode, "--config", str(cfg)]) == 1
        assert f"unknown key {flag[2:]!r}" in capsys.readouterr().err

    def test_bad_size_list_names_the_flag(self, capsys):
        assert cli_main(["size-sweep", "--n-list", "a,b"]) == 1
        assert "argument --n-list: must be comma-separated integers, got 'a,b'" in capsys.readouterr().err

    def test_negative_seed_fails_before_any_check(self, capsys):
        assert cli_main(["validate", "--seed", "-1"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "seed must be >= 0, got -1" in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("mode", ["setting1", "setting2", "size-sweep", "validate"])
    def test_non_finite_omega_fails_before_any_output(self, mode, value, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"omega = {value}\n")
        for argv in ([mode, "--omega", value], [mode, "--config", str(cfg)]):
            assert cli_main(argv) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert f"omega must be finite and positive, got {value}" in err

    @pytest.mark.parametrize("window, message", [
        ({"fit-min": "nan"}, "fit-min must be a number, got nan"),
        ({"fit-max": "nan"}, "fit-max must be a number, got nan"),
        ({"fit-min": "30", "fit-max": "10"}, "fit window is empty: fit-min 30.0 > fit-max 10.0"),
    ])
    @pytest.mark.parametrize("mode", ["setting1", "size-sweep"])
    def test_bad_fit_window_fails_before_any_output(self, mode, window, message, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in window.items()))
        flags = [item for key, value in window.items() for item in (f"--{key}", value)]
        for argv in ([mode, *flags], [mode, "--config", str(cfg)]):
            assert cli_main(argv) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert message in err

    @pytest.mark.parametrize("argv, message", [
        (["setting1", "--n", "100", "--fit-min", "50"],
         "fit window is empty: fit-min 50.0 > fit-max 40.0 (setting1 default)"),
        (["size-sweep", "--alpha", "a4", "--n-list", "20,40,60,80,100", "--fit-max", "30"],
         "fit window is empty: fit-min 40.0 (size-sweep default) > fit-max 30.0"),
        (["setting1", "--n", "100", "--fit-min", "39"],
         "fit window holds 2 grid points, a fit needs 3: fit-min 39.0, fit-max 40.0 (setting1 default)"),
        (["setting1", "--n", "100", "--fit-max", "2"],
         "fit window is empty: fit-min 10.0 (setting1 default) > fit-max 2.0"),
        (["setting1", "--n", "100", "--fit-min", "0", "--fit-max", "2"],
         "fit window holds 2 grid points, a fit needs 3: fit-min 0.0, fit-max 2.0"),
        (["size-sweep", "--alpha", "a4", "--n-list", "20,40,60,80,100", "--fit-min", "70"],
         "fit window holds 2 grid points, a fit needs 3: fit-min 70.0, fit-max 100.0 (size-sweep default)"),
        (["size-sweep", "--alpha", "a4", "--n-list", "20,40,60,80,100", "--fit-max", "50"],
         "fit window holds 1 grid points, a fit needs 3: fit-min 40.0 (size-sweep default), fit-max 50.0"),
        (["size-sweep", "--alpha", "a1", "--n-list", "40,40,40,40,40", "--fit-min", "40"],
         "fit window holds 1 grid points, a fit needs 3: fit-min 40.0, fit-max 40.0 (size-sweep default)"),
        (["setting1", "--n", "100", "--fit-min", "38"], []),
        (["setting1", "--n", "100", "--fit-max", "12"], []),
        (["size-sweep", "--alpha", "a4", "--n-list", "20,40,60,80,100", "--fit-min", "60"], [EB_3_POINTS]),
        (["size-sweep", "--alpha", "a4", "--n-list", "20,40,60,80,100", "--fit-max", "80"], [EB_3_POINTS]),
    ])
    def test_half_given_fit_window_is_checked_against_the_grid(self, argv, message, tmp_path, capsys):
        # The bound not given takes the mode's default; a window left with fewer than 3 grid points fails.
        # A window that runs expects the list of its aborted lines: of a 3-point size-sweep window, only
        # E_B_abs's, whose offset fit needs 4 points.
        flags = [i for i, arg in enumerate(argv) if arg.startswith("--fit-")]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{argv[i][2:]} = {argv[i + 1]}\n" for i in flags))
        rest = [arg for i, arg in enumerate(argv) if i not in flags and i - 1 not in flags]
        for args in (argv, rest + ["--config", str(cfg)]):
            code = cli_main(args)
            out, err = capsys.readouterr()
            if isinstance(message, list):
                assert code == 0, err
                assert len(out.splitlines()) == {"setting1": 2, "size-sweep": 3}[argv[0]]
                assert [line for line in out.splitlines() if "aborted" in line] == message
            else:
                assert code == 1
                assert out == ""
                assert message in err

    def test_default_window_with_two_distinct_sizes_fits_nothing(self, capsys):
        assert cli_main(["size-sweep", "--alpha", "a1", "--n-list", "40,40,60,60"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"{name} aborted: need at least 3 distinct abscissae, got 2" for name in ("delta_E_N", "E_B_abs", "beta")]

    def test_setting2_names_a_size_too_small(self, capsys):
        assert cli_main(["setting2", "--n", "4"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "qetchain: error: setting 2 needs N >= 6, got 4\n"

    def test_unwritable_out_names_the_path(self, tmp_path, capsys):
        out = tmp_path / "missing" / "s1.csv"
        assert cli_main(["setting1", "--n", "20", "--d-max", "3", "--out", str(out)]) == 1
        assert f"qetchain: error: cannot write {out}: " in capsys.readouterr().err

    def test_unwritable_out_fails_before_the_sweep(self, tmp_path, monkeypatch, capsys):
        import qetchain.experiment as experiment

        monkeypatch.setattr(experiment, "sweep_setting1", lambda config: pytest.fail("sweep ran before --out"))
        out = tmp_path / "missing" / "s1.csv"
        assert cli_main(["setting1", "--n", "20", "--d-max", "3", "--out", str(out)]) == 1
        assert f"qetchain: error: cannot write {out}: No such file or directory" in capsys.readouterr().err

    def test_out_naming_a_directory_fails_before_the_sweep(self, tmp_path, monkeypatch, capsys):
        import qetchain.experiment as experiment

        monkeypatch.setattr(experiment, "sweep_setting2", lambda config: pytest.fail("sweep ran before --out"))
        assert cli_main(["setting2", "--n", "20", "--out", str(tmp_path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"qetchain: error: cannot write {tmp_path}: Is a directory\n"

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
         "setting1", "--n", "20", "--alpha", "a1", "--d-max", "5"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "E_B_abs" in done.stdout


def test_closed_stdout_exits_quietly():
    # Unbuffered, so each line is written as it is printed and the write after the close fails.
    src = str(Path(qetchain.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen([sys.executable, "-u", "-m", "qetchain.cli", "validate"], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert proc.stdout.readline().startswith("PASS ")
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert err == ""


class TestConfigFile:
    def test_file_values_used(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 16\nalpha = a1\nd-max = 4\n")
        out = tmp_path / "out.csv"
        code = cli_main(["setting1", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert len(out.read_text().strip().split("\n")) == 6

    def test_cli_flags_override_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 16\nalpha = a1\nd-max = 4\n")
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
    "ell-min": "2", "ell-max": "5", "n-list": "8,10,12", "fit-min": "3", "fit-max": "12", "out": "x.csv",
}


# Each mode's flags, which are also its config keys: a mode takes only what it reads.
SWEEP_KEYS = {"n", "alpha", "omega", "out"}
FIT_KEYS = {"fit-min", "fit-max"}
MODE_KEYS = {
    "setting1": SWEEP_KEYS | FIT_KEYS | {"d-max"},
    "setting2": SWEEP_KEYS | {"ell-min", "ell-max"},
    "size-sweep": SWEEP_KEYS - {"n"} | FIT_KEYS | {"n-list"},
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


# A base run per mode, and the FLAG_VALUES a mode's base run needs replaced to stay valid and differ from it.
BASE_RUNS = {
    "setting1": ([], {"n": "60", "d-max": "30", "fit-min": "5"}),
    "setting2": (["--n", "24"], {"n": "30"}),
    "size-sweep": (["--n-list", "20,40,60,80,100"], {"n-list": "20,40,60,80,100,120", "fit-max": "80"}),
    "validate": ([], {}),
}


def _printed(argv, capsys) -> str:
    """A run's stdout, followed by the CSV it wrote to its --out, if it has one."""
    code = cli_main(argv)
    out, err = capsys.readouterr()
    assert code == 0, (argv, err)
    return out + (Path(argv[argv.index("--out") + 1]).read_text() if "--out" in argv else "")


@pytest.mark.parametrize("mode", list(BASE_RUNS))
def test_every_option_changes_what_the_mode_prints(mode, tmp_path, capsys):
    # Each run but the one without --out writes a CSV of its own, so every comparison reads a fresh file.
    base, replaced = BASE_RUNS[mode]
    values = {**FLAG_VALUES, **replaced}
    keys = _config_keys(build_parser().modes[mode])

    def out(name):
        return ["--out", str(tmp_path / f"{name}.csv")] if "out" in keys else []

    reference = _printed([mode, *base, *out("base")], capsys)
    for key in keys.keys() - {"out"}:
        assert _printed([mode, *base, f"--{key}", values[key], *out(key)], capsys) != reference, key
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"alpha = {values['alpha']}\n")
    assert _printed([mode, *base, "--config", str(cfg), *out("config")], capsys) != reference, "config"
    if "out" in keys:
        assert _printed([mode, *base], capsys) != reference, "out"


class TestDeterministicOutput:
    def test_same_config_same_bytes(self, tmp_path):
        args = ["size-sweep", "--alpha", "a1", "--n-list", "6,8,10"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli_main(args + ["--out", str(out1)]) == 0
        assert cli_main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_fit_summary_lines(self, capsys, tmp_path):
        code = cli_main(["setting1", "--n", "30", "--alpha", "a4", "--d-max", "12",
                         "--fit-min", "2", "--fit-max", "12"])
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


class TestRatioLine:
    def test_uncoupled_chain_has_no_ratio_to_summarize(self, capsys):
        # At alpha = 0 no site is entangled, so delta_E_N = 0 and the ratio is NaN at every ell.
        assert cli_main(["setting2", "--n", "20", "--alpha", "0"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "# ratio: undefined (delta_E_N = 0 at every ell)"

    def test_rows_without_a_ratio_are_left_out(self, monkeypatch, capsys):
        import qetchain.experiment as experiment

        def with_gaps(config):
            ratio = np.array([np.nan, 0.25, np.nan, 0.5, 0.75, np.nan])
            return experiment.SweepTable({"ell": np.arange(1, 7), "delta_E_N": np.where(np.isnan(ratio), 0.0, 1.0),
                                          "E_B_abs": np.nan_to_num(ratio), "ratio": ratio})

        monkeypatch.setattr(experiment, "sweep_setting2", with_gaps)
        assert cli_main(["setting2", "--n", "20"]) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert last == "# ratio: max 0.75 at ell=5, monotone=True, below-one=True"


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
