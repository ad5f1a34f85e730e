"""Command-line front end: sweep subcommands, config files, the validate suite.

Exit codes: 0 on success, 1 on configuration errors (unknown flags or keys,
malformed values, out-of-range grids, an --out that is unwritable or names a
directory) and when stdout closes before the output is written, 2 on
numerical failures.  The subparsers are the one list of flags: a
config-file key is a flag without its dashes, converted by the flag's type,
and every default is RunConfig's.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys

import numpy as np

from . import experiment, oracle
from .chain_model import ChainParams, correlation_vectors, ground_covariance
from .experiment import ALPHA_PRESETS, RunConfig, render_fit_lines, resolve_alpha, summary_fits
from .gaussian_state import NumericsError
from .povm_measurement import MeasurementSpec


class CliError(Exception):
    """Configuration problem: bad flag, bad value, bad config-file key."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep control of the exit code
        raise CliError(f"{message}\n{self.format_usage()}")


def _parse_n_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be comma-separated integers, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    """Top-level parser; parser.modes maps each subcommand name to its subparser.

    A flag left unset stays out of the parsed namespace, so RunConfig supplies every default.
    Flags match only in full, as config keys do: an abbreviation would let a flag a mode does
    not take pass as one it does (size-sweep --n as --n-list).
    """
    parser = _Parser(prog="qetchain", description="Harmonic-chain energy-teleportation sweeps")
    sub = parser.add_subparsers(dest="mode", required=True)
    parser.modes = sub.choices

    def mode(name, summary, *flags):
        p = sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS, allow_abbrev=False)
        p.add_argument("--alpha", help="coupling: preset a1=0.90, a2=0.95, a3=0.99, a4=1-1e-7, or a number")
        p.add_argument("--omega", type=float, help=f"measurement frequency (default {RunConfig.omega})")
        p.add_argument("--config", help="key = value file; command-line flags win")
        if name in experiment.FITS:  # the modes that print fit lines, with their default windows
            x, (lo, hi), _ = experiment.FITS[name]
            p.add_argument("--fit-min", type=float, help=f"smallest {x} fitted (default {lo:g})")
            hi = "the largest N of --n-list" if hi is None else f"{hi:g}"
            p.add_argument("--fit-max", type=float, help=f"largest {x} fitted (default {hi})")
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)

    n_flag = ("--n", dict(dest="n_sites", type=int, metavar="N",
                          help=f"chain size (even, >= 4; default {RunConfig.n_sites})"))
    out_flag = ("--out", dict(help="CSV output path"))
    mode("setting1", "separation sweep with single-site groups", n_flag,
         ("--d-max", dict(type=int, help=f"largest separation (default {RunConfig.d_max})")), out_flag)
    mode("setting2", "measured-block-size sweep at fixed N", n_flag,
         ("--ell-min", dict(type=int)), ("--ell-max", dict(type=int)), out_flag)
    mode("size-sweep", "system-size sweep at ell = N/2 - 2",
         ("--n-list", dict(type=_parse_n_list, help="comma-separated even sizes")), out_flag)
    mode("validate", "run the oracle cross-check suite", n_flag,
         ("--seed", dict(type=int, help=f"seed for sampled checks (default {RunConfig.seed})")))
    return parser


def _config_keys(subparser: argparse.ArgumentParser) -> dict[str, argparse.Action]:
    """Config-file key -> flag action: every flag but --config and --help, without its dashes."""
    return {option[2:]: action for action in subparser._actions for option in action.option_strings
            if option.startswith("--") and option not in ("--config", "--help")}


def _read_config_file(path: str, keys: dict[str, argparse.Action]) -> dict:
    """RunConfig field -> converted value for every key = value line of the file."""
    values = {}
    try:
        with open(path) as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc}")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in keys:
            raise CliError(f"{path}:{lineno}: unknown key {key!r} (allowed: {sorted(keys)})")
        action = keys[key]
        try:
            values[action.dest] = (action.type or str)(value)
        except (ValueError, argparse.ArgumentTypeError):
            raise CliError(f"{path}:{lineno}: malformed value for {key!r}: {value!r}")
    return values


def parse_config(argv=None) -> RunConfig:
    """The run a command line asks for: config-file values, then the flags that were set over them."""
    parser = build_parser()
    flags = vars(parser.parse_args(argv))
    mode = flags.pop("mode")
    path = flags.pop("config", None)
    values = _read_config_file(path, _config_keys(parser.modes[mode])) if path else {}
    values.update(flags)
    if "alpha" in values:
        values["alpha"] = resolve_alpha(values["alpha"])
    return RunConfig(mode=mode, **values)


def _validate_checks(config: RunConfig, params):
    """(name, passed, detail) per invariant, computed one at a time."""
    dev = oracle.inverse_pair_deviation((4, 10, 100), (0.0, 0.9, 0.99, ALPHA_PRESETS["a4"]))
    yield "correlator-inverse-pair", dev < 1e-10, f"max |GH - I/4| = {dev:.2e}"
    dev = oracle.virial_deviation(np.random.default_rng(config.seed), 50, 60)
    yield "virial-identity", dev < 1e-12, f"max |h0 - g0 + alpha g1| = {dev:.2e}"
    dev = oracle.purity_deviation(ground_covariance(params))
    yield "ground-state-purity", dev < 1e-9, f"max |nu - 1/2| = {dev:.2e}"
    site_0 = MeasurementSpec(measured_sites=(0,))  # the frequency is each chain's own omega
    dev = oracle.unmeasured_purity_deviation(params, site_0)
    yield "post-measurement-purity", dev < 1e-8, f"max |nu - 1/2| = {dev:.2e}"
    dev = oracle.general_dyne_deviation((4, 6, 8, 12), (0.0, 0.5, 0.9, 0.99), (0.5, 1.0, 2.0),
                                        ((0,), (0, 1), (0, 2)))
    yield "general-dyne-agreement", dev < 1e-10, f"max entry dev = {dev:.2e}"
    fock = oracle.fock_ground_state(0.9, cutoff=25)
    dev = abs(oracle.fock_position_correlator(fock) - correlation_vectors(2, 0.9)[0][1])
    yield "fock-correlator", dev < 1e-6, f"|<q0 q1>_fock - g1| = {dev:.2e}"
    dev = oracle.fock_negativity_deviation(fock, 0.9)
    yield "fock-negativity", dev < 1e-3, f"|E_N fock - E_N gaussian| = {dev:.2e}"
    mc_params = ChainParams(n_sites=100, alpha=0.9, omega=config.omega)
    analytic, [(mean, se), (mean_b, se_b)] = oracle.sampled_plan_energies(
        mc_params, site_0, 2, ((1.0, 1.0, config.seed), (1.1, 1.0, config.seed)), 200_000)
    yield ("monte-carlo-energy", abs(mean - analytic) <= 3 * se,
           f"analytic {analytic:.4e}, sampled {mean:.4e} +- {se:.1e}")
    yield ("perturbed-plan-not-better", mean_b >= analytic - 3 * se_b,
           f"perturbed {mean_b:.4e} vs optimum {analytic:.4e}")


def run_validate(config: RunConfig, stream=None) -> bool:
    """Oracle suite: one pass/fail line per invariant."""
    stream = stream or sys.stdout
    params = config.params()  # a bad chain parameter fails before any line is printed
    results = []
    for name, ok, detail in _validate_checks(config, params):
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}", file=stream)
        results.append(ok)
    return all(results)


def cli_main(argv=None) -> int:
    try:
        config = parse_config(argv)
    except (CliError, ValueError) as exc:
        print(f"qetchain: error: {exc}", file=sys.stderr)
        return 1

    try:
        if config.mode == "validate":
            return 0 if run_validate(config) else 2
        sweep = {
            "setting1": experiment.sweep_setting1,
            "setting2": experiment.sweep_setting2,
            "size-sweep": experiment.sweep_size,
        }[config.mode]
        parent = os.path.dirname(os.path.abspath(config.out or "."))
        if config.out and os.path.isdir(config.out):  # before the sweep, as open() would fail after it
            raise ValueError(f"cannot write {config.out}: {os.strerror(errno.EISDIR)}")
        if config.out and not os.access(parent, os.W_OK):  # before the sweep; opening --out would truncate it
            reason = os.strerror(errno.EACCES if os.path.isdir(parent) else errno.ENOENT)
            raise ValueError(f"cannot write {config.out}: {reason}")
        table = sweep(config)
        if config.out:
            try:
                experiment.write_csv(table, config.out)
            except OSError as exc:
                raise ValueError(f"cannot write {config.out}: {exc.strerror}") from exc
        if config.mode == "setting2":
            print(experiment.ratio_summary(table))
        for line in render_fit_lines(summary_fits(config, table)):
            print(line)
        return 0
    except (NumericsError, np.linalg.LinAlgError) as exc:  # before ValueError: LinAlgError subclasses it
        print(f"qetchain: numerical failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"qetchain: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = cli_main()
        sys.stdout.flush()  # a closed stdout raises here, inside the handler, not at exit
    except BrokenPipeError:  # the reader went away (qetchain validate | head -2)
        # The recipe of Python's signal docs: the exit-time flush then writes to devnull and cannot raise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
