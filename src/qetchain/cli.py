"""Command-line front end: sweep subcommands, config files, the validate suite.

Exit codes: 0 on success, 1 on configuration errors (unknown flags or keys,
malformed values, out-of-range grids), 2 on numerical failures.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import experiment, oracle
from .chain_model import ChainParams, correlation_vectors, ground_covariance
from .experiment import ALPHA_PRESETS, RunConfig, render_fit_lines, resolve_alpha, summary_fits
from .gaussian_state import NumericsError, log_negativity, symplectic_eigenvalues, reduce
from .povm_measurement import MeasurementSpec, post_measurement_covariance, unmeasured_sites
from .qet_protocol import DisplacementPlan, build_quadratics, optimal_plan, optimized_energy


class CliError(Exception):
    """Configuration problem: bad flag, bad value, bad config-file key."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep control of the exit code
        raise CliError(f"{message}\n{self.format_usage()}")


def _parse_n_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise CliError(f"--n-list must be comma-separated integers, got {text!r}")


# Config-file keys accepted per mode; everything else is an error.
_COMMON_KEYS = {"n", "alpha", "omega", "seed", "threads", "out", "fit-min", "fit-max"}
_MODE_KEYS = {
    "setting1": _COMMON_KEYS | {"d-max"},
    "setting2": _COMMON_KEYS | {"ell-min", "ell-max"},
    "size-sweep": _COMMON_KEYS | {"n-list"},
    "validate": {"n", "alpha", "omega", "seed", "threads"},
}
_CONVERTERS = {
    "n": int, "alpha": str, "omega": float, "seed": int, "threads": int,
    "out": str, "fit-min": float, "fit-max": float, "d-max": int,
    "ell-min": int, "ell-max": int, "n-list": _parse_n_list,
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qetchain", description="Harmonic-chain energy-teleportation sweeps")
    sub = parser.add_subparsers(dest="mode", required=True)

    def common(p):
        p.add_argument("--n", type=int, default=None, help="chain size (even, >= 4)")
        p.add_argument("--alpha", default=None,
                       help="coupling: preset a1=0.90, a2=0.95, a3=0.99, a4=1-1e-7, or a number")
        p.add_argument("--omega", type=float, default=None, help="measurement frequency (default 1.0)")
        p.add_argument("--seed", type=int, default=None, help="seed for sampled checks (default 1)")
        p.add_argument("--threads", type=int, default=None, help="worker threads, 0 = auto (default)")
        p.add_argument("--config", default=None, help="key = value file; command-line flags win")

    p1 = sub.add_parser("setting1", help="separation sweep with single-site groups")
    common(p1)
    p1.add_argument("--d-max", type=int, default=None, help="largest separation (default 40)")
    p1.add_argument("--fit-min", type=float, default=None)
    p1.add_argument("--fit-max", type=float, default=None)
    p1.add_argument("--out", default=None, help="CSV output path")

    p2 = sub.add_parser("setting2", help="measured-block-size sweep at fixed N")
    common(p2)
    p2.add_argument("--ell-min", type=int, default=None)
    p2.add_argument("--ell-max", type=int, default=None)
    p2.add_argument("--fit-min", type=float, default=None)
    p2.add_argument("--fit-max", type=float, default=None)
    p2.add_argument("--out", default=None)

    p3 = sub.add_parser("size-sweep", help="system-size sweep at ell = N/2 - 2")
    common(p3)
    p3.add_argument("--n-list", type=_parse_n_list, default=None, help="comma-separated even sizes")
    p3.add_argument("--fit-min", type=float, default=None)
    p3.add_argument("--fit-max", type=float, default=None)
    p3.add_argument("--out", default=None)

    p4 = sub.add_parser("validate", help="run the oracle cross-check suite")
    common(p4)

    return parser


def _read_config_file(path: str, allowed: set[str]) -> dict:
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
        if key not in allowed:
            raise CliError(f"{path}:{lineno}: unknown key {key!r} (allowed: {sorted(allowed)})")
        try:
            values[key] = _CONVERTERS[key](value)
        except ValueError:
            raise CliError(f"{path}:{lineno}: malformed value for {key!r}: {value!r}")
    return values


def _build_config(args: argparse.Namespace) -> RunConfig:
    mode = args.mode
    file_values = {}
    if getattr(args, "config", None):
        file_values = _read_config_file(args.config, _MODE_KEYS[mode])

    def pick(flag: str, attr: str, default):
        cli = getattr(args, attr, None)
        if cli is not None:
            return cli
        if flag in file_values:
            return file_values[flag]
        return default

    alpha = resolve_alpha(pick("alpha", "alpha", "a4"))
    kwargs = dict(
        mode=mode,
        n_sites=pick("n", "n", 100),
        alpha=alpha,
        omega=pick("omega", "omega", 1.0),
        seed=pick("seed", "seed", 1),
        threads=pick("threads", "threads", 0),
    )
    if mode != "validate":
        kwargs.update(
            out=pick("out", "out", None),
            fit_min=pick("fit-min", "fit_min", None),
            fit_max=pick("fit-max", "fit_max", None),
        )
    if mode == "setting1":
        kwargs.update(d_max=pick("d-max", "d_max", 40))
    if mode == "setting2":
        kwargs.update(ell_min=pick("ell-min", "ell_min", None), ell_max=pick("ell-max", "ell_max", None))
    if mode == "size-sweep":
        kwargs.update(n_list=pick("n-list", "n_list", experiment.DEFAULT_N_LIST))
    return RunConfig(**kwargs)


def _check(name: str, ok: bool, detail: str, stream) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}", file=stream)
    return ok


def run_validate(config: RunConfig, stream=None) -> bool:
    """Oracle suite: one pass/fail line per invariant."""
    stream = stream or sys.stdout
    results = []

    dev = 0.0
    for n in (4, 10, 100):
        for alpha in (0.0, 0.9, 0.99, ALPHA_PRESETS["a4"]):
            g, h = correlation_vectors(n, alpha)
            dist = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
            dev = max(dev, float(np.abs(g[dist] @ h[dist] - np.eye(n) / 4).max()))
    results.append(_check("correlator-inverse-pair", dev < 1e-10, f"max |GH - I/4| = {dev:.2e}", stream))

    rng = np.random.default_rng(config.seed)
    worst = 0.0
    for _ in range(50):
        n = 2 * int(rng.integers(2, 60))
        alpha = float(rng.uniform(0.0, 1.0 - 1e-9))
        g, h = correlation_vectors(n, alpha)
        worst = max(worst, abs(h[0] - (g[0] - alpha * g[1])))
    results.append(_check("virial-identity", worst < 1e-12, f"max |h0 - g0 + alpha g1| = {worst:.2e}", stream))

    params = ChainParams(n_sites=config.n_sites, alpha=config.alpha, omega=config.omega)
    nu = symplectic_eigenvalues(ground_covariance(params))
    dev = float(np.abs(nu - 0.5).max())
    results.append(_check("ground-state-purity", dev < 1e-9, f"max |nu - 1/2| = {dev:.2e}", stream))

    spec = MeasurementSpec(measured_sites=(0,), omega=params.omega)
    state = post_measurement_covariance(params, spec)
    rest = unmeasured_sites(params, spec)
    nu = symplectic_eigenvalues(reduce(state.covariance, rest))
    dev = float(np.abs(nu - 0.5).max())
    results.append(_check("post-measurement-purity", dev < 1e-8, f"max |nu - 1/2| = {dev:.2e}", stream))

    dev = 0.0
    for n in (4, 6, 8, 12):
        for alpha in (0.0, 0.5, 0.9, 0.99):
            for omega in (0.5, 1.0, 2.0):
                for measured in ((0,), (0, 1), (0, 2)):
                    small = ChainParams(n_sites=n, alpha=alpha, omega=omega)
                    mspec = MeasurementSpec(measured_sites=measured, omega=omega)
                    built = post_measurement_covariance(small, mspec)
                    upd = oracle.general_dyne_update(ground_covariance(small), measured, omega)
                    ref = reduce(built.covariance, unmeasured_sites(small, mspec))
                    got = upd.conditional_covariance
                    dev = max(dev, float(np.abs(got.q - ref.q).max()), float(np.abs(got.p - ref.p).max()))
    results.append(_check("general-dyne-agreement", dev < 1e-10, f"max entry dev = {dev:.2e}", stream))

    fock = oracle.fock_ground_state(0.9, cutoff=25)
    g2, _ = correlation_vectors(2, 0.9)
    dev = abs(oracle.fock_position_correlator(fock) - g2[1])
    results.append(_check("fock-correlator", dev < 1e-6, f"|<q0 q1>_fock - g1| = {dev:.2e}", stream))

    dev = abs(oracle.fock_log_negativity(fock) - log_negativity(oracle.two_mode_ground_covariance(0.9), [1]))
    results.append(_check("fock-negativity", dev < 1e-3, f"|E_N fock - E_N gaussian| = {dev:.2e}", stream))

    mc_params = ChainParams(n_sites=100, alpha=0.9, omega=config.omega)
    mc_spec = MeasurementSpec(measured_sites=(0,), omega=config.omega)
    quad = build_quadratics(mc_params, mc_spec, 2)
    plan = optimal_plan(quad)
    analytic = optimized_energy(quad)
    mean, se = oracle.monte_carlo_energy(mc_params, mc_spec, 2, plan, 200_000, config.seed)
    results.append(_check("monte-carlo-energy", abs(mean - analytic) <= 3 * se,
                          f"analytic {analytic:.4e}, sampled {mean:.4e} +- {se:.1e}", stream))

    bumped = DisplacementPlan(theta=plan.theta * 1.1, phi=plan.phi)
    mean_b, se_b = oracle.monte_carlo_energy(mc_params, mc_spec, 2, bumped, 200_000, config.seed)
    results.append(_check("perturbed-plan-not-better", mean_b >= analytic - 3 * se_b,
                          f"perturbed {mean_b:.4e} vs optimum {analytic:.4e}", stream))

    return all(results)


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = _build_config(args)
    except CliError as exc:
        print(f"qetchain: error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
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
        table = sweep(config)
        if config.out:
            experiment.write_csv(table, config.out)
        if config.mode == "setting2":
            ratio = table.column("ratio")
            ell = table.column("ell")
            print(f"# ratio: max {experiment.format_value(ratio.max())} at ell={int(ell[np.argmax(ratio)])}, "
                  f"monotone={bool(np.all(np.diff(ratio) >= -1e-12))}, below-one={bool(np.all(ratio < 1))}")
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
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
