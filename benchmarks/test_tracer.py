"""Self-test of the benchmark's tracer and correctness gate.

Run from the repository root (tier-1 does not collect this directory):

    python3 -m pytest benchmarks/test_tracer.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

from qetchain import cli, experiment  # noqa: E402
from qetchain.experiment import RunConfig  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# Small versions of each sweep; threads=0 so rows run in the auto pool.
SMALL = {
    "setting1": RunConfig(mode="setting1", n_sites=40, alpha=0.99, d_max=12),
    "setting2": RunConfig(mode="setting2", n_sites=24, alpha=0.9),
    "size-sweep": RunConfig(mode="size-sweep", alpha=0.99, n_list=(20, 30, 40, 50)),
}


def _qetchain_modules():
    return [m for n, m in sys.modules.items() if m is not None and (n == "qetchain" or n.startswith("qetchain."))]


def _traced_spans(config: RunConfig) -> list:
    with tracer.Tracer() as t:
        workloads.execute(config)
    return t.take()


@pytest.mark.parametrize("mode", sorted(SMALL))
def test_traced_csv_is_byte_identical(mode):
    config = SMALL[mode]
    sweep = workloads.SWEEP_FUNCTIONS[mode]
    plain = experiment.render_csv(getattr(experiment, sweep)(config))
    with tracer.Tracer() as t:
        traced = experiment.render_csv(getattr(experiment, sweep)(config))
    assert traced == plain
    names = {s.name for s in t.take()}
    assert {"experiment.sweep", "experiment.render_csv", "gaussian_state.symplectic_eigenvalues"} <= names


def test_no_listed_function_left_unwrapped():
    t = tracer.Tracer()
    with t:
        for layer in tracer.LAYERS:
            originals = t.originals[layer.name]
            assert len(originals) == len(layer.attrs)
            for original in originals:
                if isinstance(original, type):
                    assert original.__init__.__bench_layer__ == layer.name
                    continue
                for module in _qetchain_modules():
                    for attr, value in vars(module).items():
                        assert value is not original, f"{module.__name__}.{attr} is unwrapped"
            home = sys.modules[f"qetchain.{layer.module}"]
            for attr in layer.attrs:
                wrapped = getattr(home, attr)
                layer_of = (wrapped.__init__ if isinstance(wrapped, type) else wrapped).__bench_layer__
                assert layer_of == layer.name
        # Names copied by ``from .x import f`` are wrapped too.
        assert cli.correlation_vectors.__bench_layer__ == "chain_model.correlation_vectors"
        assert experiment.run_setting2.__bench_layer__ == "qet_protocol.run_setting2"
    for layer in tracer.LAYERS:
        home = sys.modules[f"qetchain.{layer.module}"]
        for attr, original in zip(layer.attrs, t.originals[layer.name]):
            assert getattr(home, attr) is original
            if isinstance(original, type):
                assert not hasattr(original.__init__, "__bench_layer__")


@pytest.mark.parametrize("config", [SMALL["setting2"], SMALL["size-sweep"], RunConfig(mode="validate", seed=3)],
                         ids=["setting2", "size-sweep", "validate"])
def test_child_spans_lie_inside_parents(config):
    spans = _traced_spans(config)
    by_sid = {s.sid: s for s in spans}
    assert len(by_sid) == len(spans)
    for s in spans:
        assert s.t0 <= s.t1
        if s.name in tracer.ROW_SPANS:
            # Rows run in pool threads, yet nest under the sweep that submitted them.
            assert s.parent is not None and by_sid[s.parent].name == "experiment.sweep"
        if s.parent is None:
            continue
        parent = by_sid[s.parent]
        assert parent.t0 <= s.t0 and s.t1 <= parent.t1, (parent.name, s.name)
        if s.name not in tracer.ROW_SPANS:
            assert s.row == parent.row
    rows = [s for s in spans if s.name in tracer.ROW_SPANS]
    if config.mode != "validate":
        assert len({s.row for s in rows}) == len(rows) > 1


def test_self_time_subtracts_the_union_of_children():
    parent = tracer.Span(0, None, None, "experiment.sweep")
    parent.t0, parent.t1 = 0.0, 10.0
    spans = [parent]
    for sid, (t0, t1) in enumerate([(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)], start=1):
        child = tracer.Span(sid, 0, sid, "qet_protocol.run_setting2")
        child.t0, child.t1 = t0, t1
        spans.append(child)
    summary = tracer.summarize_pass(spans, 10.0)
    assert summary["layers"]["experiment.sweep"]["self_s"] == pytest.approx(10.0 - 5.0)
    assert summary["layers"]["qet_protocol.run_setting2"]["self_s"] == pytest.approx(2.0 + 3.0 + 1.0)
    assert summary["rows_in_flight"] == pytest.approx(0.6)


def _gate(name):
    workload = workloads.WORKLOADS[name]
    return workloads.Gate(workload, workload.config(1))


def test_gate_admits_last_digit_changes_and_rejects_real_ones():
    gate = _gate("s1-distance")
    text = "\n".join(gate.reference) + "\n"
    gate.check(text)
    assert (gate.attempted, gate.failed) == (len(gate.reference) - 1, 0)

    cells = gate.reference[2].split(",")
    cells[5] = repr(float(cells[5]) * (1 + 6e-12))
    gate.check("\n".join([*gate.reference[:2], ",".join(cells), *gate.reference[3:]]) + "\n")
    assert gate.failed == 0

    cells[5] = repr(float(cells[5]) * (1 + 1e-6))
    gate.check("\n".join([*gate.reference[:2], ",".join(cells), *gate.reference[3:]]) + "\n")
    assert gate.failed == 1

    gate.check(None)
    assert gate.failed == 1 + len(gate.reference) - 1


def test_gate_ratio_follows_its_row_where_delta_is_round_off():
    gate = _gate("s2-block")
    # ell = 1: delta_E_N is round-off, so a new delta moves the ratio with it.
    ell, delta, e_abs, _ = gate.reference[1].split(",")
    new_delta = float(delta) * 3
    row = ",".join([ell, repr(new_delta), e_abs, repr(float(e_abs) / new_delta)])
    gate.check("\n".join([gate.reference[0], row, *gate.reference[2:]]) + "\n")
    assert gate.failed == 0
    # A ratio that disagrees with its own row misses.
    row = ",".join([ell, delta, e_abs, repr(2 * float(e_abs) / float(delta))])
    gate.check("\n".join([gate.reference[0], row, *gate.reference[2:]]) + "\n")
    assert gate.failed == 1


def test_validate_gate_needs_every_check_to_pass():
    gate = _gate("validate-small")
    text = "".join(f"PASS {name}: ok\n" for name in gate.reference)
    gate.check(text)
    gate.check(text.replace("PASS fock-correlator", "FAIL fock-correlator"))
    assert (gate.attempted, gate.failed) == (2 * len(gate.reference), 1)


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == tracer.metric_specs()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
