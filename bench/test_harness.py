"""Tests of the benchmark harness itself (not of nhchain).

    python3 -m pytest bench/test_harness.py -q
"""

import json
import math
import os
import sys
import types

import numpy as np
import pytest

import run  # noqa: F401  (sets the BLAS thread variables before numpy work)
from calibrate import MIXES, REF_S, normalized
from layers import LAYERS, PER_LAYER, WRAPS, Health, install, matvec_bytes, metrics
from spans import Patcher, Span, Tracer, outermost, self_times
from workloads import WORKLOADS, Check, MbQuench, SpSweep, close

sys.path.insert(0, os.path.join(run.ROOT, "src"))
import nhchain  # noqa: E402
import nhchain.cli  # noqa: E402


def spans_of(*rows):
    """Spans from (id, name, start, end, parent) tuples."""
    return [Span(id=i, name=n, start=a, end=b, parent=p) for i, n, a, b, p in rows]


# ------------------------------------------------------------ calibration

def test_normalized_times_use_the_calibrations_around_each_unit():
    walls = [4.0, 5.0, 6.0]
    cals = [1.0, 3.0, 2.0, 2.0]             # cals[0] precedes unit 0, cals[i + 1] follows unit i
    assert normalized(walls, cals, 0.5) == pytest.approx([4.0 / 4, 5.0 / 5, 6.0 / 4])
    with pytest.raises(ValueError):
        normalized(walls, cals[:3], 0.5)


def test_a_uniform_slowdown_leaves_normalized_times_unchanged():
    walls, cals = [3.0, 3.3, 2.9], [0.41, 0.45, 0.40, 0.43]
    slow = normalized([1.5 * w for w in walls], [1.5 * c for c in cals], 0.3)
    assert slow == pytest.approx(normalized(walls, cals, 0.3))


def test_every_workload_names_a_calibration():
    assert {w.calibration for w in WORKLOADS.values()} <= {*MIXES, None}
    assert set(REF_S) == set(MIXES)


# ------------------------------------------------------------ self-time arithmetic

def test_self_time_subtracts_children_and_sums_to_root():
    spans = spans_of((0, "bench.unit", 0.0, 10.0, None),
                     (1, "cli.main", 1.0, 9.0, 0),
                     (2, "sweep.run_sweep_to_file", 2.0, 5.0, 1),
                     (3, "spectral.decompose", 6.0, 8.5, 1),
                     (4, "model.build_single_particle", 2.5, 3.0, 2))
    st = self_times(spans)
    assert st == pytest.approx({0: 2.0, 1: 2.5, 2: 2.5, 3: 2.5, 4: 0.5})
    assert sum(st.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once_and_clips_to_parent():
    spans = spans_of((0, "bench.unit", 0.0, 10.0, None),
                     (1, "winding.log_det_phase", 2.0, 6.0, 0),
                     (2, "winding.log_det_phase", 4.0, 12.0, 0))
    assert self_times(spans)[0] == pytest.approx(2.0)   # children cover 2..10


def test_outermost_skips_spans_nested_in_a_span_of_the_same_name():
    spans = spans_of((0, "spectral.static_observables", 0.0, 3.0, None),
                     (1, "spectral.ipr_per_state", 0.5, 1.0, 0),
                     (2, "spectral.static_observables", 1.0, 2.0, 0))
    assert [s.id for s in outermost(spans, "spectral.static_observables")] == [0]


def test_layer_metrics_add_up_to_the_traced_wall_time():
    spans = spans_of((0, "bench.unit", 0.0, 10.0, None),
                     (1, "cli.main", 0.5, 9.5, 0),
                     (2, "winding.winding_result", 1.0, 8.0, 1),
                     (3, "winding.log_det_phase", 1.5, 7.0, 2),
                     (4, "model.build_single_particle", 7.0, 7.5, 2),
                     (5, "bench.unit", 20.0, 30.0, None),
                     (6, "dynamics.arnoldi_step", 21.0, 29.0, 5))
    spans[4].attrs["via"] = "winding"
    spans[6].attrs["matvec_bytes"] = 16
    m = metrics(spans, Health(), untraced_wall=9.0)
    assert m["trace.wall_s"] == pytest.approx(10.0)
    assert m["trace.overhead_s"] == pytest.approx(1.0)
    assert m["other.s"] + sum(m[f"{layer}.self_s"] for layer in LAYERS) == pytest.approx(10.0)
    assert m["winding.log_det_phase.calls"] == 0.5       # per traced unit
    assert m["winding.flux_build.s"] == pytest.approx(0.25)
    assert m["dynamics.matvec_bytes_computed"] == 16
    assert set(m) == {name for name, _, _ in PER_LAYER}


# ------------------------------------------------------------------------ wrappers

def test_wrapped_calls_nest_and_an_exception_still_closes_the_span():
    inner = types.SimpleNamespace(f=lambda x: x + 1)

    def boom():
        raise KeyError("x")

    outer = types.SimpleNamespace(g=lambda x: inner.f(x) * 2, boom=boom)
    tracer = Tracer()
    tracer.wrap(inner, "f", "model.f")
    tracer.wrap(outer, "g", "sweep.g")
    tracer.wrap(outer, "boom", "cli.boom")
    tracer.wrap(outer, "absent", "cli.absent")
    root = tracer.open("bench.unit")
    assert outer.g(1) == 4
    with pytest.raises(KeyError):
        outer.boom()
    tracer.close(root)
    tracer.restore()
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["model.f"].parent == by_name["sweep.g"].id
    assert by_name["sweep.g"].parent == root.id
    assert by_name["cli.boom"].attrs["raised"] and by_name["cli.boom"].parent == root.id
    assert tracer._stack == [] and tracer.missing == ["SimpleNamespace.absent"]
    assert sum(self_times(tracer.spans).values()) == pytest.approx(root.duration)


def test_patcher_restores_a_method_without_binding_it():
    class Series:
        def write(self):
            return "original"

    original = Series.__dict__["write"]
    patcher = Patcher()
    assert patcher.patch(Series, "write", lambda f: lambda self: "patched")
    assert Series().write() == "patched"
    patcher.restore()
    assert Series.__dict__["write"] is original and Series().write() == "original"


def _namespace_state():
    state = {}
    for ns in WRAPS:
        module = getattr(nhchain, ns)
        state.update({(ns, k): v for k, v in vars(module).items() if callable(v)})
    state["write_csv"] = nhchain.dynamics.ObservableSeries.__dict__["write_csv"]
    return state


def test_traced_run_leaves_the_program_unchanged_and_gives_the_same_numbers():
    params = nhchain.ModelParams(L=21, g=0.5, W=1.0, bc="pbc")
    before_state = _namespace_state()
    plain = nhchain.winding.winding_result(params)
    plain_f = nhchain.sweep.imag_fraction(nhchain.sweep.decompose(
        nhchain.sweep.build_single_particle(params)))

    tracer, health = Tracer(), Health()
    install(tracer, nhchain, health)
    assert tracer.missing == []
    root = tracer.open("bench.unit")
    traced = nhchain.sweep.winding_result(params)
    traced_f = nhchain.sweep.imag_fraction(nhchain.sweep.decompose(
        nhchain.sweep.build_single_particle(params)))
    tracer.close(root)
    tracer.restore()

    assert _namespace_state() == before_state
    assert traced.nu == plain.nu and traced.raw == plain.raw and traced_f == plain_f
    names = {s.name for s in tracer.spans}
    assert {"winding.winding_result", "winding.log_det_phase",
            "spectral.decompose", "spectral.decompose.general"} <= names
    assert health.windings == [(202, abs(plain.raw - plain.nu))]
    assert health.settle()[0] < 1e-10 and health.decomps == []


def test_matvec_bytes_follow_the_storage():
    dense = nhchain.build_single_particle(nhchain.ModelParams(L=10))
    assert matvec_bytes(dense) == 10 * 10 * 16
    basis = nhchain.build_fock_basis(15, 7)          # dim 6435, above the dense cap: CSR
    H = nhchain.build_many_body(nhchain.ModelParams(L=15, N=7, g=0.5, bc="pbc"), basis)
    csr = H.entries
    assert matvec_bytes(H) == csr.nnz * (16 + csr.indices.itemsize) + csr.indptr.nbytes


# --------------------------------------------------------------- fail_frac counting

def test_tally_counts_failed_checks_against_attempted():
    checks = [Check("a", True), Check("b", False), Check("c", True), Check("d", False)]
    assert run.tally(checks) == (4, 2)


def test_a_raised_error_counts_as_one_failed_check():
    checks = run.check_unit(SpSweep(), {}, None, "RuntimeError: boom", {}, [])
    assert run.tally(checks) == (1, 1)


def test_unreadable_outputs_count_as_one_failed_check(tmp_path):
    checks = run.check_unit(SpSweep(), {"out": str(tmp_path / "missing.csv")}, None, None, {}, [])
    assert run.tally(checks) == (1, 1) and checks[0].name == "outputs"


def test_sweep_checks_catch_oracle_reference_and_missing_rows():
    ref = {"rows": [["winding", "0.5", "0", 1.0], ["winding", "6.5", "0", 0.0],
                    ["f_im", "0.5", "0", 0.5], ["ipr_obc", "0.5", "avg", 0.2]]}
    good = SpSweep().checks({}, ref, ref, [])
    assert run.tally(good) == (7, 0)                 # 2 oracle + rows + 4 reference
    bad_rows = [["winding", "0.5", "0", 0.0], ["winding", "6.5", "0", 0.0],
                ["f_im", "0.5", "0", 0.5 + 1e-9]]
    bad = SpSweep().checks({}, {"rows": bad_rows}, ref, [])
    failed = {c.name for c in bad if not c.ok}
    assert failed == {"oracle:W=0.5/0", "rows", "ref:winding/0.5/0", "ref:f_im/0.5/0",
                      "ref:ipr_obc/0.5/avg"}


def test_quench_checks_bound_the_entropy_by_the_cut():
    ref = {"s_ee": [[0.0, 0.0], [0.25, 0.5]]}
    too_big = {"s_ee": [[0.0, 0.0], [0.25, 9 * math.log(2.0) + 1e-6]]}
    failed = {c.name for c in MbQuench().checks({}, too_big, ref, []) if not c.ok}
    assert failed == {"bound:t=0.25", "ref:t=0.25"}


def test_tolerances_are_absolute_plus_relative():
    assert close(1.0, 1.0, "winding") and not close(1.0, 0.0, "winding")
    assert close(0.2 * (1 + 5e-7), 0.2, "ipr_obc") and not close(0.2 * (1 + 2e-6), 0.2, "ipr_obc")


# ----------------------------------------------------------------- seeds and files

def test_inputs_follow_the_seed(tmp_path):
    work = str(tmp_path)
    argv = [SpSweep().inputs(nhchain, s, work)["argv"] for s in (3, 3, 11, 4)]
    assert argv[0] == argv[1] == argv[2] and argv[0] != argv[3]
    q = MbQuench()
    assert q.inputs(nhchain, 5, work)["params"].theta0 == pytest.approx(2 * np.pi * 5 / 8)
    wave = WORKLOADS["sp_wavepacket"]
    orders = {wave.inputs(nhchain, s, work)["argv"][3] for s in range(8)}
    assert all(sorted(o) == list("abcd") for o in orders) and len(orders) > 1
    assert {wave.variant(s) for s in range(8)} == {"0"}


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER
    assert spec["paths"] == ["bench"]


def test_every_variant_has_a_reference():
    for w in WORKLOADS.values():
        with open(os.path.join(run.HERE, "reference", f"{w.name}.json")) as fh:
            variants = json.load(fh)["variants"]
        assert {w.variant(s) for s in range(16)} == set(variants)
