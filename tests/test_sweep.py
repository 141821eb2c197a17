"""Parameter sweeps: determinism, resume, and record plumbing."""

import threading
import warnings

import numpy as np
import pytest

import nhchain.sweep as sweep_mod
from nhchain import (
    ModelParams,
    SweepSpec,
    build_single_particle,
    decompose,
    imag_fraction,
    inclusive_range,
    ipr_per_state,
    read_records_csv,
    run_sweep,
    run_sweep_to_file,
    winding_result,
    WindingResult,
    write_records_csv,
)
from dataclasses import replace


def collect(spec):
    return list(run_sweep(spec))


def test_inclusive_range():
    assert inclusive_range(0.0, 1.0, 0.25) == (0.0, 0.25, 0.5, 0.75, 1.0)
    assert inclusive_range(0.0, 0.8, 0.4) == (0.0, 0.4, 0.8)   # endpoint hit exactly
    assert inclusive_range(2.0, 2.0, 1.0) == (2.0,)
    with pytest.raises(ValueError):
        inclusive_range(0.0, 1.0, -0.5)
    with pytest.raises(ValueError):
        inclusive_range(1.0, 0.0, 0.5)


def test_degenerate_sweep_matches_direct_evaluation():
    base = ModelParams(L=21, g=0.5, W=1.0, theta0=0.0, bc="pbc")
    spec = SweepSpec(base=base, theta0_samples=1,
                     quantities=("ipr_obc", "ipr_pbc", "f_im", "winding"), out="unused.csv")
    rows = {r.quantity: r for r in collect(spec) if r.sample == "0"}

    d_obc = decompose(build_single_particle(replace(base, bc="obc")))
    d_pbc = decompose(build_single_particle(replace(base, bc="pbc", phi=0.0)))
    assert rows["ipr_obc"].value == pytest.approx(float(np.mean(ipr_per_state(d_obc))), abs=1e-12)
    assert rows["f_im"].value == pytest.approx(float(imag_fraction(d_pbc)), abs=1e-12)
    assert rows["winding"].value == pytest.approx(float(winding_result(replace(base, bc="pbc", phi=0.0)).nu))
    assert rows["ipr_obc"].bc == "obc" and rows["ipr_pbc"].bc == "pbc"


def test_average_row_is_mean_of_samples():
    base = ModelParams(L=13, g=0.5, W=2.0, bc="pbc")
    spec = SweepSpec(base=base, theta0_samples=3, quantities=("f_im",), out="unused.csv")
    rows = collect(spec)
    samples = [r.value for r in rows if r.sample != "avg"]
    avg = [r for r in rows if r.sample == "avg"]
    assert len(samples) == 3 and len(avg) == 1
    assert avg[0].value == pytest.approx(np.mean(samples), abs=1e-12)
    assert avg[0].theta0 is None
    thetas = sorted(r.theta0 for r in rows if r.sample != "avg")
    assert np.allclose(thetas, [0.0, 2 * np.pi / 3, 4 * np.pi / 3])


def test_one_thread_computes_in_the_calling_thread(monkeypatch):
    # a trace with one span stack sees each sample inside the sweep that asked for it
    seen = []
    evaluate = sweep_mod._evaluate_sample

    def recording(*args):
        seen.append(threading.current_thread())
        return evaluate(*args)

    monkeypatch.setattr(sweep_mod, "_evaluate_sample", recording)
    spec = SweepSpec(base=ModelParams(L=8, g=0.5, bc="pbc"), w_grid=(0.0, 1.0),
                     theta0_samples=2, quantities=("f_im",), out="unused.csv")
    points = sweep_mod._point_rows(spec, set())
    next(points)
    assert seen == [threading.main_thread()] * 2       # the second point is not computed yet


def test_run_sweep_to_file_takes_one_thread_only(tmp_path):
    out = tmp_path / "sweep.csv"
    spec = SweepSpec(base=ModelParams(L=13, g=0.5, bc="pbc"), w_grid=(0.0, 1.0),
                     quantities=("f_im",), out=str(out))
    assert run_sweep_to_file(spec, threads=1) == (4, 0)
    before = out.read_bytes()
    wider = replace(spec, w_grid=(0.0, 1.0, 2.0))
    with pytest.raises(ValueError, match="threads must be 1"):
        run_sweep_to_file(wider, threads=2)
    assert out.read_bytes() == before
    with pytest.raises(ValueError, match="threads must be 1"):
        run_sweep_to_file(replace(spec, out=str(tmp_path / "new.csv")), threads=2)
    assert not (tmp_path / "new.csv").exists()


@pytest.mark.parametrize("quantities, decompositions, eigenvalue_calls", [
    (("f_im", "ipr_obc", "winding"), 1, 1),      # no vectors at the base bc: eigenvalues only
    (("f_im", "ipr_pbc"), 1, 0),                 # reuses the pbc decomposition
    (("ipr_obc", "f_im", "ipr_pbc"), 2, 0),
])
def test_f_im_reuses_a_decomposition_at_its_bc(monkeypatch, quantities, decompositions,
                                               eigenvalue_calls):
    calls = {"decompose": 0, "eigenvalues": 0}
    for name in calls:
        def counting(H, f=getattr(sweep_mod, name), name=name):
            calls[name] += 1
            return f(H)
        monkeypatch.setattr(sweep_mod, name, counting)
    spec = SweepSpec(base=ModelParams(L=13, g=0.5, W=1.0, bc="pbc"), theta0_samples=1,
                     quantities=quantities, out="unused.csv")
    rows = {r.quantity: r.value for r in collect(spec) if r.sample == "0"}
    assert calls == {"decompose": decompositions, "eigenvalues": eigenvalue_calls}
    d = decompose(build_single_particle(spec.base))
    assert rows["f_im"] == imag_fraction(d)


def test_resume_skips_finished_points(tmp_path):
    base = ModelParams(L=13, g=0.5, bc="pbc")
    out = tmp_path / "sweep.csv"
    spec = SweepSpec(base=base, w_grid=(0.0, 1.0, 2.0), theta0_samples=2,
                     quantities=("f_im",), out=str(out))
    written, reused = run_sweep_to_file(spec)
    assert (written, reused) == (9, 0)       # 3 points x (2 samples + avg)
    again_written, again_reused = run_sweep_to_file(spec)
    assert (again_written, again_reused) == (0, 9)

    # widen the grid: only the new point runs, old rows are untouched
    before = {(r.key, r.sample) for r in read_records_csv(str(out))}
    wider = SweepSpec(base=base, w_grid=(0.0, 1.0, 2.0, 3.0), theta0_samples=2,
                      quantities=("f_im",), out=str(out))
    written, reused = run_sweep_to_file(wider)
    assert (written, reused) == (3, 9)
    after = {(r.key, r.sample) for r in read_records_csv(str(out))}
    assert before < after and len(after) == 12


@pytest.mark.parametrize("first, second", [
    (dict(), dict(L=15)),
    (dict(), dict(bc="obc")),
    (dict(), dict(theta0=0.3)),
    (dict(), dict(S=1)),            # the file has a sample this run lacks
    (dict(), dict(S=3)),            # sample 1 sits at another theta0
    (dict(S=1), dict()),            # the file's averages cover one sample only
])
def test_resume_refuses_incompatible_file(tmp_path, first, second):
    out = str(tmp_path / "sweep.csv")

    def spec(L=13, bc="pbc", theta0=0.0, S=2):
        return SweepSpec(base=ModelParams(L=L, g=0.5, theta0=theta0, bc=bc), w_grid=(0.0, 1.0),
                         theta0_samples=S, quantities=("f_im",), out=out)

    run_sweep_to_file(spec(**first))
    before = open(out).read()
    with pytest.raises(ValueError, match="this run has"):
        run_sweep_to_file(spec(**second))
    assert open(out).read() == before


def test_resume_accepts_other_grid_and_quantities(tmp_path):
    out = str(tmp_path / "sweep.csv")
    base = ModelParams(L=13, g=0.5, theta0=0.2, bc="pbc")
    run_sweep_to_file(SweepSpec(base=base, w_grid=(0.0, 1.0), theta0_samples=2,
                                quantities=("f_im",), out=out))
    # a quantity forced to open boundaries is compatible with either base bc
    written, reused = run_sweep_to_file(SweepSpec(base=base, w_grid=(1.0,), theta0_samples=2,
                                                  quantities=("f_im", "ipr_obc"), out=out))
    assert (written, reused) == (3, 6)


def test_failed_point_becomes_nan_row_with_warning(tmp_path, monkeypatch):
    def boom(params, many_body=False):
        raise sweep_mod.WindingIllDefinedError("forced failure for test")

    monkeypatch.setattr(sweep_mod, "winding_result", boom)
    base = ModelParams(L=13, g=0.5, W=1.0, bc="pbc")
    spec = SweepSpec(base=base, theta0_samples=1, quantities=("winding", "f_im"),
                     out="unused.csv")
    rows = collect(spec)
    winding_rows = [r for r in rows if r.quantity == "winding"]
    f_rows = [r for r in rows if r.quantity == "f_im" and r.sample == "0"]
    assert all(np.isnan(r.value) for r in winding_rows)
    assert "WindingIllDefinedError" in winding_rows[0].warnings
    assert all(np.isfinite(r.value) for r in f_rows)   # other quantities still run


def test_warnings_column_holds_each_samples_own_notes_under_threads(monkeypatch):
    def noisy_winding(params):
        note = f"note of theta0={params.theta0:.6f}"
        warnings.warn(note)        # a process-wide warning must not leak into other rows
        return WindingResult(nu=0, raw=0.0, steps=np.zeros(3), warnings=[note])

    monkeypatch.setattr(sweep_mod, "winding_result", noisy_winding)
    base = ModelParams(L=13, g=0.5, bc="pbc")
    spec = SweepSpec(base=base, w_grid=(0.0, 1.0), theta0_samples=8, quantities=("winding",),
                     out="unused.csv")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")         # the column must not depend on them
        rows = [r for r in collect(spec) if r.sample != "avg"]
    assert len(rows) == 16
    for r in rows:
        assert r.warnings == f"note of theta0={r.theta0:.6f}"


def test_interrupted_sweep_keeps_finished_points(tmp_path, monkeypatch):
    out = str(tmp_path / "sweep.csv")
    spec = SweepSpec(base=ModelParams(L=13, g=0.5, bc="pbc"), w_grid=(0.0, 1.0, 2.0, 3.0),
                     theta0_samples=1, quantities=("f_im",), out=out)
    calls = []

    def interrupt_at_third_point(decomp):
        calls.append(decomp)
        if len(calls) == 3:
            raise KeyboardInterrupt
        return imag_fraction(decomp)

    monkeypatch.setattr(sweep_mod, "imag_fraction", interrupt_at_third_point)
    with pytest.raises(KeyboardInterrupt):
        run_sweep_to_file(spec)
    kept = read_records_csv(out)
    assert sorted({r.W for r in kept}) == [0.0, 1.0]
    assert len(kept) == 4                        # 2 points x (1 sample + avg)

    monkeypatch.undo()
    assert run_sweep_to_file(spec) == (4, 4)
    assert len(read_records_csv(out)) == 8


def test_density_rows_cover_every_site():
    base = ModelParams(L=8, N=4, g=0.5, V=2.0, W=0.5, bc="obc")
    spec = SweepSpec(base=base, theta0_samples=1, quantities=("density",), out="unused.csv")
    rows = collect(spec)
    sites = sorted(int(r.quantity.split(":")[1]) for r in rows if r.sample == "0")
    assert sites == list(range(8))
    total = sum(r.value for r in rows if r.sample == "0")
    assert total == pytest.approx(4.0, abs=1e-8)


def test_sample_smoothness_of_f_im():
    # near but not at the transition, the sample average is stable in S
    base = ModelParams(L=34, g=0.5, W=1.0, bc="pbc")
    means = {}
    for s in (10, 20):
        spec = SweepSpec(base=base, theta0_samples=s, quantities=("f_im",), out="u.csv")
        means[s] = [r.value for r in collect(spec) if r.sample == "avg"][0]
    assert abs(means[10] - means[20]) <= 0.1 * max(abs(means[20]), 1e-12)


def test_csv_round_trip(tmp_path):
    base = ModelParams(L=13, g=0.5, W=1.0, bc="pbc")
    spec = SweepSpec(base=base, theta0_samples=2, quantities=("f_im", "ipr_obc"),
                     out="unused.csv")
    rows = collect(spec)
    path = tmp_path / "records.csv"
    write_records_csv(rows, str(path))
    back = read_records_csv(str(path))
    assert len(back) == len(rows)
    for a, b in zip(rows, back):
        assert a.key == b.key and a.sample == b.sample
        assert (np.isnan(a.value) and np.isnan(b.value)) or a.value == pytest.approx(b.value, rel=1e-10)


def test_spec_validation():
    base = ModelParams(L=13, g=0.5, bc="pbc")
    with pytest.raises(ValueError):
        SweepSpec(base=base, quantities=("nonsense",), out="u.csv")
    with pytest.raises(ValueError):
        SweepSpec(base=base, theta0_samples=0, quantities=("f_im",), out="u.csv")
    mb = ModelParams(L=8, N=4, g=0.5, bc="pbc")
    with pytest.raises(ValueError):
        SweepSpec(base=base, quantities=("fock_ipr",), out="u.csv")   # needs N
    SweepSpec(base=mb, quantities=("fock_ipr",), out="u.csv")
