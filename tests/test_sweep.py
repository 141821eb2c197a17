"""Parameter sweeps: determinism, resume, and record plumbing."""

import csv
import re
import threading

import numpy as np
import pytest

import nhchain.sweep as sweep_mod
from nhchain import (
    EvolverConfig,
    ModelParams,
    SweepSpec,
    WindingConfig,
    WindingIllDefinedError,
    build_single_particle,
    decompose,
    imag_fraction,
    inclusive_range,
    ipr_per_state,
    run_sweep,
    run_sweep_to_file,
    winding_result,
    write_records_csv,
)
from dataclasses import replace
from pathlib import Path


def collect(spec):
    return list(run_sweep(spec))


def read_rows(path):
    """A sweep file's rows below the header, each as the fields it holds."""
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def test_inclusive_range():
    assert inclusive_range(0.0, 1.0, 0.25) == (0.0, 0.25, 0.5, 0.75, 1.0)
    assert inclusive_range(0.0, 0.8, 0.4) == (0.0, 0.4, 0.8)   # endpoint hit exactly
    assert inclusive_range(2.0, 2.0, 1.0) == (2.0,)
    with pytest.raises(ValueError):
        inclusive_range(0.0, 1.0, -0.5)
    with pytest.raises(ValueError):
        inclusive_range(1.0, 0.0, 0.5)


@pytest.mark.parametrize("start, stop, step", [
    (0.0, np.inf, 1.0), (-np.inf, 0.0, 1.0), (np.nan, 1.0, 0.5), (0.0, 1.0, np.inf),
])
def test_inclusive_range_refuses_non_finite_numbers(start, stop, step):
    with pytest.raises(ValueError, match="start, stop and step must be finite"):
        inclusive_range(start, stop, step)


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
    next(run_sweep(spec))
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


def test_run_sweep_to_file_needs_a_file_with_the_sweep_header(tmp_path):
    spec = SweepSpec(base=ModelParams(L=13, g=0.5, bc="pbc"), quantities=("f_im",))
    with pytest.raises(ValueError, match="spec.out must be set"):
        run_sweep_to_file(spec)
    out = tmp_path / "spectrum.csv"
    out.write_bytes(b"index,re,im\r\n0,-2.5,0.0\r\n")
    with pytest.raises(ValueError, match=r"header \['index', 're', 'im'\] is not \['L', 'N', "):
        run_sweep_to_file(replace(spec, out=str(out)))
    assert out.read_bytes() == b"index,re,im\r\n0,-2.5,0.0\r\n"


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


def test_o_dw_and_density_share_one_density_per_sample(monkeypatch):
    calls = []
    observe = sweep_mod.static_observables

    def counting(decomp, basis):
        calls.append(decomp)
        return observe(decomp, basis)

    spec = SweepSpec(base=ModelParams(L=8, N=4, g=0.5, V=2.0, W=0.5, bc="obc"),
                     theta0_samples=2, quantities=("o_dw", "density"), out="unused.csv")
    plain = collect(spec)
    monkeypatch.setattr(sweep_mod, "static_observables", counting)
    shared = collect(spec)
    assert len(calls) == 2
    assert [(r.key, r.value) for r in shared] == [(r.key, r.value) for r in plain]


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
    before = {tuple(row) for row in read_rows(out)}
    wider = SweepSpec(base=base, w_grid=(0.0, 1.0, 2.0, 3.0), theta0_samples=2,
                      quantities=("f_im",), out=str(out))
    written, reused = run_sweep_to_file(wider)
    assert (written, reused) == (3, 9)
    after = {tuple(row) for row in read_rows(out)}
    assert before < after and len(after) == 12


@pytest.mark.parametrize("first, second", [
    (dict(), dict(L=15)),
    (dict(), dict(bc="obc")),
    (dict(), dict(theta0=0.3)),
    (dict(), dict(S=1)),            # the file has a sample this run lacks
    (dict(), dict(S=3)),            # sample 1 sits at another theta0
    (dict(S=1), dict()),            # the file's averages cover one sample only
    (dict(theta0=0.3), dict(theta0=0.3000000000001)),   # equal to 12 digits, not to 17
])
def test_resume_refuses_incompatible_file(tmp_path, first, second):
    out = str(tmp_path / "sweep.csv")

    def spec(L=13, bc="pbc", theta0=0.0, S=2):
        return SweepSpec(base=ModelParams(L=L, g=0.5, theta0=theta0, bc=bc), w_grid=(0.0, 1.0),
                         theta0_samples=S, quantities=("f_im",), out=out)

    run_sweep_to_file(spec(**first))
    before = Path(out).read_text()
    with pytest.raises(ValueError, match="this run has"):
        run_sweep_to_file(spec(**second))
    assert Path(out).read_text() == before


def test_resume_refusal_names_the_time_grid(tmp_path):
    out = str(tmp_path / "quench.csv")
    spec = SweepSpec(base=ModelParams(L=6, N=3, g=0.5, V=1.0, bc="pbc"), quantities=("s_ee",),
                     evolver=EvolverConfig(dt=0.1, t_max=0.2), out=out)
    run_sweep_to_file(spec)
    before = Path(out).read_text()
    # records at 0, 0.08, 0.16 and 0.2 have no row s_ee:0.1
    with pytest.raises(ValueError, match=r"quantity=s_ee:0\.1\) is not a row this run writes; .*"
                                         r"1 samples, dt=0\.08, record_stride=1, t_max=0\.2$"):
        run_sweep_to_file(replace(spec, evolver=EvolverConfig(dt=0.08, t_max=0.2)))
    assert Path(out).read_text() == before


@pytest.mark.parametrize("malformed, why", [
    (lambda f: f[:1], "has 1 fields, not 11"),
    (lambda f: f[:10], "has 10 fields, not 11"),
    (lambda f: f + [""], "has 12 fields, not 11"),
    (lambda f: f[:2] + ["x"] + f[3:], "is not a row this run writes"),        # g is no number
    (lambda f: f[:8] + ["f_im:0"] + f[9:], "is not a row this run writes"),
], ids=["1-field", "10-fields", "12-fields", "g-not-a-number", "unknown-row-name"])
def test_resume_refuses_a_malformed_row(tmp_path, malformed, why):
    out = tmp_path / "sweep.csv"
    spec = SweepSpec(base=ModelParams(L=13, g=0.5, bc="pbc"), w_grid=(0.0, 1.0),
                     theta0_samples=2, quantities=("f_im",), out=str(out))
    run_sweep_to_file(spec)
    lines = out.read_bytes().decode().split("\r\n")
    lines[2] = ",".join(malformed(lines[2].split(",")))
    out.write_bytes("\r\n".join(lines).encode())
    before = out.read_bytes()
    with pytest.raises(ValueError, match=f"{why}; this run has"):
        run_sweep_to_file(replace(spec, w_grid=(0.0, 1.0, 2.0)))
    assert out.read_bytes() == before


def test_resume_drops_a_last_row_cut_off_mid_write(tmp_path):
    spec = SweepSpec(base=ModelParams(L=21, g=0.5, bc="pbc"), w_grid=(0.0, 1.0, 2.0, 3.0),
                     theta0_samples=2, quantities=("f_im", "ipr_obc"), out=str(tmp_path / "fresh.csv"))
    run_sweep_to_file(spec)
    fresh = (tmp_path / "fresh.csv").read_bytes()
    # killed while writing the W=2 sample-0 f_im row, eight characters short of its value
    torn = tmp_path / "torn.csv"
    start = fresh.index(b"21,,0.5,0,2,0,pbc,0,f_im,")
    torn.write_bytes(fresh[:fresh.index(b",", start + 25) - 8])
    before = torn.read_bytes()
    torn_spec = replace(spec, out=str(torn))
    with pytest.raises(ValueError, match="this run has"):      # a refused file keeps its tail
        run_sweep_to_file(replace(torn_spec, base=replace(spec.base, L=15)))
    assert torn.read_bytes() == before
    assert run_sweep_to_file(torn_spec) == (12, 12)   # W=2's point runs again, and W=3's
    lines = torn.read_bytes().split(b"\r\n")
    assert set(lines) == set(fresh.split(b"\r\n")) and len(lines) == 26
    assert all(len(row) == 11 for row in csv.reader(line.decode() for line in lines[:-1]))
    assert run_sweep_to_file(torn_spec) == (0, 24)


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
        raise WindingIllDefinedError("forced failure for test")

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


def test_warnings_column_holds_each_samples_own_error(monkeypatch):
    def ill_defined(params, cfg=None):
        raise WindingIllDefinedError(f"jump at theta0={params.theta0:.6f}")

    monkeypatch.setattr(sweep_mod, "winding_result", ill_defined)
    base = ModelParams(L=13, g=0.5, bc="pbc")
    spec = SweepSpec(base=base, w_grid=(0.0, 1.0), theta0_samples=8, quantities=("winding",),
                     out="unused.csv")
    rows = [r for r in collect(spec) if r.sample != "avg"]
    assert len(rows) == 16
    for r in rows:
        assert np.isnan(r.value)
        assert r.warnings == f"WindingIllDefinedError: jump at theta0={r.theta0:.6f}"


@pytest.mark.parametrize("quantities", [tuple(sweep_mod.QUANTITIES),
                                        tuple(reversed(sweep_mod.QUANTITIES))])
def test_a_run_writes_exactly_the_expected_keys(monkeypatch, quantities):
    # sample 1's winding fails, and so does every quantity (density too) that
    # decomposes at periodic boundaries; its open-boundary IPR and its
    # entropy trace, which decomposes nothing, do not
    failing = sweep_mod._theta0(0.0, 1, 2)

    def winding_fails_for_sample_1(params, cfg=None):
        if params.theta0 == failing:
            raise WindingIllDefinedError("forced failure for test")
        return winding_result(params, cfg)

    def pbc_decompose_fails_for_sample_1(H):
        if H.params.theta0 == failing and H.params.bc == "pbc":
            raise np.linalg.LinAlgError("forced failure for test")
        return decompose(H)

    monkeypatch.setattr(sweep_mod, "winding_result", winding_fails_for_sample_1)
    monkeypatch.setattr(sweep_mod, "decompose", pbc_decompose_fails_for_sample_1)
    spec = SweepSpec(base=ModelParams(L=6, N=3, g=0.5, V=1.0, bc="pbc"), w_grid=(0.5, 1.5),
                     theta0_samples=2, quantities=quantities, evolver=EvolverConfig(dt=0.1, t_max=0.2))
    rows = collect(spec)
    # sample 0 fails nowhere, so a stub's own error cannot pass for an expected failure
    assert all(np.isfinite(r.value) and not r.warnings for r in rows if r.sample == "0")
    failed = {r.quantity for r in rows if r.sample == "1" and np.isnan(r.value)}
    assert failed == ({*spec.quantities, *(f"density:{j}" for j in range(6))}
                      - {"density", "ipr_obc", "s_ee"})
    assert {r.quantity for r in rows if r.quantity.startswith("s_ee")} == {"s_ee:0", "s_ee:0.1", "s_ee:0.2"}
    for W in spec.w_grid:
        keys = [r.key for r in rows if r.W == W]
        assert len(keys) == len(set(keys))
        assert set(keys) == sweep_mod.expected_keys(spec, 0.5, 1.0, W, quantities)


# The names the benchmark's tracer wraps in this module's namespace (bench/layers.py),
# and `run`, which s_ee calls
TRACED = ("run_sweep_to_file", "write_records_csv", "decompose", "winding_result", "imag_fraction",
          "ipr_per_state", "static_observables", "build_fock_basis", "build_many_body",
          "build_single_particle", "run")

# What a sweep of each quantity alone reaches of them, besides the two writers: one
# particle where the quantity allows, else the Fock sector (whose basis every such sweep builds)
REACHES = {
    "ipr_obc": {"build_single_particle", "decompose", "ipr_per_state"},
    "ipr_pbc": {"build_single_particle", "decompose", "ipr_per_state"},
    "f_im": {"build_single_particle", "imag_fraction"},
    "winding": {"winding_result"},
    "density": {"build_single_particle", "decompose", "static_observables"},
    "fock_ipr": {"build_fock_basis", "build_many_body", "decompose", "ipr_per_state"},
    "o_dw": {"build_fock_basis", "build_many_body", "decompose", "static_observables"},
    "s_ee": {"build_fock_basis", "run"},
}


def test_every_quantity_calls_its_solvers_through_the_module(tmp_path, monkeypatch):
    # an evaluator that bound a solver at import would bypass a wrapper put here later,
    # and the benchmark's per-layer metrics would read zero for it
    called = set()

    def counting(name, f):
        def wrapper(*args, **kwargs):
            called.add(name)
            return f(*args, **kwargs)
        return wrapper

    for name in TRACED:
        monkeypatch.setattr(sweep_mod, name, counting(name, getattr(sweep_mod, name)))
    reached = {}
    for q, declared in sweep_mod.QUANTITIES.items():
        called.clear()
        spec = SweepSpec(base=ModelParams(L=6, N=3 if declared.needs_n else None, g=0.5, W=1.0, bc="pbc"),
                         quantities=(q,), out=str(tmp_path / f"{q}.csv"),
                         evolver=EvolverConfig(dt=0.1, t_max=0.2) if declared.needs_time else None)
        sweep_mod.run_sweep_to_file(spec)
        assert all(np.isfinite(float(row[9])) for row in read_rows(spec.out))
        reached[q] = called - {"run_sweep_to_file", "write_records_csv"}
        assert called >= {"run_sweep_to_file", "write_records_csv"}
    assert reached == REACHES
    assert set().union(*REACHES.values()) | {"run_sweep_to_file", "write_records_csv"} == set(TRACED)


def test_a_winding_at_another_base_energy_is_named_by_it(tmp_path):
    out = tmp_path / "sweep.csv"
    base = ModelParams(L=13, g=0.5, W=1.0, bc="pbc")
    spec = SweepSpec(base=base, theta0_samples=2, quantities=("winding", "f_im"), out=str(out))
    inset = replace(spec, e0=-2.5)
    rows = {(r.sample, r.quantity): r.value for r in collect(inset)}
    assert {q for _, q in rows} == {"winding:-2.5", "f_im"}
    nus = [winding_result(replace(base, theta0=sweep_mod._theta0(0.0, s, 2)), WindingConfig(e0=-2.5)).nu
           for s in range(2)]
    assert [rows[str(s), "winding:-2.5"] for s in range(2)] == nus
    assert nus != [winding_result(replace(base, theta0=sweep_mod._theta0(0.0, s, 2))).nu for s in range(2)]
    # a file of the winding at e0 = 0 holds no row of this run's: refused, and named
    run_sweep_to_file(spec)
    before = out.read_bytes()
    with pytest.raises(ValueError, match=r"quantity=winding\) is not a row this run writes; "
                                         r".*2 samples, e0=-2\.5$"):
        run_sweep_to_file(inset)
    assert out.read_bytes() == before
    assert run_sweep_to_file(spec) == (0, 6)


@pytest.mark.parametrize("quantities, e0, message", [
    (("f_im",), -4.0, "e0=-4.0 is the winding's base energy, and no winding is asked for"),
    (("winding",), float("nan"), "e0 must be finite, got nan"),
    (("winding",), float("-inf"), "e0 must be finite, got -inf"),
])
def test_spec_refuses_an_e0_the_sweep_would_not_use(quantities, e0, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        SweepSpec(base=ModelParams(L=13, g=0.5, bc="pbc"), quantities=quantities, e0=e0)


@pytest.mark.parametrize("w_grid", [
    (0.5, 0.5, 0.5000000000000001),
    inclusive_range(0.0, 1e-13, 1e-14),    # eleven values, each written as 0
], ids=["repeated", "rounded"])
def test_a_key_is_written_once(tmp_path, w_grid):
    out = tmp_path / "sweep.csv"
    spec = SweepSpec(base=ModelParams(L=8, g=0.5, bc="pbc"), w_grid=w_grid, quantities=("f_im",),
                     out=str(out))
    assert run_sweep_to_file(spec) == (2, 0)
    assert [row[7] for row in read_rows(out)] == ["0", "avg"]
    assert run_sweep_to_file(spec) == (0, 2)


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
    kept = read_rows(out)
    assert sorted({row[4] for row in kept}) == ["0", "1"]
    assert len(kept) == 4                        # 2 points x (1 sample + avg)

    monkeypatch.undo()
    assert run_sweep_to_file(spec) == (4, 4)
    assert len(read_rows(out)) == 8


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
    back = read_rows(path)
    assert len(back) == len(rows)
    for a, b in zip(rows, back):
        assert len(b) == 11 and a.key == tuple(b[:9]) and b[9] == format(a.value, ".17g")
        assert float(b[9]) == a.value                    # .17g reads back to the same double
    assert float(back[0][5]) == rows[0].theta0 and back[-1][5] == ""   # the avg row has no theta0


def test_spec_validation():
    base = ModelParams(L=13, g=0.5, bc="pbc")
    with pytest.raises(ValueError):
        SweepSpec(base=base, quantities=("nonsense",), out="u.csv")
    with pytest.raises(ValueError):
        SweepSpec(base=base, theta0_samples=0, quantities=("f_im",), out="u.csv")
    with pytest.raises(ValueError, match="at least one of"):
        SweepSpec(base=base, quantities=(), out="u.csv")
    # a repeated quantity would write two rows under one key
    assert SweepSpec(base=base, quantities=("f_im", "winding", "f_im")).quantities == ("f_im", "winding")
    mb = ModelParams(L=8, N=4, g=0.5, bc="pbc")
    with pytest.raises(ValueError):
        SweepSpec(base=base, quantities=("fock_ipr",), out="u.csv")   # needs N
    SweepSpec(base=mb, quantities=("fock_ipr",), out="u.csv")
    with pytest.raises(ValueError, match="needs a particle number N"):
        SweepSpec(base=base, v_grid=(0.0, 1.0), out="u.csv")          # V needs N too
    assert SweepSpec(base=base, v_grid=(0.0,), out="u.csv").v_grid == (0.0,)
    assert SweepSpec(base=mb, v_grid=(0.0, 1.0), out="u.csv").v_grid == (0.0, 1.0)
    grid = EvolverConfig(dt=0.1, t_max=0.2)
    with pytest.raises(ValueError, match="require a particle number N"):
        SweepSpec(base=base, quantities=("s_ee",), evolver=grid)
    with pytest.raises(ValueError, match="s_ee needs a time grid"):
        SweepSpec(base=mb, quantities=("s_ee",))
    with pytest.raises(ValueError, match="no other quantity reads one"):    # accepted, then ignored
        SweepSpec(base=mb, quantities=("f_im",), evolver=grid)
    assert SweepSpec(base=mb, quantities=("f_im", "s_ee"), evolver=grid).evolver == grid
    with pytest.raises(ValueError, match="zero flux"):    # it would be built at phi = 0
        SweepSpec(base=replace(base, W=1.0, phi=1.3), quantities=("f_im", "ipr_pbc"))
