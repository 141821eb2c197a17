"""End-to-end acceptance checks at desk scale.

Each test measures one headline property of the model and records a
single PASS/FAIL line through the `acceptance` fixture.

Check 07 may still fail, on its PBC growth clause alone: at twice the
single-particle critical potential the interacting ring's spectrum is
still partly complex, so its late-time entropy keeps growing while the
evolution projects onto the top mode.  The verdict line prints each
boundary condition's largest `imag_fraction` so the cause stays
visible.  The clause is kept as written until the project defines
"strong potential" for the interacting chain.

Check 08 measures CDW order on odd open chains with N = (L+1)/2, whose
large-V ground state is the unique edge-pinned Neel state, and compares
it with exact results for the XXZ chain it maps to.  Even open chains
at half filling cannot show the order: their ground state is
reflection-symmetric with sublattices swapped, so its biorthogonal
staggered density vanishes identically.
"""

import numpy as np

from nhchain import (
    EvolverConfig,
    ModelParams,
    WindingConfig,
    arnoldi_step,
    build_fock_basis,
    build_many_body,
    build_single_particle,
    cdw_order,
    decompose,
    entanglement_entropy,
    evolve_exact,
    ground_state,
    imag_fraction,
    initial_domain_wall,
    initial_localized,
    ipr_per_state,
    run,
    static_observables,
    winding_result,
)

GRID_G = (0.25, 0.5, 0.75, 1.0)
N_SAMPLES = 10


def w_crit(g: float) -> float:
    return 2.0 * np.exp(g)


def theta_samples(n: int):
    return [2.0 * np.pi * s / n for s in range(n)]


def mean_f_im(g: float, W: float, L: int = 89) -> float:
    vals = []
    for theta0 in theta_samples(N_SAMPLES):
        p = ModelParams(L=L, g=g, W=W, theta0=theta0, bc="pbc")
        vals.append(imag_fraction(decompose(build_single_particle(p))))
    return float(np.mean(vals))


def mean_obc_ipr(g: float, W: float, L: int = 89, bc: str = "obc") -> float:
    p = ModelParams(L=L, g=g, W=W, theta0=0.0, bc=bc)
    return float(np.mean(ipr_per_state(decompose(build_single_particle(p)))))


def entropy_trace(bc: str, W: float, t_grid, n_samples: int = 5):
    """theta0-averaged half-chain entropy under exact propagation, and the
    largest imag_fraction among the sampled many-body spectra."""
    basis = build_fock_basis(12, 6)
    psi0 = initial_domain_wall(basis)
    traces, f_ims = [], []
    for theta0 in theta_samples(n_samples):
        p = ModelParams(L=12, N=6, g=0.5, V=2.0, W=W, theta0=theta0, bc=bc)
        d = decompose(build_many_body(p, basis))
        trace = [entanglement_entropy(evolve_exact(d, psi0, t), basis) for t in t_grid]
        traces.append(trace)
        f_ims.append(imag_fraction(d))
    return np.mean(traces, axis=0), max(f_ims)


def baxter_o_dw(delta: float, n_terms: int = 50) -> float:
    """Thermodynamic-limit staggered density of the XXZ chain at Delta > 1.

    Baxter, J. Stat. Phys. 9, 145 (1973): the staggered polarization is
    prod_n [(1 - q^2n)/(1 + q^2n)]^2 with q = exp(-arccosh Delta); the
    density amplitude is half of it.
    """
    q2n = np.exp(-2.0 * np.arccosh(delta) * np.arange(1, n_terms + 1))
    return 0.5 * float(np.prod(((1.0 - q2n) / (1.0 + q2n)) ** 2))


def luttinger_k(delta: float) -> float:
    """Luttinger parameter of the gapless XXZ chain, |Delta| < 1."""
    return np.pi / (2.0 * (np.pi - np.arccos(delta)))


def rms_width(profile: np.ndarray) -> float:
    j = np.arange(profile.size)
    mu = float((j * profile).sum())
    return float(np.sqrt(((j - mu) ** 2 * profile).sum()))


def test_01_complex_spectrum_transition(acceptance):
    details, ok = [], True
    for g in GRID_G:
        below = mean_f_im(g, 0.8 * w_crit(g))
        above = mean_f_im(g, 1.2 * w_crit(g))
        ok = ok and below > 0.5 and above < 0.02
        details.append(f"g={g}: f_im {below:.3f}/{above:.3f}")
    acceptance(ok, "f_im > 0.5 below and < 0.02 above 2e^g; " + ", ".join(details))


def test_02_winding_transition(acceptance):
    bad = []
    for g in GRID_G:
        for frac, expect in ((0.8, 1), (1.2, 0)):
            for theta0 in theta_samples(N_SAMPLES):
                p = ModelParams(L=89, g=g, W=frac * w_crit(g), theta0=theta0, bc="pbc")
                nu = winding_result(p).nu
                if abs(nu) != expect:
                    bad.append(f"g={g} W={frac}Wc theta0={theta0:.2f}: nu={nu}")
    acceptance(not bad, "|nu|=1 below and nu=0 above 2e^g on all 80 samples"
               + ("; exceptions: " + "; ".join(bad[:4]) if bad else ""))


def test_03_skin_ipr_quartet(acceptance):
    wc = w_crit(0.5)
    obc_low = mean_obc_ipr(0.5, 0.5)
    obc_crit = min(mean_obc_ipr(0.5, f * wc) for f in (0.9, 1.0, 1.1))
    obc_high = mean_obc_ipr(0.5, 2.0 * wc)
    pbc_low = mean_obc_ipr(0.5, 0.5, bc="pbc")
    ok = obc_low > 0.1 and obc_crit < obc_low and obc_high > 0.3 and pbc_low < 0.05
    acceptance(ok, f"OBC IPR {obc_low:.3f} at W=0.5, dip {obc_crit:.3f} near 2e^g, "
                   f"{obc_high:.3f} at 2Wc; PBC {pbc_low:.4f}")


def test_04_krylov_matches_exact(acceptance):
    worst = {}
    for label, p, psi0, basis in (
        ("sp", ModelParams(L=10, g=0.5, W=1.0, bc="pbc"), initial_localized(10, 5), None),
        ("mb", ModelParams(L=12, N=6, g=0.5, V=2.0, W=1.0, bc="pbc"), None, build_fock_basis(12, 6)),
    ):
        if basis is not None:
            H = build_many_body(p, basis)
            psi0 = initial_domain_wall(basis)
        else:
            H = build_single_particle(p)
        d = decompose(H)
        psi = psi0.astype(complex)
        dev = 0.0
        for k in range(1, 201):
            psi = arnoldi_step(H.entries, psi, 25, 0.05)
            if k % 10 == 0:
                dev = max(dev, float(np.abs(psi - evolve_exact(d, psi0, 0.05 * k)).max()))
        worst[label] = dev
    ok = all(v < 1e-8 for v in worst.values())
    acceptance(ok, f"max |krylov - exact| over t in [0,10]: "
                   f"dim 10 {worst['sp']:.2e}, dim 924 {worst['mb']:.2e} (< 1e-8)")


def test_05_biorthogonality_random_points(acceptance):
    rng = np.random.default_rng(55)
    worst_b = worst_c = 0.0
    for _ in range(20):
        p = ModelParams(L=55, g=rng.uniform(0.05, 1.0), W=rng.uniform(0.0, 8.0),
                        theta0=rng.uniform(0.0, 2.0 * np.pi), bc="pbc")
        d = decompose(build_single_particle(p))
        eye = np.eye(d.dim)
        worst_b = max(worst_b, float(np.abs(d.left @ d.right - eye).max()))
        worst_c = max(worst_c, float(np.abs(d.right @ d.left - eye).max()))
    ok = worst_b < 1e-8 and worst_c < 1e-8
    acceptance(ok, f"20 random (g, W) at L=55: biorthogonality {worst_b:.2e}, "
                   f"completeness {worst_c:.2e} (< 1e-8)")


def test_06_entanglement_nonmonotonic(acceptance):
    t_grid = np.arange(0.0, 40.0 + 1e-9, 0.5)
    details, ok = [], True
    for bc in ("pbc", "obc"):
        s, _ = entropy_trace(bc, 0.5, t_grid)
        k = int(np.argmax(s))
        plateau = float(np.mean(s[t_grid >= 36.0]))
        interior = 0 < k < len(t_grid) - 1
        drop = float(s[k] - plateau)
        ok = ok and interior and drop >= 0.05
        details.append(f"{bc}: max {s[k]:.3f} at t={t_grid[k]:g}, plateau {plateau:.3f}")
    acceptance(ok, "interior S_EE maximum with plateau >= 0.05 below it; " + "; ".join(details))


def test_07_entanglement_slow_growth_strong_disorder(acceptance):
    # one checkpoint per factor ~3 in t, the natural sampling for slow growth
    t_grid = np.array([0.0, 1.0, 3.0, 10.0, 30.0, 100.0])
    traces, f_ims = {}, {}
    for bc in ("pbc", "obc"):
        traces[bc], f_ims[bc] = entropy_trace(bc, 2.0 * w_crit(0.5), t_grid)
    late = t_grid >= 1.0
    details, ok = [], True
    for bc, s in traces.items():
        s_late = s[late]
        dips = float(np.max(s_late[:-1] - s_late[1:]))
        s10 = float(s[t_grid == 10.0][0])
        s100 = float(s[t_grid == 100.0][0])
        growth = (s100 - s10) / s10
        clause1 = dips <= 0.02
        clause2 = growth < 0.5
        ok = ok and clause1 and clause2
        details.append(f"{bc}: max dip {dips:.3f} (tol 0.02), S(100)/S(10) growth {growth:.0%} "
                       f"(< 50%), max f_im {f_ims[bc]:.3f}")
    # The ring's half-chain cut crosses two bonds and the open chain's one,
    # and the domain wall puts a particle-hole edge on each cut bond, so the
    # ring carries more entanglement (at g=0 as well).
    margin = float((traces["pbc"] - traces["obc"])[late].min())
    ok = ok and margin >= 0.0
    details.append(f"min over t >= 1 of S_pbc - S_obc {margin:.3f} (>= 0)")
    acceptance(ok, "; ".join(details))


def test_08_cdw_onset_and_winding_drop(acceptance):
    # V/2 is the XXZ anisotropy Delta: V=1 is gapless (Delta=1/2), V=4 is
    # Neel-ordered (Delta=2).  Odd L with one extra particle pins the Neel
    # pattern to both edges; the biorthogonal density of the OBC ground state
    # equals its Hermitian-gauge (g=0) density.
    lengths = (9, 11, 13)

    def ground_o_dw(L, V):
        basis = build_fock_basis(L, (L + 1) // 2)
        p = ModelParams(L=L, N=(L + 1) // 2, g=0.5, V=V, W=0.0, bc="obc")
        return float(cdw_order(ground_state(decompose(build_many_body(p, basis)), basis)[2]))

    o1 = np.array([ground_o_dw(L, 1.0) for L in lengths])
    o4 = np.array([ground_o_dw(L, 4.0) for L in lengths])
    o_inf = baxter_o_dw(2.0)
    # the gapless chain's edge-induced staggering falls as L^-K
    k = luttinger_k(0.5)
    decay = -np.polyfit(np.log(lengths), np.log(o1), 1)[0]
    ordered = bool(np.all(o4 > o_inf))
    gapless = bool(np.all(np.diff(o1) < 0.0)) and abs(decay - k) < k / 3.0

    cfg = WindingConfig(e0=-4.0)   # inside the weak-coupling point-gap loops
    nus = {}
    for V in (0.5, 5.0):
        p = ModelParams(L=12, N=6, g=0.5, V=V, W=0.0, bc="pbc")
        nus[V] = winding_result(p, cfg=cfg).nu
    ok = ordered and gapless and nus[0.5] != 0 and nus[5.0] == 0

    def fmt(o):
        return "/".join(f"{x:.3f}" for x in o)

    acceptance(ok, f"odd-L OBC ground state, L={'/'.join(map(str, lengths))}: "
                   f"O_DW(V=4)={fmt(o4)} (> Baxter {o_inf:.3f}), "
                   f"O_DW(V=1)={fmt(o1)} ~ L^-{decay:.2f} (K={k:.2f} +- K/3); "
                   f"at E0=-4: nu(V=0.5)={nus[0.5]}, nu(V=5)={nus[5.0]}")


def test_09_many_body_skin_asymmetry(acceptance):
    basis = build_fock_basis(12, 6)
    p = ModelParams(L=12, N=6, g=0.5, V=2.0, W=0.5, theta0=0.0, bc="obc")
    density = static_observables(decompose(build_many_body(p, basis)), basis)
    skew = float(density[:6].sum() - density[6:].sum())
    acceptance(skew > 0.5, f"eigenstate-averaged density skew {skew:.2f} (> 0.5)")


def test_10_slide_and_disorder_enhanced_spreading(acceptance):
    config = EvolverConfig(method="krylov", M=15, dt=0.2, t_max=40.0, record_stride=5)
    t_grid = np.arange(0.0, 40.0 + 1e-9, 1.0)
    profiles = {}
    for key, W, bc in (("clean_obc", 0.0, "obc"), ("clean_pbc", 0.0, "pbc"),
                       ("crit_obc", 5.4, "obc")):
        p = ModelParams(L=600, g=1.0, W=W, theta0=0.0, bc=bc)
        series = run(p, config, initial_localized(600, 580), ("density",))
        profiles[key] = np.array([series.profile_at("density", t) for t in t_grid])

    peaks = profiles["clean_obc"].argmax(axis=1)
    slope, intercept = np.polyfit(t_grid, peaks, 1)
    fitted = slope * t_grid + intercept
    r2 = 1.0 - ((peaks - fitted) ** 2).sum() / ((peaks - peaks.mean()) ** 2).sum()

    width_clean = rms_width(profiles["clean_obc"][-1])
    width_crit = rms_width(profiles["crit_obc"][-1])
    bc_gap = float(np.abs(profiles["clean_obc"] - profiles["clean_pbc"]).max())

    ok = r2 > 0.99 and width_crit > width_clean and bc_gap < 1e-6
    acceptance(ok, f"peak fit R^2={r2:.6f} (v={slope:.2f} sites/time); width at t=40 "
                   f"{width_crit:.1f} (W=5.4) vs {width_clean:.1f} (W=0); bc gap {bc_gap:.1e}")
