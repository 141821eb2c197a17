"""Hamiltonian construction: conventions, enumeration, validation."""

from dataclasses import replace
from itertools import combinations
from math import comb

import numpy as np
import pytest
import scipy.sparse as sparse

from nhchain import (
    BASIS_SIZE_CAP,
    THETA,
    ModelParams,
    build_fock_basis,
    build_many_body,
    build_single_particle,
    decompose,
    potential,
)
from nhchain.model import wrap_hops


def loop_built_many_body(params, basis):
    """Independent word-by-word builder used as an oracle for the
    vectorized construction.  Hops move one particle between adjacent
    sites; the amplified direction is toward lower site index."""
    dim = basis.dim
    H = np.zeros((dim, dim), dtype=complex)
    pot = potential(params)
    for idx, word in enumerate(basis.states):
        occ = [(word >> j) & 1 for j in range(params.L)]
        H[idx, idx] = sum(pot[j] for j in range(params.L) if occ[j])
        for j in range(params.L - 1):
            H[idx, idx] += params.V * occ[j] * occ[j + 1]
        if params.bc == "pbc":
            H[idx, idx] += params.V * occ[params.L - 1] * occ[0]
        bonds = params.L if params.bc == "pbc" else params.L - 1
        for j in range(bonds):
            a, b = j, (j + 1) % params.L
            wrap = b < a
            sign = (-1) ** (params.N - 1) if wrap else 1
            phase = np.exp(1j * params.phi) if wrap else 1.0
            if occ[b] and not occ[a]:   # b -> a, toward lower index, amplified
                tgt = word - (1 << b) + (1 << a)
                H[np.searchsorted(basis.states, tgt), idx] += -np.exp(params.g) * phase * sign
            if occ[a] and not occ[b]:   # a -> b, damped
                tgt = word - (1 << a) + (1 << b)
                H[np.searchsorted(basis.states, tgt), idx] += -np.exp(-params.g) * np.conj(phase) * sign
    return H


def test_fock_enumeration_ascending():
    basis = build_fock_basis(4, 2)
    assert basis.dim == 6
    assert list(basis.states) == [0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100]
    assert list(np.searchsorted(basis.states, basis.states)) == list(range(6))


def combinations_basis(L, N):
    """Reference enumeration: every N-subset of the sites as a word, sorted."""
    return np.array(sorted(sum(1 << j for j in occupied) for occupied in combinations(range(L), N)),
                    dtype=np.int64)


@pytest.mark.parametrize("L, N", [(L, N) for L in range(2, 15) for N in range(1, L)]
                         + [(40, 3), (63, 1), (63, 62)])
def test_fock_basis_matches_the_combinations_enumeration(L, N):
    states = build_fock_basis(L, N).states
    assert states.dtype == np.int64
    assert np.array_equal(states, combinations_basis(L, N))
    assert np.all(np.diff(states) > 0)


def test_potential_profile():
    p = ModelParams(L=5, W=0.7, theta0=0.2)
    prof = potential(p)
    expect = 0.7 * np.cos(2.0 * np.pi * THETA * np.arange(5) + 0.2)
    assert np.allclose(prof, expect, atol=1e-15)


def test_two_site_matrix_explicit():
    p = ModelParams(L=2, g=0.3, W=0.7, theta0=0.2, bc="obc")
    H = build_single_particle(p).dense()
    pot = potential(p)
    expect = np.array([[pot[0], -np.exp(0.3)], [-np.exp(-0.3), pot[1]]])
    assert np.allclose(H, expect, atol=1e-15)


@pytest.mark.parametrize("L", [3, 8, 89])
@pytest.mark.parametrize("bc", ["obc", "pbc"])
def test_single_particle_matches_loop_oracle(L, bc):
    # the hop-by-hop build, compared bit for bit (signed zeros included)
    p = ModelParams(L=L, g=0.4, W=1.3, theta0=0.2, bc=bc, phi=0.7 if bc == "pbc" else 0.0)
    oracle = np.zeros((L, L), dtype=complex)
    np.fill_diagonal(oracle, potential(p))
    for j in range(L - 1):
        oracle[j, j + 1] = -np.exp(p.g)
        oracle[j + 1, j] = -np.exp(-p.g)
    for rows, cols, amp in wrap_hops(p) if bc == "pbc" else ():
        oracle[rows, cols] += amp
    got = build_single_particle(p).entries.view(float)
    assert np.array_equal(got, oracle.view(float))
    assert np.array_equal(np.signbit(got), np.signbit(oracle.view(float)))


def test_pbc_wrap_bond_carries_twist():
    p = ModelParams(L=5, g=0.4, bc="pbc", phi=0.9)
    H = build_single_particle(p).dense()
    assert H[4, 0] == pytest.approx(-np.exp(0.4) * np.exp(1j * 0.9))
    assert H[0, 4] == pytest.approx(-np.exp(-0.4) * np.exp(-1j * 0.9))
    # bulk bonds untouched by the twist
    assert H[0, 1] == pytest.approx(-np.exp(0.4))
    assert H[1, 0] == pytest.approx(-np.exp(-0.4))


def test_hermitian_limit():
    p = ModelParams(L=13, g=0.0, W=1.3, bc="pbc", phi=0.7)
    H = build_single_particle(p).dense()
    assert np.allclose(H, H.conj().T, atol=1e-15)


def test_obc_spectrum_real_for_any_g():
    p = ModelParams(L=20, g=1.0, W=3.0, theta0=0.4, bc="obc")
    H = build_single_particle(p)
    d = decompose(H)
    assert np.all(d.eigenvalues.imag == 0.0)
    resid = H.dense() @ d.right - d.right * d.eigenvalues[None, :]
    assert np.abs(resid).max() < 1e-8


def test_spectral_ellipse_pbc_clean():
    # plane waves: eps_k = -2 cosh(g) cos(k) - 2i sinh(g) sin(k)
    L, g = 34, 0.5
    d = decompose(build_single_particle(ModelParams(L=L, g=g, bc="pbc")))
    k = 2.0 * np.pi * np.arange(L) / L
    expect = -2.0 * np.cosh(g) * np.cos(k) - 2.0j * np.sinh(g) * np.sin(k)
    # sort both sets the same way; rounding Re avoids conjugate-pair swaps
    order = lambda w: w[np.lexsort((w.imag, np.round(w.real, 9)))]
    assert np.abs(order(d.eigenvalues) - order(expect)).max() < 1e-12


def test_flux_reduced_modulo_two_pi():
    p = ModelParams(L=6, bc="pbc", phi=2.0 * np.pi + 0.3)
    assert p.phi == pytest.approx(0.3)
    Ha = build_single_particle(ModelParams(L=6, g=0.2, bc="pbc", phi=0.3)).dense()
    Hb = build_single_particle(ModelParams(L=6, g=0.2, bc="pbc", phi=0.3 + 4.0 * np.pi)).dense()
    assert np.allclose(Ha, Hb, atol=1e-14)   # reduction mod 2*pi costs a few ulps


def test_obc_refuses_flux():
    # an open chain has no wrap bond: a flux would be accepted and then ignored
    assert ModelParams(L=6, g=0.2, bc="obc", phi=2.0 * np.pi).phi == 0.0    # reduces to no flux
    with pytest.raises(ValueError, match="needs bc='pbc'"):
        ModelParams(L=6, g=0.2, bc="obc", phi=1.1)


def test_many_body_matches_loop_oracle():
    basis = build_fock_basis(12, 6)
    for bc in ("obc", "pbc"):
        p = ModelParams(L=12, N=6, g=0.5, V=2.0, W=1.0, theta0=0.7, bc=bc, phi=0.4 if bc == "pbc" else 0.0)
        H = build_many_body(p, basis)
        oracle = loop_built_many_body(p, basis)
        assert np.abs(H.dense() - oracle).max() < 1e-14


def test_many_body_wrap_sign_toggles():
    # The wrap hop picks up the fermionic sign (-1)^(N-1), which toggles with
    # N.  0 -> L-1 crosses the wrap bond in the amplified direction (the ring
    # continuation of hopping toward lower index).
    for N, src_word, tgt_word in ((1, 0b0001, 0b1000), (2, 0b0011, 0b1010), (3, 0b0111, 0b1110)):
        basis = build_fock_basis(4, N)
        H = build_many_body(ModelParams(L=4, N=N, g=0.4, bc="pbc"), basis).dense()
        src, tgt = np.searchsorted(basis.states, [src_word, tgt_word])
        assert H[tgt, src] == pytest.approx(-(-1.0) ** (N - 1) * np.exp(0.4))
        if N == 2:   # the bulk hop of site 1 -> 2 carries no sign
            assert H[np.searchsorted(basis.states, 0b0101), src] == -np.exp(-0.4)


@pytest.mark.parametrize("L, N", [(2, None), (7, None), (2, 1), (6, 1), (6, 3), (7, 5)])
def test_wrap_hops_are_the_only_flux_dependence(L, N):
    p = ModelParams(L=L, N=N, g=0.3, V=1.2 if N else 0.0, W=0.9, theta0=0.2, bc="pbc", phi=1.1)
    basis = build_fock_basis(L, N) if N else None

    def build(q):
        return (build_many_body(q, basis) if N else build_single_particle(q)).dense()

    expected = build(replace(p, phi=0.0)).astype(complex)    # real at zero flux
    for (rows, cols, amp), (_, _, amp0) in zip(wrap_hops(p, basis), wrap_hops(replace(p, phi=0.0), basis)):
        assert len(rows) == len(set(rows)) == len(set(cols)) == (comb(L - 2, N - 1) if N else 1)
        expected[rows, cols] += amp - amp0
    assert np.abs(build(p) - expected).max() < 1e-14


def test_interaction_diagonal():
    basis = build_fock_basis(4, 2)
    p = ModelParams(L=4, N=2, V=3.0, bc="obc")
    H = build_many_body(p, basis).dense()
    i, j = np.searchsorted(basis.states, [0b0011, 0b0101])
    assert H[i, i] == pytest.approx(3.0)
    assert H[j, j] == pytest.approx(0.0)
    # wrap pair 0,3 counts only under pbc
    H_pbc = build_many_body(ModelParams(L=4, N=2, V=3.0, bc="pbc"), basis).dense()
    k = np.searchsorted(basis.states, 0b1001)
    assert H_pbc[k, k] == pytest.approx(3.0)


def test_many_body_storage_is_csr_single_particle_dense():
    for L, N in ((12, 6), (16, 8)):          # dim 924 and 12870
        H = build_many_body(ModelParams(L=L, N=N, g=0.5, W=1.0, bc="pbc"), build_fock_basis(L, N))
        assert sparse.issparse(H.entries) and H.entries.format == "csr"
        assert H.entries.nnz <= H.dim * (L + 1)
        psi = np.zeros(H.dim, dtype=complex)
        psi[0] = 1.0
        assert np.abs(H.entries @ psi).sum() > 0.0
        if L == 12:                          # densified at dim 12870 it would take 2.6 GB
            assert np.array_equal(H.dense(), H.entries.toarray())
    single = build_single_particle(ModelParams(L=12, g=0.5, bc="pbc"))
    assert not sparse.issparse(single.entries) and isinstance(single.entries, np.ndarray)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(L=1)
    with pytest.raises(ValueError):
        ModelParams(L=4, bc="periodic")
    with pytest.raises(ValueError):
        ModelParams(L=4, W=-0.1)
    with pytest.raises(ValueError):
        ModelParams(L=4, N=0)
    with pytest.raises(ValueError):
        ModelParams(L=4, N=4)
    with pytest.raises(ValueError):
        ModelParams(L=40, N=20)   # C(40,20) far beyond the basis cap
    with pytest.raises(ValueError, match="needs a particle number N"):
        ModelParams(L=6, V=3.0)   # one particle: V would be ignored
    assert ModelParams(L=6, N=3, V=3.0).V == 3.0
    assert BASIS_SIZE_CAP == 10**7
    with pytest.raises(ValueError, match=r"^basis size C\(40,20\) exceeds cap 10000000$"):
        build_fock_basis(40, 20)
    for L in (64, 100):     # the occupation words are int64: one bit per site
        with pytest.raises(ValueError, match="at most 63 sites"):
            ModelParams(L=L, N=1)
        with pytest.raises(ValueError, match="at most 63 sites"):
            build_fock_basis(L, 1)
    assert build_fock_basis(63, 1).states[-1] == 1 << 62


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("name", ["g", "V", "W", "theta0", "phi"])
def test_params_refuse_non_finite_numbers(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        ModelParams(L=4, N=2, bc="pbc", **{name: value})


@pytest.mark.parametrize("g", [800.0, -800.0, 710.0])
def test_params_refuse_a_g_whose_hop_overflows(g):
    with pytest.raises(ValueError, match=rf"^g={g:g} is too large: e\^\|g\| overflows$"):
        ModelParams(L=4, g=g)
    assert np.isfinite(build_single_particle(ModelParams(L=4, g=np.sign(g) * 709.0)).entries).all()


def test_basis_mismatch_rejected():
    basis = build_fock_basis(6, 3)
    with pytest.raises(ValueError):
        build_many_body(ModelParams(L=6, N=2), basis)
