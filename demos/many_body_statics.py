"""Static many-body signatures: skin pile-up, CDW onset, winding drop.

Three measurements:

  1. eigenstate-averaged density of the L=12, N=6 open chain piles up
     on the left half (the many-body skin effect, bounded by Pauli
     exclusion),
  2. the ground-state staggered density O_DW of odd open chains with
     N = (L+1)/2 rises as the interaction V crosses the CDW onset.  The
     biorthogonal density is used; under OBC it equals the
     Hermitian-gauge one.  The model maps to the XXZ chain with
     Delta = V/2, so above V=2 O_DW approaches Baxter's exact
     thermodynamic-limit value, while below it the edge-induced
     staggering fades with L.  Even open chains at half filling show no
     order at any L: reflection swaps the sublattices of their unique
     ground state,
  3. the spectral winding of the L=12 ring at a base energy inside the
     weak-coupling point-gap loops drops to zero once the CDW gap opens.
"""

import numpy as np

from nhchain import (
    ModelParams,
    WindingConfig,
    build_fock_basis,
    build_many_body,
    cdw_order,
    decompose,
    ground_state,
    static_observables,
    winding_result,
)

L, N = 12, 6
ODD_LENGTHS = (9, 11, 13)


def baxter_o_dw(delta, n_terms=50):
    """Thermodynamic-limit staggered density of the XXZ chain at Delta > 1
    (Baxter, J. Stat. Phys. 9, 145 (1973))."""
    q2n = np.exp(-2.0 * np.arccosh(delta) * np.arange(1, n_terms + 1))
    return 0.5 * float(np.prod(((1.0 - q2n) / (1.0 + q2n)) ** 2))


def ground_o_dw(length, V):
    n = (length + 1) // 2
    basis = build_fock_basis(length, n)
    p = ModelParams(L=length, N=n, g=0.5, V=V, W=0.0, bc="obc")
    return cdw_order(ground_state(decompose(build_many_body(p, basis)), basis)[2])


def main():
    basis = build_fock_basis(L, N)

    p = ModelParams(L=L, N=N, g=0.5, V=2.0, W=0.5, bc="obc")
    density = static_observables(decompose(build_many_body(p, basis)), basis)
    bars = ["#" * int(round(12 * d)) for d in density]
    print("eigenstate-averaged density, OBC, g=0.5, V=2, W=0.5:")
    for j, (d, bar) in enumerate(zip(density, bars)):
        print(f"  site {j:2d}  {d:.3f}  {bar}")
    skew = density[: L // 2].sum() - density[L // 2:].sum()
    print(f"left-minus-right occupation: {skew:+.2f} of {N} particles\n")

    print("ground-state staggered density vs interaction, odd OBC chains "
          "(W=0, N=(L+1)/2):")
    print("          " + "".join(f"  L={lo:<4d}" for lo in ODD_LENGTHS) + "  L=inf")
    for V in (0.0, 1.0, 2.0, 3.0, 4.0, 5.0):
        row = "".join(f"  {ground_o_dw(lo, V):.3f} " for lo in ODD_LENGTHS)
        limit = f"{baxter_o_dw(V / 2.0):.3f}" if V > 2.0 else "0 (gapless)"
        print(f"  V={V:3.1f}  {row}  {limit}")

    print("\nwinding at base energy -4 (inside the weak-coupling loops):")
    cfg = WindingConfig(e0=-4.0)
    for V in (0.5, 5.0):
        pv = ModelParams(L=L, N=N, g=0.5, V=V, W=0.0, bc="pbc")
        print(f"  V={V:3.1f}  nu = {winding_result(pv, cfg=cfg).nu}")


if __name__ == "__main__":
    main()
