"""Locate the localization transition along the non-reciprocity axis.

For a few values of the gauge parameter g, scan the potential strength W
and watch two order parameters cross at the same point: the fraction of
complex eigenvalues f_im (periodic ring) collapses, and the spectral
winding number drops from 1 to 0.  Both crossings track W = 2 e^g.

Runs in a few seconds at L = 55.  Writes phase_diagram_demo.csv next to
the script so the raw rows can be re-plotted.
"""

import os

import numpy as np

from nhchain import ModelParams, SweepSpec, inclusive_range, run_sweep

L = 55
SAMPLES = 3
W_GRID = inclusive_range(0.0, 7.0, 0.5)


def crossing(w_values, y_values, level):
    """First W where y drops below the level (linear interpolation)."""
    for (w0, y0), (w1, y1) in zip(zip(w_values, y_values), list(zip(w_values, y_values))[1:]):
        if y0 >= level > y1:
            return w0 + (w1 - w0) * (y0 - level) / (y0 - y1)
    return float("nan")


def main():
    out = os.path.join(os.path.dirname(__file__), "phase_diagram_demo.csv")
    print(f"chain length L={L}, {SAMPLES} disorder phases per point")
    print(f"{'g':>5} {'f_im drop':>10} {'nu drop':>9} {'2 e^g':>7}")
    all_rows = []
    for g in (0.25, 0.5, 0.75, 1.0):
        base = ModelParams(L=L, g=g, bc="pbc")
        spec = SweepSpec(base=base, w_grid=W_GRID, theta0_samples=SAMPLES,
                         quantities=("f_im", "winding"), out="unused")
        rows = [r for r in run_sweep(spec) if r.sample == "avg"]
        all_rows.extend(rows)
        f_im = [r.value for r in rows if r.quantity == "f_im"]
        nu = [abs(r.value) for r in rows if r.quantity == "winding"]
        w_f = crossing(W_GRID, f_im, 0.5)
        w_nu = crossing(W_GRID, nu, 0.5)
        print(f"{g:5.2f} {w_f:10.2f} {w_nu:9.2f} {2 * np.exp(g):7.2f}")

    from nhchain import write_records_csv
    if os.path.exists(out):   # write_records_csv appends; a rerun replaces the file
        os.remove(out)
    write_records_csv(all_rows, out)
    print(f"\nboth markers move with the gauge parameter, not with W alone;")
    print(f"averaged rows written to {out}")


if __name__ == "__main__":
    main()
