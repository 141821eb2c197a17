"""Parameter-grid sweep engine with deterministic disorder averaging.

A sweep walks the Cartesian product of g, V and W grids; at each point
the requested quantities are evaluated for S evenly spaced disorder
phases theta0 = theta0_base + 2*pi*s/S and then averaged.  Evenly spaced phases stand
in for random draws so a rerun is bit-identical.  Grid points run one
after another in grid order, each one's samples in the calling thread
just before its rows are written.  Individual point failures
(an ill-defined winding, a defective decomposition) become NaN rows
with the message in the warnings column, and the sweep moves on.

Quantities: `QUANTITIES` maps each name to the boundary condition it is
forced to (`ipr_obc`, `ipr_pbc`, `winding`), or to None where it takes
the spec's; each row's bc column holds the one it was computed under.
`density` gives one row per site, named `density:j`.

Output: `run_sweep_to_file` appends each grid point's rows to the CSV
as soon as that point finishes, so an interrupted sweep keeps every
finished point.  Resume: rerunning against an existing output file
recomputes only grid points with missing rows and appends those rows,
keyed by the full parameter echo.  A file written by a run with another
L, N, boundary condition, base theta0 or sample count is refused rather
than mixed with the new rows.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, replace
from itertools import product
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .model import ModelParams, build_fock_basis, build_many_body, build_single_particle
from .spectral import decompose, eigenvalues, imag_fraction, ipr_per_state, static_observables
from .winding import winding_result

# Each quantity and the boundary condition it is computed under (None: the spec's).
QUANTITIES = {"ipr_obc": "obc", "ipr_pbc": "pbc", "f_im": None, "winding": "pbc",
              "fock_ipr": None, "o_dw": None, "density": None}

CSV_COLUMNS = ("L", "N", "g", "V", "W", "theta0", "bc", "sample", "quantity", "value", "warnings")


def inclusive_range(start: float, stop: float, step: float) -> tuple:
    """Grid start, start+step, ..., stop (endpoint included up to rounding)."""
    if step <= 0:
        raise ValueError("step must be > 0")
    if stop < start:
        raise ValueError(f"empty range: stop {stop} < start {start}")
    n = int(np.floor((stop - start) / step + 1e-9)) + 1
    return tuple(np.round(start + step * np.arange(n), 12))


@dataclass(frozen=True)
class SweepSpec:
    base: ModelParams
    g_grid: Sequence[float] = ()
    v_grid: Sequence[float] = ()
    w_grid: Sequence[float] = ()
    theta0_samples: int = 1
    quantities: Sequence[str] = ("f_im",)
    out: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "g_grid", tuple(self.g_grid) or (self.base.g,))
        object.__setattr__(self, "v_grid", tuple(self.v_grid) or (self.base.V,))
        object.__setattr__(self, "w_grid", tuple(self.w_grid) or (self.base.W,))
        object.__setattr__(self, "quantities", tuple(self.quantities))
        if self.theta0_samples < 1:
            raise ValueError("theta0_samples must be >= 1")
        unknown = set(self.quantities) - set(QUANTITIES)
        if unknown:
            raise ValueError(f"unknown quantities: {sorted(unknown)}")
        needs_filling = {"fock_ipr", "o_dw"} & set(self.quantities)
        if needs_filling and not self.base.many_body:
            raise ValueError(f"{sorted(needs_filling)} require a particle number N")


@dataclass
class ResultRecord:
    L: int
    N: Optional[int]
    g: float
    V: float
    W: float
    theta0: Optional[float]   # None on theta0-averaged rows
    bc: str
    sample: str               # "0", "1", ... or "avg"
    quantity: str
    value: float
    warnings: str = ""

    @property
    def key(self) -> tuple:
        """The full parameter echo; rows of one run differ in it."""
        return _key(self.L, self.N, self.g, self.V, self.W, self.theta0, self.bc,
                    self.sample, self.quantity)


def _num(x: float) -> str:
    return format(float(x), ".12g")


def _key(L, N, g, V, W, theta0, bc, sample, quantity) -> tuple:
    return (L, N, _num(g), _num(V), _num(W), "" if theta0 is None else _num(theta0),
            bc, sample, quantity)


def _theta0(spec: SweepSpec, s: int) -> float:
    """Disorder phase of sample s: the base phase plus s/S of a turn."""
    return spec.base.theta0 + 2.0 * np.pi * s / spec.theta0_samples


def _evaluate_sample(params: ModelParams, quantities: Sequence[str], basis) -> dict:
    """All requested quantities at one (grid point, theta0); never raises.

    Each value comes with its notes: the winding's own diagnostics
    (WindingResult.warnings) and the error that replaced a failed value.
    """
    out = {}
    decomps = {}
    # f_im takes its eigenvalues from a decomposition made anyway at its bc
    vector_bcs = {_effective_bc(q, params.bc) for q in quantities if q not in ("f_im", "winding")}

    def matrix(bc):
        p = replace(params, bc=bc, phi=0.0)
        return build_many_body(p, basis) if p.many_body else build_single_particle(p)

    def get_decomp(bc):
        if bc not in decomps:
            decomps[bc] = decompose(matrix(bc))
        return decomps[bc]

    for q in quantities:
        notes = []
        bc = _effective_bc(q, params.bc)
        try:
            if q == "f_im":
                value = imag_fraction(get_decomp(bc) if bc in vector_bcs else eigenvalues(matrix(bc)))
            elif q == "winding":
                res = winding_result(replace(params, bc="pbc", phi=0.0))
                value = float(res.nu)
                notes = list(res.warnings)
            elif q in ("o_dw", "density"):
                value = getattr(static_observables(get_decomp(bc), basis), q)
            else:   # ipr_obc, ipr_pbc, fock_ipr: the mean over the right eigenvectors
                value = float(np.mean(ipr_per_state(get_decomp(bc))))
        except Exception as exc:   # keep sweeping; the row carries the reason
            notes.append(f"{type(exc).__name__}: {exc}")
            value = np.full(params.L, np.nan) if q == "density" else float("nan")
        out[q] = (value, "; ".join(notes))
    return out


def _effective_bc(quantity: str, base_bc: str) -> str:
    """Boundary condition a quantity is actually computed under."""
    return QUANTITIES.get(quantity) or base_bc


def _names(quantity: str, L: int) -> list:
    """The row names of a quantity: density has one row per site."""
    return [f"density:{j}" for j in range(L)] if quantity == "density" else [quantity]


def _sample_rows(spec: SweepSpec, g: float, V: float, W: float, s: int, results: dict) -> list:
    base = spec.base
    theta0 = _theta0(spec, s)
    rows = []
    for q in spec.quantities:
        value, notes = results[q]   # density: a length-L profile, NaN-filled on failure
        bc = _effective_bc(q, base.bc)
        for name, v in zip(_names(q, base.L), np.atleast_1d(value)):
            rows.append(ResultRecord(base.L, base.N, g, V, W, theta0, bc,
                                     str(s), name, float(v), notes))
    return rows


def _average_rows(spec: SweepSpec, g: float, V: float, W: float, sample_rows: list) -> list:
    by_quantity: dict = {}
    for r in sample_rows:
        by_quantity.setdefault(r.quantity, []).append(r)
    rows = []
    for q, group in by_quantity.items():   # insertion order mirrors the sample rows
        values = np.array([r.value for r in group], dtype=float)
        finite = values[np.isfinite(values)]
        mean = float(np.mean(finite)) if finite.size else float("nan")
        notes = "; ".join(sorted({r.warnings for r in group if r.warnings}))
        rows.append(ResultRecord(spec.base.L, spec.base.N, g, V, W, None,
                                 group[0].bc, "avg", q, mean, notes))
    return rows


def expected_keys(spec: SweepSpec, g: float, V: float, W: float) -> set:
    """Row keys one grid point must contribute (for resume bookkeeping)."""
    base = spec.base
    keys = set()
    for q in spec.quantities:
        bc = _effective_bc(q, base.bc)
        for name in _names(q, base.L):
            for s in range(spec.theta0_samples):
                keys.add(_key(base.L, base.N, g, V, W, _theta0(spec, s), bc, str(s), name))
            keys.add(_key(base.L, base.N, g, V, W, None, bc, "avg", name))
    return keys


def _check_compatible(spec: SweepSpec, records: Sequence[ResultRecord]) -> None:
    """Raise ValueError unless every record could have come from `spec`.

    Grid points and quantities may differ; L, N, the boundary condition
    each quantity is computed under, and each sample's theta0 must not.
    An average row must come with all S of its sample rows, which is
    what tells a file with fewer samples apart.
    """
    base, S = spec.base, spec.theta0_samples
    keys = {r.key for r in records}

    def mismatch(r: ResultRecord) -> str:
        if (r.L, r.N) != (base.L, base.N):
            return f"L={r.L}, N={r.N}"
        if r.bc != _effective_bc(r.quantity.split(":")[0], base.bc):
            return f"bc={r.bc}"
        if r.sample == "avg":
            missing = [s for s in range(S) if _key(r.L, r.N, r.g, r.V, r.W, _theta0(spec, s),
                                                   r.bc, str(s), r.quantity) not in keys]
            return f"an average over other than {S} samples" if missing else ""
        if not r.sample.isdigit() or int(r.sample) >= S:
            return f"sample {r.sample}"
        if r.theta0 is None or _num(r.theta0) != _num(_theta0(spec, int(r.sample))):
            return f"theta0={r.theta0} for sample {r.sample}"
        return ""

    for r in records:
        why = mismatch(r)
        if why:
            raise ValueError(
                f"{spec.out}: row ({r.quantity}, g={_num(r.g)}, V={_num(r.V)}, W={_num(r.W)}, "
                f"sample {r.sample}) has {why}; this run has L={base.L}, N={base.N}, "
                f"bc={base.bc}, theta0={_num(base.theta0)}, {S} samples"
            )


def _point_rows(spec: SweepSpec, have: set) -> Iterator[list]:
    """Each grid point's rows not already in `have`, one list per point, in grid order.

    Points whose rows are all in `have` are skipped; partially covered
    points are recomputed and only their missing rows are returned.  A
    point is computed only when its rows are asked for.
    """
    basis = build_fock_basis(spec.base.L, spec.base.N) if spec.base.many_body else None
    for g, V, W in product(spec.g_grid, spec.v_grid, spec.w_grid):
        if expected_keys(spec, g, V, W) <= have:
            continue
        point_rows = []
        for s in range(spec.theta0_samples):
            params = replace(spec.base, g=g, V=V, W=W, theta0=_theta0(spec, s))
            results = _evaluate_sample(params, spec.quantities, basis)
            point_rows.extend(_sample_rows(spec, g, V, W, s, results))
        rows = point_rows + _average_rows(spec, g, V, W, point_rows)
        yield [r for r in rows if r.key not in have]


def run_sweep(spec: SweepSpec) -> Iterator[ResultRecord]:
    """Yield records grid point by grid point, in grid order."""
    for rows in _point_rows(spec, set()):
        yield from rows


def write_records_csv(records: Iterable[ResultRecord], path: str, append: bool = False) -> int:
    new_file = not (append and os.path.exists(path) and os.path.getsize(path) > 0)
    n = 0
    with open(path, "a" if append else "w", newline="") as fh:
        writer = csv.writer(fh)
        if new_file:
            writer.writerow(CSV_COLUMNS)
        for r in records:
            writer.writerow([
                r.L, "" if r.N is None else r.N, _num(r.g), _num(r.V), _num(r.W),
                "" if r.theta0 is None else format(r.theta0, ".17g"),
                r.bc, r.sample, r.quantity, format(r.value, ".17g"), r.warnings,
            ])
            n += 1
    return n


def read_records_csv(path: str) -> list:
    records = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            records.append(ResultRecord(
                L=int(row["L"]), N=int(row["N"]) if row["N"] else None,
                g=float(row["g"]), V=float(row["V"]), W=float(row["W"]),
                theta0=float(row["theta0"]) if row["theta0"] else None,
                bc=row["bc"], sample=row["sample"], quantity=row["quantity"],
                value=float(row["value"]), warnings=row["warnings"],
            ))
    return records


def run_sweep_to_file(spec: SweepSpec, threads: int = 1) -> tuple:
    """Run (or resume) a sweep into the CSV file spec.out; returns (written, reused).

    Each grid point's rows are appended as soon as the point finishes.
    Raises ValueError when spec.out holds rows of an incompatible run
    (see _check_compatible); the file is then left untouched.  `threads`
    accepts only 1: every sweep runs in the calling thread.
    """
    if threads != 1:
        raise ValueError(f"threads must be 1 (sweeps run in the calling thread), got {threads}")
    if spec.out is None:
        raise ValueError("spec.out must be set")
    existing = []
    if os.path.exists(spec.out) and os.path.getsize(spec.out) > 0:
        existing = read_records_csv(spec.out)
    _check_compatible(spec, existing)
    written = 0
    for rows in _point_rows(spec, {r.key for r in existing}):
        written += write_records_csv(rows, spec.out, append=True)
    return written, len(existing)
