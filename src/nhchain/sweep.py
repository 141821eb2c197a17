"""Parameter-grid sweep engine with deterministic disorder averaging.

A sweep walks the Cartesian product of g, V and W grids; at each point
the requested quantities are evaluated for S evenly spaced disorder
phases theta0 = theta0_base + 2*pi*s/S and then averaged.  Evenly spaced phases stand
in for random draws so a rerun is bit-identical.  Grid points run one
after another in grid order, each one's samples in the calling thread
just before its rows are written.  Individual point failures
(an ill-defined winding, a defective decomposition) become NaN rows
with the error in the warnings column, and the sweep moves on; nothing
else goes into that column, and nothing goes to stderr.

Quantities: `QUANTITIES` maps each name to the boundary condition it is
forced to (`ipr_obc`, `ipr_pbc`, `winding`), or to None where it takes
the spec's; each row's bc column holds the one it was computed under.
`density` gives one row per site, named `density:j`.

Output: `run_sweep_to_file` appends each grid point's rows to the CSV
as soon as that point finishes, so an interrupted sweep keeps every
finished point.  A row's key is the text of its first nine columns, and
`expected_keys` alone says which keys a run writes.  Resume skips grid
points whose keys are all in the file and refuses a file holding a row
that this run would not write (another L, N, boundary condition, base
theta0 or sample count), rather than mix it with the new rows.  A last
row cut off before its line end is dropped and its point recomputed.
"""

from __future__ import annotations

import csv
import io
import os
from collections import Counter
from dataclasses import dataclass, replace
from functools import cache
from itertools import product
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .model import ModelParams, build_fock_basis, build_many_body, build_single_particle
from .spectral import cdw_order, decompose, eigenvalues, imag_fraction, ipr_per_state, static_observables
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
        object.__setattr__(self, "quantities", tuple(dict.fromkeys(self.quantities)))
        if not self.quantities:
            raise ValueError("quantities must name at least one of " + ", ".join(QUANTITIES))
        if self.theta0_samples < 1:
            raise ValueError("theta0_samples must be >= 1")
        unknown = set(self.quantities) - set(QUANTITIES)
        if unknown:
            raise ValueError(f"unknown quantities: {sorted(unknown)}")
        needs_filling = {"fock_ipr", "o_dw"} & set(self.quantities)
        if needs_filling and not self.base.many_body:
            raise ValueError(f"{sorted(needs_filling)} require a particle number N")
        if any(self.v_grid) and not self.base.many_body:
            raise ValueError("a nonzero V in v_grid needs a particle number N: "
                             "one particle has no interaction")
        if self.base.phi:
            raise ValueError("a sweep builds at zero flux (the winding runs the whole loop); "
                             f"got base phi={self.base.phi}")


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
        """The row's first nine CSV fields, as written; rows of one run differ in it."""
        return _key(self.L, self.N, self.g, self.V, self.W, self.theta0, self.bc,
                    self.sample, self.quantity)


def _num(x: float) -> str:
    return format(float(x), ".12g")


def _key(L, N, g, V, W, theta0, bc, sample, quantity) -> tuple:
    return (str(L), "" if N is None else str(N), _num(g), _num(V), _num(W),
            "" if theta0 is None else format(theta0, ".17g"), bc, sample, quantity)


def _theta0(theta0: float, s: int, S: int) -> float:
    """Disorder phase of sample s of S: the base phase theta0 plus s/S of a turn."""
    return theta0 + 2.0 * np.pi * s / S


def _evaluate_sample(params: ModelParams, quantities: Sequence[str], basis) -> dict:
    """All requested quantities at one (grid point, theta0); never raises.

    Each value comes with its note: empty, or the error that replaced a
    failed value with NaN.
    """
    out = {}
    # f_im takes its eigenvalues from a decomposition made anyway at its bc
    vector_bcs = {_effective_bc(q, params.bc) for q in quantities if q not in ("f_im", "winding")}

    def matrix(bc):
        p = replace(params, bc=bc)
        return build_many_body(p, basis) if p.many_body else build_single_particle(p)

    @cache   # one decomposition and one density per boundary condition
    def get_decomp(bc):
        return decompose(matrix(bc))

    @cache
    def get_density(bc):
        return static_observables(get_decomp(bc), basis)

    for q in quantities:
        note = ""
        bc = _effective_bc(q, params.bc)
        try:
            if q == "f_im":
                value = imag_fraction(get_decomp(bc) if bc in vector_bcs else eigenvalues(matrix(bc)))
            elif q == "winding":
                value = float(winding_result(replace(params, bc="pbc")).nu)
            elif q in ("o_dw", "density"):
                value = cdw_order(get_density(bc)) if q == "o_dw" else get_density(bc)
            else:   # ipr_obc, ipr_pbc, fock_ipr: the mean over the right eigenvectors
                value = float(np.mean(ipr_per_state(get_decomp(bc))))
        except Exception as exc:   # keep sweeping; the row carries the reason
            note = f"{type(exc).__name__}: {exc}"
            value = np.full(params.L, np.nan) if q == "density" else float("nan")
        out[q] = (value, note)
    return out


def _effective_bc(quantity: str, base_bc: str) -> str:
    """Boundary condition a quantity is actually computed under."""
    return QUANTITIES.get(quantity) or base_bc


def _names(quantity: str, L: int) -> list:
    """The row names of a quantity: density has one row per site."""
    return [f"density:{j}" for j in range(L)] if quantity == "density" else [quantity]


def _sample_rows(spec: SweepSpec, g: float, V: float, W: float, s: int, results: dict) -> list:
    base = spec.base
    theta0 = _theta0(base.theta0, s, spec.theta0_samples)
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


def expected_keys(spec: SweepSpec, g: float, V: float, W: float, quantities: Sequence[str]) -> set:
    """Keys of the rows that `quantities` contribute at one grid point of `spec`."""
    base, S = spec.base, spec.theta0_samples
    keys = set()
    for q in quantities:
        bc = _effective_bc(q, base.bc)
        for name in _names(q, base.L):
            for s in range(S):
                keys.add(_key(base.L, base.N, g, V, W, _theta0(base.theta0, s, S), bc, str(s), name))
            keys.add(_key(base.L, base.N, g, V, W, None, bc, "avg", name))
    return keys


def _check_compatible(spec: SweepSpec, rows: Sequence[list]) -> None:
    """Raise ValueError unless every CSV row (header excluded) could have come from `spec`.

    A row must have every column, and its key must be one that
    `expected_keys` gives at the row's own grid point and quantity: grid
    points and quantities may differ from the spec's, nothing else may.
    An average row must come with all S of its sample rows, which is
    what tells a file with fewer samples apart.
    """
    base, S = spec.base, spec.theta0_samples

    def refuse(row, why):
        fields = ", ".join(f"{c}={v}" for c, v in zip(CSV_COLUMNS, row[:9]))
        raise ValueError(f"{spec.out}: row ({fields}) {why}; this run has L={base.L}, "
                         f"N={base.N}, bc={base.bc}, theta0={base.theta0}, {S} samples")

    expected = {}   # (g, V, W, quantity) -> expected_keys there
    for row in rows:
        if len(row) != len(CSV_COLUMNS):
            refuse(row, f"has {len(row)} fields, not {len(CSV_COLUMNS)}")
        point = (*row[2:5], row[8].split(":")[0])
        if point not in expected:
            g, V, W, q = point
            try:   # like an unknown quantity, a g, V or W that is no number matches no key
                expected[point] = expected_keys(spec, float(g), float(V), float(W),
                                                [q] if q in QUANTITIES else [])
            except ValueError:
                expected[point] = set()
        if tuple(row[:9]) not in expected[point]:
            refuse(row, "is not a row this run writes")
    # every sample row is now one of this run's, so S distinct ones make an average whole
    keys = {tuple(row[:9]) for row in rows}
    samples = Counter(k[:5] + k[6:7] + k[8:] for k in keys if k[7] != "avg")
    for row in rows:
        if row[7] == "avg" and samples[tuple(row[:5]) + (row[6], row[8])] != S:
            refuse(row, f"is an average over other than {S} samples")


def _point_rows(spec: SweepSpec, have: set) -> Iterator[list]:
    """Each grid point's rows not already in `have`, one list per point, in grid order.

    Points whose rows are all in `have` are skipped; partially covered
    points are recomputed and only their missing rows are returned.  A
    point is computed only when its rows are asked for.
    """
    base, S = spec.base, spec.theta0_samples
    basis = build_fock_basis(base.L, base.N) if base.many_body else None
    for g, V, W in product(spec.g_grid, spec.v_grid, spec.w_grid):
        if expected_keys(spec, g, V, W, spec.quantities) <= have:
            continue
        point_rows = []
        for s in range(S):
            params = replace(base, g=g, V=V, W=W, theta0=_theta0(base.theta0, s, S))
            results = _evaluate_sample(params, spec.quantities, basis)
            point_rows.extend(_sample_rows(spec, g, V, W, s, results))
        rows = point_rows + _average_rows(spec, g, V, W, point_rows)
        yield [r for r in rows if r.key not in have]


def run_sweep(spec: SweepSpec) -> Iterator[ResultRecord]:
    """Yield records grid point by grid point, in grid order."""
    for rows in _point_rows(spec, set()):
        yield from rows


def write_records_csv(records: Iterable[ResultRecord], path: str) -> int:
    """Append the records to the CSV file, with the header first when the
    file is missing or empty; returns the number of records written."""
    n = 0
    with open(path, "a", newline="") as fh:
        writer = csv.writer(fh)
        if fh.tell() == 0:
            writer.writerow(CSV_COLUMNS)
        for r in records:
            writer.writerow([*r.key, format(r.value, ".17g"), r.warnings])
            n += 1
    return n


def run_sweep_to_file(spec: SweepSpec, threads: int = 1) -> tuple:
    """Run (or resume) a sweep into the CSV file spec.out; returns (written, reused).

    Each grid point's rows are appended as soon as the point finishes.
    Raises ValueError when spec.out holds rows of an incompatible run
    (see _check_compatible); the file is then left untouched.  A last
    row without its line end is cut away once the check has passed.
    `threads` accepts only 1: every sweep runs in the calling thread.
    """
    if threads != 1:
        raise ValueError(f"threads must be 1 (sweeps run in the calling thread), got {threads}")
    if spec.out is None:
        raise ValueError("spec.out must be set")
    data = Path(spec.out).read_bytes() if os.path.exists(spec.out) else b""
    end = data.rfind(b"\n") + 1   # what follows the last line end was cut off mid-write
    header, *rows = list(csv.reader(io.StringIO(data[:end].decode(), newline=""))) or [CSV_COLUMNS]
    if tuple(header) != CSV_COLUMNS:
        raise ValueError(f"{spec.out}: header {header} is not {list(CSV_COLUMNS)}")
    _check_compatible(spec, rows)
    if end < len(data):
        os.truncate(spec.out, end)
    written = 0
    for point in _point_rows(spec, {tuple(row[:9]) for row in rows}):
        written += write_records_csv(point, spec.out)
    return written, len(rows)
