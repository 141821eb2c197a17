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

Quantities: `QUANTITIES` declares each quantity once: the bc it is forced
to (None: the spec's, and a row's bc column holds the one used), whether
it needs N, a time grid or the decomposition, its row names, the spec
settings its values depend on, and its evaluator; all else reads it.
`density` has a row `density:j` per site, `s_ee` (the half-chain
entanglement entropy after a domain-wall quench) a row `s_ee:t` per
record time t of the spec's `evolver`, and a winding at a nonzero base
energy e0 the row `winding:e0`.

Rows: `_rows` alone lays out a grid point's rows (each sample's, then
one `avg` row per name), both those a run writes and, over failed
samples, `expected_keys`.  A row's key is the text of its first nine
columns, and a run writes each key once, even at repeated grid values.

Output: `run_sweep_to_file` appends each grid point's rows to the CSV
as soon as that point finishes, so an interrupted sweep keeps every
finished point.  Resume skips grid points whose keys are all in the
file and refuses a file holding a row that this run would not write
(another L, N, bc, base theta0, sample count, record time or winding
base energy), rather than mix it with the new rows.  A last row cut off
before its line end is dropped and its point recomputed.
"""

from __future__ import annotations

import csv
import io
import math
import os
from collections import Counter
from dataclasses import dataclass, replace
from functools import cache, partial
from itertools import product
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .dynamics import EvolverConfig, initial_domain_wall, run
from .model import ModelParams, build_fock_basis, build_many_body, build_single_particle
from .spectral import cdw_order, decompose, eigenvalues, imag_fraction, ipr_per_state, static_observables
from .winding import FLUX_POINTS, winding_result


@dataclass(frozen=True)
class Quantity:
    """A sweep quantity: what it needs, and `evaluate(sample, bc)`, its value at one `_Sample`
    under that bc.  Evaluators look their solvers up here when called, as wrappers put here
    (a test's, the benchmark's tracer) must see every call."""
    bc: Optional[str]                          # the bc it is forced to; None: the spec's
    evaluate: Callable                         # a value, or a profile with one value per row
    needs_n: bool = False                      # a particle number N
    needs_time: bool = False                   # a time grid (the spec's evolver)
    decomposes: bool = False                   # reads the decomposition at its bc
    suffixes: Callable = lambda spec: ("",)    # spec -> its row names' endings after its name
    settings: Callable = lambda spec: {}       # spec -> the settings its values depend on


class _Sample:
    """One (grid point, theta0): its params, the spec and the Fock basis, with the matrix,
    decomposition and density per bc, the last two made once each."""

    def __init__(self, params: ModelParams, spec: "SweepSpec", basis) -> None:
        self.params, self.spec, self.basis = params, spec, basis
        self.decomposed = {QUANTITIES[q].bc or params.bc for q in spec.quantities if QUANTITIES[q].decomposes}
        # closures over locals, not over self, so that a sample's decompositions go with it
        build = partial(build_many_body, basis=basis) if params.many_body else build_single_particle
        matrix = self.matrix = lambda bc: build(replace(params, bc=bc))
        decomp = self.decomp = cache(lambda bc: decompose(matrix(bc)))
        self.density = cache(lambda bc: static_observables(decomp(bc), basis))


def _mean_ipr(sample: _Sample, bc: str) -> float:   # over the right eigenvectors
    return float(np.mean(ipr_per_state(sample.decomp(bc))))


QUANTITIES = {
    "ipr_obc": Quantity("obc", _mean_ipr, decomposes=True),
    "ipr_pbc": Quantity("pbc", _mean_ipr, decomposes=True),
    # f_im takes its eigenvalues from a decomposition made anyway at its bc
    "f_im": Quantity(None, lambda s, bc: imag_fraction(s.decomp(bc) if bc in s.decomposed
                                                         else eigenvalues(s.matrix(bc)))),
    "winding": Quantity(
        "pbc", lambda s, bc: float(winding_result(replace(s.params, bc=bc), s.spec.e0).nu),
        suffixes=lambda spec: (f":{_num(spec.e0)}" if spec.e0 else "",),
        settings=lambda spec: {"e0": spec.e0, "flux_points": FLUX_POINTS}),
    "fock_ipr": Quantity(None, _mean_ipr, needs_n=True, decomposes=True),
    "o_dw": Quantity(None, lambda s, bc: cdw_order(s.density(bc)), needs_n=True, decomposes=True),
    "density": Quantity(None, lambda s, bc: s.density(bc), decomposes=True,
                        suffixes=lambda spec: [f":{j}" for j in range(spec.base.L)]),
    # a run without a time grid lays out no s_ee row, so it refuses a file holding some
    "s_ee": Quantity(
        None, lambda s, bc: run(s.params, s.spec.evolver, initial_domain_wall(s.basis), ("s_ee",),
                                s.basis).blocks["s_ee"][:, 0], needs_n=True, needs_time=True,
        suffixes=lambda spec: [f":{_num(t)}" for t in spec.evolver.record_grid()[0]] if spec.evolver else [],
        settings=lambda spec: {k: getattr(spec.evolver, k) for k in ("M", "dt", "t_max", "record_stride")}),
}

CSV_COLUMNS = ("L", "N", "g", "V", "W", "theta0", "bc", "sample", "quantity", "value", "warnings")


def inclusive_range(start: float, stop: float, step: float) -> tuple:
    """Grid start, start+step, ..., stop (endpoint included up to rounding)."""
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValueError(f"start, stop and step must be finite, got {start}, {stop}, {step}")
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
    evolver: Optional[EvolverConfig] = None   # the time grid of s_ee; None for a static sweep
    e0: float = 0.0                           # the winding's base energy

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
        needs_n = sorted(q for q in self.quantities if QUANTITIES[q].needs_n)
        if needs_n and not self.base.many_body:
            raise ValueError(f"{needs_n} require a particle number N")
        if any(QUANTITIES[q].needs_time for q in self.quantities) != (self.evolver is not None):
            timed = "/".join(q for q, d in QUANTITIES.items() if d.needs_time)
            raise ValueError(f"{timed} needs a time grid (evolver), and no other quantity reads one")
        if np.iscomplexobj(self.e0):
            raise ValueError(f"e0 must be real (a row names it as a real number), got {self.e0}")
        if not np.isfinite(self.e0):
            raise ValueError(f"e0 must be finite, got {self.e0}")
        if self.e0 and "winding" not in self.quantities:
            raise ValueError(f"e0={self.e0} is the winding's base energy, and no winding is asked for")
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
        return (str(self.L), "" if self.N is None else str(self.N), _num(self.g), _num(self.V),
                _num(self.W), "" if self.theta0 is None else format(self.theta0, ".17g"),
                self.bc, self.sample, self.quantity)


def _num(x: float) -> str:
    return format(float(x), ".12g")


def _theta0(theta0: float, s: int, S: int) -> float:
    """Disorder phase of sample s of S: the base phase theta0 plus s/S of a turn."""
    return theta0 + 2.0 * np.pi * s / S


def _evaluate_sample(params: ModelParams, spec: SweepSpec, basis) -> dict:
    """The spec's quantities at one (grid point, theta0); never raises.

    Each value comes with its note: empty, or the error that replaced a
    failed value with NaN (one NaN for a whole profile).
    """
    out = {}
    sample = _Sample(params, spec, basis)
    for q in spec.quantities:
        try:
            out[q] = (QUANTITIES[q].evaluate(sample, QUANTITIES[q].bc or params.bc), "")
        except Exception as exc:   # keep sweeping; the row carries the reason
            out[q] = (float("nan"), f"{type(exc).__name__}: {exc}")
    return out


def _rows(spec: SweepSpec, g: float, V: float, W: float, quantities: Sequence[str],
          results: Sequence[dict]) -> list:
    """A grid point's rows for `quantities`: each sample's in turn, then each name's average.

    results[s][q] is sample s's (value, note) for quantity q; a density
    or s_ee value is a profile, one value per name, or one NaN for all.
    An average row holds the mean of the samples' finite values and their
    distinct notes.
    """
    base, S = spec.base, spec.theta0_samples
    layout = [(q, QUANTITIES[q].bc or base.bc, [q + end for end in QUANTITIES[q].suffixes(spec)])
              for q in quantities]
    table = {q: np.empty((S, len(names))) for q, _, names in layout}   # [s, j]: sample s, name j
    for q, s in product(quantities, range(S)):
        table[q][s] = results[s][q][0]   # a failed profile's one NaN fills its row
    rows = [ResultRecord(base.L, base.N, g, V, W, _theta0(base.theta0, s, S), bc, str(s),
                         name, float(v), results[s][q][1])
            for s in range(S) for q, bc, names in layout for name, v in zip(names, table[q][s])]
    for q, bc, names in layout:
        notes = "; ".join(sorted({r[q][1] for r in results} - {""}))
        for name, column in zip(names, table[q].T):
            finite = column[np.isfinite(column)]
            mean = float(np.mean(finite)) if finite.size else float("nan")
            rows.append(ResultRecord(base.L, base.N, g, V, W, None, bc, "avg", name, mean, notes))
    return rows


def expected_keys(spec: SweepSpec, g, V, W, quantities: Sequence[str]) -> set:
    """Keys of the rows that `quantities` contribute at one grid point of `spec`
    (g, V and W as numbers or as written): those `_rows` lays out for S failed samples."""
    failed = [dict.fromkeys(quantities, (float("nan"), ""))] * spec.theta0_samples
    return {r.key for r in _rows(spec, float(g), float(V), float(W), quantities, failed)}


def _check_compatible(spec: SweepSpec, rows: Sequence[list], keys_at) -> None:
    """Raise ValueError unless every CSV row (header excluded) could have come from `spec`.

    A row must have every column, and its key must be one that `keys_at`
    (the spec's `expected_keys`, cached) gives at the row's own grid
    point and quantity: grid points and quantities may differ from the
    spec's, nothing else may.
    An average row must come with all S of its sample rows, which is
    what tells a file with fewer samples apart.
    """
    base, S = spec.base, spec.theta0_samples

    grid = "" if spec.evolver is None else (f", dt={spec.evolver.dt}, record_stride="
                                            f"{spec.evolver.record_stride}, t_max={spec.evolver.t_max}")
    grid += f", e0={spec.e0}" if "winding" in spec.quantities else ""

    def refuse(row, why):
        fields = ", ".join(f"{c}={v}" for c, v in zip(CSV_COLUMNS, row[:9]))
        raise ValueError(f"{spec.out}: row ({fields}) {why}; this run has L={base.L}, "
                         f"N={base.N}, bc={base.bc}, theta0={base.theta0}, {S} samples{grid}")

    for row in rows:
        if len(row) != len(CSV_COLUMNS):
            refuse(row, f"has {len(row)} fields, not {len(CSV_COLUMNS)}")
        q = row[8].split(":")[0]
        # the run's own quantities are laid out together, as `_point_rows` asks for them
        quantities = spec.quantities if q in spec.quantities else (q,) if q in QUANTITIES else ()
        try:   # like an unknown quantity, a g, V or W that is no number matches no key
            known = tuple(row[:9]) in keys_at(*row[2:5], quantities)
        except ValueError:
            known = False
        if not known:
            refuse(row, "is not a row this run writes")
    # every sample row is now one of this run's, so S distinct ones make an average whole
    keys = {tuple(row[:9]) for row in rows}
    samples = Counter(k[:5] + k[6:7] + k[8:] for k in keys if k[7] != "avg")
    for row in rows:
        if row[7] == "avg" and samples[tuple(row[:5]) + (row[6], row[8])] != S:
            refuse(row, f"is an average over other than {S} samples")


def _point_rows(spec: SweepSpec, have: set, keys_at) -> Iterator[list]:
    """Each grid point's rows not already in `have`, one list per point, in grid order.

    Points whose rows are all in `have` are skipped; partially covered
    points are recomputed and only their missing rows are returned, and
    added to `have`.  A point is computed only when its rows are asked for.
    """
    base, S = spec.base, spec.theta0_samples
    basis = build_fock_basis(base.L, base.N) if base.many_body else None
    for g, V, W in product(spec.g_grid, spec.v_grid, spec.w_grid):
        if keys_at(_num(g), _num(V), _num(W), spec.quantities) <= have:
            continue
        results = [_evaluate_sample(replace(base, g=g, V=V, W=W, theta0=_theta0(base.theta0, s, S)),
                                    spec, basis) for s in range(S)]
        rows = [r for r in _rows(spec, g, V, W, spec.quantities, results) if r.key not in have]
        have.update(r.key for r in rows)   # a grid value repeated up to rounding writes nothing twice
        yield rows


def run_sweep(spec: SweepSpec) -> Iterator[ResultRecord]:
    """Yield records grid point by grid point, in grid order."""
    for rows in _point_rows(spec, set(), cache(partial(expected_keys, spec))):
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
    keys_at = cache(partial(expected_keys, spec))   # each grid point's keys are laid out once
    _check_compatible(spec, rows, keys_at)
    if end < len(data):
        os.truncate(spec.out, end)
    written = 0
    for point in _point_rows(spec, {tuple(row[:9]) for row in rows}, keys_at):
        written += write_records_csv(point, spec.out)
    return written, len(rows)
