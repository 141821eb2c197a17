"""Where the traced run wraps nhchain, and the per-layer metrics it reports.

Each entry of WRAPS names a module namespace, the attribute callers look
up there, and the span it becomes.  Model builders are wrapped in every
namespace that calls them, tagged with that namespace as `via`, so the
flux-point rebuilds inside the winding loop can be told apart from the
other builds.
"""

from __future__ import annotations

import numpy as np

from spans import Tracer, outermost, self_times

LAYERS = ("model", "spectral", "winding", "dynamics", "sweep", "cli")

_BUILDERS = ("build_fock_basis", "build_many_body", "build_single_particle")
_OBSERVABLES = ("ipr_per_state", "imag_fraction", "static_observables")

# namespace -> attributes callers look up there
WRAPS = {
    "cli": ("main", "run_sweep_to_file", "run", "decompose", "winding_result") + _BUILDERS,
    "sweep": ("run_sweep_to_file", "write_records_csv", "decompose", "winding_result")
             + _OBSERVABLES + _BUILDERS,
    "winding": ("log_det_phase",) + _BUILDERS,
    "dynamics": ("run", "arnoldi_step", "entanglement_entropy", "decompose") + _BUILDERS,
    "spectral": ("build_fock_basis", "ipr_per_state", "imag_fraction"),
}

# The three routes spectral.decompose dispatches to.
ROUTES = {"_decompose_general": "general", "_decompose_similarity": "similarity",
          "_decompose_hermitian": "hermitian"}

# (name, unit, better), in the order BENCHMARK.json lists them.
PER_LAYER = [
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("other.s", "s", "lower"),
    *[(f"{layer}.self_s", "s", "lower") for layer in LAYERS],
    *[(f"model.{b}.{k}", u, "lower") for b in _BUILDERS for k, u in (("calls", "count"), ("s", "s"))],
    ("spectral.decompose.calls", "count", "lower"),
    ("spectral.decompose.s", "s", "lower"),
    *[(f"spectral.decompose.{r}.s", "s", "lower") for r in ("general", "similarity", "hermitian")],
    ("spectral.observables.s", "s", "lower"),
    ("spectral.biorth_residual_max", "1", "lower"),
    ("winding.winding_result.calls", "count", "lower"),
    ("winding.winding_result.s", "s", "lower"),
    ("winding.log_det_phase.calls", "count", "lower"),
    ("winding.log_det_phase.s", "s", "lower"),
    ("winding.flux_build.s", "s", "lower"),
    ("winding.useful_ratio", "ratio", "higher"),
    ("winding.int_deviation_max", "1", "lower"),
    ("dynamics.arnoldi_step.calls", "count", "lower"),
    ("dynamics.arnoldi_step.s", "s", "lower"),
    ("dynamics.matvec_bytes_computed", "B", "lower"),
    ("dynamics.entanglement_entropy.calls", "count", "lower"),
    ("dynamics.entanglement_entropy.s", "s", "lower"),
    ("dynamics.run.self_s", "s", "lower"),
    ("dynamics.write_csv.s", "s", "lower"),
    ("dynamics.write_csv.rows", "count", "lower"),
    ("sweep.run_sweep_to_file.s", "s", "lower"),
    ("sweep.write_records_csv.s", "s", "lower"),
    ("sweep.write_records_csv.rows", "count", "lower"),
    ("sweep.nan_rows", "count", "lower"),
    ("cli.main.s", "s", "lower"),
]


class Health:
    """Results the traced run keeps for health metrics; none of it is timed."""

    def __init__(self) -> None:
        self.decomps: list = []
        self.windings: list = []     # (flux points + 1, |raw - nu|)
        self.biorth_max = 0.0

    def settle(self) -> list:
        """max|LR - I| of each kept decomposition, which is then dropped."""
        residuals = [float(np.abs(d.left @ d.right - np.eye(d.dim)).max()) for d in self.decomps]
        self.decomps.clear()
        self.biorth_max = max([self.biorth_max, *residuals])
        return residuals


def matvec_bytes(H) -> int:
    """Bytes of matrix storage one mat-vec streams, from the storage itself."""
    op = getattr(H, "entries", H)
    if hasattr(op, "indptr"):
        return int(op.data.nbytes + op.indices.nbytes + op.indptr.nbytes)
    return int(np.asarray(op).nbytes)


def install(tracer: Tracer, nh, health: Health) -> None:
    """Wrap the program for one traced unit; tracer.restore() undoes it."""

    def keep_decomp(span, args, kwargs, result):
        health.decomps.append(result)

    def keep_winding(span, args, kwargs, result):
        health.windings.append((len(result.steps) + 1, abs(result.raw - result.nu)))

    def arnoldi_bytes(span, args, kwargs, result):
        span.attrs["matvec_bytes"] = matvec_bytes(args[0] if args else kwargs["H"])

    def csv_rows(span, args, kwargs, result):
        span.attrs["rows"] = int(result)
        records = args[0] if args else kwargs["records"]
        span.attrs["nan_rows"] = sum(1 for r in records if not np.isfinite(r.value))

    def series_rows(span, args, kwargs, result):
        span.attrs["rows"] = len(args[0].records)

    hooks = {"decompose": keep_decomp, "winding_result": keep_winding,
             "arnoldi_step": arnoldi_bytes, "write_records_csv": csv_rows}
    for ns, attrs in WRAPS.items():
        module = getattr(nh, ns)
        for attr in attrs:
            # The span is named after the module that defines the function.
            home = getattr(getattr(module, attr, None), "__module__", ns).rsplit(".", 1)[-1]
            tracer.wrap(module, attr, f"{home}.{attr}", {"via": ns}, hooks.get(attr))
    for attr, route in ROUTES.items():
        tracer.wrap(nh.spectral, attr, f"spectral.decompose.{route}")
    tracer.wrap(nh.dynamics.ObservableSeries, "write_csv", "dynamics.write_csv",
                on_result=series_rows)


def metrics(spans: list, health: Health, untraced_wall: float) -> dict:
    """Per-unit per-layer metrics from the spans of the traced units."""
    roots = [s for s in spans if s.parent is None]
    n = len(roots)
    if n == 0:
        raise ValueError("no traced unit")
    st = self_times(spans)

    def count(name):
        return sum(1 for s in spans if s.name == name) / n

    def inclusive(name):
        return sum(s.duration for s in outermost(spans, name)) / n

    def self_sum(pred):
        return sum(st[s.id] for s in spans if pred(s)) / n

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in spans if s.name == name) / n

    m = {"trace.wall_s": sum(r.duration for r in roots) / n}
    m["trace.overhead_s"] = m["trace.wall_s"] - untraced_wall
    m["other.s"] = self_sum(lambda s: s.layer == "other")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_sum(lambda s, layer=layer: s.layer == layer)
    for b in _BUILDERS:
        m[f"model.{b}.calls"] = count(f"model.{b}")
        m[f"model.{b}.s"] = inclusive(f"model.{b}")
    m["spectral.decompose.calls"] = count("spectral.decompose")
    m["spectral.decompose.s"] = inclusive("spectral.decompose")
    for route in ROUTES.values():
        m[f"spectral.decompose.{route}.s"] = inclusive(f"spectral.decompose.{route}")
    observables = {f"spectral.{o}" for o in _OBSERVABLES}
    m["spectral.observables.s"] = self_sum(lambda s: s.name in observables)
    m["spectral.biorth_residual_max"] = health.biorth_max
    for f in ("winding_result", "log_det_phase"):
        m[f"winding.{f}.calls"] = count(f"winding.{f}")
        m[f"winding.{f}.s"] = inclusive(f"winding.{f}")
    flux = {"model.build_single_particle", "model.build_many_body"}
    m["winding.flux_build.s"] = sum(s.duration for s in spans if s.name in flux
                                    and s.attrs.get("via") == "winding") / n
    lu_calls = sum(1 for s in spans if s.name == "winding.log_det_phase")
    m["winding.useful_ratio"] = sum(k for k, _ in health.windings) / lu_calls if lu_calls else 0.0
    m["winding.int_deviation_max"] = max((d for _, d in health.windings), default=0.0)
    steps = [s for s in spans if s.name == "dynamics.arnoldi_step"]
    m["dynamics.arnoldi_step.calls"] = len(steps) / n
    m["dynamics.arnoldi_step.s"] = inclusive("dynamics.arnoldi_step")
    m["dynamics.matvec_bytes_computed"] = (
        sum(s.attrs.get("matvec_bytes", 0) for s in steps) / len(steps) if steps else 0.0)
    m["dynamics.entanglement_entropy.calls"] = count("dynamics.entanglement_entropy")
    m["dynamics.entanglement_entropy.s"] = inclusive("dynamics.entanglement_entropy")
    m["dynamics.run.self_s"] = self_sum(lambda s: s.name == "dynamics.run")
    m["dynamics.write_csv.s"] = inclusive("dynamics.write_csv")
    m["dynamics.write_csv.rows"] = attr_sum("dynamics.write_csv", "rows")
    m["sweep.run_sweep_to_file.s"] = inclusive("sweep.run_sweep_to_file")
    m["sweep.write_records_csv.s"] = inclusive("sweep.write_records_csv")
    m["sweep.write_records_csv.rows"] = attr_sum("sweep.write_records_csv", "rows")
    m["sweep.nan_rows"] = attr_sum("sweep.write_records_csv", "nan_rows")
    m["cli.main.s"] = inclusive("cli.main")
    return m
