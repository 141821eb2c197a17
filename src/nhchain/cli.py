"""Command-line interface: spectra, phase diagrams, winding, dynamics, presets.

Exit codes: 0 success, 1 validation error (bad flags, inconsistent
combinations), 2 numerical failure (defective decomposition, ill-defined
winding).  Results go to --out as CSV.  Without --out, `spectrum` and
`ground-state` print their rows to stdout and the one-line summary to
stderr, `winding` prints its per-sample lines and the mean `nu = ...`
only, and `phase-diagram` and `evolve` write `phase_diagram.csv` and
`evolve.csv`.  `evolve` and fig3 write through `dynamics`, and
`phase-diagram`, fig1, fig2 and fig4 through `sweep`; every other
command and job writes its rows through `_write_rows`.

`--config FILE` reads flat `key = value` lines and turns each into the
flag `--key=value`, placed right after the command name (the preset
name, for a preset), so argparse checks it like any flag and a flag
given on the command line wins.

Each preset is a sub-command under `preset` that declares (panel, file,
job) entries; `_PRESETS` gives the flags it reads with their defaults,
and argparse refuses any other.  Its metadata file maps each CSV written
to the metadata of the job that wrote it.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import replace
from math import comb

import numpy as np

from .dynamics import EvolverConfig, initial_domain_wall, initial_localized, run
from .model import ModelParams, build_fock_basis, build_many_body, build_single_particle
from .spectral import BiorthogonalizationError, cdw_order, decompose, eigenvalues, ground_state, ipr
from .sweep import QUANTITIES, SweepSpec, _theta0, inclusive_range, run_sweep_to_file
from .winding import WindingConfig, WindingIllDefinedError, winding_result


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # a flag, and so a config key, must be named in full: no prefix matching
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):   # argparse would sys.exit(2); we map to exit 1
        raise ValueError(message)


def _parse_grid(text: str) -> tuple:
    """'0:8:0.25' -> inclusive grid; '1.5' -> single-point grid."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return (float(parts[0]),)
        if len(parts) == 3:
            return inclusive_range(*map(float, parts))
    except ValueError as exc:   # argparse would replace the message with its own
        raise argparse.ArgumentTypeError(str(exc)) from None
    raise argparse.ArgumentTypeError(f"grid must be 'value' or 'start:stop:step', got {text!r}")


def _sample_count(text: str) -> int:
    """A --samples value: a whole number of disorder phases, at least 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _add_model_flags(p: _Parser, grid: bool = False, flux: bool = True) -> None:
    num = _parse_grid if grid else float
    p.add_argument("--L", type=int, default=None)
    p.add_argument("--N", type=int, default=None, help="particle number (many-body when set)")
    p.add_argument("--g", type=num, default=None, help="imaginary gauge field")
    p.add_argument("--V", type=num, default=None, help="nearest-neighbor interaction")
    p.add_argument("--W", type=num, default=None, help="quasi-periodic potential strength")
    p.add_argument("--theta0", type=float, default=0.0, help="disorder phase offset")
    p.add_argument("--bc", choices=("obc", "pbc"), default=None,
                   help="boundary condition (default obc; winding defaults to pbc)")
    if flux:
        p.add_argument("--flux", type=float, default=None, help="boundary twist (PBC only)")
    else:   # the command builds at zero flux or runs the whole flux loop
        p.set_defaults(flux=None)
    p.add_argument("--config", default=None, help="flat key=value file; explicit flags win")
    p.add_argument("--out", default=None)


def _model_params(args) -> ModelParams:
    if args.L is None:
        raise ValueError("--L is required")

    def one(x, fallback):   # a grid flag builds the matrix at its first value
        if x is None:
            return fallback
        return x[0] if isinstance(x, tuple) else x

    return ModelParams(
        L=args.L, N=args.N, g=one(args.g, 0.0), V=one(args.V, 0.0),
        W=one(args.W, 0.0), theta0=args.theta0, bc=args.bc or "obc",
        phi=one(args.flux, 0.0),
    )


def _chain(params: ModelParams) -> tuple:
    """The model matrix of `params` and its Fock basis (None for one particle)."""
    if not params.many_body:
        return build_single_particle(params), None
    basis = build_fock_basis(params.L, params.N)
    return build_many_body(params, basis), basis


def _summary(line: str, to_stderr: bool) -> None:
    print(line, file=sys.stderr if to_stderr else sys.stdout)


def _write_rows(path, header: list, rows) -> None:
    """Rows as CSV, floats formatted with .17g.

    With a path: a file holding the header and the rows, written by the
    csv module (CRLF line ends).  Without: the rows alone on stdout, one
    LF-terminated line each.
    """
    rows = [[format(x, ".17g") if isinstance(x, float) else x for x in row] for row in rows]
    if path:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    else:
        for row in rows:
            print(",".join(map(str, row)))


def _config_flags(path: str) -> list:
    """The `key = value` lines of a config file as `--key=value` flags."""
    flags = []
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line is not key=value: {raw.strip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            flags.append(f"--{key.replace('_', '-')}={value}")
    return flags


# ---------------------------------------------------------------- subcommands

def cmd_spectrum(args) -> int:
    params = _model_params(args)
    w = eigenvalues(_chain(params)[0])
    _write_rows(args.out, ["index", "re", "im"], [(i, z.real, z.imag) for i, z in enumerate(w)])
    _summary(f"spectrum: dim={len(w)} bc={params.bc} "
             f"max|Im|={np.abs(w.imag).max():.3e}"
             + (f" -> {args.out}" if args.out else ""), to_stderr=not args.out)
    return 0


def cmd_winding(args) -> int:
    params = _model_params(args)
    cfg = WindingConfig(n_points=args.points, e0=args.e0)
    S = args.samples
    rows = []
    for s in range(S):
        p = replace(params, theta0=_theta0(args.theta0, s, S))
        res = winding_result(p, cfg=cfg)
        rows.append((s, p.theta0, res.nu, res.raw))
        if S > 1:
            print(f"sample {s}: theta0={p.theta0:.6f} nu={res.nu} raw={res.raw:.6f}")
    if args.out:
        _write_rows(args.out, ["sample", "theta0", "nu", "raw"], rows)
    print(f"nu = {np.mean([nu for _, _, nu, _ in rows]):g}")
    return 0


def cmd_phase_diagram(args) -> int:
    params = _model_params(args)
    quantities = tuple(q.strip() for q in args.quantities.split(",") if q.strip())
    spec = SweepSpec(
        base=params,
        g_grid=args.g if isinstance(args.g, tuple) else (),
        v_grid=args.V if isinstance(args.V, tuple) else (),
        w_grid=args.W if isinstance(args.W, tuple) else (),
        theta0_samples=args.samples,
        quantities=quantities,
        out=args.out or "phase_diagram.csv",
    )
    written, reused = run_sweep_to_file(spec, threads=args.threads)
    grid = f"{len(spec.g_grid)}x{len(spec.v_grid)}x{len(spec.w_grid)}"
    _summary(f"phase-diagram: grid {grid} S={spec.theta0_samples} "
             f"-> {spec.out} ({written} rows written, {reused} reused)", to_stderr=False)
    return 0


def cmd_evolve(args) -> int:
    params = _model_params(args)
    config = EvolverConfig(method=args.method, dt=args.dt, t_max=args.tmax,
                           record_stride=args.record_stride)
    observables = tuple(o.strip() for o in args.observables.split(",") if o.strip())
    if params.many_body:
        if args.j0 is not None:
            raise ValueError("--j0 applies to single-particle runs; many-body starts from the domain wall")
        basis = build_fock_basis(params.L, params.N)
        psi0 = initial_domain_wall(basis)
    else:
        basis = None
        psi0 = initial_localized(params.L, args.j0 if args.j0 is not None else params.L // 2)
    series = run(params, config, psi0, observables, basis=basis)
    out = args.out or "evolve.csv"
    series.write_csv(out)
    rows = len(series.t) * sum(block.shape[1] for block in series.blocks.values())
    _summary(f"evolve: {config.method} dt={config.dt} t_max={config.t_max} "
             f"-> {out} ({rows} records)", to_stderr=False)
    return 0


def cmd_ground_state(args) -> int:
    H, basis = _chain(_model_params(args))
    e0, state, dens = ground_state(decompose(H), basis)
    _write_rows(args.out, ["site", "density"], enumerate(dens))
    _summary(f"ground-state: E0={e0.real:.8g}{e0.imag:+.2e}j ipr={ipr(state):.4f} "
             f"o_dw={cdw_order(dens):.4f}" + (f" -> {args.out}" if args.out else ""),
             to_stderr=not args.out)
    return 0


# -------------------------------------------------------------------- presets
#
# A preset declares its panels as (panel, file, job) entries.  A job is
# the pair (write, meta): the function that writes the panel's file to
# a given path, and the metadata read off the declaration.

def _sweep(spec: SweepSpec) -> tuple:
    """Job: run the sweep into the file.  Metadata: each quantity with
    the bc it is computed under, the grids, the disorder sampling, and
    the settings the quantities' values depend on (`Quantity.settings`)."""
    base = spec.base
    meta = {"quantities": {q: QUANTITIES[q].bc or base.bc for q in spec.quantities},
            "L": base.L, "N": base.N, "g_grid": list(spec.g_grid), "v_grid": list(spec.v_grid),
            "w_grid": list(spec.w_grid), "theta0": base.theta0,
            "theta0_samples": spec.theta0_samples}
    for q in spec.quantities:
        meta.update(QUANTITIES[q].settings(spec))
    return (lambda path: run_sweep_to_file(replace(spec, out=path))), meta


def _wave_packet(params: ModelParams, config: EvolverConfig, j0: int) -> tuple:
    """Job: the density series of a particle started on site j0."""
    def write(path):
        run(params, config, initial_localized(params.L, j0), ("density",)).write_csv(path)

    meta = {"L": params.L, "g": params.g, "W": params.W, "bc": params.bc, "j0": j0,
            "M": config.M, "dt": config.dt, "t_max": config.t_max}
    return write, meta


def _preset_fig1(args) -> tuple:
    """Single-particle (W, g) phase-diagram quartet."""
    base = ModelParams(L=args.L, bc="pbc")
    grids = dict(g_grid=inclusive_range(0.0, 1.0, 0.1), w_grid=inclusive_range(0.0, 8.0, 0.25),
                 theta0_samples=args.samples)
    panels = [(panel, f"fig1_{panel}.csv",
               _sweep(SweepSpec(base=base, quantities=(q,), **grids)))
              for panel, q in zip("abcd", ("ipr_obc", "winding", "ipr_pbc", "f_im"))]
    return panels, ["phase boundary expected along W = 2*exp(g)"]


def _preset_fig2(args) -> tuple:
    """Many-body statics at half filling: density, Fock IPR, winding, CDW order."""
    L = args.L
    N = L // 2
    S = args.samples
    w_grid = inclusive_range(0.0, 8.0, 0.5)
    specs = [
        *[("a", f"fig2_a_{bc}.csv",
           SweepSpec(base=ModelParams(L=L, N=N, g=0.5, V=2.0, W=0.5, bc=bc),
                     theta0_samples=S, quantities=("density",)))
          for bc in ("obc", "pbc")],
        ("b", "fig2_b.csv", SweepSpec(base=ModelParams(L=L, N=N, g=0.5, V=2.0, bc="obc"),
                                      w_grid=w_grid, theta0_samples=S, quantities=("fock_ipr",))),
        ("c", "fig2_c.csv", SweepSpec(base=ModelParams(L=L, N=N, g=0.5, V=2.0, bc="pbc"),
                                      w_grid=w_grid, quantities=("winding",))),
        ("d", "fig2_d.csv", SweepSpec(base=ModelParams(L=L, N=N, g=0.5, W=0.0, bc="obc"),
                                      v_grid=inclusive_range(0.0, 5.0, 0.25), quantities=("o_dw",))),
        ("d", "fig2_d_inset.csv", SweepSpec(base=ModelParams(L=L, N=N, g=0.5, W=0.0, bc="pbc"),
                                            v_grid=(0.5, 5.0), quantities=("winding",), e0=-4.0)),
    ]
    return [(p, name, _sweep(spec)) for p, name, spec in specs], [
        f"desk-scale run at L={L}, N={N}; steep CDW rise expected near V=2",
        "the d inset's base energy -4 sits inside the weak-coupling point-gap loops "
        "and below the V=5 spectrum, so nu drops to 0 (from 16 at L=12)"]


def _preset_fig3(args) -> tuple:
    """Single-particle wave-packet propagation with an amplified front."""
    L = args.L
    j0 = min(int(round(L * 580 / 600)), L - 1)
    config = EvolverConfig(method="krylov", dt=args.dt, t_max=args.tmax)
    panels = [(panel, f"fig3_{panel}.csv",
               _wave_packet(ModelParams(L=L, g=1.0, W=W, bc=bc), config, j0))
              for panel, (bc, W) in zip("abcd", (("pbc", 0.0), ("obc", 0.0),
                                                  ("pbc", 5.4), ("obc", 5.4)))]
    notes = ["W=5.4 sits at the critical strength 2*exp(1) ~ 5.44 where spreading is enhanced"]
    return panels, notes


def _preset_fig4(args) -> tuple:
    """Entanglement growth from the domain wall (half filling unless --N)."""
    L = args.L
    N = L // 2 if args.N is None else args.N
    g = 0.5
    w_crit = 2.0 * 2.0 * np.exp(g)
    config = EvolverConfig(method="krylov", dt=args.dt, t_max=args.tmax, record_stride=5)
    panels = [(panel, f"fig4_{panel}.csv",
               _sweep(SweepSpec(base=ModelParams(L=L, N=N, g=g, V=2.0, W=W, bc=bc),
                                theta0_samples=args.samples, quantities=("s_ee",), evolver=config)))
              for panel, (bc, W) in zip("abcd", (("pbc", 0.5), ("obc", 0.5),
                                                  ("pbc", w_crit), ("obc", w_crit)))]
    notes = [f"this run: L={L}, N={N} (dim {comb(L, N)}); published setting: L=18, N=8 "
             "(dim 43758)",
             "entanglement growth is logarithmic and nearly boundary-independent"]
    return panels, notes


# name -> (declaration, {flag: default} for the flags it reads besides --which, --out-dir);
# fig4's N defaults to L // 2
_PRESETS = {
    "fig1": (_preset_fig1, {"L": 89, "samples": 10}),
    "fig2": (_preset_fig2, {"L": 12, "samples": 3}),
    "fig3": (_preset_fig3, {"L": 600, "dt": 0.2, "tmax": 40.0}),
    "fig4": (_preset_fig4, {"L": 12, "N": None, "dt": 0.05, "tmax": 100.0, "samples": 5}),
}


def cmd_preset(args) -> int:
    name = args.name
    which = args.which or "abcd"
    if set(which) - set("abcd") or len(set(which)) < len(which):
        raise ValueError("--which takes a subset of 'abcd', each panel once")
    panels, notes = _PRESETS[name][0](args)
    out_dir = args.out_dir or "."
    os.makedirs(out_dir, exist_ok=True)
    files = {}      # file name -> the metadata of the job that wrote it, in write order
    for panel in which:
        for p, file, (write, meta) in panels:
            if p == panel:
                write(os.path.join(out_dir, file))
                files[file] = meta
    with open(os.path.join(out_dir, f"{name}_metadata.json"), "w") as fh:
        json.dump({"preset": name, "which": which, "files": files, "notes": notes}, fh, indent=1)
    _summary(f"preset {name}: wrote {', '.join(files)} + {name}_metadata.json", to_stderr=False)
    return 0


# --------------------------------------------------------------------- parser

def build_parser() -> _Parser:
    parser = _Parser(prog="nhchain", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="eigenvalues as (index, re, im) rows")
    _add_model_flags(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("winding", help="spectral winding number")
    _add_model_flags(p, flux=False)
    p.add_argument("--e0", type=complex, default=0.0, help="base energy")
    p.add_argument("--points", type=int, default=WindingConfig.n_points, help="flux grid points")
    p.add_argument("--samples", type=_sample_count, default=1, help="theta0 samples")
    p.set_defaults(func=cmd_winding, bc="pbc")

    p = sub.add_parser("phase-diagram", help="sweep grids of (g, V, W)")
    _add_model_flags(p, grid=True, flux=False)
    p.add_argument("--samples", type=_sample_count, default=1)
    # sweeps run in the calling thread; kept for bench/workloads.py, which passes 1
    p.add_argument("--threads", type=int, choices=(1,), default=1)
    # a phase diagram has no time grid, so it takes only the quantities that need none
    p.add_argument("--quantities", default=",".join(SweepSpec.quantities),
                   help="comma list of " + ",".join(q for q, d in QUANTITIES.items() if not d.needs_time))
    p.set_defaults(func=cmd_phase_diagram)

    p = sub.add_parser("evolve", help="time evolution with observable recording")
    _add_model_flags(p)
    p.add_argument("--method", choices=("exact", "krylov"), default="krylov")
    p.add_argument("--dt", type=float, default=EvolverConfig.dt,
                   help="unit of the record grid t = k*dt, not the propagator's step: "
                        "krylov takes one error-controlled step per record interval")
    p.add_argument("--tmax", type=float, default=EvolverConfig.t_max)
    p.add_argument("--record-stride", type=int, default=EvolverConfig.record_stride,
                   help="record every k-th grid time (and t_max)")
    p.add_argument("--j0", type=int, default=None, help="initial site (single-particle)")
    p.add_argument("--observables", default="density")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("ground-state", help="lowest-Re-energy eigenstate density profile")
    _add_model_flags(p)
    p.set_defaults(func=cmd_ground_state)

    presets = sub.add_parser("preset", help="canned study reproductions (fig1..fig4)")
    by_name = presets.add_subparsers(dest="name", required=True)
    for name, (declare, flags) in _PRESETS.items():
        p = by_name.add_parser(name, help=declare.__doc__.splitlines()[0])
        p.add_argument("--which", default=None, help="panel subset, e.g. 'a' or 'bd'")
        p.add_argument("--out-dir", default=None)
        for flag, default in flags.items():
            kind = {"samples": _sample_count, "N": int}.get(flag, type(default))
            p.add_argument(f"--{flag}", type=kind, default=default,
                           help="default L // 2" if flag == "N" else f"default {default}")
        p.add_argument("--config", default=None)
        p.set_defaults(func=cmd_preset)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            # the file's flags go right after the command (and preset) name,
            # so the command line's own win
            at = 2 if args.command == "preset" else 1
            args = parser.parse_args(argv[:at] + _config_flags(args.config) + argv[at:])
        return args.func(args)
    except (BiorthogonalizationError, WindingIllDefinedError, FloatingPointError,
            np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
