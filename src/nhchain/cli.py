"""Command-line interface: spectra, phase diagrams, winding, dynamics, presets.

Exit codes: 0 success, 1 validation error (bad flags, inconsistent
combinations), 2 numerical failure (defective decomposition, ill-defined
winding).  Results go to --out as CSV; without --out, row data is
printed to stdout and the one-line summary moves to stderr.  Every
command but `evolve` and `phase-diagram` (whose series and sweep
modules write their own files) writes its rows through `_write_rows`.

`--config FILE` reads flat `key = value` lines and turns each into the
flag `--key=value`, placed right after the command name, so argparse
checks it like any flag and a flag given on the command line wins.

Each preset is a list of declared (panel, file, job) entries run by one
runner; `_PRESETS` lists the optional flags each preset reads, and any
other one is refused.
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
from .spectral import BiorthogonalizationError, decompose, density_profile, cdw_order, eigenvalues, ipr
from .sweep import QUANTITIES, SweepSpec, _effective_bc, inclusive_range, run_sweep_to_file
from .winding import SingularBaseEnergyError, WindingConfig, WindingIllDefinedError, winding_result


class CLIError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # a flag, and so a config key, must be named in full: no prefix matching
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):   # argparse would sys.exit(2); we map to exit 1
        raise CLIError(message)


def _parse_grid(text: str) -> tuple:
    """'0:8:0.25' -> inclusive grid; '1.5' -> single-point grid."""
    parts = text.split(":")
    if len(parts) == 1:
        return (float(parts[0]),)
    if len(parts) == 3:
        return inclusive_range(float(parts[0]), float(parts[1]), float(parts[2]))
    raise CLIError(f"grid must be 'value' or 'start:stop:step', got {text!r}")


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


def _add_io_flags(p: _Parser) -> None:
    p.add_argument("--out", default=None)


def _model_params(args, default_bc=None) -> ModelParams:
    if args.L is None:
        raise CLIError("--L is required")
    bc = args.bc or default_bc or "obc"   # explicit flag wins over the command default
    if args.flux is not None and bc == "obc":
        raise CLIError("--flux only applies under --bc pbc")

    def one(x, fallback):   # a grid flag builds the matrix at its first value
        if x is None:
            return fallback
        return x[0] if isinstance(x, tuple) else x

    return ModelParams(
        L=args.L, N=args.N, g=one(args.g, 0.0), V=one(args.V, 0.0),
        W=one(args.W, 0.0), theta0=args.theta0, bc=bc,
        phi=args.flux if args.flux is not None else 0.0,
    )


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
                raise CLIError(f"config line is not key=value: {raw.strip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            flags.append(f"--{key.replace('_', '-')}={value}")
    return flags


# ---------------------------------------------------------------- subcommands

def cmd_spectrum(args) -> int:
    params = _model_params(args)
    if params.many_body:
        basis = build_fock_basis(params.L, params.N)
        H = build_many_body(params, basis)
    else:
        H = build_single_particle(params)
    w = eigenvalues(H)
    _write_rows(args.out, ["index", "re", "im"], [(i, z.real, z.imag) for i, z in enumerate(w)])
    _summary(f"spectrum: dim={len(w)} bc={params.bc} "
             f"max|Im|={np.abs(w.imag).max():.3e}"
             + (f" -> {args.out}" if args.out else ""), to_stderr=not args.out)
    return 0


def cmd_winding(args) -> int:
    params = _model_params(args, default_bc="pbc")
    if params.bc != "pbc":
        raise CLIError("winding needs --bc pbc")
    cfg = WindingConfig(n_points=args.points, e0=args.e0)
    S = args.samples
    rows = []
    for s in range(S):
        p = replace(params, theta0=args.theta0 + 2.0 * np.pi * s / S)
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
    M = args.M if args.M is not None else (25 if params.many_body else 15)
    config = EvolverConfig(method=args.method, M=M, dt=args.dt,
                           t_max=args.tmax, record_stride=args.record_stride)
    observables = tuple(o.strip() for o in args.observables.split(",") if o.strip())
    if params.many_body:
        if args.j0 is not None:
            raise CLIError("--j0 applies to single-particle runs; many-body starts from the domain wall")
        basis = build_fock_basis(params.L, params.N)
        psi0 = initial_domain_wall(basis)
    else:
        basis = None
        psi0 = initial_localized(params.L, args.j0 if args.j0 is not None else params.L // 2)
    series = run(params, config, psi0, observables, basis=basis)
    out = args.out or "evolve.csv"
    series.write_csv(out)
    rows = len(series.t) * sum(block.shape[1] for block in series.blocks.values())
    _summary(f"evolve: {config.method} M={M} dt={config.dt} t_max={config.t_max} "
             f"-> {out} ({rows} records)", to_stderr=False)
    return 0


def cmd_ground_state(args) -> int:
    params = _model_params(args)
    if params.many_body:
        basis = build_fock_basis(params.L, params.N)
        H = build_many_body(params, basis)
    else:
        basis = None
        H = build_single_particle(params)
    decomp = decompose(H)
    k = int(np.argmin(decomp.eigenvalues.real))
    e0 = decomp.eigenvalues[k]
    state = decomp.right[:, k]
    dens = density_profile(state, basis)
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
    the bc it is computed under, the grids, and the disorder sampling."""
    base = spec.base
    meta = {"quantities": {q: _effective_bc(q, base.bc) for q in spec.quantities},
            "L": base.L, "N": base.N, "g_grid": list(spec.g_grid), "v_grid": list(spec.v_grid),
            "w_grid": list(spec.w_grid), "theta0": base.theta0,
            "theta0_samples": spec.theta0_samples}
    if "winding" in spec.quantities:
        cfg = WindingConfig()      # the sweep's winding runs with the defaults
        meta.update(e0=cfg.e0, flux_points=cfg.n_points)
    return (lambda path: run_sweep_to_file(replace(spec, out=path))), meta


def _wave_packet(params: ModelParams, config: EvolverConfig, j0: int) -> tuple:
    """Job: the density series of a particle started on site j0."""
    def write(path):
        run(params, config, initial_localized(params.L, j0), ("density",)).write_csv(path)

    meta = {"L": params.L, "g": params.g, "W": params.W, "bc": params.bc, "j0": j0,
            "M": config.M, "dt": config.dt, "t_max": config.t_max}
    return write, meta


def _entanglement_traces(params: ModelParams, config: EvolverConfig, S: int) -> tuple:
    """Job: the entanglement entropy after a domain-wall start, for each
    disorder phase theta0 = 2*pi*s/S (s < S) over time, then the sample mean."""
    def write(path):
        basis = build_fock_basis(params.L, params.N)
        series = [run(replace(params, theta0=2.0 * np.pi * s / S), config,
                      initial_domain_wall(basis), ("s_ee",), basis=basis) for s in range(S)]
        # (len(t), S): the mean along each contiguous row adds the samples in order
        stack = np.column_stack([x.blocks["s_ee"][:, 0] for x in series])
        columns = [(str(s), stack[:, s]) for s in range(S)] + [("avg", stack.mean(axis=1))]
        _write_rows(path, ["sample", "t", "s_ee"],
                    [(sample, t, v) for sample, values in columns
                     for t, v in zip(series[0].t, values)])

    meta = {k: getattr(params, k) for k in ("L", "N", "g", "V", "W", "bc")}
    meta.update(M=config.M, dt=config.dt, t_max=config.t_max, theta0_samples=S)
    return write, meta


def _winding_inset(L: int, N: int) -> tuple:
    """Job: the winding at base energy -4 on both sides of the CDW onset."""
    cfg = WindingConfig(e0=-4.0)
    V_inset = (0.5, 5.0)

    def write(path):
        rows = []
        for V in V_inset:
            res = winding_result(ModelParams(L=L, N=N, g=0.5, V=V, W=0.0, bc="pbc"), cfg=cfg)
            rows.append((V, cfg.e0, res.nu, res.raw))
        _write_rows(path, ["V", "e0", "nu", "raw"], rows)

    meta = {"inset": {"V": list(V_inset), "e0": cfg.e0, "flux_points": cfg.n_points,
                      "note": "base energy -4 sits inside the weak-coupling point-gap "
                              "loops and below the V=5 spectrum, so nu drops 16 -> 0"}}
    return write, meta


def _given(value, default):
    """A preset flag's value, or the preset's default where it is not given."""
    return default if value is None else value


def _run_panels(which: str, out_dir: str, panels: list) -> tuple:
    """Run the declared jobs of the selected panels, in panel order.

    Returns the files written and each panel's metadata: the union of
    its jobs' metadata, where a key on which the jobs disagree (fig2 a:
    the boundary condition) lists one value per job.
    """
    files, meta = [], {}
    for panel in which:
        described = []
        for p, name, (write, job_meta) in panels:
            if p == panel:
                path = os.path.join(out_dir, name)
                write(path)
                files.append(path)
                described.append(job_meta)
        merged = {}
        for key in dict.fromkeys(k for d in described for k in d):
            values = [d[key] for d in described if key in d]
            merged[key] = values[0] if all(v == values[0] for v in values) else values
        meta[panel] = merged
    return files, meta


def _preset_fig1(args) -> tuple:
    """Single-particle (W, g) phase-diagram quartet."""
    base = ModelParams(L=_given(args.L, 89), bc="pbc")
    grids = dict(g_grid=inclusive_range(0.0, 1.0, 0.1), w_grid=inclusive_range(0.0, 8.0, 0.25),
                 theta0_samples=_given(args.samples, 10))
    panels = [(panel, f"fig1_{panel}.csv",
               _sweep(SweepSpec(base=base, quantities=(q,), **grids)))
              for panel, q in zip("abcd", ("ipr_obc", "winding", "ipr_pbc", "f_im"))]
    return panels, ["phase boundary expected along W = 2*exp(g)"]


def _preset_fig2(args) -> tuple:
    """Many-body statics at half filling: density, Fock IPR, winding, CDW order."""
    L = _given(args.L, 12)
    N = L // 2
    S = _given(args.samples, 3)
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
    ]
    panels = [(p, name, _sweep(spec)) for p, name, spec in specs]
    panels.append(("d", "fig2_d_inset.csv", _winding_inset(L, N)))
    return panels, [f"desk-scale run at L={L}, N={N}; steep CDW rise expected near V=2"]


def _preset_fig3(args) -> tuple:
    """Single-particle wave-packet propagation with an amplified front."""
    L = _given(args.L, 600)
    j0 = min(int(round(L * 580 / 600)), L - 1)
    config = EvolverConfig(method="krylov", M=_given(args.M, 15), dt=_given(args.dt, 0.2),
                           t_max=_given(args.tmax, 40.0))
    panels = [(panel, f"fig3_{panel}.csv",
               _wave_packet(ModelParams(L=L, g=1.0, W=W, bc=bc), config, j0))
              for panel, (bc, W) in zip("abcd", (("pbc", 0.0), ("obc", 0.0),
                                                  ("pbc", 5.4), ("obc", 5.4)))]
    notes = ["W=5.4 sits at the critical strength 2*exp(1) ~ 5.44 where spreading is enhanced"]
    return panels, notes


def _preset_fig4(args) -> tuple:
    """Entanglement growth from the half-filled domain wall."""
    L = _given(args.L, 12)
    N = L // 2
    g = 0.5
    w_crit = 2.0 * 2.0 * np.exp(g)
    config = EvolverConfig(method="krylov", M=_given(args.M, 25), dt=_given(args.dt, 0.05),
                           t_max=_given(args.tmax, 100.0), record_stride=5)
    panels = [(panel, f"fig4_{panel}.csv",
               _entanglement_traces(ModelParams(L=L, N=N, g=g, V=2.0, W=W, bc=bc), config,
                                    _given(args.samples, 5)))
              for panel, (bc, W) in zip("abcd", (("pbc", 0.5), ("obc", 0.5),
                                                  ("pbc", w_crit), ("obc", w_crit)))]
    notes = [f"this run: L={L}, N={N} (dim {comb(L, N)}); published setting: L=18, N=8 "
             "(dim 43758)",
             "entanglement growth is logarithmic and nearly boundary-independent"]
    return panels, notes


# name -> (declaration, the optional flags it reads besides --L, --which, --out-dir)
_PRESETS = {
    "fig1": (_preset_fig1, ("samples",)),
    "fig2": (_preset_fig2, ("samples",)),
    "fig3": (_preset_fig3, ("M", "dt", "tmax")),
    "fig4": (_preset_fig4, ("M", "dt", "tmax", "samples")),
}


def cmd_preset(args) -> int:
    name = args.name
    if name is None:
        raise CLIError("preset name required (fig1|fig2|fig3|fig4)")
    declare, reads = _PRESETS[name]
    flags = dict.fromkeys(flag for _, takes in _PRESETS.values() for flag in takes)
    ignored = [f"--{f}" for f in flags if f not in reads and getattr(args, f) is not None]
    if ignored:
        raise CLIError(f"preset {name} does not take {', '.join(ignored)}")
    if args.which and (set(args.which) - set("abcd") or len(set(args.which)) < len(args.which)):
        raise CLIError("--which takes a subset of 'abcd', each panel once")
    panels, notes = declare(args)
    out_dir = args.out_dir or "."
    os.makedirs(out_dir, exist_ok=True)
    files, panel_meta = _run_panels(args.which or "abcd", out_dir, panels)
    meta = {"preset": name, "which": args.which or "abcd", "files": files,
            "panels": panel_meta, "notes": notes}
    meta_path = os.path.join(out_dir, f"{name}_metadata.json")
    with open(meta_path, "w") as fh:
        json.dump(meta, fh, indent=1)
    _summary(f"preset {name}: wrote {', '.join(os.path.basename(f) for f in files)} "
             f"+ {os.path.basename(meta_path)}", to_stderr=False)
    return 0


# --------------------------------------------------------------------- parser

def build_parser() -> _Parser:
    parser = _Parser(prog="nhchain", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="eigenvalues as (index, re, im) rows")
    _add_model_flags(p)
    _add_io_flags(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("winding", help="spectral winding number")
    _add_model_flags(p, flux=False)
    _add_io_flags(p)
    p.add_argument("--e0", type=complex, default=0.0, help="base energy")
    p.add_argument("--points", type=int, default=201, help="flux grid points")
    p.add_argument("--samples", type=_sample_count, default=1, help="theta0 samples")
    p.set_defaults(func=cmd_winding)

    p = sub.add_parser("phase-diagram", help="sweep grids of (g, V, W)")
    _add_model_flags(p, grid=True, flux=False)
    _add_io_flags(p)
    p.add_argument("--samples", type=_sample_count, default=1)
    # sweeps run in the calling thread; kept for bench/workloads.py, which passes 1
    p.add_argument("--threads", type=int, choices=(1,), default=1)
    p.add_argument("--quantities", default="f_im", help="comma list of " + ",".join(QUANTITIES))
    p.set_defaults(func=cmd_phase_diagram)

    p = sub.add_parser("evolve", help="time evolution with observable recording")
    _add_model_flags(p)
    _add_io_flags(p)
    p.add_argument("--method", choices=("exact", "krylov"), default="krylov")
    p.add_argument("--M", type=int, default=None, help="Krylov dimension (15 single-particle, 25 many-body)")
    p.add_argument("--dt", type=float, default=0.2)
    p.add_argument("--tmax", type=float, default=10.0)
    p.add_argument("--record-stride", type=int, default=1)
    p.add_argument("--j0", type=int, default=None, help="initial site (single-particle)")
    p.add_argument("--observables", default="density")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("ground-state", help="lowest-Re-energy eigenstate density profile")
    _add_model_flags(p)
    _add_io_flags(p)
    p.set_defaults(func=cmd_ground_state)

    p = sub.add_parser("preset", help="canned study reproductions (fig1..fig4)")
    p.add_argument("name", nargs="?", choices=tuple(_PRESETS), default=None)
    p.add_argument("--which", default=None, help="panel subset, e.g. 'a' or 'bd'")
    p.add_argument("--out-dir", default=None)
    p.add_argument("--L", type=int, default=None)
    p.add_argument("--M", type=int, default=None, help="fig3, fig4")
    p.add_argument("--dt", type=float, default=None, help="fig3, fig4")
    p.add_argument("--tmax", type=float, default=None, help="fig3, fig4")
    p.add_argument("--samples", type=_sample_count, default=None, help="fig1, fig2, fig4")
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_preset)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            # the file's flags go first, so the command line's own win
            args = parser.parse_args(argv[:1] + _config_flags(args.config) + argv[1:])
        return args.func(args)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (BiorthogonalizationError, WindingIllDefinedError, SingularBaseEnergyError,
            FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
