"""The four benchmark workloads: inputs from a seed, one timed unit, outputs, checks.

Every workload drives nhchain through a public entry point and reads the
results back the way a user would: from the CSV files the program wrote,
or from the object it returned.  The checks are of three kinds: an
oracle independent of the code (the Longhi transition), invariants that
hold for any input (biorthogonality, entropy bounds, normalization), and
a comparison with references stored in bench/reference/ by
make_reference.py.

The seed selects one of N_VARIANTS input variants, so that every seed
has a stored reference.  Where the entry point takes a disorder phase
theta0 (dynamics.run) the seed picks it.  The sweep engine fixes theta0
to 2*pi*s/S itself, so the sweep workloads shift the W grid instead, and
the fig3 preset takes no physical parameter that keeps the amount of
work fixed, so the seed only permutes the order of its panels.
"""

from __future__ import annotations

import csv
import math
import os
import random
from dataclasses import dataclass

import numpy as np

N_VARIANTS = 8

# |W - Wc| / Wc below which the L=89 winding is not compared with the
# infinite-chain oracle (the margin the acceptance check 02 uses).
ORACLE_MARGIN = 0.2

# (absolute, relative) tolerance of each output against its reference.
TOLERANCE = {
    "winding": (0.0, 0.0),        # an integer
    "f_im": (1e-12, 0.0),         # a count over the spectrum
    "ipr_obc": (0.0, 1e-6),
    "fock_ipr": (0.0, 1e-6),
    "o_dw": (1e-12, 1e-6),
    "s_ee": (1e-7, 0.0),
    "mean": (1e-6, 0.0),          # wave-packet position, in sites
    "width": (1e-6, 0.0),
    "peak": (1e-9, 0.0),
}
BIORTH_TOL = 1e-8
NORM_TOL = 1e-9


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


def close(value: float, ref: float, key: str) -> bool:
    atol, rtol = TOLERANCE[key]
    return abs(value - ref) <= atol + rtol * abs(ref)


def _remove(path: str) -> None:
    if os.path.exists(path):
        os.remove(path)


def _read_sweep_rows(path: str) -> list:
    """[quantity, W, sample, value] of every row of a sweep CSV, in file order."""
    with open(path, newline="") as fh:
        return [[r["quantity"], r["W"], r["sample"], float(r["value"])]
                for r in csv.DictReader(fh)]


def _compare_rows(rows: list, ref_rows: list) -> list:
    got = {tuple(r[:3]): r[3] for r in rows}
    want = {tuple(r[:3]): r[3] for r in ref_rows}
    checks = [Check("rows", got.keys() == want.keys(),
                    f"{len(got)} rows, reference {len(want)}")]
    for key, ref in want.items():
        value = got.get(key, float("nan"))
        checks.append(Check(f"ref:{'/'.join(key)}", close(value, ref, key[0]),
                            f"{value!r} vs {ref!r}"))
    return checks


class Workload:
    name = ""
    why = ""
    keeps_decomps = False      # the checks need the decompositions the unit made
    calibration = "numeric"    # calibrate.MIXES entry most like the unit's work, or None

    def variant(self, seed: int) -> str:
        return str(seed % N_VARIANTS)

    def inputs(self, nh, seed: int, workdir: str) -> dict:
        raise NotImplementedError

    def unit(self, nh, inp: dict):
        raise NotImplementedError

    def outputs(self, inp: dict, result) -> dict:
        raise NotImplementedError

    def checks(self, inp: dict, out: dict, ref: dict, residuals: list) -> list:
        raise NotImplementedError


class SpSweep(Workload):
    name = "sp_sweep"
    why = ("fig1 path: CLI phase-diagram at L=89 through the sweep engine's CSV path; "
           "winding dominates and is Python-overhead bound")
    calibration = "python"
    G = 0.5

    def inputs(self, nh, seed, workdir):
        delta = (seed % N_VARIANTS) / 16
        out = os.path.join(workdir, "phase_diagram.csv")
        argv = ["phase-diagram", "--L", "89", "--g", repr(self.G), "--bc", "pbc",
                "--W", f"{delta!r}:{8 + delta!r}:0.5", "--samples", "3",
                "--quantities", "f_im,ipr_obc,winding", "--threads", "1", "--out", out]
        return {"argv": argv, "out": out}

    def unit(self, nh, inp):
        _remove(inp["out"])          # an existing file would be resumed, not recomputed
        rc = nh.cli.main(inp["argv"])
        if rc != 0:
            raise RuntimeError(f"nhchain phase-diagram exited with {rc}")

    def outputs(self, inp, result):
        return {"rows": _read_sweep_rows(inp["out"])}

    def checks(self, inp, out, ref, residuals):
        w_crit = 2.0 * math.exp(self.G)
        checks = []
        for quantity, W, sample, value in out["rows"]:
            W = float(W)
            if quantity != "winding" or sample == "avg" or abs(W - w_crit) < ORACLE_MARGIN * w_crit:
                continue
            expect = 1 if W < w_crit else 0
            checks.append(Check(f"oracle:W={W}/{sample}", value == expect,
                                f"nu={value:g}, Longhi gives {expect}"))
        return checks + _compare_rows(out["rows"], ref["rows"])


class MbStatics(Workload):
    name = "mb_statics"
    why = ("fig2 path: one many-body grid point at dim 924 through run_sweep_to_file; "
           "LAPACK bound (201 complex LUs, two dense decompositions)")
    keeps_decomps = True

    def inputs(self, nh, seed, workdir):
        out = os.path.join(workdir, "statics.csv")
        base = nh.ModelParams(L=12, N=6, g=0.5, V=2.0, W=0.5 + (seed % N_VARIANTS) / 16, bc="pbc")
        spec = nh.SweepSpec(base=base, theta0_samples=1, out=out,
                            quantities=("f_im", "fock_ipr", "o_dw", "ipr_obc", "winding"))
        return {"spec": spec, "out": out}

    def unit(self, nh, inp):
        _remove(inp["out"])
        nh.sweep.run_sweep_to_file(inp["spec"], threads=1)

    def outputs(self, inp, result):
        return {"rows": _read_sweep_rows(inp["out"])}

    def checks(self, inp, out, ref, residuals):
        checks = [Check("decompositions_seen", bool(residuals), f"{len(residuals)} seen")]
        checks += [Check(f"biorth:{i}", r <= BIORTH_TOL, f"max|LR-I| = {r:.2e}")
                   for i, r in enumerate(residuals)]
        return checks + _compare_rows(out["rows"], ref["rows"])


class MbQuench(Workload):
    name = "mb_quench"
    why = ("fig4 scale: Krylov quench from the domain wall at L=18, N=9 (dim 48620, CSR) "
           "with entanglement every 5 steps; never touches spectral or winding")
    calibration = None         # its units kept their time while every calibration slowed
    L, N = 18, 9

    def inputs(self, nh, seed, workdir):
        basis = nh.build_fock_basis(self.L, self.N)
        theta0 = 2.0 * math.pi * (seed % N_VARIANTS) / N_VARIANTS
        params = nh.ModelParams(L=self.L, N=self.N, g=0.5, V=2.0, W=0.5, theta0=theta0, bc="pbc")
        config = nh.EvolverConfig(method="krylov", M=25, dt=0.05, t_max=1.0, record_stride=5)
        return {"params": params, "config": config, "basis": basis,
                "psi0": nh.initial_domain_wall(basis)}

    def unit(self, nh, inp):
        return nh.dynamics.run(inp["params"], inp["config"], inp["psi0"], ("s_ee",),
                               basis=inp["basis"])

    def outputs(self, inp, result):
        return {"s_ee": [[float(t), float(s)] for t, s in result.values("s_ee")]}

    def checks(self, inp, out, ref, residuals):
        s_max = min(self.L // 2, self.L - self.L // 2) * math.log(2.0)
        checks = [Check("records", len(out["s_ee"]) == len(ref["s_ee"]),
                        f"{len(out['s_ee'])} records, reference {len(ref['s_ee'])}")]
        for (t, s), (t_ref, s_ref) in zip(out["s_ee"], ref["s_ee"]):
            checks.append(Check(f"bound:t={t}", 0.0 <= s <= s_max + 1e-12,
                                f"S={s:.6f} in [0, {s_max:.6f}]"))
            checks.append(Check(f"ref:t={t}", t == t_ref and close(s, s_ref, "s_ee"),
                                f"S={s!r} vs {s_ref!r}"))
        return checks


class SpWavepacket(Workload):
    name = "sp_wavepacket"
    why = ("fig3 path: CLI preset at L=600 with dense-storage Krylov steps and ~480k "
           "density rows written as CSV")
    L = 600

    def variant(self, seed):
        return "0"                   # the panel order does not change any output

    def inputs(self, nh, seed, workdir):
        which = "".join(random.Random(seed).sample("abcd", 4))
        out_dir = os.path.join(workdir, "fig3")
        os.makedirs(out_dir, exist_ok=True)
        return {"argv": ["preset", "fig3", "--which", which, "--out-dir", out_dir],
                "out_dir": out_dir}

    def unit(self, nh, inp):
        for panel in "abcd":
            _remove(os.path.join(inp["out_dir"], f"fig3_{panel}.csv"))
        rc = nh.cli.main(inp["argv"])
        if rc != 0:
            raise RuntimeError(f"nhchain preset fig3 exited with {rc}")

    def outputs(self, inp, result):
        panels = {}
        j = np.arange(self.L)
        for panel in "abcd":
            data = np.loadtxt(os.path.join(inp["out_dir"], f"fig3_{panel}.csv"),
                              delimiter=",", skiprows=1, usecols=(0, 2, 3))
            t = data[:, 0].reshape(-1, self.L)
            sites = data[:, 1].reshape(-1, self.L)
            n = data[:, 2].reshape(-1, self.L)
            if np.any(t != t[:, :1]) or np.any(sites != j):
                raise ValueError(f"fig3_{panel}.csv is not one {self.L}-site profile per time")
            mean = n @ j
            width = np.sqrt(np.maximum(n @ j**2 - mean**2, 0.0))
            panels[panel] = np.column_stack([t[:, 0], n.sum(axis=1), mean, width,
                                             n.max(axis=1)]).tolist()
        return {"panels": panels}

    def checks(self, inp, out, ref, residuals):
        checks = []
        for panel, want in ref["panels"].items():
            got = out["panels"].get(panel, [])
            checks.append(Check(f"{panel}:times", len(got) == len(want),
                                f"{len(got)} profiles, reference {len(want)}"))
            for (t, total, *moments), (t_ref, _, *ref_moments) in zip(got, want):
                checks.append(Check(f"{panel}:norm:t={t}", abs(total - 1.0) <= NORM_TOL,
                                    f"sum n_j = {total!r}"))
                for key, v, r in zip(("mean", "width", "peak"), moments, ref_moments):
                    checks.append(Check(f"{panel}:{key}:t={t}", t == t_ref and close(v, r, key),
                                        f"{v!r} vs {r!r}"))
        return checks


WORKLOADS = {w.name: w for w in (SpSweep(), MbStatics(), MbQuench(), SpWavepacket())}
