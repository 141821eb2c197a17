"""Command-line surface: flags, files, exit codes."""

import csv
import json
import re
import threading

import numpy as np
import pytest

import nhchain.cli as cli
import nhchain.sweep as sweep_mod
from nhchain import (
    EvolverConfig,
    ModelParams,
    SweepSpec,
    WindingIllDefinedError,
    build_fock_basis,
    build_many_body,
    build_single_particle,
    decompose,
    eigenvalues,
    ipr_per_state,
    winding_result,
)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_spectrum_to_file_matches_decompose(tmp_path):
    out = tmp_path / "spec.csv"
    rc = cli.main(["spectrum", "--L", "13", "--g", "0.5", "--W", "1.0",
                   "--bc", "pbc", "--out", str(out)])
    assert rc == 0
    rows = read_csv(str(out))
    assert len(rows) == 13
    w = decompose(build_single_particle(ModelParams(L=13, g=0.5, W=1.0, bc="pbc"))).eigenvalues
    got = np.array([complex(float(r["re"]), float(r["im"])) for r in rows])
    assert np.abs(got - w).max() < 1e-12


def test_spectrum_stdout_mode(capsys):
    rc = cli.main(["spectrum", "--L", "8", "--g", "0.3"])
    assert rc == 0
    out, err = capsys.readouterr()
    assert len(out.strip().splitlines()) == 8   # data on stdout
    assert "spectrum: dim=8" in err             # summary moves to stderr


def test_spectrum_file_and_stdout_hold_the_same_rows(tmp_path, capsys):
    argv = ["spectrum", "--L", "9", "--g", "0.4", "--W", "1.5", "--bc", "pbc"]
    assert cli.main(argv) == 0
    stdout = capsys.readouterr().out
    out = tmp_path / "spec.csv"
    assert cli.main(argv + ["--out", str(out)]) == 0
    data = out.read_bytes().decode()
    assert data.startswith("index,re,im\r\n") and data.count("\r\n") == 10
    assert "\r" not in stdout and stdout.count("\n") == 9
    assert data.split("\r\n")[1:] == stdout.split("\n")    # both end in an empty piece


def test_winding_prints_integer(capsys):
    rc = cli.main(["winding", "--L", "21", "--g", "0.5", "--W", "1.0"])
    assert rc == 0
    out, _ = capsys.readouterr()
    assert out.strip().splitlines()[-1] == "nu = 1"


def test_winding_of_a_closed_gap_is_a_numerical_failure(capsys):
    # g = 0: the real spectrum crosses E0 = 0 as the flux runs round, so no winding
    # exists; bisecting the crossing steps does not shrink them
    assert cli.main(["winding", "--L", "21", "--g", "0", "--W", "0"]) == 2
    out, err = capsys.readouterr()
    assert "nu =" not in out
    assert err.startswith("numerical failure: flux step phase jump ")
    assert "exceeds pi/2 on a 221-step loop" in err and "E0 lies on the spectral curve" in err


def test_an_open_chain_whose_similarity_overflows_is_refused(tmp_path, capsys):
    # |g| (L - 1) = 880 exceeds ln(float max): e^(-g S) held inf and nan, and
    # ground-state printed o_dw=nan, with RuntimeWarnings on stderr
    out = tmp_path / "gs.csv"
    assert cli.main(["ground-state", "--L", "89", "--g", "10", "--W", "1", "--out", str(out)]) == 2
    stdout, stderr = capsys.readouterr()
    assert stdout == "" and not out.exists()
    assert stderr == ("numerical failure: |g| * (max S - min S) = 880 exceeds ln(float max) = 709.78: "
                      "the open chain's similarity e^(-g S) overflows\n")
    sweep = tmp_path / "pd.csv"
    assert cli.main(["phase-diagram", "--L", "89", "--g", "10", "--W", "1", "--quantities", "ipr_obc",
                     "--out", str(sweep)]) == 0
    assert capsys.readouterr().err == ""
    rows = read_csv(str(sweep))
    assert [(r["sample"], r["value"]) for r in rows] == [("0", "nan"), ("avg", "nan")]
    assert all(r["warnings"] == "BiorthogonalizationError: " + stderr[len("numerical failure: "):-1]
               for r in rows)


def test_winding_at_an_eigenvalue_of_h0_is_a_numerical_failure(capsys):
    # the Hermitian ring at L=4 has E0 = 0 in its zero-flux spectrum: E0 is on the spectral curve
    assert cli.main(["winding", "--L", "4", "--g", "0", "--W", "0"]) == 2
    out, err = capsys.readouterr()
    assert "nu =" not in out
    assert err.startswith("numerical failure: E0=0.0 is an eigenvalue of H(0)")
    assert "lies on the spectral curve" in err


def test_phase_diagram_writes_nan_winding_rows_at_an_eigenvalue_of_h0(tmp_path):
    out = tmp_path / "pd.csv"
    assert cli.main(["phase-diagram", "--L", "4", "--g", "0", "--W", "0", "--quantities", "winding",
                     "--out", str(out)]) == 0
    rows = read_csv(str(out))
    assert rows and all(r["value"] == "nan" for r in rows)
    assert all("WindingIllDefinedError" in r["warnings"] and "eigenvalue of H(0)" in r["warnings"]
               for r in rows)


def test_winding_rejects_obc(capsys):
    assert cli.main(["winding", "--L", "21", "--g", "0.5", "--bc", "obc"]) == 1
    assert "winding requires periodic boundaries" in capsys.readouterr().err


def test_a_fock_sector_beyond_63_sites_is_an_error_line(capsys):
    assert cli.main(["spectrum", "--L", "64", "--N", "1"]) == 1
    stdout, stderr = capsys.readouterr()
    assert stdout == "" and stderr.startswith("error: ") and "at most 63 sites" in stderr


@pytest.mark.parametrize("grid, message", [
    ("1:2", "grid must be 'value' or 'start:stop:step', got '1:2'"),
    ("1:0:1", "empty range: stop 0.0 < start 1.0"),
    ("0:1:0", "step must be > 0"),
])
def test_bad_grid_message_reaches_stderr(tmp_path, capsys, grid, message):
    out = tmp_path / "pd.csv"
    assert cli.main(["phase-diagram", "--L", "8", "--W", grid, "--out", str(out)]) == 1
    stdout, stderr = capsys.readouterr()
    assert f"argument --W: {message}" in stderr and stdout == ""
    assert not out.exists()


def test_phase_diagram_help_lists_the_quantities_it_accepts(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_:
        cli.main(["phase-diagram", "--help"])
    assert exit_.value.code == 0
    listed = re.search(r"comma list of\s+(\S+)", capsys.readouterr().out).group(1).split(",")
    accepted = []
    for q in sweep_mod.QUANTITIES:      # a phase-diagram spec: a Fock sector and no time grid
        try:
            SweepSpec(base=ModelParams(L=8, N=4), quantities=(q,))
        except ValueError:
            continue
        accepted.append(q)
    assert listed == accepted and "s_ee" not in listed
    out = tmp_path / "pd.csv"
    assert cli.main(["phase-diagram", "--L", "8", "--N", "4", "--quantities", "s_ee",
                     "--out", str(out)]) == 1
    assert "s_ee needs a time grid" in capsys.readouterr().err and not out.exists()


def test_one_table_entry_is_enough_for_a_new_quantity(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(sweep_mod.QUANTITIES, "toy", sweep_mod.Quantity(None, lambda s, bc: s.params.W ** 2))
    out = tmp_path / "pd.csv"
    argv = ["phase-diagram", "--L", "5", "--g", "0.5", "--W", "0:2:1", "--samples", "2",
            "--quantities", "toy,f_im", "--out", str(out)]
    assert cli.main(argv) == 0
    rows = [r for r in read_csv(str(out)) if r["quantity"] == "toy"]
    assert [(r["W"], r["sample"], r["bc"], r["value"]) for r in rows] == [
        (W, s, "obc", v) for W, v in (("0", "0"), ("1", "1"), ("2", "4")) for s in ("0", "1", "avg")]
    capsys.readouterr()
    assert cli.main(argv) == 0
    assert "(0 rows written, 18 reused)" in capsys.readouterr().out
    with pytest.raises(SystemExit):
        cli.main(["phase-diagram", "--help"])
    assert "toy" in re.search(r"comma list of\s+(\S+)", capsys.readouterr().out).group(1).split(",")


@pytest.mark.parametrize("argv, message", [
    (["evolve", "--L", "5", "--dt", "0.1", "--tmax", "inf"], "dt and t_max must be finite"),
    (["evolve", "--L", "5", "--dt", "inf", "--tmax", "1"], "dt and t_max must be finite"),
    (["phase-diagram", "--L", "5", "--W", "0:inf:1"], "argument --W: start, stop and step must be finite"),
    (["phase-diagram", "--L", "5", "--g", "inf"], "g must be finite"),
    (["phase-diagram", "--L", "5", "--W", "1", "--samples", "2", "--theta0", "nan"],
     "theta0 must be finite"),
    (["winding", "--L", "8", "--g", "0.5", "--W", "1", "--e0", "nan"], "e0 must be finite"),
    (["winding", "--L", "8", "--g", "0.5", "--W", "1", "--e0", "inf"], "e0 must be finite"),
    (["winding", "--L", "8", "--g", "0.5", "--W", "1", "--e0", "1e400"], "e0 must be finite"),
    (["winding", "--L", "8", "--g", "0.5", "--W", "1", "--e0", "nanj"], "e0 must be finite"),
], ids=["evolve-tmax", "evolve-dt", "phase-diagram-grid", "phase-diagram-g", "phase-diagram-theta0",
        "winding-e0-nan", "winding-e0-inf", "winding-e0-overflow", "winding-e0-imag-nan"])
def test_non_finite_numbers_are_an_error_line(tmp_path, capsys, argv, message):
    out = tmp_path / "out.csv"
    assert cli.main(argv + ["--out", str(out)]) == 1
    stdout, stderr = capsys.readouterr()
    assert stderr.startswith("error: ") and message in stderr and stdout == ""
    assert not out.exists()


def test_winding_takes_no_grid_size(tmp_path, capsys):
    # the flux grid follows the phase (the winding bisects its own steps): no --points
    out = tmp_path / "out.csv"
    assert cli.main(["winding", "--L", "13", "--g", "0.5", "--W", "1", "--points", "401",
                     "--out", str(out)]) == 1
    stdout, stderr = capsys.readouterr()
    assert "unrecognized arguments: --points 401" in stderr and stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["winding", "spectrum", "evolve"])
def test_a_g_whose_hop_overflows_is_an_error_line(capsys, command):
    assert cli.main([command, "--L", "8", "--g", "800", "--W", "1"]) == 1
    stdout, stderr = capsys.readouterr()
    assert stderr == "error: g=800 is too large: e^|g| overflows\n" and stdout == ""


@pytest.mark.parametrize("argv", [
    ["--L", "8", "--g", "0.5", "--method", "exact", "--observables", "rmax_overlap"],
    ["--L", "8", "--N", "4", "--g", "0.5", "--observables", "fock_ipr"],
    ["--L", "5", "--observables", ","],
])
def test_evolve_names_the_known_observables(tmp_path, capsys, argv):
    out = tmp_path / "ev.csv"
    assert cli.main(["evolve", *argv, "--tmax", "0.4", "--out", str(out)]) == 1
    assert "known: density, ipr, s_ee" in capsys.readouterr().err
    assert not out.exists()


def test_winding_sample_file(tmp_path, capsys):
    out = tmp_path / "w.csv"
    rc = cli.main(["winding", "--L", "21", "--g", "0.5", "--W", "1.0",
                   "--samples", "3", "--out", str(out)])
    assert rc == 0
    rows = read_csv(str(out))
    assert [r["sample"] for r in rows] == ["0", "1", "2"]
    assert all(r["nu"] == "1" for r in rows)


def test_evolve_writes_series(tmp_path):
    out = tmp_path / "evolve.csv"
    rc = cli.main(["evolve", "--L", "16", "--g", "0.5", "--bc", "pbc",
                   "--dt", "0.2", "--tmax", "1.0", "--out", str(out)])
    assert rc == 0
    rows = read_csv(str(out))
    assert set(r["observable"] for r in rows) == {"density"}
    t0 = [float(r["value"]) for r in rows if float(r["t"]) == 0.0]
    assert sum(t0) == pytest.approx(1.0)        # normalized start


def test_evolve_ends_at_tmax_and_counts_its_rows(tmp_path, capsys):
    out = tmp_path / "evolve.csv"
    rc = cli.main(["evolve", "--L", "8", "--g", "0.5", "--dt", "0.3", "--tmax", "1",
                   "--observables", "ipr,density", "--out", str(out)])
    assert rc == 0
    rows = read_csv(str(out))
    assert [float(r["t"]) for r in rows[::9]] == [0.0, 0.3, 0.6, 0.8999999999999999, 1.0]
    assert f"({len(rows)} records)" in capsys.readouterr().out


def test_evolve_j0_conflicts_with_filling():
    rc = cli.main(["evolve", "--L", "8", "--N", "4", "--j0", "3", "--tmax", "0.5"])
    assert rc == 1


@pytest.mark.parametrize("N", [None, "4"])
def test_evolve_refuses_a_krylov_dimension(tmp_path, capsys, N):
    # the error estimate picks each step's Krylov dimension; a cap would only truncate
    for method in ("exact", "krylov"):
        out = tmp_path / f"{method}.csv"
        argv = ["evolve", "--L", "8", "--method", method, "--tmax", "0.5", "--out", str(out)]
        argv += ["--N", N] if N else []
        assert cli.main(argv + ["--M", "3"]) == 1
        assert "--M" in capsys.readouterr().err and not out.exists()
        assert cli.main(argv) == 0
        assert f"evolve: {method} dt=" in capsys.readouterr().out
        assert out.exists()


def test_ground_state_stdout(capsys):
    rc = cli.main(["ground-state", "--L", "10", "--N", "5", "--g", "0.5",
                   "--V", "2.0", "--W", "0.5"])
    assert rc == 0
    out, err = capsys.readouterr()
    lines = out.strip().splitlines()
    assert len(lines) == 10
    total = sum(float(line.split(",")[1]) for line in lines)
    assert total == pytest.approx(5.0, abs=1e-8)
    assert "E0=" in err and "o_dw=" in err


@pytest.mark.parametrize("bc, o_dw", [("obc", "0.4555"), ("pbc", "0.0617")])
def test_ground_state_prints_the_biorthogonal_density(capsys, bc, o_dw):
    # on the open chain the right vector alone shows the skin pile-up (o_dw 0.3561)
    argv = ["ground-state", "--L", "9", "--N", "5", "--g", "0.5", "--V", "4", "--bc", bc]
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert f"o_dw={o_dw}" in err
    p = ModelParams(L=9, N=5, g=0.5, V=4.0, bc=bc)
    basis = build_fock_basis(9, 5)
    d = decompose(build_many_body(p, basis))
    k = int(np.argmin(d.eigenvalues.real))
    dens = basis.occupations().T @ (d.left[k] * d.right[:, k]).real
    assert [float(line.split(",")[1]) for line in out.splitlines()] == dens.tolist()


def test_flux_requires_pbc(capsys):
    assert cli.main(["spectrum", "--L", "8", "--flux", "0.5", "--bc", "obc"]) == 1
    assert "needs bc='pbc'" in capsys.readouterr().err     # ModelParams refuses it


def test_unknown_flag_and_missing_length():
    assert cli.main(["spectrum", "--L", "8", "--bogus", "1"]) == 1
    assert cli.main(["spectrum", "--g", "0.5"]) == 1


def test_config_file_with_explicit_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("L = 13\nW = 1.0   # overridden on the command line\nbc = pbc\n")
    out = tmp_path / "spec.csv"
    rc = cli.main(["spectrum", "--config", str(cfg), "--W", "3.0", "--out", str(out)])
    assert rc == 0
    rows = read_csv(str(out))
    assert len(rows) == 13                      # L came from the config
    w = decompose(build_single_particle(ModelParams(L=13, g=0.0, W=3.0, bc="pbc"))).eigenvalues
    got = np.array([complex(float(r["re"]), float(r["im"])) for r in rows])
    assert np.abs(got - w).max() < 1e-12        # explicit --W beat the config


def test_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("coupling = 3\n")
    assert cli.main(["spectrum", "--L", "8", "--config", str(cfg)]) == 1
    cfg.write_text("thet = 0.3\n")                 # a key names its flag in full
    assert cli.main(["spectrum", "--L", "8", "--config", str(cfg)]) == 1


@pytest.mark.parametrize("text", ["bc = ring\n", "L 8\n", "name = fig3\n"])
def test_config_entries_are_checked_as_flags(tmp_path, text, capsys):
    # a value outside the flag's choices, a line without '=', and a key
    # naming a positional argument
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert cli.main(["spectrum", "--L", "8", "--config", str(cfg)]) == 1
    assert cli.main(["preset", "fig3", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 1
    assert not (tmp_path / "o").exists()
    assert capsys.readouterr().err.count("error: ") == 2


def test_command_line_flag_beats_config_on_either_side(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("L = 13\nW = 1.0\nbc = pbc\n")
    w = eigenvalues(build_single_particle(ModelParams(L=13, W=3.0, bc="pbc")))
    for argv in (["--W", "3.0", "--config", str(cfg)], ["--config", str(cfg), "--W", "3.0"]):
        out = tmp_path / "spec.csv"
        assert cli.main(["spectrum", *argv, "--out", str(out)]) == 0
        got = np.array([complex(float(r["re"]), float(r["im"])) for r in read_csv(str(out))])
        assert np.array_equal(got, w)


def test_preset_reads_its_flags_from_config(tmp_path):
    cfg = tmp_path / "fig3.cfg"
    cfg.write_text("tmax = 1\nL = 20\nwhich = b\n")
    assert cli.main(["preset", "fig3", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / "fig3_metadata.json").read_text())
    assert meta["which"] == "b" and list(meta["files"]) == ["fig3_b.csv"]
    assert (meta["files"]["fig3_b.csv"]["L"], meta["files"]["fig3_b.csv"]["t_max"]) == (20, 1.0)


# the optional flags each preset reads, besides --L, --which and --out-dir
PRESET_FLAGS = {"fig1": {"--samples"}, "fig2": {"--samples"},
                "fig3": {"--dt", "--tmax"}, "fig4": {"--N", "--dt", "--tmax", "--samples"}}


@pytest.mark.parametrize("name", sorted(PRESET_FLAGS))
def test_preset_refuses_flags_it_does_not_read(tmp_path, name, capsys):
    values = {"--M": "3", "--N": "3", "--dt": "0.1", "--tmax": "1", "--samples": "1", "--threads": "1"}
    for flag in sorted(set(values) - PRESET_FLAGS[name]):
        out_dir = tmp_path / flag.strip("-")
        assert cli.main(["preset", name, "--L", "6", flag, values[flag],
                         "--out-dir", str(out_dir)]) == 1
        assert flag in capsys.readouterr().err
        assert not out_dir.exists()


def test_phase_diagram_with_resume(tmp_path, capsys):
    out = tmp_path / "pd.csv"
    argv = ["phase-diagram", "--L", "13", "--g", "0.5", "--W", "0:2:1",
            "--bc", "pbc", "--samples", "2", "--quantities", "f_im", "--out", str(out)]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert "(9 rows written, 0 reused)" in first
    n_rows = len(read_csv(str(out)))
    assert n_rows == 9
    assert cli.main(argv) == 0
    second = capsys.readouterr().out
    assert "(0 rows written, 9 reused)" in second
    assert len(read_csv(str(out))) == n_rows    # nothing re-appended


def test_phase_diagram_refuses_no_quantity_and_writes_a_repeated_one_once(tmp_path, capsys):
    out = tmp_path / "pd.csv"
    assert cli.main(["phase-diagram", "--L", "5", "--quantities", ",", "--out", str(out)]) == 1
    assert "quantities must name at least one of" in capsys.readouterr().err
    assert not out.exists()
    # phase-diagram has no time flags, so no time grid for an entropy trace
    assert cli.main(["phase-diagram", "--L", "6", "--N", "3", "--quantities", "s_ee",
                     "--out", str(out)]) == 1
    assert "error: s_ee needs a time grid" in capsys.readouterr().err
    assert not out.exists()
    assert cli.main(["phase-diagram", "--L", "5", "--g", "0.5", "--quantities", "f_im,f_im",
                     "--out", str(out)]) == 0
    assert "(2 rows written, 0 reused)" in capsys.readouterr().out
    assert [r["sample"] for r in read_csv(str(out))] == ["0", "avg"]


def test_phase_diagram_computes_in_the_main_thread_and_takes_one_thread_only(
        tmp_path, monkeypatch, capsys):
    out = tmp_path / "pd.csv"
    argv = ["phase-diagram", "--L", "13", "--g", "0.5", "--W", "0:2:1", "--bc", "pbc",
            "--samples", "2", "--quantities", "f_im", "--out", str(out)]
    assert cli.main(argv + ["--threads", "2"]) == 1
    assert "--threads" in capsys.readouterr().err
    assert not out.exists()

    seen = []
    evaluate = sweep_mod._evaluate_sample

    def recording(*args):
        seen.append(threading.current_thread())
        return evaluate(*args)

    monkeypatch.setattr(sweep_mod, "_evaluate_sample", recording)
    assert cli.main(argv) == 0
    assert seen == [threading.main_thread()] * 6       # 3 points x 2 samples
    assert cli.main(argv + ["--threads", "1"]) == 0    # the value the benchmark passes
    assert "(0 rows written, 9 reused)" in capsys.readouterr().out


def test_phase_diagram_honours_theta0(tmp_path):
    out = tmp_path / "pd.csv"
    rc = cli.main(["phase-diagram", "--L", "13", "--g", "0.5", "--W", "2.0", "--bc", "pbc",
                   "--theta0", "0.3", "--samples", "1", "--quantities", "ipr_obc,winding",
                   "--out", str(out)])
    assert rc == 0
    rows = {r["quantity"]: r for r in read_csv(str(out)) if r["sample"] == "0"}
    assert {float(r["theta0"]) for r in rows.values()} == {0.3}

    def mean_ipr(theta0):
        p = ModelParams(L=13, g=0.5, W=2.0, theta0=theta0, bc="obc")
        return float(np.mean(ipr_per_state(decompose(build_single_particle(p)))))

    assert float(rows["ipr_obc"]["value"]) == pytest.approx(mean_ipr(0.3), abs=1e-12)
    assert abs(mean_ipr(0.3) - mean_ipr(0.0)) > 1e-3     # an ignored flag would show
    p = ModelParams(L=13, g=0.5, W=2.0, theta0=0.3, bc="pbc")
    assert float(rows["winding"]["value"]) == winding_result(p).nu


def test_phase_diagram_refuses_resume_from_other_length(tmp_path, capsys):
    out = tmp_path / "pd.csv"
    argv = ["phase-diagram", "--L", "21", "--g", "0.5", "--W", "0:2:1", "--bc", "pbc",
            "--samples", "2", "--quantities", "f_im", "--out", str(out)]
    assert cli.main(argv) == 0
    before = out.read_text()
    capsys.readouterr()
    assert cli.main(argv[:2] + ["34"] + argv[3:]) == 1
    _, err = capsys.readouterr()
    assert "L=21" in err and "L=34" in err
    assert out.read_text() == before              # nothing appended


def test_preset_fig3_single_panel(tmp_path):
    rc = cli.main(["preset", "fig3", "--which", "a", "--L", "40",
                   "--tmax", "2.0", "--out-dir", str(tmp_path)])
    assert rc == 0
    meta = json.loads((tmp_path / "fig3_metadata.json").read_text())
    assert meta["preset"] == "fig3" and meta["which"] == "a"
    assert list(meta["files"]) == ["fig3_a.csv"]
    panel = meta["files"]["fig3_a.csv"]
    assert panel["L"] == 40 and panel["bc"] == "pbc" and panel["W"] == 0.0
    rows = read_csv(str(tmp_path / "fig3_a.csv"))
    assert {float(r["t"]) for r in rows} >= {0.0, 2.0}
    assert not (tmp_path / "fig3_b.csv").exists()


def test_preset_fig4_panels(tmp_path):
    rc = cli.main(["preset", "fig4", "--L", "8", "--samples", "2", "--tmax", "1",
                   "--which", "ad", "--out-dir", str(tmp_path)])
    assert rc == 0
    names = [f"s_ee:{t}" for t in ("0", "0.25", "0.5", "0.75", "1")]   # every 5th step of dt = 0.05
    for panel, bc in zip("ad", ("pbc", "obc")):
        rows = read_csv(str(tmp_path / f"fig4_{panel}.csv"))
        assert [r["sample"] for r in rows] == ["0"] * 5 + ["1"] * 5 + ["avg"] * 5
        assert [r["quantity"] for r in rows] == names * 3
        assert {(r["L"], r["N"], r["g"], r["V"], r["bc"], r["warnings"]) for r in rows} == {
            ("8", "4", "0.5", "2", bc, "")}
        assert [r["theta0"] for r in rows[::5]] == ["0", format(np.pi, ".17g"), ""]
        s = np.array([float(r["value"]) for r in rows]).reshape(3, 5)
        assert np.allclose(s[2], s[:2].mean(axis=0), rtol=0, atol=1e-15)
        assert s[0, 0] == 0.0 and s[0, -1] > 0.0
    assert not (tmp_path / "fig4_b.csv").exists()
    meta = json.loads((tmp_path / "fig4_metadata.json").read_text())
    assert meta["which"] == "ad" and list(meta["files"]) == ["fig4_a.csv", "fig4_d.csv"]
    common = {"L": 8, "N": 4, "g_grid": [0.5], "v_grid": [2.0], "theta0": 0.0,
              "theta0_samples": 2, "M": 25, "dt": 0.05, "t_max": 1.0, "record_stride": 5}
    assert meta["files"]["fig4_a.csv"] == {**common, "quantities": {"s_ee": "pbc"}, "w_grid": [0.5]}
    assert meta["files"]["fig4_d.csv"] == {**common, "quantities": {"s_ee": "obc"},
                                           "w_grid": [4.0 * np.exp(0.5)]}
    assert list(meta["files"]["fig4_a.csv"]) == ["quantities", "L", "N", "g_grid", "v_grid", "w_grid",
                                                 "theta0", "theta0_samples", "M", "dt", "t_max",
                                                 "record_stride"]


def test_preset_fig4_takes_a_particle_number(tmp_path, capsys):
    assert cli.main(["preset", "fig4", "--L", "8", "--N", "3", "--samples", "1", "--tmax", "0.5",
                     "--which", "a", "--out-dir", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / "fig4_metadata.json").read_text())
    assert meta["files"]["fig4_a.csv"]["L"] == 8 and meta["files"]["fig4_a.csv"]["N"] == 3
    assert meta["notes"][0].startswith("this run: L=8, N=3 (dim 56);")
    rows = read_csv(str(tmp_path / "fig4_a.csv"))
    assert {(r["L"], r["N"]) for r in rows} == {("8", "3")}
    capsys.readouterr()
    for N in ("0", "8", "-1"):
        out_dir = tmp_path / f"N{N}"
        assert cli.main(["preset", "fig4", "--L", "8", "--N", N, "--out-dir", str(out_dir)]) == 1
        stdout, stderr = capsys.readouterr()
        assert stdout == "" and stderr == f"error: N must satisfy 0 < N < L, got N={N}, L=8\n"
        assert not out_dir.exists()


def test_preset_fig4_metadata_rebuilds_the_row_names(tmp_path):
    # t_max off the record grid: records every 0.25, then one at t_max
    assert cli.main(["preset", "fig4", "--L", "6", "--samples", "1", "--tmax", "0.6",
                     "--which", "a", "--out-dir", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / "fig4_metadata.json").read_text())["files"]["fig4_a.csv"]
    grid = EvolverConfig(M=meta["M"], dt=meta["dt"], t_max=meta["t_max"],
                         record_stride=meta["record_stride"])
    names = [f"s_ee:{sweep_mod._num(t)}" for t in grid.record_grid()[0]]
    assert names == ["s_ee:0", "s_ee:0.25", "s_ee:0.5", "s_ee:0.6"]
    rows = read_csv(str(tmp_path / "fig4_a.csv"))
    assert [r["quantity"] for r in rows] == names * 2      # sample 0, then avg


def test_preset_fig4_resumes_to_the_bytes_of_an_uninterrupted_run(tmp_path, monkeypatch, capsys):
    argv = ["preset", "fig4", "--L", "8", "--samples", "2", "--tmax", "1", "--out-dir", str(tmp_path)]
    assert cli.main(argv) == 0
    files = {panel: (tmp_path / f"fig4_{panel}.csv").read_bytes() for panel in "abcd"}

    def evaluate(*args):
        raise AssertionError("a finished panel was evaluated again")

    monkeypatch.setattr(sweep_mod, "_evaluate_sample", evaluate)
    assert cli.main(argv) == 0
    assert {panel: (tmp_path / f"fig4_{panel}.csv").read_bytes() for panel in "abcd"} == files
    monkeypatch.undo()

    # killed anywhere inside its rows, a panel resumes to the same bytes
    data = files["d"]
    rows_start = data.index(b"\r\n") + 2
    for cut in (rows_start, rows_start + 1, len(data) // 2, len(data) - 3):
        (tmp_path / "fig4_d.csv").write_bytes(data[:cut])
        assert cli.main(argv + ["--which", "d"]) == 0
        assert (tmp_path / "fig4_d.csv").read_bytes() == data

    # a static sweep has no time grid, so it lays out no s_ee row: refused, not a traceback
    capsys.readouterr()
    out = tmp_path / "fig4_a.csv"
    assert cli.main(["phase-diagram", "--L", "8", "--N", "4", "--g", "0.5", "--V", "2", "--W", "0.5",
                     "--bc", "pbc", "--samples", "2", "--quantities", "f_im", "--out", str(out)]) == 1
    stdout, stderr = capsys.readouterr()
    assert stderr.startswith("error: ") and "quantity=s_ee:0) is not a row this run writes" in stderr
    assert stdout == "" and out.read_bytes() == files["a"]


def test_preset_fig4_keeps_going_past_a_failed_sample(tmp_path, monkeypatch):
    failing = sweep_mod._theta0(0.0, 1, 2)
    evolve = sweep_mod.run

    def run_fails_for_sample_1(params, *args):
        if params.theta0 == failing:
            raise FloatingPointError(f"forced failure at theta0={failing:.6f}")
        return evolve(params, *args)

    monkeypatch.setattr(sweep_mod, "run", run_fails_for_sample_1)
    assert cli.main(["preset", "fig4", "--L", "8", "--samples", "2", "--tmax", "1",
                     "--out-dir", str(tmp_path)]) == 0
    reason = f"FloatingPointError: forced failure at theta0={failing:.6f}"
    for panel in "abcd":
        rows = read_csv(str(tmp_path / f"fig4_{panel}.csv"))
        first, failed, avg = (rows[k:k + 5] for k in (0, 5, 10))
        assert all(r["value"] == "nan" and r["warnings"] == reason for r in failed)
        assert all(r["value"] != "nan" and r["warnings"] == "" for r in first)
        # each average is the one finite sample's value, with the failed sample's reason
        assert [r["value"] for r in avg] == [r["value"] for r in first]
        assert all(r["warnings"] == reason for r in avg)
    meta = json.loads((tmp_path / "fig4_metadata.json").read_text())
    assert list(meta["files"]) == [f"fig4_{panel}.csv" for panel in "abcd"]


def test_preset_metadata_is_read_off_the_sweeps(tmp_path):
    rc = cli.main(["preset", "fig1", "--which", "ab", "--L", "5", "--samples", "1",
                   "--out-dir", str(tmp_path)])
    assert rc == 0
    # the g = 0 column of the winding panel is a Hermitian chain, whose
    # spectrum crosses e0 = 0 as the flux runs round while W <= 2: no winding there
    rows = read_csv(str(tmp_path / "fig1_b.csv"))
    closed = [r for r in rows if float(r["g"]) == 0 and float(r["W"]) <= 2]
    assert len(closed) == 18                  # 9 W values, a sample row and its average each
    for r in closed:
        assert r["value"] == "nan" and "WindingIllDefinedError" in r["warnings"]
        assert "phase jump" in r["warnings"]
    rest = [r for r in rows if r not in closed]
    assert len(rest) == 708 and all(r["value"] in ("-1", "0", "1") and not r["warnings"]
                                    for r in rest)
    files = json.loads((tmp_path / "fig1_metadata.json").read_text())["files"]
    assert list(files) == ["fig1_a.csv", "fig1_b.csv"]
    a, b = files["fig1_a.csv"], files["fig1_b.csv"]
    assert a["quantities"] == {"ipr_obc": "obc"}
    assert b["quantities"] == {"winding": "pbc"}
    assert b["e0"] == 0.0 and b["flux_points"] == 201
    assert len(a["g_grid"]) == 11 and len(a["w_grid"]) == 33
    assert a["theta0_samples"] == 1

    rc = cli.main(["preset", "fig2", "--which", "da", "--L", "6", "--samples", "1",
                   "--out-dir", str(tmp_path)])
    assert rc == 0
    meta = json.loads((tmp_path / "fig2_metadata.json").read_text())
    assert set(meta) == {"preset", "which", "files", "notes"}
    # one entry per file, in the order written: panels in --which order
    files = meta["files"]
    assert list(files) == ["fig2_d.csv", "fig2_d_inset.csv", "fig2_a_obc.csv", "fig2_a_pbc.csv"]
    for bc in ("obc", "pbc"):
        a = files[f"fig2_a_{bc}.csv"]
        assert a["quantities"] == {"density": bc}
        assert (a["L"], a["N"], a["g_grid"], a["w_grid"]) == (6, 3, [0.5], [0.5])
    assert files["fig2_d.csv"]["quantities"] == {"o_dw": "obc"}
    # the inset is a sweep too, of the winding at base energy -4
    assert files["fig2_d_inset.csv"] == {
        "quantities": {"winding": "pbc"}, "L": 6, "N": 3, "g_grid": [0.5], "v_grid": [0.5, 5.0],
        "w_grid": [0.0], "theta0": 0.0, "theta0_samples": 1, "e0": -4.0, "flux_points": 201}
    assert "the d inset's base energy -4" in meta["notes"][1]


def test_preset_fig2_inset_is_a_sweep_that_resumes(tmp_path, monkeypatch, capsys):
    argv = ["preset", "fig2", "--which", "d", "--L", "6", "--samples", "1", "--out-dir", str(tmp_path)]
    assert cli.main(argv) == 0
    inset = tmp_path / "fig2_d_inset.csv"
    data = inset.read_bytes()
    rows = read_csv(str(inset))
    assert [(r["V"], r["sample"], r["quantity"]) for r in rows] == [
        (V, s, "winding:-4") for V in ("0.5", "5") for s in ("0", "avg")]
    p = ModelParams(L=6, N=3, g=0.5, V=0.5, W=0.0, bc="pbc")
    assert rows[0]["value"] == str(winding_result(p, e0=-4.0).nu) != "0"
    assert rows[2]["value"] == "0" and not any(r["warnings"] for r in rows)

    def evaluate(*args):
        raise AssertionError("a finished inset was evaluated again")

    monkeypatch.setattr(sweep_mod, "_evaluate_sample", evaluate)
    assert cli.main(argv) == 0
    assert inset.read_bytes() == data
    monkeypatch.undo()

    # an inset of the former layout (V, e0, nu, raw) is refused on its header, and kept
    old = b"V,e0,nu,raw\r\n0.5,-4,1,1\r\n5,-4,0,0\r\n"
    inset.write_bytes(old)
    capsys.readouterr()
    assert cli.main(argv) == 1
    assert "header ['V', 'e0', 'nu', 'raw'] is not ['L', 'N'," in capsys.readouterr().err
    assert inset.read_bytes() == old


def test_preset_fig2_keeps_going_past_an_ill_defined_inset_winding(tmp_path, monkeypatch):
    def ill_defined(params, e0=0.0):
        raise WindingIllDefinedError(f"E0={e0} at V={params.V}")

    monkeypatch.setattr(sweep_mod, "winding_result", ill_defined)
    assert cli.main(["preset", "fig2", "--which", "d", "--L", "6", "--samples", "1",
                     "--out-dir", str(tmp_path)]) == 0
    rows = read_csv(str(tmp_path / "fig2_d_inset.csv"))
    assert [(r["V"], r["value"], r["warnings"]) for r in rows] == [
        (V, "nan", f"WindingIllDefinedError: E0=-4.0 at V={float(V)}") for V in ("0.5", "0.5", "5", "5")]
    assert all(r["value"] != "nan" for r in read_csv(str(tmp_path / "fig2_d.csv")))
    meta = json.loads((tmp_path / "fig2_metadata.json").read_text())
    assert list(meta["files"]) == ["fig2_d.csv", "fig2_d_inset.csv"]


def test_removed_flags_are_rejected(tmp_path):
    for command in ("spectrum", "winding", "phase-diagram", "evolve", "ground-state"):
        assert cli.main([command, "--L", "8", "--format", "json"]) == 1
    assert cli.main(["preset", "--preset", "fig3", "--out-dir", str(tmp_path)]) == 1
    # a sweep builds at zero flux and a winding runs the whole loop: no --flux
    assert cli.main(["phase-diagram", "--L", "13", "--g", "0.5", "--bc", "pbc", "--flux", "1.0",
                     "--out", str(tmp_path / "pd.csv")]) == 1
    assert cli.main(["winding", "--L", "13", "--g", "0.5", "--flux", "1.0"]) == 1
    assert not (tmp_path / "pd.csv").exists()


def test_preset_rejects_bad_panel(tmp_path):
    assert cli.main(["preset", "fig3", "--which", "xz",
                     "--out-dir", str(tmp_path)]) == 1
    assert cli.main(["preset", "--out-dir", str(tmp_path)]) == 1
    # a given 0 is refused, not replaced by the preset's default
    assert cli.main(["preset", "fig1", "--samples", "0", "--out-dir", str(tmp_path / "o")]) == 1
    assert cli.main(["preset", "fig3", "--L", "0", "--out-dir", str(tmp_path / "o")]) == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, flag", [
    (["winding", "--L", "13", "--g", "0.5", "--W", "1", "--samples", "0"], "--samples"),
    (["winding", "--L", "13", "--g", "0.5", "--W", "1", "--samples", "-2"], "--samples"),
    (["preset", "fig4", "--samples", "0"], "--samples"),
    (["preset", "fig3", "--which", "aa"], "--which"),      # a panel named twice
])
def test_bad_sample_count_and_repeated_panel_are_refused(tmp_path, capsys, argv, flag):
    out = tmp_path / "out"
    assert cli.main(argv + ["--out" if argv[0] == "winding" else "--out-dir", str(out)]) == 1
    stdout, stderr = capsys.readouterr()
    assert flag in stderr and stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["spectrum", "--L", "6", "--V", "3"],
    ["phase-diagram", "--L", "8", "--V", "0:2:1"],
    ["phase-diagram", "--L", "8", "--V", "2"],
])
def test_interaction_without_particle_number_is_refused(tmp_path, capsys, argv):
    # one particle has no interaction: V would be accepted and then ignored
    out = tmp_path / "out.csv"
    assert cli.main(argv + ["--out", str(out)]) == 1
    stdout, stderr = capsys.readouterr()
    assert "needs a particle number N" in stderr and stdout == ""
    assert not out.exists()


def test_numerical_failure_maps_to_exit_2(monkeypatch, capsys):
    def boom(*a, **k):
        raise WindingIllDefinedError("no grid refinement helped")

    monkeypatch.setattr(cli, "winding_result", boom)
    rc = cli.main(["winding", "--L", "13", "--g", "0.5", "--W", "1.0"])
    assert rc == 2
    assert "numerical failure" in capsys.readouterr().err
