import gc
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from flatring import cli, lame
from flatring.cli import main
from flatring.coords import CartesianPoint, cartesian_to_flatring
from flatring.elliptic import Modulus
from flatring.errors import DomainError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eigen_small_k_table(capsys):
    code, out, _ = run_cli(capsys, "eigen", "--k", "1e-3", "--family", "Ec",
                           "--nu", "0.5", "--n-range", "0:4")
    assert code == 0
    rows = json.loads(out)
    assert [r["superscript"] for r in rows] == [0, 1, 2, 3, 4]
    for r in rows:
        assert abs(r["eigenvalue"] - r["superscript"] ** 2) < 5e-3
        assert r["bracket_lo"] - 1e-9 <= r["eigenvalue"] <= r["bracket_hi"] + 1e-9


def test_eigen_invalid_modulus_exits_2(capsys):
    code, _, err = run_cli(capsys, "eigen", "--k", "1.2")
    assert code == 2
    assert "error" in err
    # below MIN_MODULUS: refused with one line, not a ZeroDivisionError traceback
    # or overflow warnings ahead of a Galerkin solve up to the cap
    for k in ("1e-153", "1e-160", "1e-300"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "eigen", "--k", k)
        assert code == 2 and out == ""
        assert err.startswith(f"error: modulus k = {float(k)!r} is below") and err.count("\n") == 1


def test_eigen_huge_range_is_refused_before_it_is_listed(capsys):
    # the range is not materialised ahead of the depth check: a list of a
    # million superscripts alone would take ~40 MB
    tracemalloc.start()
    try:
        code, _, err = run_cli(capsys, "eigen", "--n-range", "0:1000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and "over the cap of 1024" in err
    assert peak < 1_000_000


@pytest.mark.parametrize("fmt", [[], ["--format", "json"], ["--format", "csv"]])
def test_closed_stdout_exits_141_quietly(fmt):
    # a reader that takes one byte and closes the pipe: no traceback, no error
    # line and no JSON error object written to the closed stdout
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.Popen([sys.executable, "-m", "flatring.cli", "coords", "lines",
                             "--samples", "4000", *fmt], env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    proc.stdout.read(1)
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 141
    assert err == b""


def test_coords_forward_inverse_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "coords", "forward", "--s", "0.7", "--t", "0.5",
                           "--phi", "0.4")
    assert code == 0
    c = json.loads(out)[0]
    code, out, _ = run_cli(capsys, "coords", "inverse", "--point",
                           f"{c['x']},{c['y']},{c['z']}")
    assert code == 0
    p = json.loads(out)[0]
    assert abs(p["s"] - 0.7) < 1e-11
    assert abs(p["t"] - 0.5) < 1e-11
    assert abs(p["phi"] - 0.4) < 1e-11


def test_coords_lines_reproduce_figure_parameters(capsys):
    code, out, _ = run_cli(capsys, "coords", "lines", "--samples", "40")
    assert code == 0
    rows = json.loads(out)
    s_curves = [r for r in rows if r["kind"] == "s"]
    t_curves = [r for r in rows if r["kind"] == "t"]
    assert len(s_curves) == 6 and len(t_curves) == 3
    # a = 2 corresponds to k = 1/sqrt(2); check curve parameters
    from flatring.elliptic import Modulus
    m = Modulus.from_k(1.0 / math.sqrt(2.0))
    assert s_curves[0]["value"] == pytest.approx(-1.5 * m.quarter_K)
    assert t_curves[0]["value"] == pytest.approx(0.3 * m.quarter_Kp)
    for r in rows:
        pts = np.asarray(r["points"])
        assert np.all(np.isfinite(pts))
        assert np.all(pts[:, 0] > 0.0)


def test_coords_cut_point_reports_error(capsys):
    code, _, err = run_cli(capsys, "coords", "inverse", "--point", "0.9,0.0,0.0")
    assert code == 2
    assert "cut" in err


def test_green_default_reproduces_example(capsys, m05):
    code, out, _ = run_cli(capsys, "green")
    assert code == 0
    rep = json.loads(out)
    assert rep["relative_error"] <= 1e-8
    mags = [row["magnitude"] for row in rep["shells"]]
    assert max(mags[6:]) < max(mags[:6])
    assert mags[-1] < 1e-6 * max(mags)


def test_green_toroidal_switch(capsys):
    code, out, _ = run_cli(
        capsys, "green", "--toroidal",
        "--point", "1.0,0.2,0.1", "--point-star", "0.3,-0.2,0.4",
        "--m-max", "16", "--n-max", "16")
    assert code == 0
    rep = json.loads(out)
    assert rep["relative_error"] <= 1e-7


def test_green_toroidal_ignores_k(capsys):
    # the toroidal expansion has no modulus: an invalid --k changes nothing
    code, out, err = run_cli(capsys, "green", "--toroidal", "--k", "1.5")
    assert (code, err) == (0, "")
    assert out == run_cli(capsys, "green", "--toroidal")[1]


def test_green_ordering_violation_exit_code(capsys, m05):
    code, _, err = run_cli(
        capsys, "green",
        "--point-star", "0.72011603046361605,0.22275799214738415,0.15279435659577331",
        "--point", "0.71857320729349505,-0.39255833227947451,0.79566810056964099",
        "--m-max", "4", "--n-max", "4")
    assert code == 2
    assert "t <" in err or "requires" in err


def test_verify_suite_passes_and_seed_reproducible(capsys):
    code, out1, _ = run_cli(capsys, "verify", "--suite", "elliptic", "--seed", "11")
    assert code == 0
    checks = json.loads(out1)
    assert checks and all(c["pass"] for c in checks)
    code, out2, _ = run_cli(capsys, "verify", "--suite", "elliptic", "--seed", "11")
    assert out2 == out1


def test_verify_corrupted_tolerance_fails(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "elliptic", "--tol", "1e-9")
    assert code == 1
    checks = json.loads(out)
    assert any(not c["pass"] for c in checks)


def test_verify_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nonsense"])
    assert exc.value.code == 2


def test_dirichlet_point_source_command(capsys, m05):
    code, out, err = run_cli(
        capsys, "dirichlet", "--boundary", "point-source", "--n-probes", "3")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 3
    for row in rows:
        assert row["value"] == pytest.approx(row["direct"], rel=1e-6)
    assert "parseval_residual" in err


def test_far_source_inside_the_guard_gives_the_direct_value(capsys):
    # a source at 1e80 is outside the ring and inside the inversion's guard:
    # no power of it overflows, and the probes read 1/|q - r*| with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = run_cli(capsys, "dirichlet", "--source=1e80,0,1", "--n-probes", "3")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 3
    for row in rows:
        assert row["value"] == pytest.approx(row["direct"], rel=1e-6)


@pytest.mark.parametrize("t0", ["0.01", "0.05"])
def test_dirichlet_small_t0_draws_probes_inside(capsys, m05, t0):
    # below t0 = 1/12 the default probe range [0.05K', 0.6 t0] is empty;
    # the probes are drawn from its upper half [0.3 t0, 0.6 t0] instead
    code, out, _ = run_cli(capsys, "dirichlet", f"--t0={t0}", "--n-probes", "4")
    assert code == 0
    rows = json.loads(out)
    q = CartesianPoint(*np.array([[row["x"], row["y"], row["z"]] for row in rows]).T)
    t = cartesian_to_flatring(q, m05).t / (float(t0) * m05.quarter_Kp)
    assert len(rows) == 4 and np.all((0.3 - 1e-9 <= t) & (t <= 0.6 + 1e-9))
    for row in rows:
        assert row["value"] == pytest.approx(row["direct"], rel=1e-6)


def test_dirichlet_t0_within_the_interior_margin_exits_2(capsys):
    # t0 = 0.001K' leaves no t inside t0 less the 0.001K' margin for a probe
    code, out, err = run_cli(capsys, "dirichlet", "--t0=0.001", "--format", "json")
    assert code == 2
    assert err.startswith("error: --t0 = 0.001 leaves no room") and err.count("\n") == 1
    assert json.loads(out)["error"]["type"] == "DomainError"


@pytest.mark.parametrize("t0", ["1.0", "0", "-0.2", "2.1565156474996434", "nan"])
def test_dirichlet_t0_outside_unit_interval_exits_2(capsys, t0):
    # --t0 is in units of K'; the error reports it as given
    code, out, err = run_cli(capsys, "dirichlet", f"--t0={t0}", "--format", "json")
    assert code == 2
    assert err.startswith(f"error: --t0 = {float(t0)!r} outside (0, 1)")
    assert json.loads(out)["error"]["type"] == "DomainError"


def test_dirichlet_single_mode_command(capsys, m05):
    code, out, _ = run_cli(
        capsys, "dirichlet", "--boundary", "single-mode",
        "--m-max", "4", "--n-max", "4", "--n-probes", "2")
    assert code == 0
    assert len(json.loads(out)) == 2


def test_dirichlet_malformed_grid_file(capsys, tmp_path):
    bad = tmp_path / "grid.csv"
    bad.write_text("s,phi,g\n0.0,0.0,1.0\n0.1,oops,2.0\n")
    code, _, err = run_cli(capsys, "dirichlet", "--boundary", str(bad),
                           "--m-max", "2", "--n-max", "2")
    assert code == 2
    assert ":3:" in err  # line number of the malformed row
    # a wrong header, and a grid with a node missing from the (s, phi) product
    for text, message in (("s,psi,g\n0.0,0.0,1.0\n", ":1: expected header 's,phi,g'"),
                          ("s,phi,g\n0.0,0.0,1.0\n0.1,0.0,2.0\n0.0,0.5,3.0\n",
                           "grid is not a full (s, phi) tensor product")):
        bad.write_text(text)
        code, out, err = run_cli(capsys, "dirichlet", "--boundary", str(bad),
                                 "--m-max", "2", "--n-max", "2")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and message in err and err.count("\n") == 1


def test_csv_output_format(capsys):
    code, out, _ = run_cli(capsys, "eigen", "--k", "0.5", "--n-range", "0:2",
                           "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("family,")
    assert len(lines) == 4
    # green: one row per shell, then the value line
    for extra in ([], ["--toroidal"]):
        code, out, _ = run_cli(capsys, "green", *extra, "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,magnitude" and len(lines) == 1 + 21 + 1
        fields = dict(f.split("=") for f in lines[-1].removeprefix("# ").split())
        assert list(fields) == ["value", "direct", "rel"]
        assert float(fields["value"]) == pytest.approx(float(fields["direct"]), rel=1e-4)
    # coords lines: one row per sampled point of the nine curves
    code, out, _ = run_cli(capsys, "coords", "lines", "--samples", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "curve,kind,value,x,z" and len(lines) == 1 + 9 * 3


def test_eigen_deep_well_solves(capsys):
    # k = 0.9, nu = 19.5 raised ConvergenceError under the shooting solver
    code, out, _ = run_cli(capsys, "eigen", "--k", "0.9", "--nu", "19.5",
                           "--n-range", "0:2")
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["eigenvalue"] == pytest.approx(17.54736442, abs=1e-8)
    assert rows[2]["eigenvalue"] == pytest.approx(84.11215824, abs=1e-8)


def test_green_k09_solves(capsys):
    # shooting raised ConvergenceError at nu = 11.5 for this modulus
    code, out, _ = run_cli(capsys, "green", "--k", "0.9")
    assert code == 0
    assert json.loads(out)["relative_error"] <= 1e-6


def test_eigen_near_unit_modulus_solves(capsys):
    code, out, _ = run_cli(capsys, "eigen", "--k", "0.99", "--nu", "30.5",
                           "--family", "Es", "--n-range", "1:21")
    assert code == 0
    for r in json.loads(out):
        assert r["bracket_lo"] <= r["eigenvalue"] <= r["bracket_hi"]


def test_convergence_failure_exits_3(capsys):
    code, out, err = run_cli(capsys, "eigen", "--k", "0.999999", "--nu", "2000.5",
                             "--n-range", "0:0")
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and "Galerkin tail" in err


@pytest.mark.parametrize("n_range", ["0:100000", "1024"])
def test_eigen_past_the_galerkin_cap_exits_2(capsys, n_range):
    # Ec^1024 needs 513 Ec-even modes, so a basis of 2048 functions, over the
    # cap of 1024: refused before any operator is built
    code, out, err = run_cli(capsys, "eigen", "--n-range", n_range)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "over the cap of 1024" in err


@pytest.mark.parametrize("family", ["Ec", "Es"])
def test_eigen_past_the_galerkin_cap_builds_no_spec(capsys, monkeypatch, family):
    # the command and OrderSet both check the depth against the cap before
    # they build a spec (the command used to build 100,000, and the basis
    # 200,000 more, before the refusal)
    calls = {"family_of_superscript": 0, "shell_specs": 0}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(module, name, wrapper)

    counted(cli, "family_of_superscript")
    counted(lame, "shell_specs")
    code, out, err = run_cli(capsys, "eigen", "--family", family, "--n-range", "1:100000")
    assert code == 2 and out == ""
    assert "modes of Ec-even need a Galerkin basis of 131072 functions, over the cap" in err
    assert calls == {"family_of_superscript": 1, "shell_specs": 0}
    with pytest.raises(DomainError, match="over the cap of 1024"):
        lame.OrderSet([0.5], Modulus.from_k(0.5), 100000)
    assert calls["shell_specs"] == 0


@pytest.mark.parametrize("nu", ["nan", "inf", "-inf", "1e200"])
def test_eigen_non_finite_nu_exits_2(capsys, nu):
    # at 1e200, nu is finite but nu(nu+1)k^2 is not: refused before any solve
    code, out, err = run_cli(capsys, "eigen", f"--nu={nu}")
    assert code == 2
    assert out == ""
    assert err.startswith("error: nu must be finite") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("green", "--point=a,b,c"),
    ("green", "--point-star=1,2"),
    ("coords", "inverse", "--point", "0.5,nan,0.3"),
    ("dirichlet", "--probes", "0.5,0.0,0.1;x"),
    ("dirichlet", "--source", "1,,2"),
])
def test_malformed_point_exits_2(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error: point must be 'x,y,z'")


AXIS_POINTS = [f"{r},0,0.5" for r in ("0", "1e-200", "1e-155", "1e-20", "1e-16", "1e-14")] + [
    "1e-4,0,1e6", "1e-3,0,1e6", "1e-2,0,1e7"]


@pytest.mark.parametrize("option", ["coords inverse --k 0.5 --point", "green --point",
                                    "green --point-star", "dirichlet --probes"])
def test_axis_point_exits_2_with_one_error_line(capsys, option):
    # within AXIS_GUARD of the z-axis after the inversion: one refusal, from the
    # inversion, with no numpy warning ahead of it and no silently wrong value
    *argv, flag = option.split()
    for point in AXIS_POINTS:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, *argv, f"{flag}={point}", "--format", "json")
        assert code == 2, point
        assert err.startswith("error: point (r, z) = (") and err.count("\n") == 1
        assert err.rstrip().endswith("of the z-axis after the inversion")
        assert json.loads(out)["error"]["type"] == "DomainError"


def test_green_next_to_the_axis_guard_solves(capsys):
    # solved, but not to the digits of the default pair: the inverted point lies
    # 1e-7 from the axis, where t nears K' and F reads tau = K' - t
    code, out, _ = run_cli(capsys, "green", "--point-star=1e-1,0,1e6")
    assert code == 0 and math.isfinite(json.loads(out)["value"])


@pytest.mark.parametrize("r", ["0", "1e-12", "1e-9"])
def test_toroidal_axis_point_is_refused_by_the_inversion(capsys, r):
    # cosh(tau) rounds to 1: the toroidal chart refuses the point, not a Legendre table
    code, out, err = run_cli(capsys, "green", "--toroidal", f"--point-star={r},0,0.5")
    assert code == 2 and out == ""
    assert err.startswith("error: point maps to tau <= 0") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("green", "--toroidal", "--point=1e200,0,1"),
    ("green", "--point=1e200,0,1"),
    ("dirichlet", "--probes=1e200,0,1"),
    ("dirichlet", "--source=1e200,0,1"),
    ("coords", "inverse", "--point=1e200,0,1"),
])
def test_far_point_exits_2_with_one_error_line(capsys, argv):
    # refused before any square of the point overflows: not an OverflowError
    # traceback, and no numpy warning ahead of a "(nan, nan)" point
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert code == 2
    assert err.startswith("error: point at |q| = 1e+200 is too far from the origin")
    assert err.count("\n") == 1
    error = json.loads(out)["error"]
    assert error == {"type": "DomainError", "message": err[len("error: "):].strip(),
                     "exit_code": 2}


def test_dirichlet_source_on_a_quadrature_node_exits_2_with_one_error_line(capsys):
    # a node of the default 64 x 48 mesh: the refusal of its non-finite data is
    # the one line on stderr, with no numpy divide-by-zero warning ahead of it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "dirichlet", "--n-probes", "2", "--source="
                                 "-1.5187906411271317,-1.1654090480267167,-0.4222226652347772")
    assert code == 2 and out == ""
    assert err.startswith("error: non-finite boundary data g = inf") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("dirichlet", "--n-s", "0"),
    ("dirichlet", "--n-s", "-3"),
    ("dirichlet", "--n-phi", "0"),
    ("coords", "lines", "--samples", "-1"),
    ("dirichlet", "--n-probes", "-2"),
    ("verify", "--tol", "-1"),
    ("verify", "--seed", "-1"),
    ("dirichlet", "--seed", "-1"),
    ("coords", "forward", "--phi", "nan"),
    ("coords", "forward", "--phi", "inf"),
])
def test_bad_count_or_scale_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert code == 2
    assert err.startswith("error: ")
    assert json.loads(out) == {"error": {"type": "DomainError", "message": err[7:].strip(),
                                         "exit_code": 2}}


@pytest.mark.parametrize("text", ["a:b", "1:2:3", "x", ""])
def test_malformed_range_exits_2(capsys, text):
    code, out, err = run_cli(capsys, "eigen", "--n-range", text)
    assert code == 2
    assert out == ""
    assert err.startswith("error: range must be")


@pytest.mark.parametrize("text", ["3:1", "5:4"])
def test_reversed_range_exits_2(capsys, text):
    code, out, err = run_cli(capsys, "eigen", "--n-range", text)
    assert (code, out) == (2, "")
    assert err.startswith("error: range") and "reversed" in err and err.count("\n") == 1


def test_dirichlet_builds_each_basis_once(capsys, basis_builds):
    # 33 orders, more than the basis cache holds: the projection and the
    # probes read one cached set, a second call builds nothing, and the
    # basis cache keeps none of the set's bases
    argv = ("dirichlet", "--m-max", "32", "--n-max", "6", "--n-probes", "3")
    lame.clear_caches()
    code, first, _ = run_cli(capsys, *argv)
    assert code == 0 and len(basis_builds) == 33
    assert run_cli(capsys, *argv)[1] == first
    assert len(basis_builds) == 33
    assert lame.basis.cache_info().currsize == 0


def test_dirichlet_prints_plain_parseval_residual(capsys, m05):
    code, _, err = run_cli(capsys, "dirichlet", "--n-probes", "1")
    assert code == 0
    line = [ln for ln in err.splitlines() if ln.startswith("# parseval_residual=")][0]
    assert 0.0 <= float(line.split("=", 1)[1]) <= 1e-6


def test_dirichlet_grid_file_matches_constant_boundary(capsys, tmp_path, m05):
    # a constant CSV grid is read on the whole quadrature mesh at once
    grid = tmp_path / "grid.csv"
    s_vals = np.linspace(-4.0, 4.0, 9)
    phi_vals = np.linspace(-math.pi, math.pi, 7)
    grid.write_text("s,phi,g\n" + "".join(f"{s!r},{p!r},1.0\n" for s in s_vals.tolist()
                                           for p in phi_vals.tolist()))
    runs = []
    for boundary in (str(grid), "constant"):
        code, out, _ = run_cli(capsys, "dirichlet", "--boundary", boundary,
                               "--m-max", "2", "--n-max", "2", "--n-probes", "3")
        assert code == 0
        runs.append([row["value"] for row in json.loads(out)])
    assert runs[0] == pytest.approx(runs[1], rel=1e-12)


@pytest.mark.parametrize("extra", [(), ("--toroidal",)])
def test_green_equal_points_exits_2(capsys, extra):
    # r = r* fails the expansion's ordering check before any distance is taken
    code, out, err = run_cli(capsys, "green", *extra, "--point=0.5,0,0.3",
                             "--point-star=0.5,0,0.3", "--format", "json")
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert json.loads(out)["error"]["type"] == "OrderingError"


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_dirichlet_non_finite_grid_file_exits_2(capsys, tmp_path, value):
    grid = tmp_path / "grid.csv"
    grid.write_text(f"s,phi,g\n0.0,0.0,1.0\n0.0,1.0,{value}\n1.0,0.0,1.0\n1.0,1.0,1.0\n")
    code, out, err = run_cli(capsys, "dirichlet", "--boundary", str(grid),
                             "--m-max", "2", "--n-max", "2", "--format", "json")
    assert code == 2
    assert err.startswith("error: ") and ":3: non-finite" in err
    assert json.loads(out)["error"] == {"type": "DomainError", "message": err[7:].strip(),
                                        "exit_code": 2}


def test_dirichlet_repeated_grid_node_exits_2(capsys, tmp_path):
    # a 2 x 2 grid that gives the node (0, 1) twice, with g = 1 and g = 2
    grid = tmp_path / "grid.csv"
    grid.write_text("s,phi,g\n0.0,0.0,1.0\n0.0,1.0,1.0\n1.0,0.0,1.0\n1.0,1.0,1.0\n"
                    "0.0,1.0,2.0\n")
    code, out, err = run_cli(capsys, "dirichlet", "--boundary", str(grid),
                             "--m-max", "2", "--n-max", "2", "--format", "json")
    assert code == 2
    assert err == f"error: {grid}:6: node (s, phi) = (0.0, 1.0) repeats line 3\n"
    assert json.loads(out)["error"] == {"type": "DomainError", "message": err[7:].strip(),
                                        "exit_code": 2}


@pytest.mark.parametrize("argv", [
    ("--m-max", "0", "--n-max", "4"),
    ("--m-max", "4", "--n-max", "0"),
    ("--toroidal", "--n-max", "0"),
    ("--toroidal", "--m-max", "0"),
])
def test_green_truncation_too_short_to_extrapolate_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, "green", *argv, "--format", "json")
    assert code == 2
    assert err.startswith("error: ") and "m_max >= 1 and n_max >= 1" in err
    assert json.loads(out)["error"] == {"type": "DomainError", "message": err[7:].strip(),
                                        "exit_code": 2}


@pytest.mark.parametrize("argv", [("--m-max", "0", "--n-max", "100"), ("--n-max", "0")])
def test_green_truncation_refused_before_any_basis_is_built(capsys, basis_builds, argv):
    assert main(["green", *argv]) == 2
    assert basis_builds == []
    assert "m_max >= 1 and n_max >= 1" in capsys.readouterr().err


def test_dirichlet_accepts_zero_azimuthal_order(capsys):
    # the expansions' minimum truncation does not apply to the Dirichlet solve
    code, out, _ = run_cli(capsys, "dirichlet", "--boundary", "constant", "--m-max", "0",
                           "--n-max", "2", "--n-probes", "2")
    assert code == 0
    assert all(math.isfinite(row["value"]) for row in json.loads(out))


def test_dirichlet_header_only_grid_file_exits_2(capsys, tmp_path):
    grid = tmp_path / "grid.csv"
    grid.write_text("s,phi,g\n")
    code, out, err = run_cli(capsys, "dirichlet", "--boundary", str(grid), "--format", "json")
    assert code == 2
    assert err.startswith("error: ") and "no grid rows" in err
    assert json.loads(out)["error"] == {"type": "DomainError", "message": err[7:].strip(),
                                        "exit_code": 2}


@pytest.mark.parametrize("argv", [
    ["eigen", "--n-range", "0:2"],
    ["coords", "forward"],
    ["coords", "inverse"],
    ["coords", "lines", "--samples", "7"],
    ["green", "--m-max", "6", "--n-max", "6"],
    ["green", "--toroidal"],
    ["verify", "--suite", "all"],
    ["dirichlet", "--n-probes", "3"],
    ["green", "--point=1,2", "--format", "json"],  # the error object
])
def test_json_writer_matches_json_dumps(capsys, monkeypatch, argv):
    # every object a command prints, through the writer and through json.dumps
    write, printed = cli._json, []
    monkeypatch.setattr(cli, "_json", lambda obj: printed.append(
        (write(obj), json.dumps(obj, indent=2))) or printed[-1][0])
    main(argv)
    out = capsys.readouterr().out
    assert printed and all(mine == theirs for mine, theirs in printed)
    assert out == "".join(mine + "\n" for mine, _ in printed)


def test_json_writer_on_hand_made_rows():
    rows = [{"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "zero": -0.0, "empty": [],
             "none": None, "flags": (True, False), "text": "é\t\"q\"", "int": -3},
            {"value": np.float64(0.1), "bad": np.float64("nan"), "low": np.float64("-inf"),
             "nested": [[np.float64(-0.0), 5e-324], {}], "tiny": 1e-300, "big": 1.7e308},
            [], {}, [[]]]
    for obj in (rows, *rows, 0.1, np.float64(2.5), "x", None):
        assert cli._json(obj) == json.dumps(obj, indent=2)
    with pytest.raises(TypeError):
        cli._json([np.int64(1)])


def test_json_writer_on_flat_rows_of_every_scalar():
    # flat rows go through json's C encoder in one pass, nested ones member by member
    flat = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "zero": -0.0,
            "denormal": 5e-324, "yes": True, "no": False, "none": None,
            "big": 10 ** 40, "negative": -(2 ** 70), "é": "ü\u2603", "\u2603\n": 1.5}
    rows = [flat, list(flat.values()), tuple(flat), {"row": flat, "values": [list(flat.values())]},
            [[flat], [], {}, [None]], {"é": {"ñ": [5e-324, -0.0]}}, [-0.0], {"x": math.nan}]
    for obj in (rows, *rows, 10 ** 40, True, -math.inf):
        assert cli._json(obj) == json.dumps(obj, indent=2)
    with pytest.raises(TypeError, match="int64 is not JSON serializable"):
        cli._json({"n": np.int64(1), "x": 1.0})


@pytest.mark.parametrize("argv", [
    ["green", "--toroidal", "--m-max", "6", "--n-max", "6"],
    ["dirichlet", "--n-probes", "3"],
])
def test_warm_commands_leave_no_reference_cycles(capsys, argv):
    # json's indenting encoder, or a writer nested in _json that calls
    # itself, leaves a reference cycle per report; the cycles hold every
    # report's text until a full collection, ~2 MB of peak RSS in a bench run
    main(argv)
    gc.collect()
    gc.disable()
    try:
        for _ in range(5):
            main(argv)
        assert gc.collect() == 0
    finally:
        gc.enable()
    capsys.readouterr()
