import json
import math
import warnings
from fractions import Fraction

import pytest
from mpmath import mp, mpf

import mahler.identities as identities
import mahler.measures as measures
import mahler.specfun as specfun
from mahler.cli import _sweep_values, build_parser, main
from mahler.identities import SUITES, run_suite
from mahler.measures import family_measures, q_measure, r_measure
from mahler.quadrature import NumericalError
from mahler.roots import RootSolveError


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_r_jensen(capsys):
    code, out, _ = run(capsys, ["compute", "--family", "r", "--lambda", "6", "--method", "jensen", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "jensen"
    assert abs(payload["value"] - r_measure(6.0).value) < 1e-9
    assert payload["error_estimate"] >= 0


def test_compute_q_torus(capsys):
    code, out, _ = run(capsys, ["compute", "--family", "q", "--lambda", "-6", "--method", "torus", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "torus"
    assert abs(payload["value"] - q_measure(-6.0).value) < 1e-5


def test_compute_degenerate_p_is_zero(capsys):
    code, out, _ = run(capsys, ["compute", "--family", "p", "--lambda", "-4", "--format", "json"])
    assert code == 0
    assert abs(json.loads(out)["value"]) < 1e-9


def test_compute_poly_file(capsys, tmp_path):
    f = tmp_path / "poly.txt"
    f.write_text("1:0,0\n1:1,0\n1:0,1\n")
    code, out, _ = run(capsys, ["compute", "--poly-file", str(f), "--format", "json"])
    assert code == 0
    assert abs(json.loads(out)["value"] - 0.3230659472) < 1e-6


def test_compute_usage_errors(capsys):
    code, _, err = run(capsys, ["compute", "--family", "r"])
    assert code == 2 and "lambda" in err
    code, _, _ = run(capsys, ["compute", "--family", "qk"])
    assert code == 2


def test_compute_has_no_node_count_option(capsys):
    # every value comes from a ladder that stops on its own estimate; --nodes is an unknown argument
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--family", "r", "--lambda", "6", "--nodes", "1024"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --nodes 1024" in capsys.readouterr().err


def test_verify_main_passes(capsys):
    code, out, err = run(capsys, ["verify", "main", "--lambda", "-6", "-8", "13", "16"])
    assert code == 0
    lines = [json.loads(line) for line in out.strip().split("\n")]
    assert len(lines) == 4
    assert all(obj["passed"] for obj in lines)
    assert "checks passed" in err


def test_verify_rejects_gap_parameter(capsys):
    code, _, err = run(capsys, ["verify", "main", "--lambda", "5"])
    assert code == 2
    assert "stated for" in err


@pytest.mark.parametrize("argv, code, message", [
    (["verify", "derivatives", "--lambda", "1e200", "-6", "3"], 3,
     "numerical failure: the singular points overflow in double precision at lam=1e+200\n"),
    (["verify", "main", "--lambda", "0", "1e200", "-6"], 2,
     "error: the relation is stated for lam <= -5 or lam >= 13\n"),
    (["verify", "J", "--lambda", "1e200", "-6"], 3,
     "numerical failure: the singular points overflow in double precision at lam=1e+200\n"),
    (["verify", "J", "--lambda", "3", "-4", "0", "5.5"], 2, "error: J3 requires lam > 5\n"),
    (["verify", "boyd", "--k", "5", "-3"], 2, "error: the relation is stated for k <= 4\n"),
])
def test_verify_reports_the_first_failing_row(capsys, argv, code, message):
    # several override rows fail, each in its own way: the first row's own error decides
    # the message and the exit code, whichever check a batch of all rows would meet first
    assert run(capsys, argv) == (code, "", message)


def test_verify_hyp_residuals(capsys):
    code, out, _ = run(capsys, ["verify", "hyp"])
    assert code == 0
    for line in out.strip().split("\n"):
        assert abs(json.loads(line)["residual"]) < 1e-12


def test_verify_failure_exit_code(capsys):
    # the asymptotic gap m - log|lam| is nonzero by construction, so 1e-20 cannot be met
    code, out, _ = run(capsys, ["verify", "asymptotics", "--lambda", "16", "32", "--tol", "asymptotics=1e-20"])
    assert code == 1


def test_verify_out_file_and_determinism(capsys, tmp_path):
    f1 = tmp_path / "a.jsonl"
    f2 = tmp_path / "b.jsonl"
    assert run(capsys, ["verify", "branches", "--out", str(f1)])[0] == 0
    assert run(capsys, ["verify", "branches", "--out", str(f2)])[0] == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_sweep_identity(capsys):
    code, out, _ = run(capsys, ["sweep", "--identity", "main", "--from", "13", "--to", "20", "--step", "0.5"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "lambda,lhs,rhs,residual,error_estimate,status"
    rows = lines[1:]
    assert len(rows) == 15
    for row in rows:
        fields = row.split(",")
        assert fields[-1] == "ok"
        assert abs(float(fields[3])) < 1e-7


def test_sweep_family_monotone(capsys):
    code, out, _ = run(capsys, ["sweep", "--family", "r", "--from", "5", "--to", "10", "--step", "1"])
    assert code == 0
    rows = out.strip().split("\n")[1:]
    assert len(rows) == 6
    values = [float(r.split(",")[1]) for r in rows]
    assert values == sorted(values)
    assert all(a < b for a, b in zip(values, values[1:]))


def test_sweep_rows_record_failures(capsys):
    # lam = 12.5 is in the gap: that row reports an error, the others succeed
    code, out, _ = run(capsys, ["sweep", "--identity", "main", "--from", "12.5", "--to", "13.5", "--step", "0.5"])
    assert code == 0
    rows = out.strip().split("\n")[1:]
    assert rows[0].split(",")[-1].startswith("error:")
    assert rows[1].split(",")[-1] == "ok"


def test_sweep_empty_range_is_usage_error(capsys):
    code, _, _ = run(capsys, ["sweep", "--family", "r", "--from", "7", "--to", "5", "--step", "1"])
    assert code == 2


@pytest.mark.parametrize(
    "bounds",
    [
        ("--from", "nan", "--to", "7", "--step", "1"),
        ("--from", "5", "--to", "inf", "--step", "1"),
        ("--from", "5", "--to", "7", "--step", "nan"),
        ("--from", "5", "--to", "7", "--step=-inf"),
        ("--from", "5", "--to", "7", "--step", "0"),
        ("--from", "1e17", "--to", "1.0000000000000002e17", "--step", "1"),
    ],
)
def test_sweep_rejects_non_finite_range_or_non_positive_step(capsys, monkeypatch, bounds):
    rows = []
    monkeypatch.setattr("mahler.cli.family_measures", lambda *args: rows.append(args))
    code, out, err = run(capsys, ["sweep", "--family", "r", *bounds])
    assert code == 2
    assert err.startswith("error: ")
    assert out == "" and rows == []


def test_sweep_rejects_a_step_below_the_float_spacing(capsys, monkeypatch):
    # the spacing of floats at 1e17 is 16: start + k * 1 stays at 1e17 row after row
    calls = []
    monkeypatch.setattr("mahler.cli.sweep_reports", lambda identity, values: calls.append(values) or [])
    code, out, err = run(capsys, ["sweep", "--identity", "main", "--from", "1e17", "--to", "1e17", "--step", "1"])
    assert code == 2
    assert err == "error: --step 1.0 does not move the grid at 1e+17\n"
    assert out == "" and calls == []
    run(capsys, ["sweep", "--identity", "main", "--from", "1e17", "--to", "1e17", "--step", "1e6"])
    assert calls == [[1e17]]


def test_sweep_grid_stops_at_to():
    # the stop test forgives rounding, but at large magnitude never a whole step past --to
    assert _sweep_values(1e15, 1e15, 1.0) == [1e15]
    assert _sweep_values(1e17, 1e17, 16.0) == [1e17]
    assert _sweep_values(0.0, 0.3, 0.1) == [0.0, 0.1, 0.2, 0.30000000000000004]
    # the benchmark's sweep grids, at every offset its seeds choose: 201 rows, both ends included
    for j in range(16):
        delta = 0.25 * (2 * j + 1) / 32
        for start in (-55.0 - delta, 13.0 + delta):
            grid = [start + i * 0.25 for i in range(201)]
            assert _sweep_values(grid[0], grid[-1], 0.25) == grid


def test_sweep_with_no_valid_rows_is_numerical_failure(capsys):
    code, out, _ = run(capsys, ["sweep", "--identity", "main", "--from", "0", "--to", "2", "--step", "1"])
    assert code == 3
    assert all(",error:" in row for row in out.strip().split("\n")[1:])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "identity, reason",
    [
        ("derivatives", "the singular points overflow in double precision"),
        ("J1", "the singular points overflow in double precision"),
        ("main", "the branch moduli overflow in double precision"),
    ],
)
def test_sweep_rows_past_double_range_are_numerical_failures(capsys, identity, reason):
    # (lam/4)^2 overflows above about 5e154, so the singular points do; each row fails
    # alone with a numerical error, without a traceback or a numpy warning
    argv = ["sweep", "--identity", identity, "--from", "1e200", "--to", "1.2e200", "--step", "1e199"]
    code, out, _ = run(capsys, argv)
    assert code == 3
    rows = out.strip().split("\n")[1:]
    assert [row.split(",", 1)[0] for row in rows] == ["1e+200", "1.1e+200", "1.2e+200"]
    assert all(row.split(",")[-1].startswith(f"error:{reason} at lam=") for row in rows)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_branch_bounds_past_double_range_are_numerical_failures(capsys):
    # |b| <= 2|lam| + 9 for b = 2x^2 + lam x + 1 on the path, and b*b overflows above
    # about 6.7e153: the scan fails before computing, without a numpy warning
    message = "numerical failure: the branch moduli overflow in double precision at lam=1e+155\n"
    assert run(capsys, ["verify", "branches", "--lambda", "1e155"]) == (3, "", message)
    assert run(capsys, ["verify", "branches", "--lambda", "-7", "1e155", "13"]) == (3, "", message)
    code, out, _ = run(capsys, ["verify", "branches", "--lambda", "4e153", "6.7e153"])
    assert code == 0 and all(r["passed"] for r in _reports(out))
    assert run_suite("branches", lambdas=[-6.7e153])[0].passed
    with pytest.raises(NumericalError, match="branch moduli overflow"):
        run_suite("branches", lambdas=[-6.71e153])


@pytest.mark.filterwarnings("error")
def test_q_rows_and_the_branch_scan_share_one_overflow_bound():
    # (2|lam| + 9)^2 bounds |b|^2 and the discriminant on the path for both; it overflows
    # above about 6.7e153, so q rows below it lie within their estimates of log|lam|
    lams = [5e153, -6.6e153, 6.7e153]
    for lam, mv in zip(lams, [*family_measures("q", lams[:2]), q_measure(lams[2])]):
        assert abs(mv.value - math.log(abs(lam))) <= mv.error_estimate <= 1.7e-11
    for lam in (7e153, -7e153):
        with pytest.raises(NumericalError, match="branch moduli overflow") as row:
            q_measure(lam)
        with pytest.raises(NumericalError) as scan:
            run_suite("branches", lambdas=[lam])
        assert str(scan.value) == str(row.value)


def test_one_parser_serves_every_call_without_leaking_an_override(capsys):
    # the parser is built once per process, and a --tol given once is not the default of the next call
    assert build_parser() is build_parser()
    _, out, _ = run(capsys, ["verify", "main", "--lambda", "-6", "--tol", "main=1e-300"])
    assert {r["tolerance"] for r in _reports(out)} == {1e-300}
    code, out, _ = run(capsys, ["verify", "main", "--lambda", "-6"])
    assert code == 0 and {r["tolerance"] for r in _reports(out)} == {1e-07}


def test_derivative_rows_at_1e120_are_finite(capsys):
    # dp/dlam takes its 2F1 from the cubic AGM of s^3 = (lam - 4)^2 (lam + 5)/(lam + 8)^3,
    # formed from ratios to lam + 8, so no power of lam overflows; the singular points are
    # finite up to about 5e154
    argv = ["sweep", "--identity", "derivatives", "--from", "1e120", "--to", "1e120", "--step", "1e119"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    (row,) = out.strip().split("\n")[1:]
    assert row.startswith("1e+120,") and row.endswith(",ok")
    with mp.workdps(40):
        lam = mpf(1e120)
        want = mp.hyp2f1(mpf(1) / 3, mpf(2) / 3, 1, 27 * (lam + 4) ** 2 / (lam + 8) ** 3) / (lam + 8)
        assert abs(specfun.dp_dlambda(1e120) - want) <= 1e-15 * want


def test_compute_numerical_failure_exit_code(capsys, tmp_path):
    f = tmp_path / "tiny.txt"
    f.write_text("1e-320:0,0\n")
    code, _, err = run(capsys, ["compute", "--poly-file", str(f)])
    assert code == 3
    assert "numerical failure" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "text, method, reason",
    [
        # sum |c| = 2e308 bounds |P| on the torus and is not finite
        ("1e308:0,0\n1e308:1,0\n1:0,1\n", "torus", "the values on the torus overflow in double precision"),
        ("1e308:0,0\n1e308:1,0\n1:0,1\n", "jensen", "the resultant's Hadamard bound overflows in double precision"),
        # the Sylvester row norms square 1e200
        ("1e200:0,0\n1:1,1\n", "jensen", "the resultant's Hadamard bound overflows in double precision"),
        # |node| = 1 + eps to the power 1e20 is not finite
        ("1:100000000000000000000,0\n1:0,1\n1:0,0\n", "torus",
         "the powers on the torus grid overflow in double precision"),
    ],
    ids=["torus-1e308", "jensen-1e308", "jensen-1e200", "torus-exponent-1e20"],
)
def test_compute_past_double_range_is_a_numerical_failure(capsys, tmp_path, text, method, reason):
    f = tmp_path / "huge.txt"
    f.write_text(text)
    argv = ["compute", "--poly-file", str(f), "--method", method, "--format", "json"]
    assert run(capsys, argv) == (3, "", f"numerical failure: {reason}\n")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_compute_torus_of_a_large_but_finite_polynomial(capsys, tmp_path):
    f = tmp_path / "large.txt"
    f.write_text("1e200:0,0\n1:1,1\n")
    code, out, _ = run(capsys, ["compute", "--poly-file", str(f), "--method", "torus", "--format", "json"])
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(200 * math.log(10), rel=1e-14)


@pytest.mark.filterwarnings("error")
def test_compute_torus_of_a_high_degree_polynomial(capsys, tmp_path):
    # m(1 + y + x^4000) = m(1 + x + y): the powers of the grid nodes stay finite
    f = tmp_path / "x4000.txt"
    f.write_text("1:4000,0\n1:0,1\n1:0,0\n")
    code, out, _ = run(capsys, ["compute", "--poly-file", str(f), "--method", "torus", "--format", "json"])
    payload = json.loads(out)
    assert code == 0 and abs(payload["value"] - 0.3230659472194505) <= payload["error_estimate"]


def test_sweep_jobs_output_is_identical(capsys):
    _, seq, _ = run(capsys, ["sweep", "--identity", "main", "--from", "13", "--to", "16", "--step", "1"])
    _, par, _ = run(capsys, ["sweep", "--identity", "main", "--from", "13", "--to", "16", "--step", "1", "--jobs", "4"])
    assert seq == par


def test_show_config(capsys):
    code, out, _ = run(capsys, ["--show-config"])
    assert code == 0
    payload = json.loads(out)
    assert payload["defaults"]["tanh_sinh_level_max"] == 12
    assert sorted(payload) == ["defaults", "verify"]
    assert payload["verify"]["substitution"] == {"params": [13.0, -6.0, 0.5], "tolerance": 0.0}
    assert payload["verify"] == json.loads(json.dumps({
        name: {"params": suite.params, "tolerance": suite.tolerance} for name, suite in SUITES.items()
    }))
    assert payload["verify"]["hyp"] == {"params": [20], "tolerance": 1e-12}
    assert payload["verify"]["asymptotics"]["params"][1] == [-8.0, -16.0, -32.0, -64.0, -128.0]


def _reports(out):
    return [json.loads(line) for line in out.strip().split("\n")]


def test_verify_all_applies_grid(capsys):
    code, out, _ = run(capsys, ["verify", "all"])
    assert code == 0
    reports = _reports(out)
    assert len(reports) == 76
    hyp = [r for r in reports if r["identity_id"].startswith("hyp_transform")]
    assert [r["parameter"] for r in hyp] == [20.0, 20.0]
    branches = {r["parameter"]: (r["lhs"], r["rhs"]) for r in reports if r["identity_id"] == "branch_bounds"}
    assert branches == {r.parameter: (r.lhs, r.rhs) for r in run_suite("branches")}
    assert round(branches[-5.0][0], 4) == 0.9840
    # the hyp mu-grid is the suite's default; --grid is an unknown argument
    with pytest.raises(SystemExit) as exc:
        main(["verify", "all", "--grid", "7"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --grid 7" in capsys.readouterr().err


def test_verify_has_no_scan_node_option(capsys):
    # the branch scan always runs on branch_scan_nodes; --n is an unknown argument
    with pytest.raises(SystemExit) as exc:
        main(["verify", "branches", "--n", "200"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --n 200" in capsys.readouterr().err


@pytest.mark.parametrize("suite, flag", [
    ("boyd", ["--lambda", "3"]),
    ("main", ["--k", "3"]),
    ("hyp", ["--lambda", "5"]),
])
def test_verify_ignores_a_flag_that_does_not_apply(capsys, suite, flag):
    plain = run(capsys, ["verify", suite])
    assert plain[0] == 0
    assert run(capsys, ["verify", suite, *flag]) == plain


def test_compute_root_solve_failure_is_numerical_failure(capsys, tmp_path, monkeypatch):
    def no_convergence(C):
        raise RootSolveError("no convergence within 200 iterations")

    monkeypatch.setattr(measures, "batch_roots", no_convergence)
    f = tmp_path / "cubic.txt"
    f.write_text("1:0,0\n1:1,0\n1:0,3\n")
    code, out, err = run(capsys, ["compute", "--poly-file", str(f), "--method", "jensen"])
    assert code == 3
    assert out == "" and err == "numerical failure: no convergence within 200 iterations\n"


def test_compute_large_constant_term_with_degree_20_fibers(capsys, tmp_path):
    # the fibers y^20 + x + 9e12 have roots of modulus about 4.4; Aberth started
    # on the Cauchy-bound circle of radius 9e12 did not converge in 200 iterations
    f = tmp_path / "aberth.txt"
    f.write_text("9000000000000:0,0\n1:1,0\n1:0,20\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, ["compute", "--poly-file", str(f), "--method", "jensen", "--format", "json"])
    assert code == 0 and err == ""
    assert abs(json.loads(out)["value"] - math.log(9e12)) < 1e-12


@pytest.mark.parametrize("text, degrees", [
    ("1:0,100000000000000000000\n1:1,0\n1:0,0\n", "100000000000000000000 in y and 1 in x"),
    ("1:100000000000000000000,0\n1:0,1\n1:0,0\n", "1 in y and 100000000000000000000 in x"),
    ("1:0,65\n1:1,0\n1:0,0\n", "65 in y and 1 in x"),
    ("1:0,0\n1:0,1\n1:65,0\n", "1 in y and 65 in x"),
], ids=["fiber-1e20", "x-1e20", "fiber-65", "x-65"])
def test_compute_jensen_rejects_degrees_past_the_breakpoint_search(capsys, tmp_path, monkeypatch, text, degrees):
    # the check comes before the coefficient rows, the first allocation of one row per power of y
    def no_rows(terms, x):
        raise AssertionError("the coefficient rows were built")

    monkeypatch.setattr(measures, "_coeff_rows", no_rows)
    f = tmp_path / "huge.txt"
    f.write_text(text)
    assert run(capsys, ["compute", "--poly-file", str(f), "--method", "jensen"]) == (
        3, "", f"numerical failure: the degrees {degrees} are too large for the breakpoint search (2 d D at most 128)\n")


@pytest.mark.parametrize("text", ["1:0,64\n1:1,0\n3:0,0\n", "1:0,0\n1:0,1\n1:64,0\n"], ids=["fiber-64", "x-64"])
def test_compute_jensen_takes_degrees_at_the_bound(capsys, tmp_path, text):
    # 2 d D = 128: m(y^64 + x + 3) = log 3 (|x + 3| >= 2 keeps every root inside the circle)
    # and m(1 + y + x^64) = m(1 + x + y)
    f = tmp_path / "bound.txt"
    f.write_text(text)
    code, out, _ = run(capsys, ["compute", "--poly-file", str(f), "--method", "jensen", "--format", "json"])
    payload = json.loads(out)
    expected = math.log(3.0) if "3:0,0" in text else 0.3230659472194505
    assert code == 0 and abs(payload["value"] - expected) <= max(payload["error_estimate"], 1e-12)


@pytest.mark.parametrize("argv", [
    ["compute", "--poly-file", "{missing}/poly.txt"],
    ["verify", "main", "--lambda", "-6", "--out", "{missing}/report.jsonl"],
    ["sweep", "--family", "r", "--from", "5", "--to", "6", "--step", "1", "--out", "{missing}/r.csv"],
])
def test_missing_file_or_directory_is_usage_error(capsys, tmp_path, argv):
    missing = tmp_path / "missing"
    code, out, err = run(capsys, [a.format(missing=missing) for a in argv])
    assert code == 2
    assert out == "" and err.startswith("error: [Errno 2] No such file or directory") and str(missing) in err


def test_missing_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_precision_env_var(capsys, monkeypatch):
    # MAHLER_PRECISION is no longer read: it must neither crash the kernel
    # integrals nor change a byte of their output
    for suite in ("J", "derivatives"):
        monkeypatch.delenv("MAHLER_PRECISION", raising=False)
        plain = run(capsys, ["verify", suite])
        monkeypatch.setenv("MAHLER_PRECISION", "extended")
        assert run(capsys, ["verify", suite]) == plain
        assert plain[0] == 0


def test_precision_option_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--precision", "extended", "verify", "J"])
    assert exc.value.code == 2


@pytest.mark.parametrize("first, reason, method", [
    ("1/0:0,0", "'1/0:0,0'", "torus"),
])
def test_compute_rejects_malformed_poly_file(capsys, tmp_path, first, reason, method):
    f = tmp_path / "bad.txt"
    f.write_text(first + "\n1:1,0\n1:0,1\n")
    code, out, err = run(capsys, ["compute", "--poly-file", str(f), "--method", method])
    assert code == 2
    assert out == "" and err.startswith("error:") and reason in err


@pytest.mark.parametrize("line, reason", [
    ("abc:1,0", "malformed polynomial line 'abc:1,0'"),
    ("nan:1,0", "malformed polynomial line 'nan:1,0'"),
    ("inf:1,0", "malformed polynomial line 'inf:1,0'"),
    ("1.5.2:1,0", "malformed polynomial line '1.5.2:1,0'"),
    ("3:a,0", "malformed polynomial line '3:a,0'"),
    ("3:1,0,0", "polynomial line '3:1,0,0' has 3 exponents, not 2"),
], ids=["letters", "nan", "inf", "two-points", "exponent", "length"])
def test_poly_file_parse_errors_name_the_line(capsys, tmp_path, line, reason):
    f = tmp_path / "bad.txt"
    f.write_text(f"1:0,0\n{line}\n1:0,1\n")
    assert run(capsys, ["compute", "--poly-file", str(f)]) == (2, "", f"error: {reason}\n")


@pytest.mark.parametrize("method", ["torus", "jensen"])
def test_decimal_coefficient_past_double_range_is_a_numerical_failure(capsys, tmp_path, method):
    # 1e400 is read as the exact integer 10^400, like a 401-digit coefficient
    f = tmp_path / "huge.txt"
    f.write_text("1e400:0,0\n1:1,0\n1:0,1\n")
    code, out, err = run(capsys, ["compute", "--poly-file", str(f), "--method", method])
    assert (code, out, err) == (3, "", "numerical failure: the coefficient at exponents (0, 0) overflows in double precision\n")


@pytest.mark.parametrize("argv, option", [
    (["compute", "--family", "r", "--lambda", "6", "--tol", "nan"], "--tol"),
    (["compute", "--family", "r", "--lambda", "6", "--tol", "-1"], "--tol"),
    (["compute", "--family", "qk", "--k", "2", "--method", "torus", "--tol", "inf"], "--tol"),
    (["compute", "--family", "r", "--lambda", "6", "--tol", "0"], "--tol"),
    (["verify", "main", "--lambda", "-6", "--tol", "main=nan"], "--tol main"),
    (["verify", "main", "--lambda", "-6", "--tol", "main=-1"], "--tol main"),
    (["verify", "boyd", "--k", "2", "--tol", "boyd=inf"], "--tol boyd"),
])
def test_non_positive_or_non_finite_tolerance_is_usage_error(capsys, argv, option):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == "" and err.startswith(f"error: {option} must be a positive finite number")


@pytest.mark.parametrize("zero", ["0", "-0"])
def test_verify_tolerance_override_of_zero_is_a_threshold(capsys, zero):
    # --show-config prints tolerance 0.0 for singularities; an override to that value changes nothing
    plain = run(capsys, ["verify", "singularities"])
    assert plain[0] == 0
    assert run(capsys, ["verify", "singularities", "--tol", f"singularities={zero}"]) == plain


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_verify_J_rejects_a_non_finite_lambda(capsys, value):
    # NaN fails every comparison, so it passed the range tests of the J rows
    code, out, err = run(capsys, ["verify", "J", f"--lambda={value}"])
    assert code == 2
    assert out == "" and err.startswith("error: J needs a finite lam")


def test_verify_substitution_is_exact_at_any_finite_lambda(capsys):
    lams = ["-5.3", "0.1", "13.7", "1000000.1", "1e-300", "1.7e308"]
    code, out, _ = run(capsys, ["verify", "substitution", "--lambda", *lams])
    assert code == 0
    reports = _reports(out)
    assert sorted(r["parameter"] for r in reports) == sorted(map(float, lams))
    assert all(r["passed"] and r["residual"] == 0.0 and r["detail"] == "" for r in reports)


def test_verify_singularities_is_exact_at_any_finite_lambda(capsys):
    # the float margins once exited 3 past about |lam| = 1.6e8; negatives in decimal form, since
    # argparse reads -1e9 as an option
    lams = [-1.7e308, -1e200, -1e12, -1e9, 1e9, 1e12, 1e200, 1.7e308]
    code, out, _ = run(capsys, ["verify", "singularities", "--lambda", *(f"{lam:.1f}" for lam in lams)])
    assert code == 0
    reports = _reports(out)
    assert [r["parameter"] for r in reports] == lams
    assert all(r["passed"] and r["residual"] == 0.0 and r["lhs"] > 0.0 for r in reports)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_verify_substitution_rejects_a_non_finite_lambda(capsys, value):
    code, out, err = run(capsys, ["verify", "substitution", f"--lambda={value}"])
    assert code == 2
    assert out == "" and err == f"error: the parameter of family Q_shifted must be finite, got {value}\n"


_BEYOND_DOUBLE = str(10**400)


@pytest.mark.parametrize("argv, reason", [
    (["compute", "--poly-file", "{file}", "--method", "jensen"], "the coefficient at exponents (1, 0)"),
    (["compute", "--poly-file", "{file}", "--method", "torus"], "the coefficient at exponents (1, 0)"),
    (["compute", "--family", "qk", "--k", _BEYOND_DOUBLE], "the parameter of family qk"),
    (["verify", "boyd", "--k", f"-{_BEYOND_DOUBLE}"], "the parameter of family Q"),
], ids=["poly-jensen", "poly-torus", "qk", "boyd"])
def test_exact_coefficients_past_double_range_are_numerical_failures(capsys, tmp_path, argv, reason):
    # an exact integer too large for a float is converted once, and the failure names it: exit 3
    f = tmp_path / "huge.txt"
    f.write_text(f"{_BEYOND_DOUBLE}:1,0\n1:0,1\n1:0,0\n")
    code, out, err = run(capsys, [a.format(file=f) for a in argv])
    assert (code, out, err) == (3, "", f"numerical failure: {reason} overflows in double precision\n")


_FAMILY_NAMES = {"q": "Q_shifted", "r": "R", "p": "P"}


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize(
    "target", [*_FAMILY_NAMES, *(name for name, suite in SUITES.items() if suite.given in ("lambdas", "lambda_list"))]
)
def test_exact_lambda_past_double_range_is_a_numerical_failure(target, sign):
    # the library, unlike --lambda, takes exact parameters: one too large for a float is named, not an OverflowError
    lam = sign * 10**400
    if target in _FAMILY_NAMES:
        with pytest.raises(NumericalError, match=f"^the parameter of family {_FAMILY_NAMES[target]} overflows"):
            family_measures(target, [lam])
    else:
        lams = [sign * 16.0, lam] if SUITES[target].given == "lambda_list" else [lam]
        with pytest.raises(NumericalError, match="^the parameter lam overflows in double precision$"):
            run_suite(target, lambdas=lams)


@pytest.mark.parametrize("family, value", [("r", "nan"), ("p", "inf"), ("q", "-inf")])
@pytest.mark.parametrize("method", ["fast", "jensen"])
def test_compute_rejects_non_finite_family_parameter(capsys, family, value, method):
    code, out, err = run(capsys, ["compute", "--family", family, f"--lambda={value}", "--method", method])
    assert code == 2
    assert out == "" and "parameter" in err and "finite" in err


def test_compute_default_table_line(capsys):
    code, out, err = run(capsys, ["compute", "--family", "r", "--lambda", "6"])
    assert code == 0 and err == ""
    assert out == "r parameter=6.0 value=1.7273117540142897 method=family_fast error_estimate=2.4223394437099883e-15\n"


def test_compute_three_variable_poly_file_switches_to_torus(capsys, tmp_path):
    # the Jensen reduction needs two variables; m(1 + x + y + z) = 7 zeta(3) / (2 pi^2)
    f = tmp_path / "smyth3.txt"
    f.write_text("1:0,0,0\n1:1,0,0\n1:0,1,0\n1:0,0,1\n")
    code, out, _ = run(capsys, ["compute", "--poly-file", str(f), "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "torus" and payload["parameter"] is None
    assert abs(payload["value"] - 7 * 1.2020569031595943 / (2 * math.pi**2)) < 1e-4


def test_sweep_out_writes_the_csv_to_the_file(capsys, tmp_path):
    argv = ["sweep", "--family", "r", "--from", "5", "--to", "7", "--step", "1"]
    _, expected, _ = run(capsys, argv)
    f = tmp_path / "r.csv"
    code, out, _ = run(capsys, [*argv, "--out", str(f)])
    assert code == 0 and out == ""
    assert f.read_text(encoding="utf-8") == expected


@pytest.mark.parametrize("argv, message", [
    (["verify", "main", "--lambda", "-6", "--tol", "nosuch=1e-3"], "error: bad tolerance override 'nosuch=1e-3'\n"),
    (["compute", "--lambda", "6"], "error: need --family or --poly-file\n"),
    (["sweep", "--identity", "boyd", "--from", "1", "--to", "2", "--step", "0.5"],
     "error: boyd sweeps take integer parameters\n"),
])
def test_usage_errors_print_their_reason(capsys, argv, message):
    assert run(capsys, argv) == (2, "", message)


@pytest.mark.parametrize("argv", [["verify", "J", "--lambda", "1e5"], ["verify", "derivatives", "--lambda", "1e6"]])
def test_kernel_checks_at_large_lambda(capsys, argv):
    # the cancelling small root of 4x^2 + lam x + 1 once made the J interval negative here
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert all(r["passed"] for r in _reports(out))


def test_singularity_order_violation_is_a_failed_check(capsys, monkeypatch):
    # the row at 16 evaluates the witnesses of lam = 8, past the regime check: there -2 lies below
    # x1 = -1.707, so x1 < -2 fails, a FAIL row and exit 1, not a numerical failure
    witnesses = identities._singularity_witnesses
    monkeypatch.setattr(identities, "_singularity_witnesses", lambda lam: witnesses(Fraction(8)))
    code, out, err = run(capsys, ["verify", "singularities", "--lambda", "16"])
    assert code == 1
    assert [(r["passed"], r["lhs"], r["residual"]) for r in _reports(out)] == [(False, -1.0, 1.0)]
    assert "singularity_order" in err and "FAIL" in err and "0/1 checks passed" in err


def test_singularity_order_violation_above_a_quarter_is_a_failed_check(capsys, monkeypatch):
    # at lam = -4.5 the roots of 4x^2 + lam x + 1 are 0.305 and 0.820: x1 > 1/4 and x2 < 1, so the
    # row at -6 that evaluates the witnesses of -4.5 fails with exit 1
    witnesses = identities._singularity_witnesses
    monkeypatch.setattr(identities, "_singularity_witnesses", lambda lam: witnesses(Fraction(-9, 2)))
    code, out, err = run(capsys, ["verify", "singularities", "--lambda", "-6"])
    assert code == 1
    assert [(r["passed"], r["lhs"], r["residual"]) for r in _reports(out)] == [(False, -0.5, 0.5)]
    assert "singularity_order" in err and "FAIL" in err and "0/1 checks passed" in err
