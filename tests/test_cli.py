"""Command line front end: reports, exit codes, determinism."""
from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spflag.cli import MAX_KMAX, build_parser, main
from spflag.abnormal import flat_curve
from spflag.exact import MultiPoly
from spflag.flagprolong import flag_prolong
from spflag.liealg import flat_model
from spflag.symbols import MAX_DIM_X, build_model_space, parse_symbol

from curvecols import as_polys
from test_abnormal import PINNED_EXITS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def curve_file(path, text, factor=None):
    """Serialize the base columns of the flat curve, each entry times the
    polynomial factor if one is given, to the extract schema."""
    c = flat_curve(build_model_space(parse_symbol(text)))
    n = len(c.sigma)
    columns = [as_polys(col, n) for col in c.base_columns]
    if factor is not None:
        columns = [tuple(p * factor for p in col) for col in columns]

    def coeffs(p):
        deg = max(p.degree(), 0)
        out = [Fraction(0)] * (deg + 1)
        for exp, v in p.terms.items():
            out[exp[0]] = v
        return [int(v) if v.denominator == 1 else str(v) for v in out]

    data = {
        "schema": "sp-1",
        "rank_parity": c.case,
        "sigma": [[int(e) for e in row] for row in c.sigma],
        "columns": [[coeffs(p) for p in col] for col in columns],
    }
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


# --- symbol commands --------------------------------------------------------

def test_classify_two_box_row(capsys):
    code, out, _ = run(capsys, "symbol", "classify", "--spec", "R(1/2)")
    assert code == 0
    assert out.strip() == "Infinite (one row with two boxes)"


def test_classify_finite(capsys):
    code, out, _ = run(capsys, "symbol", "classify", "--spec", "D(2,3)")
    assert code == 0
    assert out.strip() == "Finite"


def test_parse_json_payload(capsys):
    code, out, _ = run(capsys, "symbol", "parse", "--spec", "R(5/2)+D(2,3)", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "sp-1"
    assert data["symbol"] == "D(2,3)+R(5/2)"
    assert data["dim_x"] == 14
    assert data["index_parity"] == "mixed"


def test_reused_parser_keeps_no_state_between_calls(capsys):
    # one parser serves every main() call of a process
    assert build_parser() is build_parser()
    assert run(capsys, "verify", "--spec", "D(2,3)", "--kmax", "1", "--json",
               "--seed", "7")[0] == 0
    code, out, _ = run(capsys, "symbol", "classify", "--spec", "D(2,3)")
    assert (code, out.strip()) == (0, "Finite")
    code, _, err = run(capsys, "verify", "--kmax", "1")
    assert code == 1 and "--spec" in err


def test_parse_rejects_bad_term(capsys):
    code, out, err = run(capsys, "symbol", "parse", "--spec", "Q(1)")
    assert code == 1
    assert out == ""
    assert "bad term" in err


@pytest.mark.parametrize("argv,token", [
    (("verify", "--spec", "D(\u0663,4)"), "\u0663"),
    (("symbol", "parse", "--spec", "R(\uff11/2)"), "\uff11/2"),
    (("extract", "--curve"), "\u0663"),
    (("extract", "--curve"), "\uff13"),
    (("extract", "--curve"), "3/\u0664"),
])
def test_non_ascii_digits_are_one_error_line(capsys, tmp_path, argv, token):
    if argv[0] == "extract":
        # the token as the constant term of an R(5/2) curve that extracts
        # when it reads as 3
        path = curve_file(tmp_path / "c.json", "R(5/2)")
        data = json.loads(path.read_text(encoding="utf-8"))
        data["columns"][0][0] = [token]
        path.write_text(json.dumps(data), encoding="utf-8")
        argv += (str(path),)
        want = f"error: bad rational value {token!r}\n"
    else:
        want = f"error: cannot read row top {token!r} (expected an integer or p/2)\n"
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", want)


@pytest.mark.parametrize("spec", ["99999999*D(1,2)", "R(99999999/2)", "D(1,999)+D(1,2)"])
def test_parse_rejects_symbols_over_the_size_budget(capsys, spec):
    code, out, err = run(capsys, "symbol", "parse", "--spec", spec)
    assert (code, out) == (1, "")
    assert err == f"error: symbol has dim_x above the limit of {MAX_DIM_X}\n"


@pytest.mark.parametrize("argv,n", [
    (("symbol", "enumerate", "--rank", "2"), 100000),  # used to print R(199993/2)
    (("symbol", "enumerate", "--rank", "3"), (MAX_DIM_X + 6) // 2 + 1),
    (("prolong", "flag"), (MAX_DIM_X + 6) // 2 + 1),
])
def test_n_over_the_size_budget_is_rejected(capsys, argv, n):
    code, out, err = run(capsys, *argv, "--n", str(n))
    assert (code, out) == (1, "")
    assert err == f"error: n={n} gives dim_x {2 * n - 6}, above the limit of {MAX_DIM_X}\n"


def test_error_quoting_a_newline_stays_one_line(capsys):
    code, out, err = run(capsys, "symbol", "enumerate", "--spec", "D(1,\n2)")
    assert (code, out) == (1, "")
    assert err == "usage error: unrecognized arguments: --spec D(1,\\n2)\n"


def test_unknown_subcommand(capsys):
    code, _, err = run(capsys, "bogus")
    assert code == 1
    assert "invalid choice" in err


def test_missing_subcommand(capsys):
    code, _, err = run(capsys)
    assert code == 1


@pytest.mark.parametrize("argv, message", [
    (("prolong", "flag"), "this command needs --spec or --n"),
    (("symbol", "enumerate", "--n", "7"), "enumerate needs --rank and --n"),
    (("extract",), "extract needs --curve or --spec"),
])
def test_missing_source_is_one_usage_error_line(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"usage error: {message}\n")


def test_enumerate_rank3(capsys):
    code, out, _ = run(capsys, "symbol", "enumerate", "--rank", "3", "--n", "7",
                       "--json")
    assert code == 0
    data = json.loads(out)
    assert [e["symbol"] for e in data["symbols"]] == ["D(2,3)", "D(3,3)"]
    assert [e["finite_type"] for e in data["symbols"]] == [True, False]


# --- prolongations ----------------------------------------------------------

def test_tanaka_exceptional_example(capsys):
    code, out, _ = run(capsys, "prolong", "tanaka", "--spec", "R(3/2)", "--n", "5",
                       "--json")
    assert code == 0
    data = json.loads(out)
    assert data["results"][0]["terminated"] is True
    assert data["results"][0]["total_dim"] == 14


def test_tanaka_spec_inconsistent_with_n(capsys):
    code, _, err = run(capsys, "prolong", "tanaka", "--spec", "R(3/2)", "--n", "6")
    assert code == 1
    assert "not a rank-2 symbol" in err


def test_tanaka_n_sugar_defaults_to_rank2(capsys):
    code, out, _ = run(capsys, "prolong", "tanaka", "--n", "5", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["results"][0]["symbol"] == "R(3/2)"
    assert data["results"][0]["total_dim"] == 14


def test_tanaka_nonterminating_is_not_a_failure(capsys):
    code, out, _ = run(capsys, "prolong", "tanaka", "--spec", "R(1/2)",
                       "--kmax", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["results"][0]["terminated"] is False
    assert data["results"][0]["total_dim"] is None
    assert [d["k"] for d in data["results"][0]["degrees"]] == [1, 2]


def test_kmax_env_override(capsys, monkeypatch):
    monkeypatch.setenv("SP_KMAX", "1")
    code, out, _ = run(capsys, "prolong", "tanaka", "--spec", "R(1/2)",
                       "--kmax", "4", "--json")
    assert code == 0
    data = json.loads(out)
    assert [d["k"] for d in data["results"][0]["degrees"]] == [1]


@pytest.mark.parametrize("kmax", ["0", "-3"])
def test_kmax_below_one_is_a_usage_error(capsys, monkeypatch, kmax):
    code, out, err = run(capsys, "prolong", "tanaka", "--spec", "R(3/2)", "--kmax", kmax)
    assert (code, out) == (1, "")
    assert err == f"usage error: kmax must be at least 1, got {kmax}\n"
    monkeypatch.setenv("SP_KMAX", kmax)
    code, out, err = run(capsys, "prolong", "tanaka", "--spec", "R(3/2)", "--json")
    assert (code, out) == (1, "")
    assert err == f"usage error: kmax must be at least 1, got {kmax}\n"


@pytest.mark.parametrize("kmax", ["abc", "2.5", ""])
def test_kmax_env_not_an_integer_is_a_usage_error(capsys, monkeypatch, kmax):
    monkeypatch.setenv("SP_KMAX", kmax)
    code, out, err = run(capsys, "prolong", "tanaka", "--spec", "R(3/2)", "--json")
    assert (code, out) == (1, "")
    assert err == f"usage error: SP_KMAX must be an integer, got {kmax!r}\n"


@pytest.mark.parametrize("source", ["--kmax", "SP_KMAX"])
def test_kmax_above_the_bound_is_a_usage_error(capsys, monkeypatch, source):
    assert MAX_KMAX == 32

    def tanaka(kmax):
        argv = ["prolong", "tanaka", "--spec", "R(3/2)", "--json"]
        if source == "SP_KMAX":
            monkeypatch.setenv("SP_KMAX", str(kmax))
        else:
            argv += ["--kmax", str(kmax)]
        return run(capsys, *argv)

    code, out, err = tanaka(32)
    assert (code, err) == (0, "")
    assert json.loads(out)["results"][0]["total_dim"] == 14
    assert tanaka(33) == (1, "", "usage error: kmax must be at most 32, got 33\n")


def test_prolong_flag_matches_api(capsys):
    code, out, _ = run(capsys, "prolong", "flag", "--spec", "D(2,3)", "--json")
    assert code == 0
    data = json.loads(out)
    fp = flag_prolong(build_model_space(parse_symbol("D(2,3)")))
    assert data["results"][0]["total_dim"] == fp.total_dim


def test_prolong_standard(capsys):
    code, out, _ = run(capsys, "prolong", "standard", "--spec", "D(3,4)",
                       "--kmax", "2", "--json")
    assert code == 0
    data = json.loads(out)
    layers = data["results"][0]["layers"]
    assert [(e["dim_p"], e["dim_l"], e["p_equals_l"]) for e in layers] == [
        (1, 1, True), (0, 0, True)]


# --- verification and secants ----------------------------------------------

def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "--spec", "D(2,3)", "--kmax", "1",
                       "--json")
    assert code == 0
    data = json.loads(out)
    assert all(v is not False for v in data["passes"].values())


@pytest.mark.parametrize("spec, kmax", [("D(0,0)", "1"), ("D(1,1)", "2"), ("D(2,2)", "2")])
def test_verify_skips_row_secants_for_infinite_type(capsys, spec, kmax):
    code, out, _ = run(capsys, "verify", "--spec", spec, "--kmax", kmax)
    assert code == 0
    assert "theorem row_secant_inclusion     SKIP" in out.splitlines()


@pytest.mark.parametrize("spec", ["D(0,0)", "D(1,1)", "D(2,2)"])
def test_verify_reports_null_row_secants_for_infinite_type(capsys, spec):
    # at the default kmax: certifying what is reported as SKIP took up to a
    # minute on D(2,2)
    code, out, err = run(capsys, "verify", "--spec", spec, "--json")
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert [e["p_vanishes_on_row_secants"] for e in data["layers"]] == [None] * 6
    assert data["passes"]["row_secant_inclusion"] is None


@pytest.mark.parametrize("spec", ["D(0,0)", "D(1,1)", "D(2,2)"])
def test_verify_prolongs_infinite_type_only_to_kmax(capsys, monkeypatch, spec):
    from spflag import polyprolong, tanaka
    from spflag.errors import CapReached

    x = build_model_space(parse_symbol(spec))
    with pytest.raises(CapReached) as exc:
        tanaka.prolong(polyprolong.heisenberg_from_space(x), flag_prolong(x).matrices(),
                       kmax=6)
    degrees = exc.value.report.degrees
    assert len(degrees) == 6 and all(d for _, d in degrees)
    for kmax in ("1", "2", "3"):
        got = run(capsys, "verify", "--spec", spec, "--kmax", kmax, "--json")
        with monkeypatch.context() as m:
            m.setattr(polyprolong, "prolong",
                      lambda heis, g0, kmax: tanaka.prolong(heis, g0, kmax=6))
            want = run(capsys, "verify", "--spec", spec, "--kmax", kmax, "--json")
        assert got == want


@pytest.mark.parametrize("spec", ["D(3,5)", "D(4,5)", "D(4,6)", "D(5,6)"])
def test_verify_default_kmax_finishes_where_sampling_stalled(capsys, monkeypatch, spec):
    """These four took over a minute each at the default kmax while secant
    ideals were sampled and eliminated over Q."""
    from spflag import polyprolong
    from test_polyprolong import reference_secant_ideal

    code, out, err = run(capsys, "verify", "--spec", spec, "--json")
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert len(data["layers"]) == 6
    assert data["passes"] == {"standard_equality": True, "tangential_secant": True,
                              "row_secant_inclusion": True}
    # the one-block reference takes over a minute here at k = 2
    monkeypatch.setattr(polyprolong, "secant_ideal", lambda v, kmax: [
        reference_secant_ideal(v, k + 2, k, split=True) for k in range(kmax + 1)])
    code, out, _ = run(capsys, "verify", "--spec", spec, "--kmax", "2", "--json")
    assert code == 0
    assert json.loads(out)["layers"] == data["layers"][:2]


def test_verify_skips_tangential_secant_on_half_odd_rows(capsys):
    code, out, err = run(capsys, "verify", "--spec", "D(7/2,5)", "--kmax", "2")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert "hypothesis tangential_secant    skipped (integer rows required)" in lines
    assert "theorem tangential_secant        SKIP" in lines
    code, out, _ = run(capsys, "verify", "--spec", "D(7/2,5)", "--kmax", "2", "--json")
    data = json.loads(out)
    assert code == 0
    assert data["hypotheses"]["tangential_secant"] == {"holds": False,
                                                       "why": "integer rows required"}
    assert data["passes"]["tangential_secant"] is None


def test_verify_row_secants_pass_for_finite_type(capsys):
    code, out, _ = run(capsys, "verify", "--spec", "R(5/2)", "--kmax", "2")
    assert code == 0
    assert "theorem row_secant_inclusion     PASS" in out.splitlines()


def test_secant_hankel_agreement(capsys):
    code, out, _ = run(capsys, "secant", "--spec", "D(3,4)", "--kmax", "1",
                       "--json")
    assert code == 0
    data = json.loads(out)
    e = data["layers"][0]
    assert e["dim_row_ideal"] == e["dim_hankel"] == e["dim_tangential_ideal"] == 1
    assert e["hankel_certified"] is True
    assert e["hankel_matches_row_ideal"] is True


@pytest.mark.parametrize("minors,dim,certified", [
    # x1^3 rescales to y0^3, which is outside the row ideal
    (lambda xs: [xs[0] ** 3], 1, "FAIL"),
    # the zero space lies in the slice, but is not all of it
    (lambda xs: [], 0, "PASS"),
], ids=["outside", "zero"])
def test_secant_hankel_failure_paths(capsys, monkeypatch, minors, dim, certified):
    from spflag import cli
    from spflag.polyprolong import poly_space

    def fake_hankel(s, k):
        names = tuple(f"x{i}" for i in range(1, s + 3))
        xs = [MultiPoly.variable(names, n) for n in names]
        return poly_space(k + 2, names, minors(xs))

    monkeypatch.setattr(cli, "hankel_minor_space", fake_hankel)
    code, out, _ = run(capsys, "secant", "--spec", "D(3,4)", "--kmax", "1", "--json")
    assert code == 2
    e = json.loads(out)["layers"][0]
    assert e["dim_hankel"] == dim
    assert e["hankel_certified"] is (certified == "PASS")
    assert e["hankel_matches_row_ideal"] is False
    code, out, _ = run(capsys, "secant", "--spec", "D(3,4)", "--kmax", "1")
    assert code == 2
    assert f"certified={certified}" in out and "matches=FAIL" in out


# --- flat model and goh -----------------------------------------------------

def test_flat_model_brackets(capsys):
    code, out, _ = run(capsys, "flat-model", "--spec", "R(3/2)")
    assert code == 0
    assert "[x, C0[1/2]] = C0[-1/2]" in out
    assert "[C0[1/2], C0[-1/2]] = z" in out


def test_flat_model_json_brackets_are_the_structure_constants(capsys):
    # the one report that hands Fraction values to the JSON writer
    code, out, _ = run(capsys, "flat-model", "--spec", "R(3/2)", "--json")
    assert code == 0
    alg = flat_model(parse_symbol("R(3/2)")).algebra

    def num(c):
        return int(c) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"

    want = [{"left": alg.labels[i], "right": alg.labels[j],
             "value": {alg.labels[k]: num(c) for k, c in row[j].items()}}
            for i, row in enumerate(alg.rows) for j in sorted(row) if j > i]
    assert want and json.loads(out)["brackets"] == want


def test_goh_checks_pass(capsys):
    for spec in ("D(2,3)", "R(5/2)", "D(2,3)+R(5/2)"):
        code, out, _ = run(capsys, "goh", "--spec", spec)
        assert code == 0
        assert "FAIL" not in out


@pytest.mark.parametrize("spec", ["D(2,3)+D(1,2)", "2*D(0,0)"])
def test_goh_locus_check_skips_at_odd_rank_five(capsys, spec):
    # the sub-pfaffians are quadrics at rank 5, so the linear locus check
    # does not apply: SKIP, and exit 0 since no check fails
    code, out, _ = run(capsys, "goh", "--spec", spec, "--json")
    assert code == 0
    report = json.loads(out)
    assert report["rank"] == 5
    locus = [c for c in report["checks"] if c["name"].startswith("degeneracy locus")]
    assert [c["holds"] for c in locus] == [None]
    code, out, _ = run(capsys, "goh", "--spec", spec)
    assert code == 0
    assert "SKIP" in out and "FAIL" not in out


@pytest.mark.parametrize("spec, rank", [("D(2,3)", 3), ("D(2,3)+R(5/2)", 4)])
def test_goh_flags_a_corrupted_sub_pfaffian(capsys, monkeypatch, spec, rank):
    """Doubling one nonzero sub-Pfaffian breaks the Pfaffian row expansion."""
    import dataclasses
    from spflag import cli
    from spflag.abnormal import degeneracy_locus

    def doubled(row, k):
        return row[:k] + (row[k] + row[k],) + row[k + 1:]

    def corrupted(m):
        loc = degeneracy_locus(m)
        cof = loc.sub_pfaffians
        if loc.always_degenerate:
            cof = doubled(cof, next(k for k, p in enumerate(cof) if p.terms))
        else:
            i, k = next((i, k) for i, row in enumerate(cof) for k, p in enumerate(row) if p.terms)
            cof = cof[:i] + (doubled(cof[i], k),) + cof[i + 1:]
        return dataclasses.replace(loc, sub_pfaffians=cof)

    monkeypatch.setattr(cli, "degeneracy_locus", corrupted)
    code, out, err = run(capsys, "goh", "--spec", spec, "--json")
    assert (code, err) == (2, "")
    report = json.loads(out)
    assert report["rank"] == rank
    # only the row expansion, which comes first, fails
    assert [c["holds"] is False for c in report["checks"]] == \
        [True] + [False] * (len(report["checks"]) - 1)
    code, out, err = run(capsys, "goh", "--spec", spec)
    assert (code, err) == (2, "")
    assert [line for line in out.splitlines() if line.endswith("FAIL")] == \
        [f"check {report['checks'][0]['name']:<48} FAIL"]


def test_goh_json_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, out, _ = run(capsys, "goh", "--spec", "D(2,3)+R(5/2)", "--json",
                           "--out", str(path))
        assert code == 0
        assert out == ""
    assert a.read_bytes() == b.read_bytes()


# --- extraction -------------------------------------------------------------

def test_extract_from_spec(capsys):
    code, out, _ = run(capsys, "extract", "--spec", "D(2,4)+R(3/2)", "--json")
    assert code == 0
    assert json.loads(out)["symbol"] == "D(2,4)+R(3/2)"


def test_extract_from_curve_file(capsys, tmp_path):
    path = curve_file(tmp_path / "curve.json", "R(5/2)")
    code, out, _ = run(capsys, "extract", "--curve", str(path), "--json")
    assert code == 0
    assert json.loads(out)["symbol"] == "R(5/2)"


def test_extract_rank_drop_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "schema": "sp-1", "rank_parity": "odd",
        "sigma": [[0, 1], [-1, 0]],
        "columns": [[[1], [0]], [[0], [0, 1]]],
    }), encoding="utf-8")
    code, _, err = run(capsys, "extract", "--curve", str(path))
    assert code == 2
    assert "verification failure" in err


@pytest.mark.parametrize("parity, sigma, columns, message", [
    # a one-jet of a complement section above the base has no extension
    ("even", [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]],
     [[[-1, 0], [], [0, 1], [0, 0, 1]], [[], [1, -1], [], []]],
     "complement section jet does not extend"),
    # the base columns fill the plane at t = 0, so the index dual to 3/2 lies
    # below the bottom, and the base member is the whole plane
    ("two", [[0, 1], [-1, 0]], [[[-1], [0]], [[0], [-1]]],
     "member at index 1/2 is not isotropic"),
])
def test_extract_curve_verification_failure_is_one_line(capsys, tmp_path, parity, sigma,
                                                        columns, message):
    path = tmp_path / "v.json"
    path.write_text(json.dumps({"rank_parity": parity, "sigma": sigma, "columns": columns}),
                    encoding="utf-8")
    code, out, err = run(capsys, "extract", "--curve", str(path))
    assert (code, out, err) == (2, "", f"verification failure: {message}\n")


@pytest.mark.parametrize("cols, message", PINNED_EXITS)
def test_extract_curve_pinned_rank_profile_exits(capsys, tmp_path, cols, message):
    # entry r of a column lists its coefficients in t
    columns = [[[c[r] for c in col] for r in range(6)] for col in cols]
    sigma = [[(-1) ** i if j == 5 - i else 0 for j in range(6)] for i in range(6)]
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"rank_parity": "two", "sigma": sigma, "columns": columns}),
                    encoding="utf-8")
    code, out, err = run(capsys, "extract", "--curve", str(path))
    assert (code, out, err) == (2, "", f"verification failure: {message}\n")


def test_extract_rejects_float_entries(capsys, tmp_path):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({
        "schema": "sp-1", "rank_parity": "odd",
        "sigma": [[0, 1.5], [-1.5, 0]],
        "columns": [[[1], [0]]],
    }), encoding="utf-8")
    code, _, err = run(capsys, "extract", "--curve", str(path))
    assert code == 1


@pytest.mark.parametrize("columns, sigma", [
    ([[1, 2]], [[0, 1], [-1, 0]]),        # a column entry that is a bare number
    ([[[1], [0]]], [[0, "1/0"], [-1, 0]]),  # a zero denominator
])
def test_extract_rejects_malformed_curve(capsys, tmp_path, columns, sigma):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"columns": columns, "rank_parity": 0, "sigma": sigma}),
                    encoding="utf-8")
    code, out, err = run(capsys, "extract", "--curve", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("value", ["1e999999999", "0.5", "1/00", "", "x"])
def test_extract_accepts_only_p_q_strings(capsys, tmp_path, value):
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"rank_parity": "odd", "sigma": [[0, value], [-1, 0]],
                                "columns": [[[1], [0, 1]]]}), encoding="utf-8")
    code, out, err = run(capsys, "extract", "--curve", str(path))
    assert (code, out, err) == (1, "", f"error: bad rational value {value!r}\n")


@pytest.mark.parametrize("change, message", [
    ({"sigma": [[0, 1], [1, 0]]}, "sigma: entries (0,1) and (1,0) are not opposite"),
    ({"sigma": [[0, 1, 0], [-1, 0, 0]]}, "sigma: matrix is not square"),
    ({"sigma": [[0, 0], [0, 0]]}, "sigma is degenerate"),
    ({"columns": [[[1], [0], [0]]]}, "columns must have length 2, the size of sigma"),
])
def test_extract_validates_sigma(capsys, tmp_path, change, message):
    data = {"schema": "sp-1", "rank_parity": "odd", "sigma": [[0, 1], [-1, 0]],
            "columns": [[[1], [0, 1]]]}
    data.update(change)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run(capsys, "extract", "--curve", str(path))
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_extract_rejects_symmetric_sigma_of_a_real_curve(capsys, tmp_path):
    path = curve_file(tmp_path / "c.json", "D(2,3)")
    data = json.loads(path.read_text(encoding="utf-8"))
    data["sigma"] = [[abs(e) for e in row] for row in data["sigma"]]
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run(capsys, "extract", "--curve", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: sigma: ") and err.count("\n") == 1


def test_extract_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "extract", "--curve", str(tmp_path / "no.json"))
    assert code == 1


@pytest.mark.parametrize("text", ["D(1,2)", "D(2,3)", "R(3/2)"])
def test_extract_accepts_columns_vanishing_at_the_probe_points(capsys, tmp_path, text):
    t = MultiPoly.variable(("t",), "t")
    path = curve_file(tmp_path / "c.json", text, factor=(t - 1) * (t - 2) * (t - 3))
    code, out, err = run(capsys, "extract", "--curve", str(path), "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["symbol"] == text


def test_extract_rejects_empty_sigma(capsys, tmp_path):
    path = tmp_path / "e.json"
    path.write_text(json.dumps({"rank_parity": "odd", "sigma": [], "columns": []}),
                    encoding="utf-8")
    code, out, err = run(capsys, "extract", "--curve", str(path))
    assert (code, out, err) == (1, "", "error: sigma is empty\n")


def test_extract_rejects_deeply_nested_json(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    code, out, err = run(capsys, "extract", "--curve", str(path))
    assert (code, out, err) == (1, "", "error: curve file nests too deeply\n")


SIGMAS = ([[0, 1], [-1, 0]], [[0, 0, 0, 1], [0, 0, -1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]],
          [[0, "1/2"], ["-1/2", 0]])
json_leaves = (st.none() | st.booleans() | st.integers(-3, 3) | st.floats()
               | st.text(max_size=4)
               | st.sampled_from(["1/2", "-2", "1/0", "odd", "two", "even", "sp-1"]))
json_values = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["schema", "rank_parity", "sigma", "columns"]) | st.text(max_size=3),
        inner, max_size=4),
    max_leaves=24)


@st.composite
def curve_like(draw):
    """A well-formed curve file of small columns, now and then with one field
    replaced by arbitrary JSON."""
    sigma = draw(st.sampled_from(SIGMAS))
    entry = st.lists(st.integers(-2, 2) | st.sampled_from(["1/2", "-1/3"]), max_size=4)
    data = {
        "rank_parity": draw(st.sampled_from(["odd", "two", "even"])),
        "sigma": sigma,
        "columns": draw(st.lists(st.lists(entry, min_size=len(sigma), max_size=len(sigma)),
                                 max_size=4)),
    }
    key = draw(st.sampled_from([None, None, "rank_parity", "sigma", "columns", "schema"]))
    if key:
        data[key] = draw(json_values)
    return data


@settings(max_examples=150, deadline=None)
@given(data=json_values | curve_like(), as_json=st.booleans())
def test_extract_fuzzed_curve_files(tmp_path_factory, data, as_json):
    """Any JSON curve file ends in a complete report or one error line."""
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["extract", "--curve", str(path)] + (["--json"] if as_json else []))
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    if code == 0:
        assert err == ""
        if as_json:
            assert json.loads(out)["command"] == "extract"
        else:
            assert out.startswith("symbol  ") and out.count("\n") == 3
    else:
        assert out == ""
        assert err.endswith("\n") and err.count("\n") == 1
        assert err.startswith("error: " if code == 1 else "verification failure: ")


COMMANDS = (("symbol", "parse"), ("symbol", "classify"), ("symbol", "enumerate"),
            ("flat-model",), ("prolong", "flag"), ("prolong", "tanaka"),
            ("prolong", "standard"), ("verify",), ("secant",), ("goh",), ("extract",))
KMAX_COMMANDS = (("prolong", "flag"), ("prolong", "tanaka"), ("prolong", "standard"),
                 ("verify",), ("secant",))
# every command runs in well under a second on these at kmax <= 4
SMALL_SPECS = ("D(0,0)", "D(1,1)", "D(1,2)", "D(2,2)", "D(2,3)", "R(1/2)", "R(3/2)",
               "D(1,2)+R(1/2)", "2*D(0,0)")
JUNK_SPECS = ("", "D(", "D(1,2", "D(1,2)+", "3*", "R(1/3)", "R(1/0)", "D(-1,0)",
              "D(1,1000)", "D(1,2)\n", "-x")


@settings(max_examples=60, deadline=None)
@given(command=st.sampled_from(COMMANDS),
       spec=st.sampled_from(SMALL_SPECS + JUNK_SPECS) | st.text("DR()+*/,- \n", max_size=8),
       kmax=st.sampled_from([str(k) for k in range(-3, 5)] + ["33", "x"]),
       stray_kmax=st.booleans(), as_json=st.booleans())
def test_fuzzed_argv(command, spec, kmax, stray_kmax, as_json):
    """Any argv ends in a complete report or one error line, never a
    traceback; --kmax also goes to commands that do not take it."""
    argv = [*command, "--spec", spec]
    if command in KMAX_COMMANDS or stray_kmax:
        argv += ["--kmax", kmax]
    if as_json:
        argv.append("--json")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    if out:
        assert code in (0, 2) and err == ""
        if as_json:
            assert json.loads(out)["command"] == " ".join(command)
        else:
            assert out.endswith("\n") and out.strip()
    else:
        assert code in (1, 2)
        assert err.endswith("\n") and err.count("\n") == 1
