"""Symbol grammar, model spaces, finiteness, enumeration."""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spflag.errors import ConstraintError, SymbolSyntaxError, UnsupportedRank
from spflag import symbols
from spflag.exact import is_zero_vector, mat_mul, rank, transpose
from spflag.symbols import (
    MAX_DIM_X,
    OneRow,
    TwoRow,
    box_weights,
    build_model_space,
    dim_x,
    distribution_rank,
    enumerate_symbols,
    finite_type_by_rank,
    index_parity,
    is_finite_type,
    make_symbol,
    modify_symbol,
    parse_symbol,
    render_symbol,
    rows_of,
    symbol_from_json,
    symbol_to_json,
)
from universes import formula_universe


def sym(text):
    return parse_symbol(text)


# --- grammar ---------------------------------------------------------------

def test_parse_basic():
    s = sym("D(2,3)")
    assert s.components == (TwoRow(Fraction(2), 3),)
    assert sym("R(5/2)").components == (OneRow(5),)
    assert sym(" 2*D(1,2) + R(3/2) ").components == (
        TwoRow(Fraction(1), 2),
        TwoRow(Fraction(1), 2),
        OneRow(3),
    )


def test_parse_normalizes_row_order():
    # the two rows of a pair are unordered: top s and top l-s name the same pair
    assert sym("D(1,3)") == sym("D(2,3)")


def test_parse_half_odd_top():
    s = sym("D(5/2,1)")
    assert s.components == (TwoRow(Fraction(5, 2), 1),)


def test_render_round_trip():
    for text in ["D(2,3)", "R(5/2)", "2*D(1,2)+R(3/2)", "D(3,4)+D(2,3)", "D(1/2,0)"]:
        s = sym(text)
        assert parse_symbol(render_symbol(s)) == s


def test_render_canonical_order():
    assert render_symbol(sym("R(3/2)+D(2,3)")) == "D(2,3)+R(3/2)"
    assert render_symbol(sym("D(1,2)+D(1,2)")) == "2*D(1,2)"


def test_parse_errors():
    for bad in ["", "D(1)", "Q(2,2)", "D(a,b)", "D(2,3)+", "3*", "R()"]:
        with pytest.raises(SymbolSyntaxError):
            parse_symbol(bad)


@pytest.mark.parametrize("text", ["D(\u0663,4)", "R(\uff11/2)", "\u0662*D(1,2)", "D(1,\u0664)"])
def test_parse_takes_only_ascii_digits(text):
    # \d and int() would read Arabic-Indic or fullwidth digits as 3, 1, 2, 4
    with pytest.raises(SymbolSyntaxError):
        parse_symbol(text)


def test_constraint_errors():
    with pytest.raises(ConstraintError):
        parse_symbol("R(2)")        # not half-odd
    with pytest.raises(ConstraintError):
        parse_symbol("R(4/2)")
    with pytest.raises(ConstraintError):
        parse_symbol("R(1/2)+R(3/2)")   # two centered rows
    with pytest.raises(ConstraintError):
        make_symbol([TwoRow(Fraction(-1), 2)])


def test_parse_size_budget():
    assert dim_x(parse_symbol("D(1,499)")) == MAX_DIM_X
    assert dim_x(parse_symbol("4*D(1,123)+R(7/2)")) == MAX_DIM_X
    for over in ["D(1,499)+R(1/2)", "1001*R(1/2)", "R(-2001/2)+200*D(1,2)"]:
        with pytest.raises(ConstraintError, match="dim_x above the limit"):
            parse_symbol(over)


def test_json_round_trip():
    for text in ["D(2,3)", "R(5/2)", "2*D(1,2)+R(3/2)", "D(1/2,0)"]:
        s = sym(text)
        data = symbol_to_json(s)
        assert data["schema"] == "sp-1"
        assert symbol_from_json(data) == s


def test_json_reads_ascii_integer_strings():
    comps = [{"type": "D", "s": "3/2", "l": " 3 "}, {"type": "R", "m2": "5"}]
    assert symbol_from_json({"components": comps}) == sym("D(3/2,3)+R(5/2)")


@pytest.mark.parametrize("comp", [
    {"type": "D", "s": 1, "l": "٣"},       # Arabic-Indic digit
    {"type": "D", "s": 1, "l": "３"},       # fullwidth digit
    {"type": "D", "s": 1, "l": 2.7},
    {"type": "D", "s": 1, "l": 2.0},
    {"type": "D", "s": 1, "l": True},
    {"type": "D", "s": 1, "l": "3/2"},
    {"type": "D", "s": 1, "l": None},
    {"type": "D", "s": True, "l": 2},
    {"type": "D", "s": 1.5, "l": 2},
    {"type": "D", "s": "١", "l": 2},
    {"type": "R", "m2": "３"},
    {"type": "R", "m2": "٣"},
    {"type": "R", "m2": 3.0},
    {"type": "R", "m2": True},
    {"type": "R", "m2": [3]},
])
def test_json_rejects_non_integer_fields(comp):
    with pytest.raises(SymbolSyntaxError):
        symbol_from_json({"components": [comp]})


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.tuples(st.integers(0, 4), st.integers(0, 8)).map(
                lambda t: TwoRow(Fraction(t[0]), t[1])
            ),
            st.integers(0, 4).map(lambda k: OneRow(2 * k + 1)),
        ),
        min_size=1,
        max_size=4,
    )
)
def test_round_trip_random(comps):
    if sum(isinstance(c, OneRow) for c in comps) > 1:
        return
    s = make_symbol(comps)
    assert parse_symbol(render_symbol(s)) == s
    assert symbol_from_json(symbol_to_json(s)) == s


# --- rows and dimensions ---------------------------------------------------

def test_dim_x_values():
    assert dim_x(sym("D(2,3)")) == 8
    assert dim_x(sym("R(5/2)")) == 6
    assert dim_x(sym("R(3/2)")) == 4
    assert dim_x(sym("D(2,3)+R(5/2)")) == 14


def test_rows_of_pair():
    rows = rows_of(sym("D(2,3)"))
    tops = sorted((r.top, r.bottom) for r in rows)
    assert tops == [(Fraction(1), Fraction(-2)), (Fraction(2), Fraction(-1))]


def test_index_parity():
    assert index_parity(sym("D(2,3)")) == "integer"
    assert index_parity(sym("R(5/2)")) == "half_odd"
    assert index_parity(sym("D(5/2,0)")) == "half_odd"
    assert index_parity(sym("D(2,3)+R(5/2)")) == "mixed"


def test_distribution_rank():
    assert distribution_rank(sym("R(5/2)")) == 2
    assert distribution_rank(sym("D(2,3)")) == 3
    assert distribution_rank(sym("D(2,4)")) == 3
    assert distribution_rank(sym("D(2,3)+R(5/2)")) == 4
    assert distribution_rank(sym("D(3,2)")) == 1     # no boxes at weight 0


# --- finiteness ------------------------------------------------------------

def test_finite_type_known_cases():
    finite = ["D(2,3)", "D(1,2)", "D(2,4)", "D(3,4)", "R(3/2)", "R(5/2)"]
    infinite = ["D(2,2)", "D(1,1)", "R(1/2)", "D(2,0)", "D(0,0)"]
    for t in finite:
        assert is_finite_type(sym(t)), t
    for t in infinite:
        assert not is_finite_type(sym(t)), t


def test_finite_type_routes_agree():
    # diagram test vs closed-form test on every single-component symbol in range
    for s_top in range(0, 5):
        for l in range(0, 2 * s_top + 1):
            t = make_symbol([TwoRow(Fraction(s_top), l)])
            if distribution_rank(t) == 3:
                assert finite_type_by_rank(t) == is_finite_type(t), t
    for m2 in range(1, 12, 2):
        t = make_symbol([OneRow(m2)])
        assert finite_type_by_rank(t) == is_finite_type(t), t


def test_finite_type_by_rank_unsupported():
    with pytest.raises(UnsupportedRank):
        finite_type_by_rank(sym("D(2,3)+R(5/2)"))
    with pytest.raises(UnsupportedRank):
        finite_type_by_rank(sym("D(3,2)"))


# --- pads and enumeration --------------------------------------------------

def test_modify_symbol():
    s = sym("D(2,3)")
    assert modify_symbol(s, 0, "odd", 1) == s
    padded = modify_symbol(s, 2, "odd", 1)
    assert padded == sym("D(2,3)+2*D(0,0)")
    assert modify_symbol(s, 1, "even", Fraction(-1, 2)) == sym("D(2,3)+D(1,0)")
    with pytest.raises(ConstraintError):
        modify_symbol(s, 1, "odd", 2)
    with pytest.raises(ConstraintError):
        modify_symbol(s, 1, "up", 0)


def test_enumerate_rank2():
    (only,) = enumerate_symbols(2, 5)
    assert only == sym("R(3/2)")
    for n in (6, 7, 8):
        (s,) = enumerate_symbols(2, n)
        assert s.components == (OneRow(2 * n - 7),)
        assert dim_x(s) == 2 * n - 6


def test_enumerate_rank3():
    out = enumerate_symbols(3, 7)
    assert out == (sym("D(2,3)"), sym("D(3,3)"))
    for n in range(5, 10):
        for s in enumerate_symbols(3, n):
            assert dim_x(s) == 2 * n - 6
            assert distribution_rank(s) == 3


@pytest.mark.parametrize("rank", [2, 3])
def test_enumerate_checks_the_budget_before_building(monkeypatch, rank):
    n = (MAX_DIM_X + 6) // 2
    assert all(dim_x(s) == MAX_DIM_X for s in enumerate_symbols(rank, n))

    def no_build(components):
        raise AssertionError("built a symbol over the budget")

    monkeypatch.setattr(symbols, "make_symbol", no_build)
    with pytest.raises(ConstraintError, match="above the limit"):
        enumerate_symbols(rank, n + 1)


def test_enumerate_unsupported():
    with pytest.raises(UnsupportedRank):
        enumerate_symbols(4, 9)
    with pytest.raises(UnsupportedRank):
        enumerate_symbols(1, 9)


# --- model space -----------------------------------------------------------

def test_model_space_tiny():
    x = build_model_space(sym("D(1,0)"))
    assert x.labels == ("E0[1]", "F0[-1]")
    assert x.sigma == ((Fraction(0), Fraction(1)), (Fraction(-1), Fraction(0)))


def test_model_space_centered_row():
    x = build_model_space(sym("R(3/2)"))
    assert x.weights == (Fraction(3, 2), Fraction(1, 2), Fraction(-1, 2), Fraction(-3, 2))
    assert x.sigma[0][3] == 1 and x.sigma[3][0] == -1
    assert x.sigma[1][2] == -1 and x.sigma[2][1] == 1


@pytest.mark.parametrize(
    "text",
    ["D(2,3)", "D(1,2)", "D(2,4)", "R(5/2)", "D(2,3)+R(5/2)", "2*D(1,2)", "D(5/2,1)", "D(2,2)"],
)
def test_model_space_invariants(text):
    x = build_model_space(sym(text))
    n = x.dim
    assert n == dim_x(x.symbol)
    assert sorted(x.weights, reverse=True) != [] and len(box_weights(x.symbol)) == n
    # sigma: skew, nondegenerate, graded (pairs only opposite weights)
    assert rank(x.sigma) == n
    for i in range(n):
        for j in range(n):
            assert x.sigma[i][j] == -x.sigma[j][i]
            if x.sigma[i][j] != 0:
                assert x.weights[i] + x.weights[j] == 0
    # the shift lowers weight by exactly 1 and stays inside each row
    for j in range(n):
        col = [x.shift[i][j] for i in range(n)]
        for i, c in enumerate(col):
            if c != 0:
                assert x.weights[i] == x.weights[j] - 1
                assert x.row_index[i] == x.row_index[j]
    # shift is compatible with sigma: sigma(Sv, w) + sigma(v, Sw) = 0
    lhs = mat_mul(transpose(x.shift), x.sigma)
    rhs = mat_mul(x.sigma, x.shift)
    total = [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(lhs, rhs)]
    assert all(is_zero_vector(r) for r in total)


def test_model_space_top_pairing_sign():
    # the top box of the upper row pairs with +1 against the bottom of its mirror
    for text in ["D(2,3)", "D(3,4)", "R(5/2)"]:
        x = build_model_space(sym(text))
        n = x.dim
        top = x.weights.index(max(x.weights))
        bottom = x.weights.index(min(x.weights))
        assert x.sigma[top][bottom] == 1


def reference_pairing(x):
    """(pi(a), s_a) per box a, scanned off the dense sigma: sigma[a][pi(a)]
    = s_a is the one nonzero of row a."""
    out = []
    for row in x.sigma:
        (pair,) = [(b, int(c)) for b, c in enumerate(row) if c]
        out.append(pair)
    return tuple(out)


def reference_chains(x):
    """The shift's Jordan chains, walked down the dense shift from each box
    that no box is sent to."""
    n = x.dim
    down = {j: i for i in range(n) for j in range(n) if x.shift[i][j]}
    chains = [[a] for a in range(n) if a not in down.values()]
    for chain in chains:
        while chain[-1] in down:
            chain.append(down[chain[-1]])
    return chains


def test_layout_matches_the_dense_sigma_and_shift():
    for name, s in formula_universe().items():
        x = build_model_space(s)
        rows = rows_of(s)
        assert x.pairing == reference_pairing(x), name
        assert [list(c) for c in x.chains] == reference_chains(x), name
        assert len(x.chains) == len(rows)
        for ri, chain in enumerate(x.chains):
            assert all(x.row_index[a] == ri for a in chain)
            assert [x.weights[a] for a in chain] == [rows[ri].top - p for p in range(len(chain))]
        for a, (b, c) in enumerate(x.pairing):
            assert x.pairing[b][0] == a, name
            assert x.pairing[b][1] == -c, name
            assert x.weights[b] == -x.weights[a], name
