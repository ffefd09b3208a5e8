"""Degreewise prolongation engine and algebra assembly."""
from __future__ import annotations

import hashlib
from dataclasses import replace
from fractions import Fraction

import pytest

from spflag.errors import CapReached, JacobiViolation
from spflag.exact import identity_matrix, kernel_basis, mat, rank
from spflag.flagprolong import flag_prolong
from spflag.liealg import (
    algebra_from_entries,
    heisenberg,
    heisenberg_from_space,
    killing_matrix,
    symmetric_signature,
)
from spflag.symbols import build_model_space, dim_x, is_finite_type, parse_symbol
from spflag.tanaka import LayerElement, _Engine, assemble_algebra, conformal_factor, prolong
from universes import formula_universe

E = mat([[0, 1], [0, 0]])
H = mat([[1, 0], [0, -1]])
F = mat([[0, 0], [1, 0]])
ID2 = identity_matrix(2)


def test_conformal_factor():
    sigma = heisenberg(2).space.sigma
    assert conformal_factor(ID2, sigma) == 2
    for a in (E, H, F):
        assert conformal_factor(a, sigma) == 0


def test_conformal_factor_rejects():
    sigma4 = heisenberg(4).space.sigma
    bad = mat([[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    with pytest.raises(ValueError):
        conformal_factor(bad, sigma4)


def test_trivial_g0_terminates():
    tp = prolong(heisenberg(2), [])
    assert tp.report.terminated
    assert tp.report.degrees == ((1, 0), (2, 0))
    assert tp.report.total_dim == 3


def test_scaling_only_g0():
    # phi(v_a) = c_a Id forces 3 c_a = 0 via the center constraint, so u1 = 0
    tp = prolong(heisenberg(2), [ID2])
    assert tp.report.degrees == ((1, 0), (2, 0))
    assert tp.report.total_dim == 4


def test_full_csp_is_infinite():
    # contact fields: degree k has as many dimensions as weighted-degree-(k+2)
    # monomials in two degree-1 variables and one degree-2 variable
    with pytest.raises(CapReached) as exc:
        prolong(heisenberg(2), [E, H, F, ID2], kmax=3)
    report = exc.value.report
    assert not report.terminated
    assert report.degrees == ((1, 6), (2, 9), (3, 12))
    assert report.total_dim is None


def test_torus_g0_gives_eight_dim_algebra():
    # u1 was solved by hand: phi(v_a) = alpha_a H + beta_a Id with
    # alpha_1 = 3 beta_1, alpha_2 = -3 beta_2, so exactly two parameters
    tp = prolong(heisenberg(2), [H, ID2])
    assert tp.report.terminated
    assert tp.report.degrees == ((1, 2), (2, 1), (3, 0), (4, 0))
    assert tp.report.total_dim == 8
    alg = assemble_algebra(tp)     # includes a full Jacobi check
    assert alg.dim == 8
    sig = symmetric_signature(killing_matrix(alg))
    assert sig["rank"] == 8


def test_assemble_scaling_case():
    tp = prolong(heisenberg(2), [ID2])
    alg = assemble_algebra(tp)
    assert alg.dim == 4
    sig = symmetric_signature(killing_matrix(alg))
    assert sig == {"rank": 1, "positive": 1, "negative": 0}


def test_zero_layer_stays_zero():
    # once a layer vanishes the next must too; the report shows both
    tp = prolong(heisenberg(4), [])
    assert tp.report.degrees == ((1, 0), (2, 0))


def test_report_json_shape():
    tp = prolong(heisenberg(2), [ID2])
    d = tp.report.to_json_dict()
    assert d["schema"] == "sp-1"
    assert d["degrees"] == [{"k": 1, "dim": 0}, {"k": 2, "dim": 0}]
    assert d["terminated"] is True
    assert d["total_dim"] == 4


def test_determinism():
    a = prolong(heisenberg(2), [H, ID2]).report
    b = prolong(heisenberg(2), [H, ID2]).report
    assert a == b


# --- assembled algebras against dense references built from the table --------

def tanaka_of(text):
    x = build_model_space(parse_symbol(text))
    return prolong(heisenberg_from_space(x), flag_prolong(x).matrices())


def dense_killing(table):
    """trace(ad_i ad_j) with ad_i[a][b] = table[i][b][a], summed densely."""
    n = len(table)
    return tuple(
        tuple(sum((table[i][b][a] * table[j][a][b] for a in range(n) for b in range(n)),
                  Fraction(0)) for j in range(n))
        for i in range(n))


def dense_jacobi_defects(table):
    """Triples i < j < k whose Jacobi sum is nonzero, from the dense table."""
    n = len(table)

    def bracket_with(u, k):
        out = [Fraction(0)] * n
        for m, c in enumerate(u):
            if c:
                for t in range(n):
                    out[t] += c * table[m][k][t]
        return out

    bad = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                terms = (bracket_with(table[i][j], k), bracket_with(table[j][k], i),
                         bracket_with(table[k][i], j))
                if any(sum(col) for col in zip(*terms)):
                    bad.append((i, j, k))
    return bad


# SHA-256 of repr(assemble_algebra(...).rows), recorded while _locator still
# eliminated dense rows augmented by an identity
PINNED_ALGEBRAS = {
    "R(3/2)": "ce9b2373200bfd91d51f72f357f8567c98a52ef2a7994b109f98bd9cc20647ef",
    "D(1,2)": "86484e140b9b36bf4d10902a84d473df22130ae037b07a0af1306b95ae2d398e",
    "D(2,3)": "63bd116495ebde1cb8c9744d169c863836f9cbeabc05a1a385c31c0da5750fb8",
}


@pytest.mark.parametrize("text", sorted(PINNED_ALGEBRAS))
def test_assembled_structure_constants_are_pinned(text):
    rows = assemble_algebra(tanaka_of(text)).rows
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == PINNED_ALGEBRAS[text]


@pytest.mark.parametrize("text", ["R(3/2)", "D(2,3)"])
def test_killing_matches_dense_trace(text):
    alg = assemble_algebra(tanaka_of(text))
    k = killing_matrix(alg)
    assert k == dense_killing(alg.table)
    # R(3/2) is simple; D(2,3) has a degenerate Killing form
    assert (rank(k) == alg.dim) == (text == "R(3/2)")


def test_check_jacobi_catches_one_changed_constant():
    alg = assemble_algebra(tanaka_of("R(3/2)"))
    entries = {(i, j): dict(t) for i, row in enumerate(alg.rows) for j, t in row.items()
               if i < j}
    for (i, j), t in sorted(entries.items())[::3]:
        k = max(t)
        broken = algebra_from_entries(alg.labels, alg.degrees2,
                                      {**entries, (i, j): {**t, k: t[k] + 1}})
        # the first failing triple in i < j < k order is the one reported
        first = dense_jacobi_defects(broken.table)[0]
        with pytest.raises(JacobiViolation) as exc:
            broken.check_jacobi()
        assert str(exc.value) == "Jacobi fails on ({}, {}, {})".format(
            *(alg.labels[m] for m in first))


def test_assemble_rejects_bracket_outside_a_cut_layer():
    tp = tanaka_of("D(1,2)")
    assert tp.report.degrees[:2] == ((1, 6), (2, 1))
    # layer 1 without its last element, and nothing above it that refers to it
    cut = replace(tp, layers=(tp.layers[0][:-1], (), ()))
    with pytest.raises(JacobiViolation, match="degree 1 outside the computed layer"):
        assemble_algebra(cut)


def test_so43_table_independent_checks():
    tp = tanaka_of("D(1,2)")
    alg = assemble_algebra(tp)
    table = alg.table
    n = alg.dim
    assert n == 21
    for i in range(n):
        for j in range(n):
            assert table[i][j] == tuple(-c for c in table[j][i])
    alg.check_graded()
    # brackets with the negative part are the Heisenberg pairing and the
    # g0 matrices themselves
    dim_x = tp.heis.space.dim
    sigma = tp.heis.space.sigma
    for a in range(dim_x):
        for b in range(dim_x):
            assert table[a][b][dim_x] == sigma[a][b]
        for s, m in enumerate(tp.g0):
            g = dim_x + 1 + s
            assert table[g][a][:dim_x] == tuple(m[r][a] for r in range(dim_x))
    assert dense_jacobi_defects(table) == []
    assert rank(dense_killing(table)) == 21


# --- block-split Leibniz systems against one zero-filled system --------------

def _single_system_layer(eng, k):
    """The degree-k layer as the kernel of one system over all unknowns, each
    Leibniz identity written into a row of zeros of full length."""
    n, sigma = eng.n, eng.sigma
    d1, d2 = eng.dim(k - 1), eng.dim(k - 2)
    m2_off = d1 * n
    nvars = m2_off + d2
    if nvars == 0:
        return ()
    rows = []

    def put(*parts):
        row = [0] * nvars
        for off, entries, sign in parts:
            for s, c in entries.items():
                row[off + s] = sign * c
        rows.append(row)
        return row

    av, az = eng.actions(k - 1)
    for a in range(n):
        for b in range(a + 1, n):
            for r in range(d2):
                put((a * d1, av[b][r], 1), (b * d1, av[a][r], -1))[m2_off + r] = -sigma[a][b]
    av2, _ = eng.actions(k - 2)
    for a in range(n):
        for r, zrow in enumerate(az):
            put((a * d1, zrow, 1), (m2_off, av2[a][r], -1))
    return tuple(
        LayerElement(tuple(tuple(v[a * d1 + r] for a in range(n)) for r in range(d1)),
                     v[m2_off:])
        for v in kernel_basis(rows or [[0] * nvars]))


def _assert_layers_match_single_system(text, kmax):
    x = build_model_space(parse_symbol(text))
    eng = _Engine(heisenberg_from_space(x), flag_prolong(x).matrices())
    for k in range(1, kmax + 1):
        layer = eng.next_layer(k)
        assert repr(layer) == repr(_single_system_layer(eng, k)), (text, k)
        eng.layers.append(layer)
        if not layer:
            break


# every 16th acceptance-06 symbol with dim_x <= 10 (29 of 455) keeps this to
# about 5 s; the tower symbols and D(1,2) run to kmax 6, D(1,1) and D(2,2),
# of infinite type, to kmax 3
STRIDED_SYMBOLS = sorted(n for n, s in formula_universe().items() if dim_x(s) <= 10)[::16]


@pytest.mark.parametrize("text", ["R(3/2)", "D(2,3)", "D(2,4)", "D(3,4)", "D(1,2)", "R(5/2)",
                                  "D(3/2,3)", "D(1,1)", "D(2,2)"] + STRIDED_SYMBOLS)
def test_block_layers_match_single_system(text):
    _assert_layers_match_single_system(text, 6 if is_finite_type(parse_symbol(text)) else 3)
