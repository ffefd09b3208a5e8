"""Exact linear algebra: elimination, Pfaffians, polynomial ring."""
from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spflag.errors import DegenerateBranch, NonSkew
from spflag.exact import (
    Echelon,
    MultiPoly,
    det,
    det_generic,
    frac,
    identity_matrix,
    is_zero_vector,
    kernel_basis,
    mat,
    mat_mul,
    mat_vec,
    monomials_of_degree,
    pfaffian,
    primitive_row,
    rank,
    rref,
    skew_kernel,
    solve_linear,
    span_contains,
    spans_equal,
    sub_pfaffians,
    vec,
)

from densekernel import dense_kernel


def random_rational(rng, lo=-20, hi=20, den=7):
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def random_matrix(rng, m, n):
    return tuple(tuple(random_rational(rng) for _ in range(n)) for _ in range(m))


def random_skew(rng, n):
    a = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x = random_rational(rng)
            a[i][j] = x
            a[j][i] = -x
    return tuple(tuple(r) for r in a)


# --- elimination -----------------------------------------------------------

def test_rank_and_kernel_small():
    a = mat([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    assert rank(a) == 2
    kb = dense_kernel(a)
    assert len(kb) == 1
    assert is_zero_vector(mat_vec(a, kb[0]))


def test_rank_identity():
    assert rank(identity_matrix(5)) == 5
    assert dense_kernel(identity_matrix(4)) == ()
    # sparse rows: none, or none with a term, leave every unknown free
    assert dense_kernel([], 4) == dense_kernel([{}], 4) == identity_matrix(4)


def test_kernel_vectors_annihilate_random():
    rng = random.Random(7)
    for _ in range(30):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        a = random_matrix(rng, m, n)
        kb = dense_kernel(a)
        assert rank(a) + len(kb) == n
        for v in kb:
            assert is_zero_vector(mat_vec(a, v))
        # the same rows as {col: Fraction} dicts, and with one more column
        # that no row touches, whose kernel vector is the unit vector there
        sparse = [{j: x for j, x in enumerate(row) if x} for row in a]
        assert dense_kernel(sparse, n) == kb
        wide = dense_kernel([{j + 1: x for j, x in row.items()} for row in sparse], n + 1)
        assert wide == ((Fraction(1),) + (Fraction(0),) * n,) + tuple((Fraction(0),) + v
                                                                      for v in kb)


def canonical_kernel(a, ncols):
    """The canonical kernel basis read off rref: per free column f, 1 at f
    and minus the rref entry of each pivot row at f."""
    rows, pivots = rref(a)
    return tuple(
        tuple(Fraction(1) if j == f else -rows[pivots.index(j)][f] if j in pivots
              else Fraction(0) for j in range(ncols))
        for f in range(ncols) if f not in pivots)


def test_kernel_vectors_are_sparse_and_canonical():
    # one vector per free column, holding only its nonzeros: 199 vectors of
    # 200 columns hold 200 entries, not 199 * 200
    kb = kernel_basis([{0: 1, 1: 1}], 200)
    assert len(kb) == 199 and sum(map(len, kb)) == 200
    assert kb[0] == {0: -1, 1: 1} and kb[1] == {2: 1}
    rng = random.Random(7)
    for _ in range(30):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        a = random_matrix(rng, m, n)
        kb = kernel_basis(a)
        assert [max(v) for v in kb] == [f for f in range(n) if f not in rref(a)[1]]
        for v in kb:
            assert list(v) == sorted(v) and v[max(v)] == 1 and all(v.values())
        assert dense_kernel(a) == canonical_kernel(a, n)


def test_rank_of_sparse_rows():
    # the column count of {col: value} rows is not the length of the first row
    assert rank([{}, {0: 1}]) == 1
    assert rank([{3: 1, 7: 2}, {}, {3: 2, 7: 4}, {5: Fraction(1, 2)}]) == 2
    assert rank([]) == rank([{}]) == rank([()]) == 0


def test_kernel_basis_needs_ncols_for_sparse_rows():
    # without ncols a {col: value} row has no column count; its length is not one
    with pytest.raises(ValueError, match="ncols"):
        kernel_basis([{0: 1, 5: 2}])
    assert dense_kernel([{0: 1, 5: 2}], 6)[0] == (0, 1, 0, 0, 0, 0)


def test_primitive_row_integer_and_rational_rows():
    # all-int rows skip the common denominator but still lose their content
    assert primitive_row({0: 4, 3: -6, 5: 0}) == {0: 2, 3: -3}
    assert primitive_row([0, 3, 5]) == {1: 3, 2: 5}
    got = primitive_row([Fraction(2), Fraction(-4, 3), 0])
    assert got == {0: 3, 1: -2} and all(type(x) is int for x in got.values())
    got = primitive_row({1: Fraction(6), 2: 9})
    assert got == {1: 2, 2: 3} and all(type(x) is int for x in got.values())
    assert primitive_row([0, 0]) == {}


def test_integer_rows_are_scaled_rref_rows():
    rng = random.Random(3)
    for _ in range(20):
        a = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
        rows = Echelon(len(a[0]), a).integer_rows()
        reduced = rref(a)[0]
        assert len(rows) == len(reduced)
        for row, ref in zip(rows, reduced):
            lead = next(j for j, x in enumerate(ref) if x)
            assert all(type(x) is int for x in row) and math.gcd(*row) == 1
            assert all(x == row[lead] * y for x, y in zip(row, ref))


def test_rref_canonical():
    a = mat([[2, 4], [1, 2]])
    b = mat([[1, 2]])
    assert spans_equal(a, b)
    assert not spans_equal(a, mat([[1, 0]]))


def test_spans_equal_empty_basis():
    # an empty basis spans the zero space, as does a basis of zero vectors
    zeros = mat([[0, 0], [0, 0]])
    assert spans_equal((), ()) and spans_equal((), zeros) and spans_equal(zeros, [])
    assert not spans_equal((), mat([[0, 1]])) and not spans_equal(mat([[0, 1]]), [])


def test_span_contains():
    basis = mat([[1, 0, 1], [0, 1, 1]])
    assert span_contains(basis, vec([1, 1, 2]))
    assert not span_contains(basis, vec([0, 0, 1]))


def test_solve_linear():
    a = mat([[1, 1], [1, -1]])
    x = solve_linear(a, vec([3, 1]))
    assert x == (Fraction(2), Fraction(1))
    assert solve_linear(mat([[1, 1], [1, 1]]), vec([0, 1])) is None


def test_det_vs_cofactor_random():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 5)
        a = random_matrix(rng, n, n)
        assert det(a) == det_generic(a)


def test_det_singular():
    assert det(mat([[1, 2], [2, 4]])) == 0


# --- Pfaffians -------------------------------------------------------------

def test_pfaffian_2x2():
    assert pfaffian(mat([[0, 3], [-3, 0]])) == 3


def test_pfaffian_4x4_closed_form():
    # entries a..f = 1..6, expansion gives a*f - b*e + c*d
    a, b, c, d, e, f = 1, 2, 3, 4, 5, 6
    m = mat([[0, a, b, c], [-a, 0, d, e], [-b, -d, 0, f], [-c, -e, -f, 0]])
    assert pfaffian(m) == a * f - b * e + c * d == 8
    assert det(m) == 64


def test_pfaffian_odd_is_zero():
    assert pfaffian(random_skew(random.Random(0), 5)) == 0


def test_pfaffian_squares_to_det_seeded():
    for seed in range(100):
        rng = random.Random(seed)
        n = rng.choice([2, 4, 6, 8])
        a = random_skew(rng, n)
        assert pfaffian(a) ** 2 == det(a)


def test_pfaffian_polynomial_entries():
    vs = ("a", "b", "c", "d", "e", "f")
    a, b, c, d, e, f = (MultiPoly.variable(vs, v) for v in vs)
    z = MultiPoly(vs)
    m = (
        (z, a, b, c),
        (-a, z, d, e),
        (-b, -d, z, f),
        (-c, -e, -f, z),
    )
    assert pfaffian(m) == a * f - b * e + c * d


def test_sub_pfaffians_2x2():
    # removing both rows and columns leaves the empty matrix, whose pf is 1
    m = mat([[0, 5], [-5, 0]])
    cof = sub_pfaffians(m)
    assert cof[0][1] == 1 and cof[1][0] == -1 and cof[0][0] == 0


def test_pfaffian_cofactor_expansion_seeded():
    # sum_j (-1)^(j+1) a[s][j] A[i][j] is 0 for i != s and +-pf on the diagonal
    for seed in range(40):
        rng = random.Random(1000 + seed)
        n = rng.choice([2, 4, 6])
        a = random_skew(rng, n)
        cof = sub_pfaffians(a)
        pf = pfaffian(a)
        for i in range(n):
            for s in range(n):
                acc = Fraction(0)
                for j in range(n):
                    term = a[s][j] * cof[i][j]
                    acc += -term if j % 2 == 0 else term
                expected = pf if i == s else Fraction(0)
                if i == s and s % 2 == 1:
                    expected = -pf
                assert acc == expected


def _pfaffian_by_recursion(a):
    """The Pfaffian by first-row cofactor recursion with a memo of its own,
    on an explicit matrix: the oracle for the shared cofactor table."""
    memo = {}

    def pf(idx):
        if not idx:
            return 1
        if idx not in memo:
            s0, rest = idx[0], idx[1:]
            total = 0
            for pos, k in enumerate(rest):
                term = a[s0][k] * pf(tuple(x for x in rest if x != k))
                total = total + term if pos % 2 == 0 else total - term
            memo[idx] = total
        return memo[idx]

    return 0 if len(a) % 2 else pf(tuple(range(len(a))))


def _deleted(a, drop):
    keep = [k for k in range(len(a)) if k not in drop]
    return [[a[i][j] for j in keep] for i in keep]


def random_poly_skew(rng, n):
    """Skew matrix of random linear forms in three variables."""
    vs = ("u", "v", "w")
    gens = [MultiPoly.variable(vs, x) for x in vs]
    a = [[MultiPoly(vs)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x = MultiPoly(vs)
            for g in gens:
                x = x + g * rng.randint(-3, 3)
            a[i][j] = x
            a[j][i] = -x
    return tuple(tuple(r) for r in a)


@pytest.mark.parametrize("entries", ["fraction", "poly"])
def test_sub_pfaffians_match_deleted_submatrices(entries):
    make = random_skew if entries == "fraction" else random_poly_skew
    for n in range(8):
        for seed in range(3):
            a = make(random.Random(100 * n + seed), n)
            assert pfaffian(a) == _pfaffian_by_recursion(a)
            cof = sub_pfaffians(a)
            if n % 2:
                assert cof == tuple(_pfaffian_by_recursion(_deleted(a, {i}))
                                    for i in range(n))
                continue
            for i in range(n):
                assert cof[i][i] == 0
                for j in range(i + 1, n):
                    p = _pfaffian_by_recursion(_deleted(a, {i, j}))
                    assert cof[i][j] == p and cof[j][i] == -p


# --- skew kernels ----------------------------------------------------------

def test_skew_kernel_3x3_pattern():
    p, q, r = Fraction(2), Fraction(3), Fraction(5)
    a = mat([[0, p, q], [-p, 0, r], [-q, -r, 0]])
    res = skew_kernel(a)
    assert res.closed_form
    assert len(res.basis) == 1
    assert res.basis[0] == (r, -q, p)
    assert is_zero_vector(mat_vec(a, res.basis[0]))


def test_skew_kernel_zero_matrix_2x2_closed():
    # corank 2 still has a cofactor formula: the empty-matrix cofactor is 1
    res = skew_kernel(mat([[0, 0], [0, 0]]))
    assert res.closed_form
    assert spans_equal(res.basis, identity_matrix(2))


def test_skew_kernel_zero_matrix_4x4_falls_back():
    z = mat([[0] * 4 for _ in range(4)])
    res = skew_kernel(z)
    assert not res.closed_form
    assert spans_equal(res.basis, identity_matrix(4))
    with pytest.raises(DegenerateBranch):
        skew_kernel(z, require_closed_form=True)


def test_skew_kernel_rejects_non_skew():
    with pytest.raises(NonSkew):
        skew_kernel(mat([[0, 1], [1, 0]]))


def test_skew_kernel_matches_nullspace_seeded():
    hit_closed = 0
    for seed in range(100):
        rng = random.Random(2000 + seed)
        n = rng.randint(2, 8)
        a = random_skew(rng, n)
        if rng.random() < 0.4:
            # force rank drop: replace last row/col pair by a combination
            c = [random_rational(rng) for _ in range(n - 1)]
            rows = [list(r) for r in a]
            for j in range(n):
                rows[n - 1][j] = sum((ci * rows[i][j] for i, ci in enumerate(c)), Fraction(0))
            for i in range(n):
                rows[i][n - 1] = -rows[n - 1][i]
            rows[n - 1][n - 1] = Fraction(0)
            a = tuple(tuple(r) for r in rows)
        res = skew_kernel(a)
        assert spans_equal(res.basis, dense_kernel(a))
        hit_closed += res.closed_form
    assert hit_closed > 50


def _kernel_from_all_cofactors(a):
    """The closed forms from the full cofactor table: the alternating
    cofactor vector for odd size, else the alternating cofactor rows of the
    first nonzero cofactor in row order; None when no closed form applies."""
    n = len(a)
    if n % 2:
        cof = [_pfaffian_by_recursion(_deleted(a, {i})) for i in range(n)]
        v = tuple(c if i % 2 == 0 else -c for i, c in enumerate(cof))
        return (v,) if any(v) else None
    if _pfaffian_by_recursion(a) != 0:
        return ()
    cof = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            p = _pfaffian_by_recursion(_deleted(a, {i, j}))
            cof[i][j], cof[j][i] = p, -p
    pivots = [(i, j) for i in range(n) for j in range(i + 1, n) if cof[i][j] != 0]
    if not pivots:
        return None
    return tuple(tuple(-cof[r][c] if c % 2 == 0 else cof[r][c] for c in range(n))
                 for r in pivots[0])


def test_skew_kernel_closed_forms_match_full_cofactor_table():
    rng = random.Random(31)
    for n in range(1, 8):
        for drop in range(5):
            a = [list(r) for r in random_skew(rng, n)]
            # zero the first rows and columns to raise the corank
            for i in range(min(drop, n)):
                for j in range(n):
                    a[i][j] = a[j][i] = Fraction(0)
            want = _kernel_from_all_cofactors(a)
            if want is None:
                with pytest.raises(DegenerateBranch):
                    skew_kernel(a, require_closed_form=True)
            else:
                assert skew_kernel(a, require_closed_form=True).basis == want


# --- polynomials -----------------------------------------------------------

small_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=5)


def poly_from_coeffs(coeffs):
    vs = ("x", "y")
    terms = {}
    exps = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]
    for e, c in zip(exps, coeffs):
        terms[e] = c
    return MultiPoly(vs, terms)


polys = st.lists(small_fracs, min_size=1, max_size=6).map(poly_from_coeffs)


@settings(max_examples=60, deadline=None)
@given(polys, polys, polys)
def test_poly_ring_laws(f, g, h):
    assert (f + g) * h == f * h + g * h
    assert f * g == g * f
    assert f - f == MultiPoly(("x", "y"))
    assert (f * g) * h == f * (g * h)


@settings(max_examples=60, deadline=None)
@given(polys, polys, small_fracs, small_fracs)
def test_poly_evaluation_homomorphism(f, g, px, py):
    at = {"x": px, "y": py}
    assert (f * g).subs(at) == f.subs(at) * g.subs(at)
    assert (f + g).subs(at) == f.subs(at) + g.subs(at)


def test_poly_derivative_and_subs():
    vs = ("x", "y")
    x = MultiPoly.variable(vs, "x")
    y = MultiPoly.variable(vs, "y")
    f = x ** 2 * y + 3 * y
    assert f.derivative("x") == 2 * x * y
    assert f.derivative("y") == x ** 2 + 3
    assert f.subs({"x": frac(2), "y": frac(1)}) == 7
    g = f.subs({"x": y})          # substitute a polynomial
    assert g == y ** 3 + 3 * y


def test_poly_repr_deterministic():
    vs = ("x", "y")
    x = MultiPoly.variable(vs, "x")
    y = MultiPoly.variable(vs, "y")
    assert repr(x * x - y + 1) == "x^2 - y + 1"


def test_monomials_of_degree():
    ms = monomials_of_degree(3, 2)
    assert len(ms) == 6
    assert ms[0] == (2, 0, 0)
    assert all(sum(m) == 2 for m in ms)


def _det_by_laplace(a):
    """Laplace expansion along the first row, each minor copied and expanded
    anew: the oracle for the shared minor table."""
    if not a:
        return 1
    total = 0
    for j in range(len(a)):
        term = a[0][j] * _det_by_laplace([row[:j] + row[j + 1:] for row in a[1:]])
        total = total + term if j % 2 == 0 else total - term
    return total


def test_det_generic_matches_laplace_expansion():
    rng = random.Random(12)
    vs = ("u", "v")
    gens = [MultiPoly.variable(vs, x) for x in vs]
    for n in range(6):
        a = [list(random_matrix(rng, n, n)[i]) for i in range(n)]
        assert det_generic(a) == _det_by_laplace(a)
        p = [[gens[rng.randrange(2)] * rng.randint(-2, 2) + rng.randint(-2, 2)
              for _ in range(n)] for _ in range(n)]
        assert det_generic(p) == _det_by_laplace(p)


def test_det_generic_on_polys():
    vs = ("t",)
    t = MultiPoly.variable(vs, "t")
    m = ((t, 1 + 0 * t), (MultiPoly.constant(vs, 1), t))
    assert det_generic(m) == t * t - 1


# --- sympy as an independent oracle for the elimination engine -------------

def oracle_cases():
    """Seeded rational matrices: empty, zero, wide, tall, rank-deficient,
    mostly zero, and with ~150-bit entries."""
    rng = random.Random(2026)

    def dense(m, n, zeros=0.0, bits=None):
        def entry():
            if rng.random() < zeros:
                return Fraction(0)
            if bits:
                return Fraction(rng.randint(-2 ** bits, 2 ** bits), rng.randint(1, 2 ** 20))
            return random_rational(rng, -9, 9, 5)
        return tuple(tuple(entry() for _ in range(n)) for _ in range(m))

    cases = [(), ((Fraction(0),) * 4,) * 3]
    for _ in range(4):
        cases.append(dense(3, 7))                       # wide
        cases.append(dense(8, 3))                       # tall
        low = mat_mul(dense(6, 3), dense(3, 6))         # rank at most 3
        cases.append(low + (tuple(x + y for x, y in zip(low[0], low[1])),))
        cases.append(dense(9, 12, zeros=0.85))          # at least 80% zeros
        cases.append(dense(5, 6, bits=150))
        cases.append(dense(5, 5, zeros=0.3))
    return cases


def to_sympy(sympy, a, ncols=None):
    ncols = len(a[0]) if a else ncols
    return sympy.Matrix(len(a), ncols,
                        [sympy.Rational(x.numerator, x.denominator) for row in a for x in row])


def from_sympy(x):
    return Fraction(int(x.p), int(x.q))


def test_engine_matches_sympy_rank_rref_kernel():
    sympy = pytest.importorskip("sympy")
    for a in oracle_cases():
        m = to_sympy(sympy, a, 0)
        assert rank(a) == m.rank()
        r, pivots = m.rref()
        expect = tuple(tuple(from_sympy(x) for x in r.row(i)) for i in range(len(pivots)))
        assert rref(a) == (expect, tuple(pivots))
        if a:
            assert dense_kernel(a) == tuple(
                tuple(from_sympy(x) for x in v) for v in m.nullspace())


def test_det_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for a in oracle_cases():
        if a and len(a) == len(a[0]):
            assert det(a) == from_sympy(to_sympy(sympy, a).det())


def test_pfaffian_squares_to_sympy_det():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(8128)
    for n in range(9):
        for _ in range(4):
            a = random_skew(rng, n)
            pf = pfaffian(a)
            if n % 2:
                assert pf == 0
            else:
                assert pf ** 2 == from_sympy(to_sympy(sympy, a, n).det())


def test_solve_linear_matches_sympy_consistency():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(77)
    for a in oracle_cases():
        if not a:
            continue
        x0 = vec(random_rational(rng) for _ in a[0])
        for b in (mat_vec(a, x0), vec(random_rational(rng) for _ in a)):
            m = to_sympy(sympy, a)
            consistent = m.rank() == m.row_join(to_sympy(sympy, [(x,) for x in b])).rank()
            x = solve_linear(a, b)
            assert (x is not None) == consistent
            if x is not None:
                assert mat_vec(a, x) == b
