"""Flag prolongation, sl2 structure, a/z/p decomposition, dimension predictors."""
import hashlib
import random
from dataclasses import fields
from fractions import Fraction
from functools import lru_cache

import pytest

from spflag.exact import (
    MultiPoly,
    mat_add,
    mat_mul,
    mat_sub,
    identity_matrix,
    is_zero_matrix,
    kernel_basis,
    rank,
    span_contains,
    spans_equal,
    transpose,
)
from spflag.flagprolong import (
    MatrixSubspace,
    _ad,
    _admissible_degrees,
    _dense,
    _graded_bases,
    _lowest_weight_vectors,
    _preimage,
    _sl2,
    _span_reduce,
    _subspace,
    decompose_azp,
    flag_prolong,
    flatten_matrix,
    graded_symplectic_basis,
    predicted_dims,
    rank_one_element,
    row_scaling_generators,
    sl2_triple,
)
from spflag.symbols import build_model_space, parse_symbol, render_symbol
from universes import formula_universe


@lru_cache(maxsize=None)
def space(text):
    return build_model_space(parse_symbol(text))


@lru_cache(maxsize=None)
def prolong(text):
    return flag_prolong(space(text))


@lru_cache(maxsize=None)
def decomposition(text):
    return decompose_azp(space(text))


def commutator(a, b):
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def _mul(a, b):
    b_rows = {}
    for (t, j), y in b.items():
        b_rows.setdefault(t, []).append((j, y))
    out = {}
    for (i, t), x in a.items():
        for j, y in b_rows.get(t, ()):
            out[i, j] = out.get((i, j), 0) + x * y
    return out


def _bracket(a, b):
    """The commutator ab - ba of sparse matrices, without zero entries: the
    generic product that _ad specialises."""
    out = _mul(a, b)
    for key, y in _mul(b, a).items():
        out[key] = out.get(key, 0) - y
    return {key: c for key, c in out.items() if c}


def _is_symplectic(x, m):
    """A^T sigma + sigma A = 0 for a sparse matrix A."""
    sigma = {(i, j): c for i, row in enumerate(x.sigma) for j, c in enumerate(row) if c}
    defect = _mul({(j, i): c for (i, j), c in m.items()}, sigma)
    for key, y in _mul(sigma, m).items():
        defect[key] = defect.get(key, 0) + y
    return not any(defect.values())


def test_matrix_subspace_contains_and_equals():
    m1 = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(0)))
    m2 = ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(1)))
    sub = MatrixSubspace((2, 2), (m1, m2))
    assert sub.dim == 2
    assert sub.contains(((Fraction(3), Fraction(0)), (Fraction(0), Fraction(-2))))
    assert not sub.contains(((Fraction(0), Fraction(1)), (Fraction(0), Fraction(0))))
    other = MatrixSubspace((2, 2), (mat_add(m1, m2), mat_sub(m1, m2)))
    assert sub.equals(other)
    assert MatrixSubspace((2, 2), ()).contains(((Fraction(0),) * 2,) * 2)


@pytest.mark.parametrize("text", ["D(2,3)", "D(1,2)+R(3/2)", "R(3/2)"])
def test_sparse_built_subspace_matches_dense_built(text):
    # _subspace keeps sparse matrices and densifies on first read; it must
    # be indistinguishable from the dense constructor
    x = space(text)
    n = x.dim
    for mats in (_span_reduce(_lowest_weight_vectors(x), n), []):
        dense = MatrixSubspace((n, n), tuple(_dense(m, n) for m in mats))
        lazy = _subspace(mats, n)
        assert lazy.dim == dense.dim == len(mats)
        assert "basis" not in vars(lazy)          # dim does not densify
        assert repr(lazy) == repr(dense)
        assert lazy.basis == dense.basis
        assert lazy == dense and dense == lazy and hash(lazy) == hash(dense)
        assert lazy.equals(dense) and dense.equals(lazy)
        probes = list(dense.basis) + [x.shift, identity_matrix(n)]
        assert [lazy.contains(m) for m in probes] == [dense.contains(m) for m in probes]
    assert _subspace([], 2) != MatrixSubspace((2, 2), (identity_matrix(2),))


def test_graded_basis_degree_zero():
    x = space("D(1,0)")
    plain = graded_symplectic_basis(x, 0, conformal=False)
    conf = graded_symplectic_basis(x, 0, conformal=True)
    assert len(plain) == 1 and len(conf) == 2
    flat = [flatten_matrix(m) for m in conf]
    assert span_contains(flat, flatten_matrix(identity_matrix(2)))


def _solved_graded_basis(x, k, positions, conformal):
    """Reference for graded_symplectic_basis: the degree-k part of sp(X), or
    of csp(X) at k = 0, solved for.  The unknowns are the entries at the
    degree-k positions, row by row, then the scale c; the equations are
    A^T sigma + sigma A = c sigma, and every kernel vector gives one member."""
    n = x.dim
    if not positions:
        return ()
    scaled = conformal and k == 0
    rows = []
    # the defect is skew, so the entries above the diagonal are its equations
    for r in range(n):
        for c in range(r + 1, n):
            # (A^T sigma + sigma A)[r][c] = sum_i A[i][r] sigma[i][c]
            #                              + sum_j sigma[r][j] A[j][c]
            row = [(x.sigma[i][c] if j == r else 0) + (x.sigma[r][i] if j == c else 0)
                   for i, j in positions]
            rows.append(row + [-x.sigma[r][c]] if scaled else row)
    out = []
    for v in kernel_basis(rows):
        m = [[Fraction(0)] * n for _ in range(n)]
        for (i, j), y in zip(positions, v):
            m[i][j] = y
        if any(y for y in v[:len(positions)]):
            out.append(tuple(tuple(row) for row in m))
    return tuple(out)


def test_graded_basis_matches_solved_reference():
    # the closed form read off the pairing against a linear solve, on every
    # acceptance-06 symbol small enough to solve densely
    for sym in formula_universe().values():
        x = build_model_space(sym)
        if x.dim > 10:
            continue
        positions = {}
        for i in range(x.dim):
            for j in range(x.dim):
                positions.setdefault(x.weights[i] - x.weights[j], []).append((i, j))
        spread = max(x.weights) - min(x.weights)
        k = Fraction(0)
        while k <= spread:
            for conformal in (False, True):
                assert repr(graded_symplectic_basis(x, k, conformal)) == repr(
                    _solved_graded_basis(x, k, positions.get(k, []), conformal)
                ), (render_symbol(sym), k)
            k += Fraction(1, 2)


@pytest.mark.parametrize("text", ["D(2,3)", "D(1,2)", "R(5/2)", "D(5/2,1)"])
def test_graded_basis_members_are_symplectic(text):
    x = space(text)
    spread = max(x.weights) - min(x.weights)
    k = Fraction(0)
    while k <= spread:
        for a in graded_symplectic_basis(x, k, conformal=False):
            defect = mat_add(mat_mul(transpose(a), x.sigma), mat_mul(x.sigma, a))
            assert is_zero_matrix(defect)
            for i in range(x.dim):
                for j in range(x.dim):
                    if a[i][j] != 0:
                        assert x.weights[i] - x.weights[j] == k
        k += Fraction(1, 2)


@pytest.mark.parametrize(
    "text", ["R(3/2)", "R(5/2)", "D(1,2)", "D(2,3)", "D(3,4)", "D(5/2,1)", "D(2,3)+R(5/2)"]
)
def test_sl2_relations(text):
    x = space(text)
    t = sl2_triple(x)
    assert t.e == x.shift == _dense(_sl2(x)[0], x.dim)
    minus_two_e = tuple(tuple(-2 * v for v in row) for row in t.e)
    two_f = tuple(tuple(2 * v for v in row) for row in t.f)
    assert commutator(t.e, t.f) == t.h
    assert commutator(t.h, t.e) == minus_two_e
    assert commutator(t.h, t.f) == two_f
    for m in (t.e, t.h, t.f):
        defect = mat_add(mat_mul(transpose(m), x.sigma), mat_mul(x.sigma, m))
        assert is_zero_matrix(defect)


def test_sl2_one_row_values():
    x = space("R(3/2)")
    t = sl2_triple(x)
    diag = [t.h[i][i] for i in range(4)]
    assert sorted(diag, reverse=True) == [3, 1, -1, -3]
    nonzero = sorted(t.f[i][j] for i in range(4) for j in range(4) if t.f[i][j] != 0)
    assert nonzero == [-4, -3, -3]


FLAG_TOTALS = [
    ("R(3/2)", 4),
    ("R(5/2)", 4),
    ("D(1,2)", 7),
    ("D(2,3)", 8),
    ("D(3,4)", 11),
    ("D(2,4)", 7),
    ("D(2,0)", 3),
    ("D(0,0)", 4),
    ("D(5/2,1)", 8),
]


@pytest.mark.parametrize("text,total", FLAG_TOTALS)
def test_flag_totals(text, total):
    assert prolong(text).total_dim == total


def test_flag_per_degree_profile():
    fp = prolong("D(2,3)")
    assert fp.layer_dim(-1) == 1
    assert [fp.layers[d].dim for d in fp.degrees] == [4, 2, 1, 0, 0]


@pytest.mark.parametrize("text", ["D(2,3)", "D(3,4)", "D(1,2)+R(3/2)", "D(2,0)"])
def test_flag_layers_chain_into_previous(text):
    x = space(text)
    fp = prolong(text)
    n = x.dim
    shift_zero = is_zero_matrix(x.shift)
    for k in fp.degrees:
        if k == 0:
            prev = MatrixSubspace((n, n), () if shift_zero else (x.shift,))
        elif k == Fraction(1, 2):
            prev = MatrixSubspace((n, n), ())
        else:
            prev = fp.layers[k - 1]
        for a in fp.layers[k].basis:
            assert prev.contains(commutator(a, x.shift))
            defect = mat_add(mat_mul(transpose(a), x.sigma), mat_mul(x.sigma, a))
            if k != 0:
                assert is_zero_matrix(defect)
            for i in range(n):
                for j in range(n):
                    if a[i][j] != 0:
                        assert x.weights[i] - x.weights[j] == k


def test_flag_kmax_truncates():
    full = prolong("D(2,3)")
    cut = flag_prolong(space("D(2,3)"), k_max=0)
    assert cut.degrees == (Fraction(0),)
    assert cut.total_dim == 1 + full.layers[Fraction(0)].dim


def test_flag_determinism():
    a = flag_prolong(space("D(2,3)"))
    b = flag_prolong(space("D(2,3)"))
    assert a.degrees == b.degrees
    assert all(a.layers[d].basis == b.layers[d].basis for d in a.degrees)


@pytest.mark.parametrize("text", ["D(1,2)", "D(2,3)", "R(5/2)", "D(2,0)", "D(1,0)+R(3/2)"])
def test_flag_is_radical_plus_identity_line(text):
    x = space(text)
    fp = prolong(text)
    dec = decomposition(text)
    ident = identity_matrix(x.dim)
    sl2_part = [m for m in (dec.sl2.e, dec.sl2.h, dec.sl2.f) if not is_zero_matrix(m)]
    expected = list(dec.l_of_x.basis) + sl2_part + [ident]
    assert spans_equal(
        [flatten_matrix(m) for m in fp.matrices()],
        [flatten_matrix(m) for m in expected],
    )
    assert dec.r_of_uf.dim == dec.l_of_x.dim + len(sl2_part)
    assert fp.total_dim == dec.r_of_uf.dim + 1


DECOMP_ORACLES = [
    # text, l, z, p
    ("D(1,2)", 3, 1, 2),
    ("D(2,3)", 4, 1, 3),
    ("R(3/2)", 0, 0, 0),
    ("R(5/2)", 0, 0, 0),
    ("D(3,4)", 7, 1, 6),
]


@pytest.mark.parametrize("text,l,z,p", DECOMP_ORACLES)
def test_decompose_dimensions(text, l, z, p):
    dec = decomposition(text)
    assert dec.l_of_x.dim == l
    assert dec.z.dim == z
    assert dec.p.dim == p


# many rows, several components of one kind and a one-row component
SPLIT_SAMPLES = ["D(3/2,3)+3*D(1/2,1)", "3*D(1/2,1)+R(7/2)", "D(7/2,4)+D(2,3)+R(1/2)"]


@pytest.mark.parametrize(
    "text", ["D(1,2)", "D(2,3)+D(1,0)", "2*D(1,0)", "D(3/2,2)"] + SPLIT_SAMPLES)
def test_z_is_row_scaling_span(text):
    x = space(text)
    dec = decomposition(text)
    gens = row_scaling_generators(x)
    assert spans_equal(
        [flatten_matrix(m) for m in dec.z.basis],
        [flatten_matrix(m) for m in gens],
    )


@pytest.mark.parametrize(
    "text", ["D(1,2)", "D(2,3)", "R(5/2)", "D(2,0)", "D(1,2)+R(3/2)"] + SPLIT_SAMPLES)
def test_a_splits_into_z_and_sl2(text):
    dec = decomposition(text)
    sl2_part = [m for m in (dec.sl2.e, dec.sl2.h, dec.sl2.f) if not is_zero_matrix(m)]
    assert dec.a.dim == dec.z.dim + len(sl2_part)
    assert spans_equal(
        [flatten_matrix(m) for m in dec.a.basis],
        [flatten_matrix(m) for m in list(dec.z.basis) + sl2_part],
    )


@pytest.mark.parametrize(
    "text",
    ["D(1,2)", "D(2,3)", "D(2,0)", "D(2,3)+D(1,0)", "D(1,2)+R(3/2)", "D(5/2,1)"] + SPLIT_SAMPLES,
)
def test_l_splits_into_z_and_p(text):
    dec = decomposition(text)
    assert dec.l_of_x.dim == dec.z.dim + dec.p.dim
    assert spans_equal(
        [flatten_matrix(m) for m in dec.l_of_x.basis],
        [flatten_matrix(m) for m in list(dec.z.basis) + list(dec.p.basis)],
    )


@pytest.mark.parametrize("text", ["D(1,2)", "D(2,3)+D(1,0)", "D(1,2)+R(3/2)", "D(5/2,1)"])
def test_decompose_azp_calls_no_preimage_or_graded_bases(monkeypatch, text):
    # the lowest-weight vectors are read off the Jordan chains of the shift
    # and a, z and p off the row-block split of l(X): nothing is solved for
    calls = []

    def counted(name):
        def call(*args, **kwargs):
            calls.append(name)
        return call

    for name in ("_preimage", "_graded_bases"):
        monkeypatch.setattr(f"spflag.flagprolong.{name}", counted(name))
    decompose_azp(space(text))
    assert calls == []


SL2_SAMPLES = ["D(1,2)", "D(2,3)", "D(3,4)", "D(2,3)+D(1,0)", "D(1,2)+R(3/2)", "D(5/2,1)"]


def _degrees(x, m):
    n = x.dim
    return {x.weights[i] - x.weights[j] for i in range(n) for j in range(n) if m[i][j] != 0}


@pytest.mark.parametrize("text", SL2_SAMPLES)
def test_l_is_sl2_invariant_degree_by_degree(text):
    x = space(text)
    dec = decomposition(text)
    for m in dec.l_of_x.basis:
        (k,) = _degrees(x, m)
        assert k >= 0
        for op, step in ((dec.sl2.e, -1), (dec.sl2.f, 1)):
            image = commutator(op, m)
            assert _degrees(x, image) <= {k + step}
            assert dec.l_of_x.contains(image)


@pytest.mark.parametrize("text", SL2_SAMPLES + SPLIT_SAMPLES + ["D(2,0)", "D(1,1)", "D(0,0)"])
def test_lowest_weight_vectors_are_killed_by_e(text):
    x = space(text)
    vectors = _lowest_weight_vectors(x)
    assert vectors
    for m in vectors:
        assert all(type(c) is int for c in m.values())
        assert min(x.weights[i] - x.weights[j] for i, j in m) >= 0
        assert _bracket(_sl2(x)[0], m) == {}
        assert _is_symplectic(x, m)


def _solved_lowest_weight_vectors(x, e):
    """Reference for _lowest_weight_vectors: ker(ad e) in sp(X)_k solved for
    in each admissible degree k >= 0, with the generic bracket."""
    return [m for basis in _graded_bases(x, _admissible_degrees(x)).values()
            for m in _preimage(basis, lambda m: _bracket(e, m), [])]


def test_lowest_weight_vectors_match_per_degree_solve():
    # the Jordan-chain construction against one kernel solve per degree, on
    # every acceptance-06 symbol
    for name, sym in formula_universe().items():
        x = build_model_space(sym)
        e = _sl2(x)[0]
        assert _span_reduce(_lowest_weight_vectors(x), x.dim) == _span_reduce(
            _solved_lowest_weight_vectors(x, e), x.dim), name


@pytest.mark.parametrize("text", SL2_SAMPLES + SPLIT_SAMPLES)
def test_ad_matches_generic_bracket(text):
    # e, h and f have one nonzero per row and column, so a relabelling of the
    # other side's nonzeros gives the bracket, on both sides
    x = space(text)
    degrees = _admissible_degrees(x)
    bases = _graded_bases(x, sorted({-k for k in degrees} | set(degrees)), conformal=True)
    for a in _sl2(x):
        for m in (m for basis in bases.values() for m in basis):
            assert _ad(a, m) == _bracket(a, m)
            assert _ad({p: -c for p, c in a.items()}, m) == _bracket(m, a)


@pytest.mark.parametrize("text", SL2_SAMPLES)
def test_decompose_azp_reuses_the_sl2_triple(text):
    assert decomposition(text).sl2 == sl2_triple(space(text))


def _fixpoint_l_of_x(x):
    """Reference for decompose_azp: (l, r, a, z, p) with l(X) found as the
    greatest subspace of nonnegative-degree sp(X) closed under ad e and ad f
    by shrinking each degree to the preimage of its neighbours until nothing
    changes, all on Fraction matrices."""
    n = x.dim
    triple = sl2_triple(x)
    e, h, f = ({(i, j): c for i, row in enumerate(m) for j, c in enumerate(row) if c}
               for m in (triple.e, triple.h, triple.f))
    # e lowers and f raises the weight, so [e, m] and [f, m] never overlap
    # and one bracket with e + f carries both
    e_plus_f = {**e, **f}
    degrees = _admissible_degrees(x)
    fam = {k: [{p: Fraction(c) for p, c in m.items()} for m in basis]
           for k, basis in _graded_bases(x, degrees).items()}
    changed = True
    while changed:
        changed = False
        for k in degrees:
            cur = fam[k]
            if not cur:
                continue
            near = fam.get(k - 1, []) + fam.get(k + 1, [])
            new = _span_reduce(_preimage(cur, lambda m: _bracket(e_plus_f, m), near), n)
            if len(new) != len(cur):
                fam[k] = new
                changed = True

    def off_rows(m):
        return {p: c for p, c in m.items() if x.row_index[p[0]] != x.row_index[p[1]]}

    l_basis = _span_reduce([m for k in degrees for m in fam[k]], n)
    r_basis = _span_reduce(l_basis + [e, h, f], n)
    a_basis = _span_reduce(_preimage(r_basis, off_rows, []), n)
    z_basis = _span_reduce(_preimage(a_basis, lambda m: m, l_basis), n)
    p_basis = _span_reduce([off_rows(m) for m in l_basis], n)
    return tuple(_subspace(b, n) for b in (l_basis, r_basis, a_basis, z_basis, p_basis))


# every third symbol keeps the oracle near 5 s; the whole universe runs in
# acceptance 06 against the closed formulas
ORACLE_STRIDE = 3


def test_lowest_weight_construction_matches_fixpoint():
    universe = formula_universe()
    for name in sorted(universe)[::ORACLE_STRIDE]:
        x = build_model_space(universe[name])
        dec = decompose_azp(x)
        got = (dec.l_of_x, dec.r_of_uf, dec.a, dec.z, dec.p)
        assert repr(got) == repr(_fixpoint_l_of_x(x)), name


@pytest.mark.parametrize("text", SL2_SAMPLES)
def test_z_is_a_meet_l_by_dimension(text):
    dec = decomposition(text)
    both = [flatten_matrix(m) for m in dec.a.basis + dec.l_of_x.basis]
    assert dec.z.dim == dec.a.dim + dec.l_of_x.dim - rank(both)


# SHA-256 of repr((flag_prolong layer bases, every decompose_azp field)),
# recorded before the sparse rewrite of flagprolong.  The Tanaka g0 basis,
# and so every assembled structure constant, is built on these exact bases.
PINNED_BASES = {
    "D(2,3)": "7fac80846811a185551f86b1c8b924d6fc25b873c25cc2deecda5bddf2d88721",
    "D(3,4)": "3561e604e47014b044548ef605c092d6f98af20626805db0cd53a6a1eb1329b7",
    "D(1,2)+R(3/2)": "cfe3c7c8c2cf3ae5b6fb0e7dcfb13c8f248af86d3d33cb8050d7e8afc9c84ece",
}


@pytest.mark.parametrize("text", sorted(PINNED_BASES))
def test_bases_are_pinned(text):
    fp = prolong(text)
    dec = decomposition(text)
    layers = tuple(fp.layers[d].basis for d in fp.degrees)
    azp = tuple(getattr(dec, f.name) for f in fields(dec))
    digest = hashlib.sha256(repr((layers, azp)).encode()).hexdigest()
    assert digest == PINNED_BASES[text]


def _poly_constant(c):
    return MultiPoly.constant(("t",), c)


def _poly_exp_of_shift(delta, sign):
    # exponential of the nilpotent shift, entries polynomial in t
    n = len(delta)
    t = MultiPoly.variable(("t",), "t")
    out = [[_poly_constant(1 if i == j else 0) for j in range(n)] for i in range(n)]
    power = [[_poly_constant(1 if i == j else 0) for j in range(n)] for i in range(n)]
    dmat = [[_poly_constant(sign * delta[i][j]) for j in range(n)] for i in range(n)]
    fact = Fraction(1)
    for k in range(1, n + 1):
        power = [
            [sum((power[i][m] * dmat[m][j] for m in range(n)), _poly_constant(0)) for j in range(n)]
            for i in range(n)
        ]
        if all(power[i][j] == 0 for i in range(n) for j in range(n)):
            break
        fact *= k
        for i in range(n):
            for j in range(n):
                out[i][j] = out[i][j] + power[i][j] * t ** k * Fraction(1, fact)
    return out


def _poly_matmul(a, b):
    n = len(a)
    return [
        [sum((a[i][m] * b[m][j] for m in range(n)), _poly_constant(0)) for j in range(n)]
        for i in range(n)
    ]


@pytest.mark.parametrize("text", ["D(1,2)", "D(2,3)", "D(5/2,1)"])
def test_l_preserves_exponentiated_weight_filtration(text):
    # conjugating by exp(t * shift) must keep every weight-filtration level
    # invariant, as an identity of polynomial matrices
    x = space(text)
    dec = decomposition(text)
    n = x.dim
    e_plus = _poly_exp_of_shift(x.shift, 1)
    e_minus = _poly_exp_of_shift(x.shift, -1)
    levels = sorted(set(x.weights), reverse=True)
    for a in dec.l_of_x.basis:
        a_poly = [[_poly_constant(a[i][j]) for j in range(n)] for i in range(n)]
        conj = _poly_matmul(e_minus, _poly_matmul(a_poly, e_plus))
        for theta in levels:
            inside = {i for i in range(n) if x.weights[i] >= theta}
            for j in inside:
                for i in range(n):
                    if i not in inside:
                        assert conj[i][j] == 0


def test_rank_one_element_is_symplectic_and_rank_one():
    x = space("D(2,3)")
    rng = random.Random(11)
    for _ in range(10):
        v = [Fraction(rng.randint(-4, 4)) for _ in range(x.dim)]
        a = rank_one_element(x, v)
        defect = mat_add(mat_mul(transpose(a), x.sigma), mat_mul(x.sigma, a))
        assert is_zero_matrix(defect)
        assert rank([list(r) for r in a]) <= 1


@pytest.mark.parametrize("text", ["D(1,1)", "D(2,2)", "D(3,2)", "D(2,1)", "D(3,3)"])
def test_rank_one_witness_when_overlap_condition_fails(text):
    # row-overlap failure admits a rank-one element inside p, found at the
    # top box of the upper row
    x = space(text)
    dec = decomposition(text)
    top = max(range(x.dim), key=lambda i: x.weights[i])
    v = [Fraction(0)] * x.dim
    v[top] = Fraction(1)
    a = rank_one_element(x, v)
    assert rank([list(r) for r in a]) == 1
    assert dec.p.contains(a)


@pytest.mark.parametrize("text", ["D(1,2)", "D(2,3)", "D(3,4)", "R(5/2)", "D(2,3)+R(5/2)"])
def test_rank_one_absent_for_finite_type(text):
    x = space(text)
    dec = decomposition(text)
    rng = random.Random(23)
    candidates = []
    for b in range(x.dim):
        v = [Fraction(0)] * x.dim
        v[b] = Fraction(1)
        candidates.append(v)
    for _ in range(20):
        candidates.append([Fraction(rng.randint(-5, 5)) for _ in range(x.dim)])
    for v in candidates:
        a = rank_one_element(x, v)
        if is_zero_matrix(a):
            continue
        assert not dec.p.contains(a)
        assert not dec.l_of_x.contains(a)


PREDICTION_SAMPLES = [
    "R(3/2)",
    "D(1,2)",
    "D(2,3)",
    "D(3,4)",
    "D(2,4)",
    "D(2,0)",
    "D(0,0)",
    "D(5/2,1)",
    "D(3/2,2)",
    "D(1,2)+R(3/2)",
    "D(2,3)+D(1,0)",
    "2*D(1,0)",
    "D(1,1)+D(1,1)",
    "D(3/2,0)+R(3/2)",
    "D(2,2)",
]


@pytest.mark.parametrize("text", PREDICTION_SAMPLES)
def test_predicted_matches_computed(text):
    sym = parse_symbol(text)
    pd = predicted_dims(sym)
    fp = prolong(text)
    dec = decomposition(text)
    assert pd["flag_total"] == fp.total_dim
    assert pd["l"] == dec.l_of_x.dim
    assert pd["z"] == dec.z.dim
    assert pd["p"] == dec.p.dim


def test_predicted_row_pair_values():
    pd = predicted_dims(parse_symbol("D(2,3)+D(1,0)"))
    # the only nonvanishing cross pair maps the long mirror row onto the pad
    assert sorted(pd["row_pairs"].values()) == [0, 0, 0, 4]
    assert pd["s_e"] == {0: 3, 1: 1}
    assert pd["s_f"] == {0: 0, 1: 0}
    assert pd["l"] == 10

    pd2 = predicted_dims(parse_symbol("2*D(1,0)"))
    assert sorted(pd2["row_pairs"].values()) == [0, 1, 1, 1]
    assert pd2["l"] == 7
    assert pd2["flag_total"] == 8
