"""Structure-constant algebras: Heisenberg, flat models, Killing forms."""
from __future__ import annotations

import hashlib
from fractions import Fraction

import pytest

from spflag.exact import is_zero_vector, mat, rref, span_contains
from spflag.liealg import (
    FlatModel,
    algebra_from_entries,
    flat_model,
    generated_subalgebra,
    heisenberg,
    heisenberg_from_space,
    killing_matrix,
    symmetric_signature,
)
from spflag.symbols import build_model_space, parse_symbol


def fm(text) -> FlatModel:
    return flat_model(parse_symbol(text))


def basis(alg, label):
    return alg.basis_vector(alg.labels.index(label))


# --- generic algebra machinery --------------------------------------------

def sl2():
    labels = ("e", "h", "f")
    entries = {(0, 1): {0: -2}, (0, 2): {1: 1}, (1, 2): {2: -2}}
    return algebra_from_entries(labels, (2, 0, -2), entries)


def test_sl2_brackets_and_jacobi():
    g = sl2()
    e, h, f = (g.basis_vector(i) for i in range(3))
    assert g.bracket(h, e) == (Fraction(2), Fraction(0), Fraction(0))
    assert g.bracket(e, f) == (Fraction(0), Fraction(1), Fraction(0))
    assert g.bracket(h, f) == (Fraction(0), Fraction(0), Fraction(-2))
    g.check_jacobi()
    g.check_graded()


def test_sl2_killing():
    g = sl2()
    b = killing_matrix(g)
    assert b == mat([[0, 0, 4], [0, 8, 0], [4, 0, 0]])
    sig = symmetric_signature(b)
    assert sig == {"rank": 3, "positive": 2, "negative": 1}


def test_symmetric_signature_cases():
    assert symmetric_signature(mat([[1, 0, 0], [0, -2, 0], [0, 0, 0]])) == {
        "rank": 2,
        "positive": 1,
        "negative": 1,
    }
    # zero diagonal forces the row/column addition branch
    assert symmetric_signature(mat([[0, 1], [1, 0]])) == {
        "rank": 2,
        "positive": 1,
        "negative": 1,
    }
    with pytest.raises(ValueError):
        symmetric_signature(mat([[0, 1], [0, 0]]))


# --- Heisenberg ------------------------------------------------------------

def test_heisenberg_structure():
    h = heisenberg(4)
    g = h.algebra
    assert g.dim == 5
    g.check_jacobi()
    g.check_graded()
    z = g.basis_vector(h.z_index)
    for i in range(4):
        vi = g.basis_vector(i)
        assert is_zero_vector(g.bracket(vi, z))
        for j in range(4):
            vj = g.basis_vector(j)
            br = g.bracket(vi, vj)
            expected = tuple(Fraction(0) for _ in range(4)) + (h.space.sigma[i][j],)
            assert br == expected


def test_heisenberg_from_space_matches_sigma():
    x = build_model_space(parse_symbol("D(2,3)"))
    h = heisenberg_from_space(x)
    assert h.algebra.dim == 9
    h.algebra.check_jacobi()
    i = x.labels.index("E0[2]")
    j = x.labels.index("F0[-2]")
    br = h.algebra.bracket(h.algebra.basis_vector(i), h.algebra.basis_vector(j))
    assert br[h.z_index] == x.sigma[i][j] == 1


# SHA-256 of repr(flat_model(sym).algebra.rows) and of
# repr(heisenberg_from_space(x).algebra.rows), recorded while both were built
# from (row, weight) lookups and scans of the dense sigma
PINNED_FLAT = {
    "R(3/2)":
        "b615ec6680311b2cc2df8851b3f188e46c0b8800b79821262cd92fcf44f1b6ae",
    "D(1,2)":
        "b85663a3974568a644ca64dedd29fef461eccc3e1678fe0cef84ab943b5bf311",
    "D(2,3)+R(5/2)":
        "a3ccd737362b3ab3dbe1ff401e82db08ca73c8651d059d0696316a26b73098b9",
    "3*D(1/2,1)+R(1/2)":
        "0277d8d0a676dbb681b7c233018a91d4eecfa082e3e5421647308baf087c50ff",
    "D(7/2,4)+D(2,3)+R(1/2)":
        "d8daa914478c9a9ef9a8a3867a81a835fb095ca45e46d46cc70d95dc4b4c143b",
}
PINNED_HEISENBERG = {
    "R(3/2)":
        "756b244c3cd37ae8e8332ecd76dea2ee9fed573557d1b23bd06aa474dba5b2bb",
    "D(1,2)":
        "04787ed8e23ed181e07a8defe52b7317e210bbc57fc1206ee09b8cd6a18b7abe",
    "D(2,3)+R(5/2)":
        "87e52318c639108982548a0ba8d1b3f62d5f4786f18b1df362788f2241aae8db",
    "3*D(1/2,1)+R(1/2)":
        "f7f5cec70ba0dda08648480e5fef01fa1554616d6e7c288d99a198c4fd0e764f",
    "D(7/2,4)+D(2,3)+R(1/2)":
        "e8ded7348a01e72acd66d7e41ced3e337c78913af80e43e3597a47abe29d8db5",
}


@pytest.mark.parametrize("text", sorted(PINNED_FLAT))
def test_layout_built_structure_constants_are_pinned(text):
    sym = parse_symbol(text)
    flat = flat_model(sym).algebra.rows
    heis = heisenberg_from_space(build_model_space(sym)).algebra.rows
    assert hashlib.sha256(repr(flat).encode()).hexdigest() == PINNED_FLAT[text]
    assert hashlib.sha256(repr(heis).encode()).hexdigest() == PINNED_HEISENBERG[text]


def test_heisenberg_needs_even_dim():
    with pytest.raises(ValueError):
        heisenberg(5)


# --- flat models -----------------------------------------------------------

def test_flat_model_dims():
    assert fm("D(2,3)").algebra.dim == 7
    assert fm("R(5/2)").algebra.dim == 6
    assert fm("D(1,2)").algebra.dim == 6
    assert fm("D(2,3)+R(5/2)").algebra.dim == 11
    assert fm("D(2,0)").algebra.dim == 3


def test_flat_model_pair_brackets():
    m = fm("D(2,3)")
    g = m.algebra
    x = basis(g, "x")
    e0 = basis(g, "E0[0]")
    f0 = basis(g, "F0[0]")
    z = g.basis_vector(m.z_index)
    assert g.bracket(e0, f0) == z
    assert g.bracket(x, e0) == basis(g, "E0[-1]")
    assert g.bracket(x, basis(g, "F0[-1]")) == basis(g, "F0[-2]")
    assert is_zero_vector(g.bracket(x, basis(g, "E0[-1]")))  # row bottom
    assert is_zero_vector(g.bracket(x, z))


def test_flat_model_centered_row_bracket():
    m = fm("R(5/2)")
    g = m.algebra
    plus = basis(g, "C0[1/2]")
    minus = basis(g, "C0[-1/2]")
    assert g.bracket(plus, minus) == g.basis_vector(m.z_index)


def test_flat_model_half_odd_pair_signs():
    # the two middle brackets of a half-odd pair must alternate in sign
    m = fm("D(3/2,2)")
    g = m.algebra
    z = g.basis_vector(m.z_index)
    assert g.bracket(basis(g, "E0[1/2]"), basis(g, "F0[-1/2]")) == z
    assert g.bracket(basis(g, "E0[-1/2]"), basis(g, "F0[1/2]")) == tuple(-c for c in z)


def test_flat_model_abelian_pad():
    g = fm("D(2,0)").algebra
    for i in range(g.dim):
        for j in range(g.dim):
            assert is_zero_vector(g.table[i][j])
    assert fm("D(2,0)").distribution == (0,)


@pytest.mark.parametrize(
    "text",
    ["D(2,3)", "D(1,2)", "D(2,4)", "D(3,4)", "R(3/2)", "R(5/2)", "D(2,3)+R(5/2)", "D(3/2,2)", "D(1/2,0)"],
)
def test_flat_model_jacobi_and_grading(text):
    g = fm(text).algebra
    g.check_jacobi()
    g.check_graded()


@pytest.mark.parametrize(
    "text", ["D(2,3)", "D(1,2)", "D(2,4)", "D(3,4)", "R(3/2)", "R(5/2)", "D(2,3)+R(5/2)", "D(3/2,2)"]
)
def test_flat_model_distribution_generates(text):
    m = fm(text)
    gens = [m.algebra.basis_vector(i) for i in m.distribution]
    closure = generated_subalgebra(m.algebra, gens)
    assert len(closure) == m.algebra.dim


@pytest.mark.parametrize("text, k, dim", [("D(2,3)", 2, 3), ("D(2,3)+R(5/2)", 3, 7)])
def test_generated_subalgebra_matches_naive_closure(text, k, dim):
    alg = fm(text).algebra
    gens = [alg.basis_vector(i) for i in fm(text).distribution[:k]]
    naive = list(gens)
    grown = True
    while grown:
        grown = False
        for u in list(naive):
            for v in list(naive):
                w = alg.bracket(u, v)
                if not span_contains(naive, w):
                    naive.append(w)
                    grown = True
    closure = generated_subalgebra(alg, gens)
    assert closure == rref(naive)[0]
    assert len(closure) == dim


def test_flat_model_distribution_rank():
    assert len(fm("D(2,3)").distribution) == 3
    assert len(fm("R(5/2)").distribution) == 2
    assert len(fm("D(2,3)+R(5/2)").distribution) == 4
