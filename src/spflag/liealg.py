"""Structure-constant Lie algebras: Heisenberg models and flat models.

Degrees are carried as doubled integers so that half-integer gradings stay in
int arithmetic.  Structure constants are stored sparsely, one dict per basis
vector: rows[i][j] maps k to the nonzero coefficients of b_k in [b_i, b_j].
Both orders of every pair are stored, so skewness is built in.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import JacobiViolation
from .exact import Echelon, frac, vec
from .symbols import (
    HALF,
    FlagSymbol,
    GradedSymplecticSpace,
    OneRow,
    build_model_space,
    make_symbol,
    rows_of,
)


@dataclass(frozen=True)
class GradedLieAlgebra:
    labels: tuple
    degrees2: tuple        # doubled degrees, one per basis vector
    rows: tuple            # rows[i] = {j: {k: c}}: nonzero c in [b_i, b_j], both orders

    @property
    def dim(self):
        return len(self.labels)

    @cached_property
    def table(self):
        """Dense view: table[i][j] = coefficient tuple of [b_i, b_j]."""
        n = self.dim
        out = []
        for row in self.rows:
            dense = []
            for j in range(n):
                v = [Fraction(0)] * n
                for k, c in row.get(j, {}).items():
                    v[k] = c
                dense.append(tuple(v))
            out.append(tuple(dense))
        return tuple(out)

    def basis_vector(self, i):
        return tuple(Fraction(1) if j == i else Fraction(0) for j in range(self.dim))

    def bracket(self, u, v):
        out = [Fraction(0)] * self.dim
        v_terms = [(j, vj) for j, vj in enumerate(v) if vj]
        for i, ui in enumerate(u):
            if not ui:
                continue
            row = self.rows[i]
            for j, vj in v_terms:
                t = row.get(j)
                if t:
                    c = ui * vj
                    for k, x in t.items():
                        out[k] += c * x
        return tuple(out)

    def check_graded(self):
        d = self.degrees2
        for i, row in enumerate(self.rows):
            for j in sorted(row):
                if any(d[k] != d[i] + d[j] for k in row[j]):
                    raise JacobiViolation(
                        f"bracket [{self.labels[i]},{self.labels[j]}] leaves the grading"
                    )

    def check_jacobi(self):
        """[[b_i, b_j], b_k] + [[b_j, b_k], b_i] + [[b_k, b_i], b_j] = 0 for all i < j < k."""
        rows = self.rows
        n = self.dim
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    s = {}
                    for (p, q, r) in ((i, j, k), (j, k, i), (k, i, j)):
                        for m, c in rows[p].get(q, {}).items():
                            for t, x in rows[m].get(r, {}).items():
                                s[t] = s.get(t, 0) + c * x
                    if any(s.values()):
                        raise JacobiViolation(
                            f"Jacobi fails on ({self.labels[i]}, {self.labels[j]}, {self.labels[k]})"
                        )


def algebra_from_entries(labels, degrees2, entries):
    """Build an algebra from sparse entries {(i, j): {k: coeff}} given for i < j."""
    rows = [{} for _ in labels]
    for (i, j), comp in entries.items():
        v = {k: frac(c) for k, c in sorted(comp.items()) if c}
        if v:
            rows[i][j] = v
            rows[j][i] = {k: -c for k, c in v.items()}
    return GradedLieAlgebra(tuple(labels), tuple(degrees2), tuple(rows))


# ---------------------------------------------------------------------------
# Heisenberg models

@dataclass(frozen=True)
class HeisenbergModel:
    algebra: GradedLieAlgebra
    space: GradedSymplecticSpace
    z_index: int


def heisenberg_from_space(x: GradedSymplecticSpace) -> HeisenbergModel:
    """Two-step algebra on x plus a center: [v, w] = sigma(v, w) z."""
    n = x.dim
    labels = x.labels + ("z",)
    degrees2 = (-2,) * n + (-4,)
    entries = {(a, b): {n: s} for a, (b, s) in enumerate(x.pairing) if a < b}
    return HeisenbergModel(algebra_from_entries(labels, degrees2, entries), x, n)


def heisenberg(dim_x: int) -> HeisenbergModel:
    """Heisenberg algebra of dimension dim_x + 1 with the standard model pairing."""
    if dim_x <= 0 or dim_x % 2:
        raise ValueError("the symplectic generator space needs positive even dimension")
    space = build_model_space(make_symbol([OneRow(dim_x - 1)]))
    return heisenberg_from_space(space)


# ---------------------------------------------------------------------------
# flat models

@dataclass(frozen=True)
class FlatModel:
    algebra: GradedLieAlgebra
    space: GradedSymplecticSpace
    x_index: int               # the shift generator
    z_index: int
    box_index: tuple           # algebra index -> model-space index (None for x, z)
    distribution: tuple        # algebra indices spanning the distribution


def flat_model(sym: FlagSymbol) -> FlatModel:
    """The flat graded model: a shift generator, the low half of the boxes, and
    a center.

    Basis order is the shift generator, then the boxes of weight <= 1/2 in
    model-space order, then the center.  The shift generator moves boxes down
    by one (dropping off at row bottoms).  Each component contributes central
    brackets from its middle boxes: [e_0, f_0] = z on integer pairs,
    [e_{1/2}, f_{-1/2}] = z and [e_{-1/2}, f_{1/2}] = -z on half-odd pairs
    (the sign alternation is forced by Jacobi against the shift generator),
    and [v_{1/2}, v_{-1/2}] = z on a centered row.
    """
    space = build_model_space(sym)
    kept = [i for i, w in enumerate(space.weights) if w <= HALF]
    pos_of = {model_i: 1 + k for k, model_i in enumerate(kept)}
    nb = len(kept)
    labels = ("x",) + tuple(space.labels[i] for i in kept) + ("z",)
    degrees2 = (-2,) + tuple(int(2 * space.weights[i]) for i in kept) + (0,)
    z_pos = nb + 1
    entries = {}

    for chain in space.chains:
        for up, a in zip(chain, chain[1:]):
            if up in pos_of:
                entries[(0, pos_of[up])] = {pos_of[a]: 1}

    # an upper or centred row comes before its mate, so a < pi(a) below
    for r, chain in zip(rows_of(sym), space.chains):
        for a in chain:
            w = space.weights[a]
            if r.kind == "E" and w in (0, HALF, -HALF) or r.kind == "C" and w == HALF:
                entries[(pos_of[a], pos_of[space.pairing[a][0]])] = {z_pos: -1 if w < 0 else 1}

    alg = algebra_from_entries(labels, degrees2, entries)
    box_index = (None,) + tuple(kept) + (None,)
    distribution = (0,) + tuple(
        pos_of[i] for i in kept if space.weights[i] == 0 or space.weights[i] == HALF
    )
    return FlatModel(alg, space, 0, z_pos, box_index, distribution)


def generated_subalgebra(alg: GradedLieAlgebra, generators):
    """Span closure of the generators under the bracket, as reduced rows."""
    span = Echelon(alg.dim)
    basis = [g for g in map(vec, generators) if span.add(g)]
    # brackets of all pairs of a spanning set span the brackets of the span
    for i, u in enumerate(basis):
        for v in basis[:i + 1]:
            w = alg.bracket(v, u)
            if span.add(w):
                basis.append(w)
    return span.rref()[0]


# ---------------------------------------------------------------------------
# Killing form and exact signatures

def killing_matrix(alg: GradedLieAlgebra):
    """K(i, j) = trace(ad b_i ad b_j) = sum of c_{ib}^a c_{ja}^b over nonzero constants."""
    n = alg.dim
    rows = alg.rows
    out = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        terms = [(b, a, c) for b, t in rows[i].items() for a, c in t.items()]
        for j in range(i, n):
            row_j = rows[j]
            s = Fraction(0)
            for b, a, c in terms:
                x = row_j.get(a)
                if x:
                    y = x.get(b)
                    if y:
                        s += c * y
            out[i][j] = out[j][i] = s
    return tuple(tuple(r) for r in out)


def symmetric_signature(b):
    """Exact signature of a symmetric rational matrix by congruence.

    Returns a dict with rank, positive and negative inertia counts.
    """
    n = len(b)
    m = [list(vec(row)) for row in b]
    for i in range(n):
        for j in range(n):
            if m[i][j] != m[j][i]:
                raise ValueError("matrix is not symmetric")
    pos = neg = 0
    start = 0
    while start < n:
        piv = None
        for k in range(start, n):
            if m[k][k] != 0:
                piv = k
                break
        if piv is None:
            off = None
            for k in range(start, n):
                for l in range(k + 1, n):
                    if m[k][l] != 0:
                        off = (k, l)
                        break
                if off:
                    break
            if off is None:
                break  # remaining block is zero
            k, l = off
            # row/col addition makes a nonzero diagonal entry (2 * m[k][l])
            for j in range(n):
                m[k][j] += m[l][j]
            for i in range(n):
                m[i][k] += m[i][l]
            piv = k
        if piv != start:
            m[start], m[piv] = m[piv], m[start]
            for i in range(n):
                m[i][start], m[i][piv] = m[i][piv], m[i][start]
        d = m[start][start]
        if d > 0:
            pos += 1
        else:
            neg += 1
        for i in range(start + 1, n):
            if m[i][start] != 0:
                c = m[i][start] / d
                for j in range(n):
                    m[i][j] -= c * m[start][j]
        for j in range(start + 1, n):
            if m[start][j] != 0:
                c = m[start][j] / d
                for i in range(n):
                    m[i][j] -= c * m[i][start]
        start += 1
    return {"rank": pos + neg, "positive": pos, "negative": neg}
