"""Flag prolongation inside csp(X), sl2 structure, and dimension predictors.

All computations are graded: degree-k matrices only populate entries that
raise the box weight by k, so every kernel stays small.  Matrices are sparse
integer {(i, j): c} dicts inside the module, and a basis element is such a
matrix with one rational scale.  Graded sp(X), the sl2 triple and the
lowest-weight vectors that generate l(X) under ad f are read off the model
in closed form.  The flag layers are solved by one helper, _preimage, on
integer rows.  Dense Fraction tuples appear only in what is returned, and
only when a basis is read.
Dimensions come out exact; the closed-form predictors never touch linear
algebra.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .exact import (
    Echelon,
    frac,
    primitive_row,
    spans_equal,
    vec,
)
from .symbols import (
    HALF,
    FlagSymbol,
    GradedSymplecticSpace,
    OneRow,
    TwoRow,
    index_parity,
    rows_of,
)

_ZERO = Fraction(0)


def flatten_matrix(m):
    return tuple(x for row in m for x in row)


@dataclass(frozen=True)
class MatrixSubspace:
    """The span of basis, a tuple of dense matrices.  One built by _subspace
    keeps (integer matrix, scale) pairs and writes basis out on first read."""
    shape: tuple
    basis: tuple

    @property
    def dim(self):
        sparse = self.__dict__.get("_sparse")
        return len(self.basis if sparse is None else sparse)

    def __getattr__(self, name):
        # reached only for the basis of a _subspace, before its first read
        if name != "basis":
            raise AttributeError(name)
        object.__setattr__(self, name, tuple(_dense(m, self.shape[0], s) for m, s in self._sparse))
        return self.basis

    @cached_property
    def _span(self):
        return Echelon(self.shape[0] * self.shape[1], map(flatten_matrix, self.basis))

    def contains(self, m):
        return self._span.contains(flatten_matrix(m))

    def equals(self, other):
        return self.shape == other.shape and spans_equal(
            [flatten_matrix(b) for b in self.basis],
            [flatten_matrix(b) for b in other.basis],
        )


def _admissible_degrees(x: GradedSymplecticSpace):
    """Degrees 0..spread stepping by 1, or by 1/2 for mixed-parity symbols."""
    spread = max(x.weights) - min(x.weights)
    step = HALF if index_parity(x.symbol) == "mixed" else Fraction(1)
    return tuple(step * i for i in range(int(spread / step) + 1))


def _twice_weights(x):
    """The box weights doubled, so as integers (their denominators divide 2)."""
    return [w.numerator * 2 // w.denominator for w in x.weights]


# ---------------------------------------------------------------------------
# sparse matrices {(i, j): c} and the one linear solver over them

def _dense(m, n, scale=Fraction(1)):
    """The n x n Fraction matrix scale * m."""
    rows = {}
    for (i, j), c in m.items():
        rows.setdefault(i, [_ZERO] * n)[j] = scale * c
    zero = (_ZERO,) * n
    return tuple(tuple(rows[i]) if i in rows else zero for i in range(n))


def _subspace(basis, n):
    sub = object.__new__(MatrixSubspace)
    sub.__dict__.update(shape=(n, n), _sparse=basis)
    return sub


def _ad(a):
    """The map m -> [a, m], without zero entries, for a with at most one
    nonzero per row and per column, as e, h and f have: each nonzero of m
    is relabelled once from each side."""
    in_column = {j: (i, c) for (i, j), c in a.items()}
    in_row = {i: (j, c) for (i, j), c in a.items()}

    def ad(m):
        out = {}
        for (i, j), y in m.items():
            if i in in_column:
                r, c = in_column[i]
                out[r, j] = out.get((r, j), 0) + c * y
            if j in in_row:
                t, c = in_row[j]
                out[i, t] = out.get((i, t), 0) - c * y
        return {key: c for key, c in out.items() if c}
    return ad


def _preimage(family, image, targets, pi):
    """The nonzero combinations of family whose image lies in the span of
    targets, as (primitive integer matrix, scale) pairs, as targets are.

    Images and targets lie in csp(X), which obeys the mate relation
    A[pi(j), pi(i)] = -s_i s_j A[i, j] of _graded_bases off the diagonal, so
    one equation per mate pair is kept there, and every diagonal one.  The
    unknowns are the family coefficients, then the targets'.  Each free
    column gives the family part of the kernel vector with 1 there and 0 at
    the other free columns, read off the back-reduced rows over the lcm of
    their leads.  A target column is free when the target lies in the span
    of the images and the earlier targets, so the result depends on the
    targets' basis, not only on their span.  A target enters as its integer
    matrix, which rescales its column and moves no pivot, so the vector of a
    free target column is multiplied back by that target's scale.
    """
    if not family:
        return []
    nf = len(family)
    columns = [image(m) for m in family] + [{p: -c for p, c in t.items()} for t, _ in targets]
    rows = {}
    for j, col in enumerate(columns):
        for (a, b), c in col.items():
            if a == b or (a, b) <= (pi[b], pi[a]):
                rows.setdefault((a, b), {})[j] = c
    pivots = dict(Echelon(len(columns), rows.values()).reduced_integer_rows())
    out = []
    for f in (f for f in range(len(columns)) if f not in pivots):
        terms = [(lead, row) for lead, row in pivots.items() if lead < nf and f in row]
        den = math.lcm(*(row[lead] for lead, row in terms))
        coef = {lead: -row[f] * den // row[lead] for lead, row in terms}
        if f < nf:
            coef[f] = den
        combo = {}
        for j, c in coef.items():
            for p, y in family[j].items():
                combo[p] = combo.get(p, 0) + c * y
        combo = {p: y for p, y in combo.items() if y}
        if combo:
            g = math.gcd(*combo.values())
            scale = Fraction(g, den) * targets[f - nf][1] if f >= nf else Fraction(g, den)
            out.append(({p: y // g for p, y in combo.items()}, scale))
    return out


def _rref(mats, n):
    """The rows of the rref of span(mats), with the entries of a matrix read
    row by row, as (primitive integer matrix, 1 / its lead) pairs."""
    return [(row, Fraction(1, row[lead]))
            for lead, row in Echelon(n * n, mats).reduced_integer_rows()]


def _graded_bases(x, degrees, conformal=False):
    """Sparse integer bases of the degree-k parts of sp(X), or of csp(X), for
    each k in degrees, read off x.pairing: sigma[a][pi(a)] = s_a is the one
    nonzero of row a, with pi an involution pairing weight w with -w.  Then
    A is in sp(X) iff A[pi(b), pi(a)] = -s_a s_b A[a, b], which ties each
    degree-k position to one mate of the same degree; a position with
    b = pi(a) is free.  One element per pair, at its later position q with
    the mate first, and the scaling element last: the canonical kernel basis
    of the defining equations, with the positions as columns in order.
    Pairing and weights are read once for all degrees."""
    pi, s = zip(*x.pairing)
    twice = _twice_weights(x)
    at_weight = {}
    for j, w in enumerate(twice):
        at_weight.setdefault(w, []).append(j)
    out = {}
    for k in degrees:
        k2 = 2 * frac(k)
        basis = out[k] = []
        if k2.denominator != 1:
            continue
        # positions come row by row, so a mate met earlier compares smaller
        for i, w in enumerate(twice):
            for j in at_weight.get(w - k2.numerator, ()):
                q = (i, j)
                mate = (pi[j], pi[i])
                if mate == q:
                    basis.append({q: 1})
                elif mate < q:
                    basis.append({mate: -s[i] * s[j], q: 1})
        if conformal and k == 0:
            basis.append({(a, a): 1 for a in range(x.dim) if a < pi[a]})
    return out


def graded_symplectic_basis(x: GradedSymplecticSpace, k, conformal=False):
    """Basis of the degree-k part of sp(X) (or csp(X) when conformal).

    Only k = 0 admits a conformal part; for k != 0 the scaling term is forced
    to vanish by grading, so conformal makes no difference there.
    """
    (basis,) = _graded_bases(x, [k], conformal).values()
    return tuple(_dense(m, x.dim) for m in basis)


# ---------------------------------------------------------------------------
# sl2 triple

@dataclass(frozen=True)
class Sl2Triple:
    e: tuple
    h: tuple
    f: tuple


def _shift(x):
    """The shift as a sparse integer matrix: each box to the next one down
    its chain."""
    return {(a, up): 1 for chain in x.chains for up, a in zip(chain, chain[1:])}


def _sl2(x):
    """e, h, f as sparse integer matrices: e is the shift, and on a chain with
    bottom r and top q the h-eigenvalue at weight w is 2w - (r + q) and the
    raising coefficient from weight w is (w - r + 1)(w - q).  These are the
    unique choices making [e,f] = h, [h,e] = -2e, [h,f] = 2f hold with e the
    shift.  Weights are doubled to stay integers."""
    twice = _twice_weights(x)
    h, f = {}, {}
    for chain in x.chains:
        q, r = twice[chain[0]], twice[chain[-1]]
        for a in chain:
            if 2 * twice[a] != r + q:
                h[a, a] = twice[a] - (r + q) // 2
        for up, a in zip(chain, chain[1:]):
            w = twice[a]
            f[up, a] = ((w - r) // 2 + 1) * ((w - q) // 2)
    return _shift(x), h, f


def sl2_triple(x: GradedSymplecticSpace) -> Sl2Triple:
    """The sl2 triple of _sl2 as dense Fraction matrices; e is the shift."""
    _, h, f = _sl2(x)
    return Sl2Triple(x.shift, _dense(h, x.dim), _dense(f, x.dim))


# ---------------------------------------------------------------------------
# the flag prolongation

@dataclass(frozen=True)
class FlagProlongation:
    space: GradedSymplecticSpace
    degrees: tuple               # admissible degrees >= 0 actually computed
    layers: dict                 # degree -> MatrixSubspace
    delta_dim: int               # 1 unless the shift vanishes
    total_dim: int

    def matrices(self):
        """All members as a flat list: the shift line plus every layer basis."""
        out = []
        if self.delta_dim:
            out.append(self.space.shift)
        for d in self.degrees:
            out.extend(self.layers[d].basis)
        return tuple(out)

    def layer_dim(self, d):
        d = frac(d)
        if d == -1:
            return self.delta_dim
        sub = self.layers.get(d)
        return sub.dim if sub is not None else 0


def flag_prolong(x: GradedSymplecticSpace, k_max=None) -> FlagProlongation:
    """Degree-filtered prolongation: keep degree-k conformal matrices whose
    bracket with the shift lands in the previous layer.

    The previous layer for degree 0 is the line through the shift itself; for
    degree 1/2 (mixed symbols) it is zero.  All admissible degrees up to the
    weight spread (or k_max) are computed; there is no early termination.
    """
    n = x.dim
    pi = [a for a, _ in x.pairing]
    shift = _shift(x)
    ad_shift = _ad({p: -c for p, c in shift.items()})
    degrees = [d for d in _admissible_degrees(x) if k_max is None or d <= frac(k_max)]
    bases = _graded_bases(x, degrees, conformal=True)
    found = {}
    for k in degrees:
        prev = found[k - 1] if k >= 1 else [(shift, Fraction(1))] if k == 0 and shift else []
        found[k] = _preimage(bases[k], ad_shift, prev, pi)
    layers = {k: _subspace(found[k], n) for k in degrees}
    delta_dim = 1 if shift else 0
    total = delta_dim + sum(layers[d].dim for d in degrees)
    return FlagProlongation(x, tuple(degrees), layers, delta_dim, total)


# ---------------------------------------------------------------------------
# the a / z / p decomposition

@dataclass(frozen=True)
class AZPDecomposition:
    space: GradedSymplecticSpace
    sl2: Sl2Triple
    l_of_x: MatrixSubspace
    r_of_uf: MatrixSubspace
    a: MatrixSubspace
    z: MatrixSubspace
    p: MatrixSubspace


def _lowest_weight_vectors(x):
    """Primitive integer matrices spanning ker(ad e) in sp(X)_d for d >= 0,
    in closed form.  e is the shift; its Jordan chains are x.chains, the
    rows top weight first.  For chains P, Q and
    max(0, |P| - |Q|) <= k < |P|, the map T = sum_t E[P[k + t], Q[t]]
    commutes with e: Te and eT can differ only at the last box of Q, sent
    to 0 by Te and to P[k + |Q|], past the end of P, by eT.  These maps
    span ker ad e in gl(X) (Gantmacher, ch. VIII), and T has degree
    w(P[k]) - w(Q[0]).  The involution theta(A) = -sigma^-1 A^T sigma of
    gl(X) fixes e, keeps degrees and has sp(X) as its fixed points, so
    A -> A + theta(A) maps ker ad e onto ker ad e in sp(X), degree by
    degree (it doubles the latter).  theta(E[i, j]) = -s_i s_j
    E[pi(j), pi(i)] in the pairing of _graded_bases, and theta(T) is +-1
    times another T, so an image is fixed up to sign by its support, and is
    kept once."""
    pi, s = zip(*x.pairing)
    twice = _twice_weights(x)
    out = {}
    for top in x.chains:
        for low in x.chains:
            for k in range(max(0, len(top) - len(low)), len(top)):
                if twice[top[k]] >= twice[low[0]]:
                    m = {}
                    for i, j in zip(top[k:], low):
                        m[i, j] = m.get((i, j), 0) + 1
                        m[pi[j], pi[i]] = m.get((pi[j], pi[i]), 0) - s[i] * s[j]
                    m = primitive_row(m)
                    if m:
                        out.setdefault(frozenset(m), m)
    return list(out.values())


def decompose_azp(x: GradedSymplecticSpace) -> AZPDecomposition:
    """Greatest sl2-invariant subspace l(X) of nonnegative-degree sp(X), split
    into the row-diagonal part and its complement.

    l(X) is spanned by the ad f-strings of its lowest-weight vectors.  e, h
    and f lie in sp(X), so sp(X) is a completely reducible sl2-module.  ad e
    lowers the degree by 1, ad f raises it by 1 and the grading commutes with
    ad h, so l(X) is graded, and each irreducible summand of it is generated
    under ad f by its lowest vector, which lies in ker ad e.  ker ad e is
    ad h-stable, so its vectors of degree >= 0 generate only degrees >= 0.

    r(u^F) = l + sl2, a is its row-diagonal part, z = a meets l, and p is the
    off-row part of l.  e, h and f preserve every row, so the split of a matrix
    into row-diagonal and off-row parts commutes with ad e, ad h and ad f and
    keeps nonnegative-degree sp(X).  So a, z and p need no solve:
    - ad-invariance gives l = l_diag (+) l_off, hence a = l_diag + sl2;
    - by the modular law, (l_diag + sl2) meets l in l_diag + (sl2 meets l_diag) = l_diag.
    l_diag and l_off sit on disjoint positions, so the rref of l is the union
    of theirs: z and p are the reduced rows of l whose lead is row-diagonal,
    and the rest.  r and a extend the rows of l and of z by e, h and f.
    """
    n = x.dim
    e, h, f = _sl2(x)
    ad_f = _ad(f)
    generated, string = [], _lowest_weight_vectors(x)
    while string:
        generated += string
        string = [m for m in map(ad_f, string) if m]
    l_basis, z_basis, p_basis = _rref(generated, n), [], []
    for b in l_basis:
        i, j = min(b[0])
        (z_basis if x.row_index[i] == x.row_index[j] else p_basis).append(b)
    return AZPDecomposition(
        space=x,
        sl2=Sl2Triple(x.shift, _dense(h, n), _dense(f, n)),
        l_of_x=_subspace(l_basis, n),
        r_of_uf=_subspace(_rref([m for m, _ in l_basis] + [e, h, f], n), n),
        a=_subspace(_rref([m for m, _ in z_basis] + [e, h, f], n), n),
        z=_subspace(z_basis, n),
        p=_subspace(p_basis, n),
    )


def row_scaling_generators(x: GradedSymplecticSpace):
    """The matrices acting as +1 on one paired row and -1 on its mirror."""
    rows = rows_of(x.symbol)
    return tuple(
        _dense({(i, i): 1 if rows[ri].kind == "E" else -1
                for i, ri in enumerate(x.row_index) if rows[ri].component == ci}, x.dim)
        for ci, c in enumerate(x.symbol.components) if isinstance(c, TwoRow))


def rank_one_element(x: GradedSymplecticSpace, v):
    """The rank-one member of sp(X) built from a vector: w -> sigma(w, v) v."""
    n = x.dim
    v = vec(v)
    cov = tuple(
        sum((x.sigma[j][t] * v[t] for t in range(n)), Fraction(0)) for j in range(n)
    )
    # column j of the matrix is sigma(e_j, v) v
    return tuple(tuple(cov[j] * v[i] for j in range(n)) for i in range(n))


# ---------------------------------------------------------------------------
# closed-form dimension predictions

def _row_pair_count(y1, y2):
    """Number of independent maps between two rows surviving the nonnegative
    degree cut, summed over the graded pieces."""
    l1, l2 = int(y1.top - y1.bottom), int(y2.top - y2.bottom)
    i_min = max(0, math.ceil(y1.top - y2.bottom))
    return sum(l1 + l2 - 2 * i + 1 for i in range(i_min, min(l1, l2) + 1))


def _self_pair_counts(c: TwoRow):
    s, l = c.s, c.l
    se = sum(2 * l - 4 * i + 1 for i in range(max(0, math.ceil(l - s)), l // 2 + 1))
    return se, 1 if l % 2 == 0 and s == Fraction(l, 2) else 0


def predicted_dims(sym: FlagSymbol) -> dict:
    """Dimension counts from the closed formulas; no linear algebra."""
    rows = rows_of(sym)
    s_e = {}
    s_f = {}
    z_dim = 0
    for ci, c in enumerate(sym.components):
        if isinstance(c, TwoRow):
            se, sf = _self_pair_counts(c)
            s_e[ci] = se
            s_f[ci] = sf
            z_dim += 1
    row_pairs = {}
    cross_total = 0
    for ri, r in enumerate(rows):
        for rj, s in enumerate(rows):
            if r.component < s.component:
                val = _row_pair_count(r, s)
                row_pairs[(ri, rj)] = val
                cross_total += val
    l_total = sum(1 + s_e[ci] + s_f[ci] for ci in s_e) + cross_total
    has_shift = any(
        (isinstance(c, TwoRow) and c.l >= 1) or isinstance(c, OneRow)
        for c in sym.components
    )
    sl2_dim = 3 if has_shift else 0
    return {
        "row_pairs": row_pairs,
        "s_e": s_e,
        "s_f": s_f,
        "l": l_total,
        "z": z_dim,
        "p": l_total - z_dim,
        "sl2": sl2_dim,
        "flag_total": l_total + sl2_dim + 1,
    }
