"""Flag prolongation inside csp(X), sl2 structure, and dimension predictors.

All computations are graded: degree-k matrices only populate entries that
raise the box weight by k, so every kernel stays small.  Dimensions come out
exact; the closed-form predictors never touch linear algebra.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .exact import (
    Echelon,
    frac,
    kernel_basis,
    rref,
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


def flatten_matrix(m):
    return tuple(x for row in m for x in row)


@dataclass(frozen=True)
class MatrixSubspace:
    shape: tuple
    basis: tuple

    @property
    def dim(self):
        return len(self.basis)

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
    out = []
    d = Fraction(0)
    while d <= spread:
        out.append(d)
        d += step
    return tuple(out)


def _degree_positions(x, k):
    n = x.dim
    return tuple(
        (i, j) for i in range(n) for j in range(n) if x.weights[i] - x.weights[j] == k
    )


def _pairing_partner(x):
    """partner[i], sign[i] with sigma(e_i, e_partner) = sign, one per index."""
    n = x.dim
    partner = [None] * n
    sign = [Fraction(0)] * n
    for i in range(n):
        for j in range(n):
            if x.sigma[i][j] != 0:
                partner[i] = j
                sign[i] = x.sigma[i][j]
                break
    return partner, sign


def _weight_neighbors(x):
    """up[i] / down[i]: index one weight step up or down in the same row."""
    n = x.dim
    index_at = {(x.row_index[i], x.weights[i]): i for i in range(n)}
    up = [index_at.get((x.row_index[i], x.weights[i] + 1)) for i in range(n)]
    down = [index_at.get((x.row_index[i], x.weights[i] - 1)) for i in range(n)]
    return up, down


def graded_symplectic_basis(x: GradedSymplecticSpace, k, conformal=False):
    """Basis of the degree-k part of sp(X) (or csp(X) when conformal).

    Only k = 0 admits a conformal part; for k != 0 the scaling term is forced
    to vanish by grading, so conformal makes no difference there.
    """
    k = frac(k)
    n = x.dim
    pos = _degree_positions(x, k)
    if not pos:
        return ()
    with_lambda = conformal and k == 0
    nvars = len(pos) + (1 if with_lambda else 0)
    col_of = {p: idx for idx, p in enumerate(pos)}
    partner, psign = _pairing_partner(x)
    rows = []
    # skew-identity rows: (A^T sigma + sigma A)[i][j] = lambda sigma[i][j],
    # nonzero only where w_i + w_j = -k; sigma has one partner per index
    for i in range(n):
        for j in range(i + 1, n):
            if x.weights[i] + x.weights[j] != -k:
                continue
            row = [Fraction(0)] * nvars
            t = partner[j]
            if (t, i) in col_of:
                row[col_of[(t, i)]] += x.sigma[t][j]
            t = partner[i]
            if (t, j) in col_of:
                row[col_of[(t, j)]] += psign[i]
            if with_lambda and x.sigma[i][j] != 0:
                row[-1] -= x.sigma[i][j]
            rows.append(row)
    if not rows:
        rows = [[Fraction(0)] * nvars]
    sol = kernel_basis(tuple(tuple(r) for r in rows))
    out = []
    for v in sol:
        m = [[Fraction(0)] * n for _ in range(n)]
        for idx, (i, j) in enumerate(pos):
            m[i][j] = v[idx]
        out.append(tuple(tuple(r) for r in m))
    return tuple(out)


# ---------------------------------------------------------------------------
# sl2 triple

@dataclass(frozen=True)
class Sl2Triple:
    e: tuple
    h: tuple
    f: tuple


def sl2_triple(x: GradedSymplecticSpace) -> Sl2Triple:
    """Lowering operator = the shift; h and f solved row by row.

    On a row with bottom r and top q the h-eigenvalue at weight w is
    2w - (r + q) and the raising coefficient from weight w is
    (w - r + 1)(w - q); these are the unique choices making [e,f] = h,
    [h,e] = -2e, [h,f] = 2f hold with e the shift.
    """
    n = x.dim
    rows = rows_of(x.symbol)
    h = [[Fraction(0)] * n for _ in range(n)]
    f = [[Fraction(0)] * n for _ in range(n)]
    index_at = {(x.row_index[i], x.weights[i]): i for i in range(n)}
    for i in range(n):
        r = rows[x.row_index[i]]
        w = x.weights[i]
        h[i][i] = 2 * w - (r.bottom + r.top)
        if w < r.top:
            up = index_at[(x.row_index[i], w + 1)]
            f[up][i] = (w - r.bottom + 1) * (w - r.top)
    return Sl2Triple(x.shift, tuple(tuple(row) for row in h), tuple(tuple(row) for row in f))


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


def _commutator(a, b):
    n = len(a)
    return tuple(
        tuple(
            sum((a[i][t] * b[t][j] - b[i][t] * a[t][j] for t in range(n)), Fraction(0))
            for j in range(n)
        )
        for i in range(n)
    )


def flag_prolong(x: GradedSymplecticSpace, k_max=None) -> FlagProlongation:
    """Degree-filtered prolongation: keep degree-k conformal matrices whose
    bracket with the shift lands in the previous layer.

    The previous layer for degree 0 is the line through the shift itself; for
    degree 1/2 (mixed symbols) it is zero.  All admissible degrees up to the
    weight spread (or k_max) are computed; there is no early termination.
    """
    n = x.dim
    delta = x.shift
    delta_zero = all(delta[i][j] == 0 for i in range(n) for j in range(n))
    degrees = [d for d in _admissible_degrees(x) if k_max is None or d <= frac(k_max)]
    layers = {}

    def prev_basis(k):
        if k == 0:
            return () if delta_zero else (delta,)
        if k == HALF:
            return ()
        return layers[k - 1].basis

    up, down = _weight_neighbors(x)

    def shift_bracket_entry(a, i, j):
        # [a, shift][i][j]; the shift has one entry per column/row
        val = Fraction(0)
        dj = down[j]
        if dj is not None and delta[dj][j] != 0:
            val += a[i][dj] * delta[dj][j]
        ui = up[i]
        if ui is not None and delta[i][ui] != 0:
            val -= delta[i][ui] * a[ui][j]
        return val

    for k in degrees:
        csp_part = graded_symplectic_basis(x, k, conformal=True)
        if not csp_part:
            layers[k] = MatrixSubspace((n, n), ())
            continue
        prev = prev_basis(k)
        nvars = len(csp_part) + len(prev)
        target_pos = _degree_positions(x, k - 1)
        rows = []
        for (i, j) in target_pos:
            row = [Fraction(0)] * nvars
            for idx, a in enumerate(csp_part):
                row[idx] = shift_bracket_entry(a, i, j)
            for idx, b in enumerate(prev):
                row[len(csp_part) + idx] = -b[i][j]
            rows.append(row)
        if not rows:
            rows = [[Fraction(0)] * nvars]
        sol = kernel_basis(tuple(tuple(r) for r in rows))
        basis = []
        for v in sol:
            m = [[Fraction(0)] * n for _ in range(n)]
            nonzero = False
            for idx, a in enumerate(csp_part):
                if v[idx]:
                    nonzero = True
                    for i in range(n):
                        for j in range(n):
                            m[i][j] += v[idx] * a[i][j]
            if nonzero:
                basis.append(tuple(tuple(r) for r in m))
        layers[k] = MatrixSubspace((n, n), tuple(basis))

    delta_dim = 0 if delta_zero else 1
    total = delta_dim + sum(layers[d].dim for d in degrees)
    return FlagProlongation(x, tuple(degrees), layers, delta_dim, total)


def _bracket_entry(a, b, i, j):
    n = len(a)
    return sum((a[i][t] * b[t][j] - b[i][t] * a[t][j] for t in range(n)), Fraction(0))


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


def _span_reduce(mats, n):
    if not mats:
        return ()
    flat = [flatten_matrix(m) for m in mats]
    reduced = rref(flat)[0]
    out = []
    for v in reduced:
        out.append(tuple(tuple(v[i * n + j] for j in range(n)) for i in range(n)))
    return tuple(out)


def decompose_azp(x: GradedSymplecticSpace) -> AZPDecomposition:
    """Greatest sl2-invariant subspace of nonnegative-degree sp(X), split into
    the row-diagonal part and its complement."""
    n = x.dim
    triple = sl2_triple(x)
    degrees = _admissible_degrees(x)
    fam = {k: list(graded_symplectic_basis(x, k, conformal=False)) for k in degrees}
    up, down = _weight_neighbors(x)
    e_mat, f_mat = triple.e, triple.f
    pos_at = {}
    for k in degrees:
        pos_at[k - 1] = _degree_positions(x, k - 1)
        pos_at[k] = _degree_positions(x, k)
        pos_at[k + 1] = _degree_positions(x, k + 1)

    def e_bracket(m, i, j):
        # [e, m][i][j] with e stepping every box one weight down
        val = Fraction(0)
        ui = up[i]
        if ui is not None and e_mat[i][ui] != 0:
            val += e_mat[i][ui] * m[ui][j]
        dj = down[j]
        if dj is not None and e_mat[dj][j] != 0:
            val -= m[i][dj] * e_mat[dj][j]
        return val

    def f_bracket(m, i, j):
        # [f, m][i][j] with f stepping every box one weight up
        val = Fraction(0)
        di = down[i]
        if di is not None and f_mat[i][di] != 0:
            val += f_mat[i][di] * m[di][j]
        uj = up[j]
        if uj is not None and f_mat[uj][j] != 0:
            val -= m[i][uj] * f_mat[uj][j]
        return val

    changed = True
    while changed:
        changed = False
        for k in degrees:
            cur = fam.get(k, [])
            if not cur:
                continue
            lower = fam.get(k - 1, []) if k - 1 >= 0 else []
            upper = fam.get(k + 1, [])
            nvars = len(cur) + len(lower) + len(upper)
            rows = []
            for (i, j) in pos_at[k - 1]:
                row = [Fraction(0)] * nvars
                for idx, m in enumerate(cur):
                    row[idx] = e_bracket(m, i, j)
                for idx, m in enumerate(lower):
                    row[len(cur) + idx] = -m[i][j]
                rows.append(row)
            for (i, j) in pos_at[k + 1]:
                row = [Fraction(0)] * nvars
                for idx, m in enumerate(cur):
                    row[idx] = f_bracket(m, i, j)
                for idx, m in enumerate(upper):
                    row[len(cur) + len(lower) + idx] = -m[i][j]
                rows.append(row)
            if not rows:
                continue
            sol = kernel_basis(tuple(tuple(r) for r in rows))
            new = []
            for v in sol:
                m = [[Fraction(0)] * n for _ in range(n)]
                hit = False
                for idx, b in enumerate(cur):
                    if v[idx]:
                        hit = True
                        for i in range(n):
                            for j in range(n):
                                m[i][j] += v[idx] * b[i][j]
                if hit:
                    new.append(tuple(tuple(r) for r in m))
            new = list(_span_reduce(new, n))
            if len(new) != len(cur):
                fam[k] = new
                changed = True

    l_basis = []
    for k in degrees:
        l_basis.extend(fam.get(k, []))
    l_basis = _span_reduce(l_basis, n)

    r_basis = _span_reduce(list(l_basis) + [triple.e, triple.h, triple.f], n)

    # a: elements of r(u^F) preserving every row subspace
    a_basis = ()
    if r_basis:
        nvars = len(r_basis)
        rows = []
        for j in range(n):
            for i in range(n):
                if x.row_index[i] == x.row_index[j]:
                    continue
                row = [r_basis[idx][i][j] for idx in range(nvars)]
                rows.append(row)
        if rows:
            sol = kernel_basis(tuple(tuple(r) for r in rows))
        else:
            sol = tuple(tuple(Fraction(1) if t == s else Fraction(0) for t in range(nvars)) for s in range(nvars))
        mats = []
        for v in sol:
            m = [[Fraction(0)] * n for _ in range(n)]
            for idx, b in enumerate(r_basis):
                if v[idx]:
                    for i in range(n):
                        for j in range(n):
                            m[i][j] += v[idx] * b[i][j]
            mats.append(tuple(tuple(r) for r in m))
        a_basis = _span_reduce(mats, n)

    # z: intersection of a with l(X), via flattened coordinates
    z_basis = ()
    if a_basis and l_basis:
        fa = [flatten_matrix(m) for m in a_basis]
        fl = [flatten_matrix(m) for m in l_basis]
        cols = tuple(
            tuple(fa[s][t] for s in range(len(fa))) + tuple(-fl[s][t] for s in range(len(fl)))
            for t in range(n * n)
        )
        mats = []
        for v in kernel_basis(cols):
            m = [[Fraction(0)] * n for _ in range(n)]
            for idx, b in enumerate(a_basis):
                if v[idx]:
                    for i in range(n):
                        for j in range(n):
                            m[i][j] += v[idx] * b[i][j]
            mats.append(tuple(tuple(r) for r in m))
        z_basis = _span_reduce(mats, n)

    # p: off-row-block projection of l(X)
    p_mats = []
    for m in l_basis:
        pm = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if x.row_index[i] != x.row_index[j]:
                    pm[i][j] = m[i][j]
        p_mats.append(tuple(tuple(r) for r in pm))
    p_basis = _span_reduce(p_mats, n)

    shape = (n, n)
    return AZPDecomposition(
        space=x,
        sl2=triple,
        l_of_x=MatrixSubspace(shape, l_basis),
        r_of_uf=MatrixSubspace(shape, r_basis),
        a=MatrixSubspace(shape, a_basis),
        z=MatrixSubspace(shape, z_basis),
        p=MatrixSubspace(shape, p_basis),
    )


def row_scaling_generators(x: GradedSymplecticSpace):
    """The matrices acting as +1 on one paired row and -1 on its mirror."""
    out = []
    rows = rows_of(x.symbol)
    for ci, c in enumerate(x.symbol.components):
        if not isinstance(c, TwoRow):
            continue
        m = [[Fraction(0)] * x.dim for _ in range(x.dim)]
        for i in range(x.dim):
            r = rows[x.row_index[i]]
            if r.component == ci:
                m[i][i] = Fraction(1) if r.kind == "E" else Fraction(-1)
        out.append(tuple(tuple(row) for row in m))
    return tuple(out)


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
    r1, s1 = y1.bottom, y1.top
    r2, s2 = y2.bottom, y2.top
    l1 = int(s1 - r1)
    l2 = int(s2 - r2)
    i_min = max(0, math.ceil(s1 - r2))
    i_max = min(l1, l2)
    total = 0
    for i in range(i_min, i_max + 1):
        total += l1 + l2 - 2 * i + 1
    return total


def _self_pair_counts(c: TwoRow):
    s, l = c.s, c.l
    i_min = max(0, math.ceil(l - s))
    se = 0
    for i in range(i_min, l // 2 + 1):
        se += 2 * l - 4 * i + 1
    sf = 1 if (l % 2 == 0 and s == Fraction(l, 2)) else 0
    return se, sf


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
