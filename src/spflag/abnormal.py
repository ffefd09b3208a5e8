"""Goh matrices of flat models and their degeneracy loci, characteristic
directions, filtration curves of the shift flow, and recovery of a flag
symbol from a polynomial curve of subspaces.

All Hamiltonian bookkeeping is reduced to structure constants: the linear
form of a vector Y is lambda(Y) in dual coordinates, and derivatives along
kernel fields expand through brackets.  Curves are matrices of polynomials
in t; osculation differentiates columns, complements are handled through
truncated jets of sections, which at a regular point capture exactly the
jets of true sections.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NonRegularPoint, NonSymplecticFlag, NotInAnnihilator, ConstraintError
from .exact import (
    Echelon,
    MultiPoly,
    frac,
    is_zero_vector,
    kernel_basis,
    pfaffian,
    rank,
    solve_linear,
    sub_pfaffians,
    vec,
    zero_vector,
)
from .liealg import FlatModel
from .symbols import (
    HALF,
    FlagSymbol,
    GradedSymplecticSpace,
    OneRow,
    TwoRow,
    index_parity,
    make_symbol,
)

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# linear forms on the dual of a flat-model algebra

def dual_variables(dim):
    return tuple(f"l{k}" for k in range(dim))


def hamiltonian_form(variables, v):
    """The linear form lambda -> lambda(v) for a coefficient vector v."""
    out = MultiPoly.constant(variables, 0)
    for k, c in enumerate(v):
        if c:
            out = out + MultiPoly.variable(variables, variables[k]) * frac(c)
    return out


def linear_coefficients(p: MultiPoly):
    """Coefficient vector of a homogeneous linear form."""
    out = [Fraction(0)] * len(p.variables)
    for exp, c in p.canonical_terms():
        if sum(exp) != 1:
            raise ValueError("not a homogeneous linear form")
        out[exp.index(1)] = c
    return tuple(out)


@dataclass(frozen=True)
class GohMatrix:
    variables: tuple     # dual coordinates, one per algebra basis vector
    indices: tuple       # algebra indices of the distribution basis
    entries: tuple       # size x size skew matrix of linear forms

    @property
    def size(self):
        return len(self.indices)


def goh_matrix(fm: FlatModel) -> GohMatrix:
    """Pairing matrix of distribution brackets against a general dual point:
    entry (a, b) is the linear form lambda([X_a, X_b])."""
    alg = fm.algebra
    names = dual_variables(alg.dim)
    size = len(fm.distribution)
    zero = MultiPoly.constant(names, 0)
    entries = [[zero for _ in range(size)] for _ in range(size)]
    for a in range(size):
        for b in range(a + 1, size):
            w = alg.table[fm.distribution[a]][fm.distribution[b]]
            form = hamiltonian_form(names, w)
            entries[a][b] = form
            entries[b][a] = -form
    return GohMatrix(names, tuple(fm.distribution), tuple(tuple(r) for r in entries))


def derived_filtration(fm: FlatModel):
    """Bases of the bracket-generated subspaces D, D + [D,D], ... until stable."""
    alg = fm.algebra
    dist = [alg.basis_vector(i) for i in fm.distribution]
    span = Echelon(alg.dim, dist)
    current = span.rref()[0]
    out = [current]
    while True:
        for u in dist:
            for v in current:
                span.add(alg.bracket(u, v))
        if span.rank == len(current):
            return tuple(out)
        current = span.rref()[0]
        out.append(current)


# ---------------------------------------------------------------------------
# degeneracy locus

@dataclass(frozen=True)
class DegeneracyLocus:
    always_degenerate: bool
    pfaffian: object          # polynomial for even size, None for odd
    sub_pfaffians: tuple      # odd: vector of forms; even: skew matrix of forms
    variables: tuple


def _normalized(p, variables):
    return MultiPoly.constant(variables, p) if not isinstance(p, MultiPoly) else p


def degeneracy_locus(fm: FlatModel) -> DegeneracyLocus:
    g = goh_matrix(fm)
    cof = sub_pfaffians(g.entries)
    if g.size % 2:
        cof = tuple(_normalized(p, g.variables) for p in cof)
        return DegeneracyLocus(True, None, cof, g.variables)
    cof = tuple(tuple(_normalized(p, g.variables) for p in row) for row in cof)
    pf = _normalized(pfaffian(g.entries), g.variables)
    return DegeneracyLocus(False, pf, cof, g.variables)


# ---------------------------------------------------------------------------
# characteristic direction at a dual point

def _goh_at(g, point):
    assignment = {name: point[k] for k, name in enumerate(g.variables)}
    return [[e.subs(assignment) if isinstance(e, MultiPoly) else frac(e) for e in row]
            for row in g.entries]


def characteristic_direction(fm: FlatModel, point):
    """Direction of the kernel line singled out by the Pfaffian calculus at a
    rational dual point, as a coefficient vector on the algebra, or None where
    the recipe leaves no distinguished direction.

    The point must annihilate the distribution.  Odd rank uses the alternating
    sub-Pfaffian vector; rank 2 the two length-three bracket forms; even rank
    at least 4 the derivative of the Pfaffian along the two kernel fields
    attached to a nonvanishing sub-Pfaffian.
    """
    alg = fm.algebra
    point = vec(point)
    if len(point) != alg.dim:
        raise ValueError("dual point has the wrong length")
    for i in fm.distribution:
        if point[i] != 0:
            raise NotInAnnihilator(f"point does not annihilate distribution vector {i}")
    g = goh_matrix(fm)
    size = g.size
    gval = _goh_at(g, point)

    def lifted(coeffs):
        v = list(zero_vector(alg.dim))
        for a, c in enumerate(coeffs):
            v[fm.distribution[a]] += c
        return tuple(v)

    if size % 2:
        cof = sub_pfaffians(gval)
        coeffs = tuple(cof[a] if a % 2 == 0 else -cof[a] for a in range(size))
        if is_zero_vector(coeffs):
            return None
        return lifted(coeffs)

    if size == 2:
        if gval[0][1] != 0:
            return None
        x1 = alg.basis_vector(fm.distribution[0])
        x2 = alg.basis_vector(fm.distribution[1])
        b12 = alg.bracket(x1, x2)
        c1 = sum(point[k] * alg.bracket(x1, b12)[k] for k in range(alg.dim))
        c2 = sum(point[k] * alg.bracket(x2, b12)[k] for k in range(alg.dim))
        if c1 == 0 and c2 == 0:
            return None
        return lifted((-c2, c1))

    if pfaffian(gval) != 0:
        return None
    cof = sub_pfaffians(gval)
    pivot = None
    for a in range(size):
        for b in range(a + 1, size):
            if cof[a][b] != 0:
                pivot = (a, b)
                break
        if pivot:
            break
    if pivot is None:
        return None

    # kernel field attached to row i: alternating sub-Pfaffian coefficients
    def field_coeffs(i):
        return tuple(-cof[i][j] if j % 2 == 0 else cof[i][j] for j in range(size))

    pf_poly = _normalized(pfaffian(g.entries), g.variables)
    assignment = {name: point[k] for k, name in enumerate(g.variables)}
    partials = [pf_poly.derivative(name).subs(assignment) for name in g.variables]
    basis = [alg.basis_vector(k) for k in range(alg.dim)]
    dist_vecs = [alg.basis_vector(i) for i in fm.distribution]

    def derivative_along(i):
        coeffs = field_coeffs(i)
        total = Fraction(0)
        for k in range(alg.dim):
            if partials[k] == 0:
                continue
            rate = Fraction(0)
            for j in range(size):
                if coeffs[j]:
                    br = alg.bracket(dist_vecs[j], basis[k])
                    rate += coeffs[j] * sum(point[m] * br[m] for m in range(alg.dim))
            total += partials[k] * rate
        return total

    i0, j0 = pivot
    a = derivative_along(i0)
    b = derivative_along(j0)
    if a == 0 and b == 0:
        return None
    ci, cj = field_coeffs(i0), field_coeffs(j0)
    coeffs = tuple(a * cj[m] - b * ci[m] for m in range(size))
    if is_zero_vector(coeffs):
        return None
    return lifted(coeffs)


# ---------------------------------------------------------------------------
# flat filtration curves of the shift flow

TVAR = ("t",)


def _shift_exponential(x: GradedSymplecticSpace):
    """e^{t*shift} as a polynomial matrix; finite because the shift is nilpotent."""
    n = x.dim
    t = MultiPoly.variable(TVAR, "t")
    out = [[MultiPoly.constant(TVAR, 1 if i == j else 0) for j in range(n)] for i in range(n)]
    power = [[frac(x.shift[i][j]) for j in range(n)] for i in range(n)]
    k = 1
    tk = t
    fact = 1
    while any(any(e != 0 for e in row) for row in power):
        inv = Fraction(1, fact)
        for i in range(n):
            for j in range(n):
                if power[i][j]:
                    out[i][j] = out[i][j] + tk * (power[i][j] * inv)
        power = [[sum(power[i][m] * x.shift[m][j] for m in range(n)) for j in range(n)]
                 for i in range(n)]
        k += 1
        fact *= k
        tk = tk * t
    return out


def rank_parity_of(sym: FlagSymbol) -> str:
    """Which extraction recipe fits the symbol's grading: odd (integer
    indices), two (pure half-odd, Lagrangian base), or even (mixed)."""
    return {"integer": "odd", "half_odd": "two", "mixed": "even"}[index_parity(sym)]


@dataclass(frozen=True)
class FlagCurve:
    indices: tuple     # filtration indices carrying a block, descending
    blocks: tuple      # per index: tuple of polynomial columns in t
    sigma: tuple
    case: str          # odd | two | even
    base: Fraction     # index the extraction recipe starts from

    def columns_at(self, i):
        """Columns of the smallest listed member containing index i."""
        live = [w for w in self.indices if w >= i]
        if not live:
            return ()
        return self.blocks[self.indices.index(min(live))]

    @property
    def base_columns(self):
        return self.columns_at(self.base)


def flat_curve(x: GradedSymplecticSpace) -> FlagCurve:
    """Orbit of the weight filtration under the shift flow, one polynomial
    block of columns per filtration index."""
    n = x.dim
    exp = _shift_exponential(x)
    weights = sorted(set(x.weights), reverse=True)
    blocks = []
    for w in weights:
        cols = tuple(
            tuple(exp[i][j] for i in range(n))
            for j in range(n) if x.weights[j] >= w
        )
        blocks.append(cols)
    has_int = any(w.denominator == 1 for w in x.weights)
    has_half = any(w.denominator == 2 for w in x.weights)
    case = "even" if (has_int and has_half) else ("two" if has_half else "odd")
    base = HALF if case == "two" else ZERO
    return FlagCurve(tuple(weights), tuple(blocks), x.sigma, case, base)


def random_symplectic(sigma, seed, count=2, bound=2):
    """Product of seeded symplectic transvections x -> x + c*sigma(x, v)*v."""
    import random

    rng = random.Random(seed)
    n = len(sigma)
    out = None
    for _ in range(count):
        v = tuple(frac(rng.randint(-bound, bound)) for _ in range(n))
        c = frac(rng.randint(1, 3))
        m = [[frac(1 if i == j else 0) for j in range(n)] for i in range(n)]
        for j in range(n):
            pair = sum(sigma[j][k] * v[k] for k in range(n))
            if pair:
                for i in range(n):
                    m[i][j] += c * pair * v[i]
        out = m if out is None else [[sum(out[i][k] * m[k][j] for k in range(n))
                                      for j in range(n)] for i in range(n)]
    return tuple(tuple(r) for r in out)


def transform_curve(curve: FlagCurve, matrix=None, reparam=None) -> FlagCurve:
    """Apply a constant change of frame and/or substitute t -> reparam(t).

    An origin-preserving reparametrization with unit linear part leaves the
    extracted symbol unchanged; so does any matrix preserving the pairing.
    """
    n = len(curve.sigma)
    blocks = []
    for block in curve.blocks:
        cols = []
        for col in block:
            col = [_as_poly(p) for p in col]
            if reparam is not None:
                col = [p.subs({"t": reparam}) for p in col]
            if matrix is not None:
                col = [sum((col[k] * frac(matrix[i][k]) for k in range(n)),
                           MultiPoly.constant(TVAR, 0)) for i in range(n)]
            cols.append(tuple(col))
        blocks.append(tuple(cols))
    return FlagCurve(curve.indices, tuple(blocks), curve.sigma, curve.case, curve.base)


# ---------------------------------------------------------------------------
# extraction helpers

def _as_poly(e):
    return e if isinstance(e, MultiPoly) else MultiPoly.constant(TVAR, frac(e))


def _dcol(col):
    return tuple(p.derivative("t") for p in col)


def _eval_col(col, t0):
    """Values at t0 of polynomials in t, read off their coefficients."""
    if not t0:
        return tuple(p.terms.get((0,), ZERO) for p in col)
    return tuple(sum((c * t0 ** e for (e,), c in p.terms.items()), ZERO) for p in col)


def _fiber_basis(vectors, n):
    return Echelon(n, vectors).rref()[0]


def _sigma_row(sigma, v):
    """The row vector v^T sigma, visiting only nonzero entries of v and sigma."""
    out = [ZERO] * len(sigma)
    for x, row in zip(v, sigma):
        if x:
            for j, s in enumerate(row):
                if s:
                    out[j] += x * s
    return tuple(out)


def _skew_complement(basis, sigma):
    n = len(sigma)
    if not basis:
        return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))
    return kernel_basis([_sigma_row(sigma, b) for b in basis])


def _max_degree(cols):
    return max((p.degree() for col in cols for p in col), default=0)


def _generic_rank(cols, n):
    best = 0
    cap = min(n, len(cols))
    for t0 in (1, 2, 3):
        best = max(best, rank([_eval_col(c, t0) for c in cols]))
        if best == cap:
            break
    return best


def _check_regular(cols, n):
    if rank([_eval_col(c, ZERO) for c in cols]) != _generic_rank(cols, n):
        raise NonRegularPoint("span dimension drops at t = 0")


def _cap_pairs(pairs, n):
    """Thin a family of section one-jets to one spanning the same jet space;
    constraints and fiber spans computed from it are unchanged."""
    span = Echelon(2 * n)
    return [(val, der) for val, der in pairs if span.add(tuple(val) + tuple(der))]


class _ComplementJets:
    """Truncated jets of polynomial sections of the skew-orthogonal complement
    of the span of a column family.  At a regular point the truncated system
    has the same solution dimension as the space of jets of true sections, so
    its solutions are exactly those jets; a failed extension step certifies a
    rank drop of the pairing at t = 0."""

    def __init__(self, cols, sigma):
        self.n = len(sigma)
        deg = _max_degree(cols)
        # coeff_rows[c][q]: coefficient of t^q in the row col_c(t)^T sigma
        self.coeff_rows = [
            [_sigma_row(sigma, tuple(p.coefficient_of((q,)) for p in col))
             for q in range(deg + 2)]
            for col in cols]
        self.r0 = [pr[0] for pr in self.coeff_rows]
        self.kernel = kernel_basis(self.r0)
        self.jets = [[k] for k in self.kernel]
        self.order = 0

    def ensure(self, order):
        while self.order < order:
            p = self.order + 1
            rhss = []
            for jet in self.jets:
                rhs = []
                for pr in self.coeff_rows:
                    s = ZERO
                    for q in range(1, min(p, len(pr) - 1) + 1):
                        s -= sum(x * y for x, y in zip(pr[q], jet[p - q]) if x and y)
                    rhs.append(s)
                rhss.append(rhs)
            # one elimination of r0 augmented by every right-hand side; a
            # pivot right of r0 marks a jet that does not extend, and the
            # pivot rows give each solution with the free variables at 0
            n = self.n
            reduced = Echelon(n + len(rhss), [
                list(row) + [rhs[r] for rhs in rhss] for r, row in enumerate(self.r0)
            ]).reduced_rows()
            pivots = [(min(row), row) for row in reduced]
            if any(lead >= n for lead, _ in pivots):
                raise NonRegularPoint("complement section jet does not extend")
            extended = []
            for c, jet in enumerate(self.jets):
                sol = [ZERO] * n
                for lead, row in pivots:
                    sol[lead] = row.get(n + c, ZERO)
                extended.append(jet + [tuple(sol)])
            for k in self.kernel:
                extended.append([zero_vector(self.n)] * p + [k])
            self.jets = extended
            self.order = p


def _select_reps(cands, floor_basis, target, n):
    """Greedy pick of (value, derivative) one-jets whose values complete the
    floor to the next fiber."""
    span = Echelon(n, floor_basis)
    reps = []
    for val, der in cands:
        if len(reps) == target:
            break
        if span.add(val):
            reps.append((val, der))
    if len(reps) != target:
        raise NonSymplecticFlag("graded piece is short of section representatives")
    return reps


# ---------------------------------------------------------------------------
# symbol extraction

def extract_flag_symbol(curve, rank_parity=None, sigma=None) -> FlagSymbol:
    """Recover the flag symbol of a polynomial curve of subspaces.

    Filtration members below the base come from osculation (column
    derivatives), members above from skew-orthogonal complements; the mixed
    case seeds its half-odd chain with jets of complement sections.  The
    symbol is read off the rank profile of the iterated degree-lowering maps
    induced on the graded pieces by differentiation of sections at t = 0.
    """
    if isinstance(curve, FlagCurve):
        case = rank_parity or curve.case
        if sigma is None:
            sigma = curve.sigma
        cols0 = curve.base_columns
    else:
        if rank_parity is None or sigma is None:
            raise ValueError("a plain column curve needs rank_parity and sigma")
        case = rank_parity
        cols0 = curve
    if case not in ("odd", "two", "even"):
        raise ValueError(f"unknown rank parity {case!r}")
    n = len(sigma)
    cols0 = tuple(tuple(_as_poly(e) for e in col) for col in cols0)
    if any(len(col) != n for col in cols0):
        raise ValueError("column length does not match the pairing")
    base = HALF if case == "two" else ZERO
    step = HALF if case == "even" else ONE
    maxdeg = _max_degree(cols0)

    fibers = {}
    cands = {}      # index -> (value, derivative) one-jets of sections

    def osculation_chain(start_cols, start_index):
        """Walk derivatives downward until the fiber fills the space."""
        level = list(start_cols)
        newest = list(level)
        idx = start_index
        while True:
            _check_regular(level, n)
            fibers[idx] = _fiber_basis([_eval_col(c, ZERO) for c in level], n)
            cands[idx] = _cap_pairs(
                [(_eval_col(c, ZERO), _eval_col(_dcol(c), ZERO)) for c in level], n)
            if len(fibers[idx]) == n:
                return idx
            if int(start_index - idx) > maxdeg:
                raise NonSymplecticFlag("curve does not fill the symplectic space")
            newest = [d for d in (_dcol(c) for c in newest)
                      if any(p.degree() >= 0 for p in d)]
            level = level + newest
            idx -= ONE

    bottom = osculation_chain(cols0, base)

    if case == "even":
        # half-odd chain: jets of complement sections plus the base block
        jets = _ComplementJets(cols0, sigma)
        jets.ensure(1)
        fibers[HALF] = _fiber_basis([jet[0] for jet in jets.jets], n)
        cands[HALF] = _cap_pairs([(jet[0], jet[1]) for jet in jets.jets], n)
        level = -HALF
        k = 0
        while True:
            jets.ensure(k + 2)
            vectors = []
            pairs = []
            for jet in jets.jets:
                for j in range(k + 2):
                    vectors.append(jet[j])
                    pairs.append((jet[j], tuple(frac(j + 1) * e for e in jet[j + 1])))
            for col in cols0:
                c = col
                for _ in range(k + 1):
                    val = _eval_col(c, ZERO)
                    c1 = _dcol(c)
                    vectors.append(val)
                    pairs.append((val, _eval_col(c1, ZERO)))
                    c = c1
            fibers[level] = _fiber_basis(vectors, n)
            cands[level] = _cap_pairs(pairs, n)
            if len(fibers[level]) == n:
                break
            if k > n + 2:
                raise NonSymplecticFlag("half-odd chain does not fill the symplectic space")
            k += 1
            level -= ONE
        bottom = min(bottom, level)

    def dual_index(b):
        return (ONE - b) if case in ("odd", "two") else (HALF - b)

    def fiber_at(i):
        if i in fibers:
            return fibers[i]
        if i < bottom:
            return tuple(tuple(ONE if a == b else ZERO for b in range(n)) for a in range(n))
        return ()

    # members above the base: complements, representatives from one-jets
    pos = ONE if case == "even" else base + step
    while True:
        d = dual_index(pos)
        if d < bottom:
            fibers[pos] = ()
            cands[pos] = []
            break
        fibers[pos] = _skew_complement(fiber_at(d), sigma)
        if not fibers[pos]:
            cands[pos] = []
            break
        source = cands[d]
        r0 = [_sigma_row(sigma, val) for val, _ in source]
        r1 = [_sigma_row(sigma, der) for _, der in source]
        pairs = []
        for v0 in fibers[pos]:
            rhs = [-sum(r1[m][j] * v0[j] for j in range(n)) for m in range(len(r1))]
            v1 = solve_linear(r0, rhs)
            if v1 is None:
                raise NonRegularPoint("complement section jet does not extend")
            pairs.append((v0, tuple(v1)))
        cands[pos] = pairs
        pos += step

    grid = sorted(fibers)

    # flag shape: nested, isotropic above index zero, coisotropic from zero down
    for lo, hi in zip(grid, grid[1:]):
        span = Echelon(n, fibers[lo])
        if any(not span.contains(v) for v in fibers[hi]):
            raise NonSymplecticFlag("filtration members are not nested")
    for i in grid:
        basis = fibers[i]
        if i > 0:
            rows_s = [_sigma_row(sigma, b) for b in basis]
            for a in range(len(basis)):
                for b in range(a, len(basis)):
                    if sum(rows_s[a][j] * basis[b][j] for j in range(n)):
                        raise NonSymplecticFlag(f"member at index {i} is not isotropic")
        else:
            span = Echelon(n, basis)
            if any(not span.contains(v) for v in _skew_complement(basis, sigma)):
                raise NonSymplecticFlag(f"member at index {i} is not coisotropic")

    # graded representatives and the level maps induced by differentiation
    reps = {}
    for i in grid:
        floor = fiber_at(i + step)
        target = len(fiber_at(i)) - len(floor)
        reps[i] = tuple(_select_reps(cands.get(i, []), floor, target, n)) if target else ()

    def level_matrix(i):
        """Columns: coordinates of each representative's derivative on the
        representatives one index lower, modulo that level's floor."""
        lower = reps.get(i - ONE, ())
        floor = fiber_at(i - ONE + step)
        a_cols = [list(v) for v, _ in lower] + [list(f) for f in floor]
        mat_rows = [[a_cols[c][r] for c in range(len(a_cols))] for r in range(n)]
        cols = []
        for _, der in reps[i]:
            sol = solve_linear(mat_rows, der)
            if sol is None:
                raise NonSymplecticFlag("derivative leaves the next filtration member")
            cols.append(tuple(sol[:len(lower)]))
        return cols

    matrices = {i: level_matrix(i) for i in grid if reps[i]}

    def composite_rank(a, b):
        vecs = [tuple(ONE if p == q else ZERO for q in range(len(reps[b])))
                for p in range(len(reps[b]))]
        i = b
        while i > a:
            cols = matrices.get(i, [])
            nxt = []
            for v in vecs:
                out = [Fraction(0)] * len(reps.get(i - ONE, ()))
                for c, col in enumerate(cols):
                    if v[c]:
                        for r in range(len(out)):
                            out[r] += v[c] * col[r]
                nxt.append(tuple(out))
            vecs = nxt
            i -= ONE
        return rank(vecs)

    # rank profile -> multiset of row intervals, one parity class at a time
    offsets = {"odd": (ZERO,), "two": (HALF,), "even": (ZERO, HALF)}[case]
    rows = {}
    for offset in offsets:
        idxs = [i for i in grid if (i - offset).denominator == 1 and reps[i]]
        if not idxs:
            continue
        lo, hi = min(idxs), max(idxs)
        span_n = {}
        a = lo
        while a <= hi:
            b = a
            while b <= hi:
                span_n[(a, b)] = composite_rank(a, b)
                b += ONE
            a += ONE

        def covered(a, b, lo=lo, hi=hi, span_n=span_n):
            if a < lo or b > hi:
                return 0
            return span_n[(a, b)]

        a = lo
        while a <= hi:
            b = a
            while b <= hi:
                count = (covered(a, b) - covered(a - ONE, b)
                         - covered(a, b + ONE) + covered(a - ONE, b + ONE))
                if count < 0:
                    raise NonSymplecticFlag("rank profile does not fit a row diagram")
                if count:
                    rows[(a, b)] = count
                b += ONE
            a += ONE

    # assemble mirror pairs of row intervals into symbol components
    components = []
    for (a, b), count in sorted(rows.items()):
        if a + b > 0:
            if rows.get((-b, -a), 0) != count:
                raise NonSymplecticFlag("row intervals are not mirror-symmetric")
            components.extend([TwoRow(b, int(b - a))] * count)
        elif a + b == 0:
            if b.denominator == 2:
                components.extend([TwoRow(b, int(2 * b))] * (count // 2))
                if count % 2:
                    components.append(OneRow(int(2 * b)))
            else:
                if count % 2:
                    raise NonSymplecticFlag("unpaired centered integer row")
                components.extend([TwoRow(b, int(2 * b))] * (count // 2))
        elif rows.get((-b, -a), 0) != count:
            raise NonSymplecticFlag("row intervals are not mirror-symmetric")
    try:
        return make_symbol(components)
    except ConstraintError as exc:
        raise NonSymplecticFlag(str(exc)) from exc
