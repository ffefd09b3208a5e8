"""Goh matrices of flat models and their degeneracy loci, characteristic
directions, filtration curves of the shift flow, and recovery of a flag
symbol from a polynomial curve of subspaces.

All Hamiltonian bookkeeping is reduced to structure constants: the linear
form of a vector Y is lambda(Y) in dual coordinates, and derivatives along
kernel fields expand through brackets.  Curve columns are arrays of
coefficient vectors in t, integer inside extraction; osculation
differentiates columns, complements are handled through truncated jets of
sections, which at a regular point capture exactly the jets of true sections.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    ConstraintError,
    DegenerateBranch,
    NonRegularPoint,
    NonSkew,
    NonSymplecticFlag,
    NotInAnnihilator,
)
from .exact import (
    Echelon,
    MultiPoly,
    check_skew,
    frac,
    kernel_basis,
    pfaffian,
    primitive_row,
    rank,
    skew_kernel,
    solve_all,
    sub_pfaffians,
    vec,
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
            w = alg.rows[fm.distribution[a]].get(fm.distribution[b], {})
            form = sum((MultiPoly.variable(names, names[k]) * frac(c)
                        for k, c in sorted(w.items())), zero)
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
    sub-Pfaffian vector; even rank the derivative of the Pfaffian along the
    two kernel fields attached to a nonvanishing sub-Pfaffian (skew_kernel's
    closed forms), which for rank 2 are the two length-three bracket forms.
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
        v = [ZERO] * alg.dim
        for a, c in enumerate(coeffs):
            v[fm.distribution[a]] += c
        return tuple(v)

    try:
        fields = skew_kernel(gval, require_closed_form=True).basis
    except DegenerateBranch:
        return None
    if size % 2:
        return lifted(fields[0])
    if not fields:
        return None

    pf_poly = _normalized(pfaffian(g.entries), g.variables)
    assignment = {name: point[k] for k, name in enumerate(g.variables)}
    partials = [pf_poly.derivative(name).subs(assignment) for name in g.variables]

    def derivative_along(coeffs):
        """d pf along the kernel field sum_j coeffs[j] X_j: each partial
        d pf / d l_k times lambda([X, b_k])."""
        total = Fraction(0)
        for j, w in enumerate(coeffs):
            if w:
                for k, br in alg.rows[fm.distribution[j]].items():
                    if partials[k]:
                        total += w * partials[k] * sum(point[m] * c for m, c in br.items())
        return total

    ci, cj = fields
    a = derivative_along(ci)
    b = derivative_along(cj)
    if a == 0 and b == 0:
        return None
    if size == 2:
        # rank 2 keeps the orientation (-c2, c1) of its bracket forms
        # c_i = lambda([X_i, [X_1, X_2]]); here a = c2 and b = c1
        a, b = -a, -b
    return lifted(tuple(a * cj[m] - b * ci[m] for m in range(size)))


# ---------------------------------------------------------------------------
# curves as coefficient arrays
#
# A column of a curve is the tuple (c_0, ..., c_D) of its n-vector
# coefficients of t^0, ..., t^D, with c_D nonzero; the zero column is ().

def column(entries):
    """Array form of a column given each entry's coefficient list in t."""
    deg = max((len(e) for e in entries), default=0)
    return _trimmed(tuple(e[q] if q < len(e) else ZERO for e in entries)
                    for q in range(deg))


def _trimmed(coeffs):
    coeffs = list(coeffs)
    while coeffs and not any(coeffs[-1]):
        coeffs.pop()
    return tuple(coeffs)


def _dcol(col):
    """Derivative in t: a shift and a scale of the coefficients."""
    return tuple(tuple(q * x for x in c) for q, c in enumerate(col) if q)


def _eval_col(col, t0, n):
    """Value at t0, by Horner's rule on the coefficient vectors."""
    if not col:
        return (0,) * n
    if not t0:
        return col[0]
    out = col[-1]
    for c in reversed(col[:-1]):
        out = tuple(x * t0 + y for x, y in zip(out, c))
    return out


def _integral(rows):
    """The primitive integer rows proportional to rows, by one constant."""
    rows = [[x if type(x) is int else frac(x) for x in r] for r in rows]
    den = math.lcm(*(x.denominator for r in rows for x in r))
    rows = [[x.numerator * (den // x.denominator) for x in r] for r in rows]
    g = math.gcd(*(x for r in rows for x in r)) or 1
    return tuple(tuple(x // g for x in r) for r in rows)


# ---------------------------------------------------------------------------
# flat filtration curves of the shift flow

def rank_parity_of(sym: FlagSymbol) -> str:
    """Which extraction recipe fits the symbol's grading: odd (integer
    indices), two (pure half-odd, Lagrangian base), or even (mixed)."""
    return {"integer": "odd", "half_odd": "two", "mixed": "even"}[index_parity(sym)]


@dataclass(frozen=True)
class FlagCurve:
    indices: tuple     # filtration indices carrying a block, descending
    blocks: tuple      # per index: tuple of columns, as coefficient arrays
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


def _apply(mcols, v):
    """The matrix with columns mcols, as lists of nonzero (row, value),
    times the vector v, visiting only nonzero entries."""
    out = [ZERO] * len(v)
    for k, e in enumerate(v):
        for i, m in mcols[k] if e else ():
            out[i] += m * e
    return out


def _sparse_columns(a):
    n = len(a)
    return [[(i, frac(a[i][k])) for i in range(n) if a[i][k]] for k in range(n)]


def flat_curve(x: GradedSymplecticSpace) -> FlagCurve:
    """Orbit of the weight filtration under the shift flow: one block per
    filtration index of columns of e^{tS} = sum t^k S^k / k!, a polynomial
    because the shift S is nilpotent.  S^k sends box j to the k-th box
    below it on its chain, so column j has 1/k! there at t^k."""
    n = x.dim
    zero = (ZERO,) * n
    cols = [None] * n
    for chain in x.chains:
        for p, j in enumerate(chain):
            cols[j] = tuple(zero[:i] + (Fraction(1, math.factorial(k)),) + zero[i + 1:]
                            for k, i in enumerate(chain[p:]))
    weights = sorted(set(x.weights), reverse=True)
    blocks = tuple(tuple(cols[j] for j in range(n) if x.weights[j] >= w) for w in weights)
    case = rank_parity_of(x.symbol)
    base = HALF if case == "two" else ZERO
    return FlagCurve(tuple(weights), blocks, x.sigma, case, base)


def random_symplectic(sigma, seed, count=2, bound=2):
    """Product of seeded symplectic transvections x -> x + c*sigma(x, v)*v,
    each a rank-one update I + c v w^T with w_j = sigma(e_j, v)."""
    import random

    rng = random.Random(seed)
    n = len(sigma)
    out = [[frac(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for _ in range(count):
        v = tuple(frac(rng.randint(-bound, bound)) for _ in range(n))
        c = frac(rng.randint(1, 3))
        w = [c * sum(sigma[j][k] * v[k] for k in range(n)) for j in range(n)]
        ov = [sum(row[k] * v[k] for k in range(n)) for row in out]
        out = [[x + ov[i] * w[j] for j, x in enumerate(row)] for i, row in enumerate(out)]
    return tuple(tuple(r) for r in out)


def _compose(col, powers):
    """The column col(r(t)) = sum_k c_k r(t)^k, where powers[k] is the
    coefficient list of r(t)^k."""
    out = [[ZERO] * len(col[0]) for _ in powers[len(col) - 1]]
    for c, power in zip(col, powers):
        for m, s in enumerate(power):
            if s:
                out[m] = [x + s * y for x, y in zip(out[m], c)]
    return _trimmed(tuple(v) for v in out)


def transform_curve(curve: FlagCurve, matrix=None, reparam=None) -> FlagCurve:
    """Apply a constant change of frame to every coefficient vector and/or
    substitute t -> reparam(t), reparam a polynomial in t (a MultiPoly).

    An origin-preserving reparametrization with unit linear part leaves the
    extracted symbol unchanged; so does any matrix preserving the pairing.
    """
    mcols = None if matrix is None else _sparse_columns(matrix)
    powers = None
    if reparam is not None:
        r = [frac(reparam.coefficient_of((q,))) for q in range(max(reparam.degree(), 0) + 1)]
        powers = [[ONE]]    # coefficient lists of r(t)^k, one per power in use
        for _ in range(max((len(col) for block in curve.blocks for col in block), default=1) - 1):
            prod = [ZERO] * (len(powers[-1]) + len(r) - 1)
            for i, a in enumerate(powers[-1]):
                for j, b in enumerate(r):
                    prod[i + j] += a * b
            powers.append(prod)
    images = {}     # blocks share column objects; move each one once

    def moved(col):
        if id(col) not in images:
            out = col if mcols is None else _trimmed(tuple(_apply(mcols, c)) for c in col)
            images[id(col)] = out if powers is None or not out else _compose(out, powers)
        return images[id(col)]

    blocks = tuple(tuple(moved(col) for col in block) for block in curve.blocks)
    return FlagCurve(curve.indices, blocks, curve.sigma, curve.case, curve.base)


# ---------------------------------------------------------------------------
# extraction helpers

def _sigma_row(sigma, v):
    """The row vector v^T sigma, visiting only nonzero entries of v and sigma."""
    out = [0] * len(sigma)
    for x, row in zip(v, sigma):
        if x:
            for j, s in enumerate(row):
                if s:
                    out[j] += x * s
    return tuple(out)


def check_pairing(sigma):
    """Raise ValueError unless sigma is a nonempty skew nondegenerate matrix."""
    if not sigma:
        raise ValueError("sigma is empty")
    try:
        check_skew(sigma)
    except NonSkew as exc:
        raise ValueError(f"sigma: {exc}") from None
    if rank(sigma) != len(sigma):
        raise ValueError("sigma is degenerate")


def _skew_complement(basis, sigma):
    """A basis of the skew-orthogonal complement of the span of basis: the
    canonical kernel vectors, each scaled to a primitive integer vector and
    written out over all n columns, as every vector of extraction is."""
    n = len(sigma)
    kernel = kernel_basis([_sigma_row(sigma, b) for b in basis], n)
    return tuple(tuple(v.get(j, 0) for j in range(n)) for v in map(primitive_row, kernel))


def _check_regular(level, rank0, probes, n):
    """Raise unless the span of the columns is as large at t = 0 as at the
    probe points t = 1, 2, 3.  The generic rank is at least the rank at any
    point, so a larger probe rank proves a drop at 0; a lower one proves
    nothing.  probes[t0] = (Echelon of the values at t0, columns added),
    created at the first level whose rank at 0 is short of min(n, #cols)."""
    if rank0 == min(n, len(level)):
        return
    for t0 in (1, 2, 3):
        span, used = probes.get(t0) or (Echelon(n), 0)
        for c in level[used:]:
            span.add(_eval_col(c, t0, n))
        probes[t0] = (span, len(level))
        if span.rank > rank0:
            raise NonRegularPoint("span dimension drops at t = 0")


class _ComplementJets:
    """Truncated jets of polynomial sections of the skew-orthogonal complement
    of the span of a column family.  At a regular point the truncated system
    has the same solution dimension as the space of jets of true sections, so
    its solutions are exactly those jets; a failed extension step certifies a
    rank drop of the pairing at t = 0.  Jets are integer: each is scaled by
    one integer when a coefficient is appended, and the extension of a
    scaled jet is the scaled extension, so every span stays the same.  Columns
    may be truncated, as one-jets (value, derivative) are."""

    def __init__(self, cols, sigma):
        self.n = len(sigma)
        # coeff_rows[c][q]: coefficient of t^q in the row col_c(t)^T sigma,
        # for q up to the degree of col_c
        self.coeff_rows = [[_sigma_row(sigma, c) for c in col] or [(0,) * self.n]
                           for col in cols]
        self.r0 = [pr[0] for pr in self.coeff_rows]
        self.kernel = _skew_complement([_eval_col(c, 0, self.n) for c in cols], sigma)
        self.jets = [[k] for k in self.kernel]
        self.order = 0

    def ensure(self, order):
        """Extend to the given order; return the jets, extended kernel jets first."""
        while self.order < order:
            p = self.order + 1
            rhss = [[-sum(x * y for q in range(1, min(p, len(pr) - 1) + 1)
                          for x, y in zip(pr[q], jet[p - q]) if x and y)
                     for pr in self.coeff_rows] for jet in self.jets]
            sols = solve_all(self.r0, rhss, self.n)
            if sols is None:
                raise NonRegularPoint("complement section jet does not extend")
            self.jets = ([list(_integral(jet + [sol])) for jet, sol in zip(self.jets, sols)]
                         + [[(0,) * self.n] * p + [k] for k in self.kernel])
            self.order = p
        return self.jets


# ---------------------------------------------------------------------------
# symbol extraction

def extract_flag_symbol(curve, rank_parity=None, sigma=None) -> FlagSymbol:
    """Recover the flag symbol of a polynomial curve of subspaces.

    Filtration members below the base come from osculation (column
    derivatives), members above from skew-orthogonal complements; the mixed
    case seeds its half-odd chain with jets of complement sections.  The
    symbol is read off the rank profile of the iterated degree-lowering maps
    induced on the graded pieces by differentiation of sections at t = 0.
    It depends only on the members' spans and on the ranks of the level
    maps modulo each floor.  Two sections of F_i with the same value at 0
    differ by t u, with u a section of F_i, so their derivatives at 0 differ
    by u(0), which lies in the floor of level i - 1.  Hence any greedy pick of
    one-jets gives the same symbol, and so does a nonzero scale on a vector or
    a jet: columns, fibers, complements, jets and one-jets are primitive
    integer vectors here.  sigma must be a symplectic pairing: check_pairing
    raises ValueError for any other.
    """
    if isinstance(curve, FlagCurve):
        case = rank_parity or curve.case
        sigma = curve.sigma if sigma is None else sigma
        cols0 = curve.base_columns
    else:
        if rank_parity is None or sigma is None:
            raise ValueError("a plain column curve needs rank_parity and sigma")
        case = rank_parity
        cols0 = curve
    if case not in ("odd", "two", "even"):
        raise ValueError(f"unknown rank parity {case!r}")
    check_pairing(sigma)
    n = len(sigma)
    if any(len(c) != n for col in cols0 for c in col):
        raise ValueError("column length does not match the pairing")
    # a constant multiple of a column or of the pairing spans the same spaces
    cols0 = tuple(_integral(_trimmed(col)) for col in cols0)
    sigma = _integral(sigma)
    base = HALF if case == "two" else ZERO
    step = HALF if case == "even" else ONE
    maxdeg = max((len(col) - 1 for col in cols0), default=0)

    fibers = {}
    cands = {}      # index -> (value, derivative) one-jets of sections

    # osculation: each level is the one above plus the newest derivatives,
    # so the fiber at 0, the jet span (greedy thinning keeps a prefix) and
    # the regularity probes each grow one Echelon by the newest columns only
    fiber, jet_span = Echelon(n), Echelon(2 * n)
    kept, probes, level, newest = [], {}, [], list(cols0)
    bottom = base
    while True:
        derivs = [_dcol(c) for c in newest]
        for c, d in zip(newest, derivs):
            val, der = _eval_col(c, 0, n), _eval_col(d, 0, n)
            fiber.add(val)
            if jet_span.add(val + der):
                kept.append((val, der))
        level += newest
        _check_regular(level, fiber.rank, probes, n)
        fibers[bottom], cands[bottom] = fiber.integer_rows(), list(kept)
        if fiber.rank == n:
            break
        if int(base - bottom) > maxdeg:
            raise NonSymplecticFlag("curve does not fill the symplectic space")
        newest = [d for d in derivs if d]
        bottom -= ONE

    if case == "even":
        # half-odd chain from the Taylor coefficients a_j at 0 of complement
        # sections (truncated jets) and of the base columns; (a_j, (j+1) a_{j+1})
        # is the one-jet of the j-th derivative over j!.  Level k, at index
        # -1/2 - k, adds j = k + 1 of each jet and j = k of each column to the
        # level above, so as in osculation one fiber and one jet span grow
        jets = _ComplementJets(cols0, sigma)
        zero = (0,) * n
        fiber, jet_span, kept = Echelon(n), Echelon(2 * n), []
        k = -1
        while True:
            newest = [(s, k + 1) for s in jets.ensure(k + 2)]
            for s, j in newest + [(col, k) for col in cols0 if k >= 0]:
                val, nxt = (s[q] if q < len(s) else zero for q in (j, j + 1))
                der = tuple((j + 1) * e for e in nxt)
                fiber.add(val)
                if jet_span.add(val + der):
                    kept.append((val, der))
            idx = -HALF - k
            fibers[idx], cands[idx] = fiber.integer_rows(), list(kept)
            if k >= 0 and fiber.rank == n:
                break
            if k > n + 2:
                raise NonSymplecticFlag("half-odd chain does not fill the symplectic space")
            k += 1
        bottom = min(bottom, idx)

    def dual_index(b):
        return (ONE - b) if case in ("odd", "two") else (HALF - b)

    def fiber_at(i):
        return fibers[i] if i in fibers else _skew_complement((), sigma) if i < bottom else ()

    # members above the base: complements of the dual members, computed once
    # by the jets of the dual member's one-jets (their values span it, and
    # kernel_basis is canonical for a row space).  As sigma is nondegenerate,
    # only the whole space has an empty complement: the loop stops at the
    # first dual member that fills it, or at once if the base of case two does
    pos = ONE if case == "even" else base + step
    while dual_index(pos) in cands:
        jets = _ComplementJets(cands[dual_index(pos)], sigma)
        if not jets.kernel:
            break
        fibers[pos], cands[pos] = jets.kernel, jets.ensure(1)[:len(jets.kernel)]
        pos += step

    grid = sorted(fibers)

    # flag shape: nested, and the Lagrangian base of case two isotropic; the
    # rest follows from nesting.  Above 0 every other member is a complement
    # C = {v : sigma(F, v) = 0} of a member F below it (F_{1/2} = F_0^perp in
    # case even), so C lies in F, and sigma(u, v) = 0 for u, v in C.  At or
    # below 0, F_i is the whole space (as is every member below one that is),
    # or F_i^perp is a member F_{dual(i)} with dual(i) > i, so it lies in F_i.
    for lo, hi in zip(grid, grid[1:]):
        span = Echelon(n, fibers[lo])
        if any(not span.contains(v) for v in fibers[hi]):
            raise NonSymplecticFlag("filtration members are not nested")
    if case == "two":
        rows_s = [_sigma_row(sigma, u) for u in fibers[base]]
        if any(sum(x * y for x, y in zip(r, v)) for r in rows_s for v in fibers[base]):
            raise NonSymplecticFlag(f"member at index {base} is not isotropic")

    # graded representatives, a greedy pick of one-jets whose values complete
    # the floor to the fiber, and the level maps induced by differentiation
    reps = {}
    for i in grid:
        floor = fiber_at(i + step)
        target = len(fiber_at(i)) - len(floor)
        span, picked = Echelon(n, floor), []
        for val, der in cands.get(i, []) if target else ():
            if len(picked) < target and span.add(val):
                picked.append((val, der))
        if len(picked) != target:
            raise NonSymplecticFlag("graded piece is short of section representatives")
        reps[i] = tuple(picked)

    def level_matrix(i):
        """Columns: coordinates of each representative's derivative on the
        representatives one index lower, modulo that level's floor."""
        lower = reps.get(i - ONE, ())
        floor = fiber_at(i - ONE + step)
        a_cols = [v for v, _ in lower] + list(floor)
        mat_rows = [[col[r] for col in a_cols] for r in range(n)]
        sols = solve_all(mat_rows, [der for _, der in reps[i]], len(a_cols))
        if sols is None:
            raise NonSymplecticFlag("derivative leaves the next filtration member")
        return [sol[:len(lower)] for sol in sols]

    matrices = {i: level_matrix(i) for i in grid if reps[i]}

    def composite_ranks(b, lo):
        """Ranks of the composite level maps from b down to each a >= lo,
        keyed (a, b), in one sweep."""
        vecs = [tuple(ONE if p == q else ZERO for q in range(len(reps[b])))
                for p in range(len(reps[b]))]
        i = b
        ranks = {(b, b): len(vecs)}
        while i > lo:
            cols = matrices.get(i, [])
            vecs = [tuple(sum((x * col[r] for x, col in zip(v, cols) if x), ZERO)
                          for r in range(len(reps.get(i - ONE, ())))) for v in vecs]
            i -= ONE
            ranks[(i, b)] = rank(vecs)
        return ranks

    # rank profile -> multiset of row intervals, one parity class at a time
    offsets = {"odd": (ZERO,), "two": (HALF,), "even": (ZERO, HALF)}[case]
    rows = {}
    for offset in offsets:
        idxs = [i for i in grid if (i - offset).denominator == 1 and reps[i]]
        if not idxs:
            continue
        lo, hi = min(idxs), max(idxs)
        span_n = {}
        b = lo
        while b <= hi:
            span_n.update(composite_ranks(b, lo))
            b += ONE

        a = lo
        while a <= hi:
            b = a
            while b <= hi:
                count = (span_n.get((a, b), 0) - span_n.get((a - ONE, b), 0)
                         - span_n.get((a, b + ONE), 0) + span_n.get((a - ONE, b + ONE), 0))
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
