"""Spencer prolongations as spaces of homogeneous polynomials, secant and
Hankel-minor ideal slices, and the harness comparing them with the graded
prolongation layers.

Polynomial spaces are exact.  Secant ideals are sampled at seeded integer
points and eliminated modulo a prime, but every reported polynomial is lifted
to the rationals and certified by symbolic substitution of the variety's
parametrization, so the seed picks only the sample points and never leaks
into results.  A certified slice spans every polynomial of its degree that
vanishes on the variety, so membership in it is an exact vanishing test.
"""
from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import CapReached, CertificationFailure, RangeError
from .exact import (
    Echelon,
    MultiPoly,
    _minors,
    kernel_basis,
    kernel_mod,
    monomials_of_degree,
    rational_reconstruction,
)
from .flagprolong import (
    MatrixSubspace,
    decompose_azp,
    flag_prolong,
)
from .liealg import heisenberg_from_space
from .symbols import (
    GradedSymplecticSpace,
    OneRow,
    TwoRow,
    build_model_space,
    is_finite_type,
    render_symbol,
    rows_of,
)
from .tanaka import TanakaProlongation, prolong


def default_variables(n):
    return tuple(f"x{i}" for i in range(n))


@dataclass(frozen=True)
class PolySpace:
    degree: int
    variables: tuple
    basis: tuple

    @property
    def dim(self):
        return len(self.basis)

    @functools.cached_property
    def _span(self):
        return Echelon(None, map(_keyed, self.basis))

    def contains(self, p):
        """Reduce p against one echelon form of the basis, built once."""
        if not p.terms:
            return True
        if p.variables != self.variables:
            return False
        # a term of another degree meets no basis column, so it survives
        return self._span.contains(_keyed(p))

    def equals(self, other):
        """Every basis is the canonical rref of its span (see poly_space), so
        equal spans have equal bases."""
        return (self.degree == other.degree and self.variables == other.variables
                and [p.terms for p in self.basis] == [q.terms for q in other.basis])


def _keyed(p):
    """The terms of p as a sparse row, the column of x^e keyed by -e: the
    ascending order of the keys is graded-lex descending within a degree,
    as monomials_of_degree lists the monomials."""
    return {tuple(-x for x in e): c for e, c in p.terms.items()}


def poly_space(degree, variables, polys):
    """Span-reduce to a canonical independent basis; validates homogeneity.

    The basis is the reduced row echelon form of the coefficient rows in
    _keyed's column order, so no row is ever written out over all
    monomials, and it is canonical for the span."""
    variables = tuple(variables)
    rows = []
    for p in polys:
        if any(sum(e) != degree for e in p.terms):
            raise ValueError("inhomogeneous polynomial for this space")
        rows.append(_keyed(p))
    basis = tuple(
        MultiPoly(variables, {tuple(-x for x in key): c for key, c in row.items()})
        # the column count matters only to Echelon.kernel(), unused here
        for row in Echelon(None, rows).reduced_rows()
    )
    return PolySpace(degree, variables, basis)


def symmetric_form(a, sigma, variables):
    """The quadratic form v -> sigma(v, A v) of a symplectic endomorphism."""
    n = len(sigma)
    a_rows = [[(m, x) for m, x in enumerate(row) if x] for row in a]
    sigma_a = {}
    for i, row in enumerate(sigma):
        for j, s in enumerate(row):
            if s:
                for m, x in a_rows[j]:
                    sigma_a[i, m] = sigma_a.get((i, m), 0) + s * x
    terms = {}
    for (i, m), c in sorted(sigma_a.items()):
        if c:
            exp = [0] * n
            exp[i] += 1
            exp[m] += 1
            exp = tuple(exp)
            terms[exp] = terms.get(exp, 0) + c
    return MultiPoly(tuple(variables), terms)


def _weight(terms, weights):
    """The weight shared by every exponent in terms, or None when they
    differ; an empty polynomial is homogeneous of every weight, so 0."""
    ws = {sum(e * w for e, w in zip(exp, weights) if e) for exp in terms}
    if len(ws) > 1:
        return None
    return ws.pop() if ws else 0


def _prolong_once(space):
    """The next level of the chain: the polynomials f whose first partials
    all lie in space.  A tuple h_i = sum_g c_ig g of elements of space with
    d_l h_i = d_i h_l is the gradient of f = sum_i x_i h_i / deg f (Euler),
    so the unknowns are the c_ig, c_ig at column i * dim + g, and there is
    one sparse equation per (i < l, monomial) of d_l h_i - d_i h_l."""
    n, dim = len(space.variables), space.dim
    basis = [g.terms for g in space.basis]
    rows = {}
    for g, terms in enumerate(basis):
        for exp, c in terms.items():
            for l, e in enumerate(exp):
                if not e:
                    continue
                down = exp[:l] + (e - 1,) + exp[l + 1:]    # a term of d_l g
                for i in range(n):
                    if i != l:
                        pair, sign = ((i, l), 1) if i < l else ((l, i), -1)
                        rows.setdefault((pair, down), {})[i * dim + g] = sign * c * e
    scale = Fraction(1, space.degree + 1)
    polys = []
    for v in kernel_basis(list(rows.values()), n * dim):
        terms = {}
        for col, c in enumerate(v):
            if c:
                i, g = divmod(col, dim)
                for exp, x in basis[g].items():
                    up = exp[:i] + (exp[i] + 1,) + exp[i + 1:]
                    terms[up] = terms.get(up, 0) + scale * c * x
        polys.append(MultiPoly(space.variables, terms))
    return polys


def standard_prolong(w, kmax, sigma, variables=None):
    """The chain g^(0), ..., g^(kmax) of standard prolongations of w, as a
    list: g^(k) holds the homogeneous degree-(k+2) polynomials whose order-k
    partials all lie in the quadratic-form space g^(0) of w.

    Each level is g^(k) = {f : d_i f in g^(k-1) for every i} (Sternberg
    1964), one Spencer step from the level before.
    """
    mats = w.basis if isinstance(w, MatrixSubspace) else tuple(w)
    if variables is None:
        variables = default_variables(len(sigma))
    space = poly_space(2, variables, [symmetric_form(a, sigma, variables) for a in mats])
    chain = [space]
    for degree in range(3, kmax + 3):
        space = poly_space(degree, space.variables, _prolong_once(space))
        chain.append(space)
    return chain


# ---------------------------------------------------------------------------
# varieties: curves, developables, secants

@dataclass(frozen=True)
class VarietySampler:
    params: tuple     # parameter names
    coords: tuple     # MultiPoly over params, one per ambient coordinate
    ambient: tuple    # ambient variable names
    param_weights: tuple = None   # weight of each parameter, if any is known


def _row_boxes(x: GradedSymplecticSpace, component):
    """The boxes of the component's lower row (its only row, for a one-row
    component), top weight first."""
    for ri, r in enumerate(rows_of(x.symbol)):
        if r.component == component and r.kind in ("F", "C"):
            boxes = [i for i in range(x.dim) if x.row_index[i] == ri]
            return sorted(boxes, key=lambda i: x.weights[i], reverse=True)
    raise ValueError("no such row")


def shift_orbit_sampler(x: GradedSymplecticSpace, component):
    """The curve swept from the top box of a row by the shift exponential,
    in the row's own coordinates: y_i = t^i / i! for the i-th box of
    _row_boxes, a rational normal curve of degree = row length - 1.  In the
    whole space the curve is zero off the row."""
    n = len(_row_boxes(x, component))
    t = MultiPoly.variable(("t",), "t")
    curve = tuple(t ** i * Fraction(1, math.factorial(i)) for i in range(n))
    return VarietySampler(("t",), curve, tuple(f"y{i}" for i in range(n)), (1,))


def developable_sampler(base: VarietySampler, j):
    """Union of j-th osculating spaces: sum of u_i times the i-th derivative."""
    if base.params != ("t",):
        raise ValueError("expected a one-parameter curve")
    params = ("t",) + tuple(f"u{i}" for i in range(j + 1))
    coords = []
    for c in base.coords:
        total = MultiPoly.constant(params, 0)
        deriv = c
        for i in range(j + 1):
            u_i = MultiPoly.variable(params, f"u{i}")
            total = total + embed_poly(deriv, params, {"t": 0}) * u_i
            deriv = deriv.derivative("t")
        coords.append(total)
    return VarietySampler(params, tuple(coords), base.ambient, (1,) + tuple(range(j + 1)))


def _secant_parametrization(v: VarietySampler, k):
    """Symbolic point of the k-th secant: one parameter copy per point plus
    mixing coefficients c1..ck (the first point enters with coefficient 1)."""
    copies = [f"{name}__{copy}" for copy in range(k + 1) for name in v.params]
    all_params = tuple(copies + [f"c__{i}" for i in range(1, k + 1)])
    point = [MultiPoly.constant(all_params, 0)] * len(v.coords)
    for copy in range(k + 1):
        ren = {name: all_params.index(f"{name}__{copy}") for name in v.params}
        scale = MultiPoly.variable(all_params, f"c__{copy}") if copy else 1
        point = [x + embed_poly(c, all_params, ren) * scale for x, c in zip(point, v.coords)]
    return all_params, tuple(point)


def secant_certificate(v: VarietySampler, k):
    """The exact test that polynomials over v.ambient vanish on the k-th
    secant variety of v: each must substitute to the zero polynomial at the
    symbolic secant point.  Fixing the first point's coefficient at 1 loses
    nothing for homogeneous polynomials.  The point is built at the first
    nonzero polynomial, since the zero polynomial vanishes everywhere."""
    @functools.cache
    def subs_map():
        return dict(zip(v.ambient, _secant_parametrization(v, k)[1]))
    return lambda polys: all(not p.subs(subs_map()).terms for p in polys if p.terms)


# one prime per round of secant_ideal; each round samples twice the points
SECANT_PRIMES = (2 ** 61 - 1, 2 ** 89 - 1, 2 ** 107 - 1, 2 ** 127 - 1)


def _residues(poly, p):
    """poly's terms mod p; ValueError when p divides a denominator."""
    return [(e, c.numerator * pow(c.denominator, -1, p)) for e, c in poly.terms.items()]


def _evaluate(terms, values):
    return sum(c * math.prod(x ** e for x, e in zip(values, exp) if e) for exp, c in terms)


def _draw(rng, v, k):
    """One integer point of the k-th secant: (scale, parameters) per copy."""
    return [(rng.randint(-2 ** 31, 2 ** 31) if copy else 1,
             [rng.randint(-2 ** 31, 2 ** 31) for _ in v.params]) for copy in range(k + 1)]


def _cone_fills(v: VarietySampler, k, rng, p):
    """Terracini's lemma: True when the Jacobian of (lambda, each copy's
    parameters, c_1..c_k) -> lambda (gamma(p_0) + sum c_i gamma(p_i)) has
    rank N mod p at one integer point with lambda = 1.  That rank bounds the
    cone's dimension from below, so the cone then fills the space."""
    try:
        coords = [_residues(c, p) for c in v.coords]
        partials = [[_residues(c.derivative(t), p) for c in v.coords] for t in v.params]
    except ValueError:
        return False
    # the Jacobian's columns as rows: rank N iff they have no kernel
    columns, point = [], [0] * len(coords)
    for copy, (scale, params) in enumerate(_draw(rng, v, k)):
        gamma = [_evaluate(t, params) for t in coords]
        point = [x + scale * y for x, y in zip(point, gamma)]
        columns += [gamma] if copy else []
        columns += [[scale * _evaluate(t, params) for t in d] for d in partials]
    return not kernel_mod(columns + [point], len(coords), p)


def secant_ideal(v: VarietySampler, degree, k, seed=42):
    """Degree slice of the ideal of the k-th secant variety.

    Samples are integer points mod a prime and only the certificate is
    symbolic, so the result is exact and the seed picks only the points.
    A cone that fills the space has no ideal.  Otherwise each weight block
    of monomials (the ideal of a torus-invariant variety is spanned by
    weight-homogeneous polynomials) with no kernel mod p is {0}, and any
    other kernel must lift by rational reconstruction to polynomials that
    vanish at the symbolic secant point: independent, in the ideal and at
    least dim ker over Q many, so they span the slice.  A block that fails
    goes to the next round, with the next prime and twice the points.
    """
    rng = random.Random(seed)
    if _cone_fills(v, k, rng, SECANT_PRIMES[0]):
        return poly_space(degree, v.ambient, ())
    coord_weights = [None]
    if v.param_weights is not None:
        coord_weights = [_weight(c.terms, v.param_weights) for c in v.coords]
    split = None not in coord_weights
    blocks = {}
    for m in monomials_of_degree(len(v.coords), degree):
        blocks.setdefault(_weight((m,), coord_weights) if split else None, []).append(m)
    blocks = list(blocks.values())
    draws = []
    need = max(map(len, blocks), default=0) + 8
    certify = secant_certificate(v, k)
    polys = []
    for p in SECANT_PRIMES:
        draws += [_draw(rng, v, k) for _ in range(need - len(draws))]
        need *= 2
        try:
            coords = [_residues(c, p) for c in v.coords]
        except ValueError:   # p divides a denominator: the round fails
            continue
        points = [[sum(s * _evaluate(t, params) for s, params in draw) % p for t in coords]
                  for draw in draws]
        uncertified = []
        for block in blocks:
            kern = kernel_mod(([math.prod(x ** e for x, e in zip(pt, m) if e) for m in block]
                               for pt in points), len(block), p)
            lifted = [[rational_reconstruction(x, p) for x in vec] for vec in kern]
            if any(None in vec for vec in lifted):
                uncertified.append(block)
                continue
            found = [MultiPoly(v.ambient, dict(zip(block, vec))) for vec in lifted]
            if not certify(found):
                uncertified.append(block)
                continue
            polys += found
        if not uncertified:
            return poly_space(degree, v.ambient, polys)
        blocks = uncertified
    raise CertificationFailure(
        f"secant ideal sampling did not stabilize after {len(SECANT_PRIMES)} rounds")


def hankel_minor_space(s, k, alpha=None):
    """Span of the (k+2)-minors of the (alpha+1) x (s+2-alpha) Hankel matrix
    in s+2 variables; all admissible alpha when none is given."""
    alphas = [a for a in range(k + 1, s - k + 1)]
    if alpha is not None:
        if alpha not in alphas:
            raise RangeError(f"no (k+2)-minors exist for alpha={alpha}, s={s}, k={k}")
        alphas = [alpha]
    if not alphas:
        raise RangeError(f"no admissible alpha for s={s}, k={k}")
    variables = tuple(f"x{i}" for i in range(1, s + 3))
    gens = [MultiPoly.variable(variables, name) for name in variables]
    minors = []
    size = k + 2
    for a in alphas:
        nrows, ncols = a + 1, s + 2 - a
        minor = _minors([[gens[i + j] for j in range(ncols)] for i in range(nrows)])
        for rsel in itertools.combinations(range(nrows), size):
            minors.extend(minor(rsel, csel)
                          for csel in itertools.combinations(range(ncols), size))
    return poly_space(size, variables, minors)


# ---------------------------------------------------------------------------
# layer elements as polynomials

def tanaka_layer_polynomials(tp: TanakaProlongation, kmax, variables=None):
    """The chain u^(0), ..., u^(kmax) of Tanaka layer polynomials, as a list:
    u^(0) is spanned by the quadratic forms of the g0 matrices, and the
    polynomial of a degree-k element is sum_r (the linear form of its M1 row
    r) * (the polynomial of element r of degree k - 1), which pairs its
    generator action, composed down to a matrix, with sigma."""
    sigma = tp.heis.space.sigma
    if variables is None:
        variables = default_variables(len(sigma))
    polys = [symmetric_form(g, sigma, variables) for g in tp.g0]
    chain = [poly_space(2, variables, polys)]
    for k in range(1, kmax + 1):
        layer = tp.layers[k - 1] if k - 1 < len(tp.layers) else ()
        prev, polys = polys, []
        for elem in layer:
            terms = {}
            for row, f in zip(elem.m1, prev):
                for a, c in enumerate(row):
                    if c:
                        for exp, x in f.terms.items():
                            up = exp[:a] + (exp[a] + 1,) + exp[a + 1:]
                            terms[up] = terms.get(up, 0) + c * x
            polys.append(MultiPoly(variables, terms))
        chain.append(poly_space(k + 2, variables, polys))
    return chain


def embed_poly(p: MultiPoly, target_vars, position_of):
    """p with each variable renamed to target_vars[position_of[name]], by
    moving exponents; names that share a target multiply together."""
    target_vars = tuple(target_vars)
    slots = [position_of[name] for name in p.variables]
    terms = {}
    for exp, c in p.terms.items():
        up = [0] * len(target_vars)
        for i, e in zip(slots, exp):
            up[i] += e
        up = tuple(up)
        terms[up] = terms.get(up, 0) + c
    return MultiPoly(target_vars, terms)


def restrict_poly(p: MultiPoly, boxes, variables):
    """p with every variable off boxes set to 0 and the variable of boxes[i]
    renamed to variables[i]: p restricted to a coordinate subspace."""
    terms = {}
    for exp, c in p.terms.items():
        row_exp = tuple(exp[i] for i in boxes)
        if sum(row_exp) == sum(exp):
            terms[row_exp] = c
    return MultiPoly(tuple(variables), terms)


# ---------------------------------------------------------------------------
# the verification harness

def _genpr_hypotheses(sym):
    """Every integer-graded row needs at least 4 boxes, every half-odd row at
    least 6, and the symbol must be finite type."""
    if not is_finite_type(sym):
        return False, "not finite type"
    for r in rows_of(sym):
        boxes = int(r.top - r.bottom) + 1
        half_odd = (r.top - int(r.top)) != 0
        if half_odd and boxes < 6:
            return False, f"half-odd row with {boxes} boxes < 6"
        if not half_odd and boxes < 4:
            return False, f"integer row with {boxes} boxes < 4"
    return True, ""


def _pairwise_hypotheses(sym):
    two = [c for c in sym.components if isinstance(c, TwoRow)]
    if any(isinstance(c, OneRow) for c in sym.components):
        return False, "one-row component present"
    for a, b in itertools.combinations(two, 2):
        if a.s + b.s <= max(a.l, b.l):
            return False, "row sums too small for some pair"
    for c in two:
        if 2 * c.s <= c.l:
            return False, "2s <= l for some component"
    return True, ""


def _tangential_hypotheses(sym):
    two = [c for c in sym.components if isinstance(c, TwoRow)]
    if len(sym.components) != 1 or not two:
        return False, "not a single two-row symbol"
    c = two[0]
    if not (c.s < c.l < 2 * c.s):
        return False, "needs s < l < 2s"
    if c.s != int(c.s):
        return False, "integer rows required"
    return True, ""


def tangential_variety(sym, base: VarietySampler):
    """The variety whose secant ideals the tangential-secant identity matches
    with p^(k): the j-th osculating developable of the row curve base, with
    j = l - s - 1, so base itself for j = 0.  None when the identity's
    hypotheses fail."""
    if not _tangential_hypotheses(sym)[0]:
        return None
    c = sym.components[0]
    j = int(c.l - c.s - 1)
    return base if j == 0 else developable_sampler(base, j)


def verify_prolongation_theorems(sym, k_max, seed=42):
    """Cross-check the graded layers against standard prolongations and the
    secant-variety ideal slices; returns a JSON-friendly report."""
    x = build_model_space(sym)
    fp = flag_prolong(x)
    dec = decompose_azp(x)
    heis = heisenberg_from_space(x)
    genpr_ok, genpr_why = _genpr_hypotheses(sym)
    sec85_ok, sec85_why = _pairwise_hypotheses(sym)
    sec81_ok, sec81_why = _tangential_hypotheses(sym)
    finite = is_finite_type(sym)
    tp = None
    cap_report = None
    # the report reads no degree above k_max, and infinite type never ends
    try:
        tp = prolong(heis, fp.matrices(), kmax=max(k_max + 1, 6) if finite else k_max)
    except CapReached as exc:
        cap_report = exc.report

    report = {
        "symbol": render_symbol(sym),
        "seed": seed,
        "hypotheses": {
            "standard_equality": {"holds": genpr_ok, "why": genpr_why},
            "pairwise_ideal": {"holds": sec85_ok, "why": sec85_why},
            "tangential_secant": {"holds": sec81_ok, "why": sec81_why},
        },
        "terminated": tp is not None,
        "layers": [],
    }
    degrees = dict((tp.report if tp is not None else cap_report).degrees)

    xvars = default_variables(x.dim)
    rows = [(_row_boxes(x, ci), shift_orbit_sampler(x, ci))
            for ci in range(len(sym.components))]
    tangential = tangential_variety(sym, rows[0][1])
    p_chain = standard_prolong(dec.p, k_max, x.sigma, variables=xvars)
    l_chain = standard_prolong(dec.l_of_x, k_max, x.sigma, variables=xvars)
    u_chain = tanaka_layer_polynomials(tp, k_max, variables=xvars) if tp is not None else None
    for k in range(1, k_max + 1):
        entry = {"k": k, "dim_layer": degrees.get(k, 0 if tp is not None else None)}
        p_k, l_k = p_chain[k], l_chain[k]
        entry["dim_p"] = p_k.dim
        entry["dim_l"] = l_k.dim
        entry["p_equals_l"] = p_k.equals(l_k)
        if tp is not None:
            u_k = u_chain[k]
            entry["dim_layer_polys"] = u_k.dim
            entry["layer_faithful"] = u_k.dim == entry["dim_layer"]
            entry["layer_equals_p"] = u_k.equals(p_k)
        ideal_dim = None
        ideal_equal = None
        if tangential is not None:
            ideal = secant_ideal(tangential, k + 2, k, seed=seed)
            ideal_dim = ideal.dim
            emb_pos = {f"y{p}": i for p, i in enumerate(rows[0][0])}
            embedded = poly_space(
                k + 2, xvars, [embed_poly(q, xvars, emb_pos) for q in ideal.basis]
            )
            ideal_equal = embedded.equals(p_k)
        entry["dim_ideal"] = ideal_dim
        entry["ideal_equals_p"] = ideal_equal
        # p^(k) lies in the ideal of the k-th secant of every row curve; the
        # curve is zero off its row, so certify each polynomial restricted to
        # the row.  Like standard_equality, this is only claimed, and so only
        # computed, for finite type.
        inclusion = None
        if finite:
            inclusion = all(
                secant_certificate(curve, k)(
                    [restrict_poly(q, boxes, curve.ambient) for q in p_k.basis])
                for boxes, curve in rows)
        entry["p_vanishes_on_row_secants"] = inclusion
        report["layers"].append(entry)

    passes = {}
    if genpr_ok and tp is not None:
        passes["standard_equality"] = all(
            e["dim_layer"] == e["dim_p"] == e["dim_l"]
            and e["layer_equals_p"]
            and e["p_equals_l"]
            for e in report["layers"]
        )
    else:
        passes["standard_equality"] = None
    if tangential is not None:
        passes["tangential_secant"] = all(
            e["dim_ideal"] == e["dim_p"] and e["ideal_equals_p"]
            for e in report["layers"]
        )
    else:
        passes["tangential_secant"] = None
    if finite:
        passes["row_secant_inclusion"] = all(
            e["p_vanishes_on_row_secants"] for e in report["layers"]
        )
    else:
        passes["row_secant_inclusion"] = None
    report["passes"] = passes
    return report
