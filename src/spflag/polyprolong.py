"""Spencer prolongations as spaces of homogeneous polynomials, secant and
Hankel-minor ideal slices, and the harness comparing them with the graded
prolongation layers.

Everything is exact and nothing is sampled.  For a variety whose
coordinates are linearly independent, the degree-(k+2) slice of the ideal of
its k-th secant variety is the k-th standard prolongation of the quadrics
through it (see secant_ideal), so secant slices come from the same Spencer
step as standard prolongations.  A slice spans every polynomial of its
degree that vanishes on the secant, so membership in it is an exact
vanishing test.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import CapReached, RangeError
from .exact import Echelon, MultiPoly, _minors, kernel_basis, monomials_of_degree
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


def _prolong_chain(space, kmax):
    """The chain space^(0), ..., space^(kmax) of standard prolongations of a
    space of quadrics, as a list: space^(k) holds the homogeneous
    degree-(k+2) polynomials whose order-k partials all lie in space.

    Each level is space^(k) = {f : d_i f in space^(k-1) for every i}
    (Sternberg 1964), one Spencer step from the level before.
    """
    chain = [space]
    for degree in range(3, kmax + 3):
        chain.append(poly_space(degree, space.variables, _prolong_once(chain[-1])))
    return chain


def standard_prolong(w, kmax, sigma, variables=None):
    """The chain g^(0), ..., g^(kmax) of standard prolongations of w, with
    g^(0) the quadratic-form space of w (see _prolong_chain)."""
    mats = w.basis if isinstance(w, MatrixSubspace) else tuple(w)
    if variables is None:
        variables = default_variables(len(sigma))
    return _prolong_chain(
        poly_space(2, variables, [symmetric_form(a, sigma, variables) for a in mats]), kmax)


# ---------------------------------------------------------------------------
# varieties: curves, developables, secants

@dataclass(frozen=True)
class VarietySampler:
    params: tuple     # parameter names
    coords: tuple     # MultiPoly over params, one per ambient coordinate
    ambient: tuple    # ambient variable names

    @functools.cached_property
    def quadrics(self):
        """I_2(X), the quadrics through the variety X, built once; ValueError
        when the coordinates are linearly dependent (see secant_ideal)."""
        if _vanishing_forms(self, 1):
            raise ValueError("the variety's coordinates are linearly dependent, "
                             "so its secant ideals are not prolongations")
        return poly_space(2, self.ambient, _vanishing_forms(self, 2))


def _vanishing_forms(v: VarietySampler, degree):
    """The forms of the degree over v.ambient that vanish on v: the kernel
    of f -> f o gamma for the parametrization gamma, with one unknown per
    monomial and one equation per monomial in the parameters."""
    monos = monomials_of_degree(len(v.coords), degree)
    one = MultiPoly.constant(v.params, 1)
    rows = {}
    for col, m in enumerate(monos):
        image = math.prod((c ** e for c, e in zip(v.coords, m) if e), start=one)
        for exp, c in image.terms.items():
            rows.setdefault(exp, {})[col] = c
    return [MultiPoly(v.ambient, dict(zip(monos, vec)))
            for vec in kernel_basis(list(rows.values()), len(monos))]


def _row_boxes(x: GradedSymplecticSpace, component):
    """The boxes of the component's lower row (its only row, for a one-row
    component), top weight first: its chain."""
    for r, chain in zip(rows_of(x.symbol), x.chains):
        if r.component == component and r.kind in ("F", "C"):
            return chain
    raise ValueError("no such row")


def shift_orbit_sampler(x: GradedSymplecticSpace, component):
    """The curve swept from the top box of a row by the shift exponential,
    in the row's own coordinates: y_i = t^i / i! for the i-th box of
    _row_boxes, a rational normal curve of degree = row length - 1.  In the
    whole space the curve is zero off the row."""
    n = len(_row_boxes(x, component))
    t = MultiPoly.variable(("t",), "t")
    curve = tuple(t ** i * Fraction(1, math.factorial(i)) for i in range(n))
    return VarietySampler(("t",), curve, tuple(f"y{i}" for i in range(n)))


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
    return VarietySampler(params, tuple(coords), base.ambient)


def secant_ideal(v: VarietySampler, kmax):
    """The degree-(k+2) slices of the ideals of the k-th secant varieties of
    v, for k = 0..kmax, as a list: the standard prolongations of I_2(X)
    (Landsberg-Manivel 2004; Sidman-Sullivant 2009).  ValueError when the
    coordinates of X are linearly dependent, where the chain can miss part
    of a slice.

    Let f be homogeneous of degree d = k + 2 with symmetric form P, so that
    f(sum_i c_i x_i) = sum_{|a|=d} (d!/a!) c^a P(x_0^a_0, ..., x_k^a_k) for
    points x_0, ..., x_k of X, x_i in a_i slots.
    - Every f of I_2(X)^(k) vanishes on the secant, for any X: d slots over
      k + 1 points give some a_i >= 2, and that term is a multiple of an
      order-k directional derivative of f, a quadric of I_2(X), at x_i.
    - Every f that vanishes on the secant lies in I_2(X)^(k) when the
      coordinates are independent: the coefficient of c_0^2 c_1 ... c_k,
      P(x_0, x_0, x_1, ..., x_k), is multilinear in x_1, ..., x_k, which
      span the space, so every order-k partial of f vanishes at x_0.
    """
    return _prolong_chain(v.quadrics, kmax)


def secant_certificate(v: VarietySampler, k):
    """The exact test that polynomials over v.ambient vanish on the k-th
    secant variety of v: every nonzero one must be homogeneous of degree
    k + 2 with all order-k partials in I_2(X) (see secant_ideal), found by
    k first-partial steps on the span of the polynomials.  ValueError when
    the coordinates of X are linearly dependent."""
    quadrics = v.quadrics

    def certify(polys):
        polys = [p for p in polys if p.terms]
        if any(sum(e) != k + 2 for p in polys for e in p.terms):
            return False
        space = poly_space(k + 2, v.ambient, polys)
        for degree in range(k + 1, 1, -1):
            space = poly_space(degree, v.ambient,
                               [f.derivative(y) for f in space.basis for y in v.ambient])
        return all(map(quadrics.contains, space.basis))
    return certify


def hankel_minor_space(s, k):
    """Span of the C(s+1-k, k+2) maximal minors of the (k+2) x (s+1-k) Hankel
    matrix in x1..x_{s+2}, entry x_{i+j+1} at (i, j); RangeError if s < 2k+1.

    Every (k+2)-minor of every Hankel matrix vanishes on the k-th secant of
    the moment curve, where the matrix has rank at most k+1, so the minors of
    all of them span a subspace of the slice secant_ideal returns.  `secant`
    checks on every run that this one matrix's span equals the slice; then
    so does the span of all of them, and no report depends on the choice.
    Soundness rests on that check; the theorem says it never fails
    (Gruson-Peskine 1982; Eisenbud, "Linear sections of determinantal
    varieties", 1988), and these minors are a basis (Eagon-Northcott)."""
    size, ncols = k + 2, s + 1 - k
    if ncols < size:
        raise RangeError(f"no (k+2)-minors exist for s={s}, k={k}")
    variables = tuple(f"x{i}" for i in range(1, s + 3))
    minor = _minors([[MultiPoly.variable(variables, variables[i + j]) for j in range(ncols)]
                     for i in range(size)])
    return poly_space(size, variables, [minor(tuple(range(size)), cols)
                                        for cols in itertools.combinations(range(ncols), size)])


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
    secant-variety ideal slices; returns a JSON-friendly report, which
    echoes seed although nothing is sampled."""
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
    t_chain = secant_ideal(tangential, k_max) if tangential is not None else None
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
            ideal = t_chain[k]
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
