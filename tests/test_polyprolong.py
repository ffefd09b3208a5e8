"""Polynomial prolongations, secant and Hankel ideals, theorem cross-checks."""
import itertools
import math
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from spflag.cli import _rescaled_hankel, main
from spflag.errors import RangeError
from spflag import polyprolong
from spflag.exact import MultiPoly, monomials_of_degree, rank
from spflag.flagprolong import decompose_azp, graded_symplectic_basis
from spflag.liealg import heisenberg_from_space
from spflag.polyprolong import (
    VarietySampler,
    _row_boxes,
    default_variables,
    developable_sampler,
    embed_poly,
    hankel_minor_space,
    poly_space,
    restrict_poly,
    secant_certificate,
    secant_ideal,
    shift_orbit_sampler,
    standard_prolong,
    symmetric_form,
    tanaka_layer_polynomials,
    verify_prolongation_theorems,
)
from spflag.symbols import build_model_space, parse_symbol
from spflag.tanaka import prolong
from spflag.flagprolong import flag_prolong

from densekernel import dense_kernel


@lru_cache(maxsize=None)
def space(text):
    return build_model_space(parse_symbol(text))


@lru_cache(maxsize=None)
def decomposition(text):
    return decompose_azp(space(text))


def test_poly_space_reduction_and_contains():
    vs = ("x", "y")
    x = MultiPoly.variable(vs, "x")
    y = MultiPoly.variable(vs, "y")
    sp = poly_space(2, vs, [x * x, x * x + y * y, y * y])
    assert sp.dim == 2
    assert sp.contains(x * x - y * y * 3)
    assert not sp.contains(x * y)
    # terms outside the space's degree or variables are not dropped
    line = poly_space(2, vs, [x * x])
    assert not line.contains(x * x + x)
    assert not line.contains(y)
    assert not line.contains(MultiPoly.variable(("x", "z"), "x") ** 2)
    assert not poly_space(2, vs, []).contains(x)
    assert poly_space(2, vs, []).contains(MultiPoly(vs))
    assert line.contains(MultiPoly(vs))
    assert sp.equals(poly_space(2, vs, [x * x - y * y, x * x + y * y]))
    assert not sp.equals(line)
    with pytest.raises(ValueError):
        poly_space(2, vs, [x])


def test_symmetric_form_small():
    x = space("D(1,0)")
    a = ((Fraction(0), Fraction(1)), (Fraction(0), Fraction(0)))
    q = symmetric_form(a, x.sigma, ("x0", "x1"))
    # sigma(v, Av) with A sending the second basis vector to the first
    assert q == MultiPoly(("x0", "x1"), {(0, 2): Fraction(-1)})


def test_standard_prolong_of_zero_space():
    x = space("D(1,0)")
    chain = standard_prolong((), 2, x.sigma)
    assert [(w.degree, w.dim) for w in chain] == [(2, 0), (3, 0), (4, 0)]


def test_standard_prolong_full_sp_gives_all_polynomials():
    # prolongations of all of sp(2) are the full polynomial spaces
    x = space("D(1,0)")
    sp2 = []
    for k in (-2, -1, 0, 1, 2):
        sp2.extend(graded_symplectic_basis(x, k, conformal=False))
    assert len(sp2) == 3
    assert [w.dim for w in standard_prolong(tuple(sp2), 2, x.sigma)] == [3, 4, 5]


STANDARD_ORACLES = [
    ("D(3,4)", [6, 1, 0]),
    ("D(2,3)", [3, 0]),
    ("D(1,2)", [2, 0]),
]


@pytest.mark.parametrize("text,dims", STANDARD_ORACLES)
def test_standard_prolong_dimensions(text, dims):
    x = space(text)
    dec = decomposition(text)
    got = [w.dim for w in standard_prolong(dec.p, len(dims) - 1, x.sigma)]
    assert got == dims


def test_each_standard_chain_is_built_once(monkeypatch, capsys):
    # verify walks one chain each for p, l(X) and the tangential variety's
    # secant slices, prolong standard one each for p and l(X), so --kmax K
    # costs K Spencer steps per chain, not one chain per k
    chains, steps = [], []
    build, spencer_step = polyprolong._prolong_chain, polyprolong._prolong_once
    monkeypatch.setattr(polyprolong, "_prolong_chain",
                        lambda *args: chains.append(args) or build(*args))
    monkeypatch.setattr(polyprolong, "_prolong_once",
                        lambda *args: steps.append(args) or spencer_step(*args))
    rep = verify_prolongation_theorems(parse_symbol("D(3,4)"), 3)
    assert [e["dim_p"] for e in rep["layers"]] == [1, 0, 0]
    assert [e["dim_ideal"] for e in rep["layers"]] == [1, 0, 0]
    assert (len(chains), len(steps)) == (3, 9)
    chains.clear()
    steps.clear()
    assert main(["prolong", "standard", "--spec", "D(3,4)", "--kmax", "3"]) == 0
    assert "k=3 dim_p=0 dim_l=0" in capsys.readouterr().out
    assert (len(chains), len(steps)) == (2, 6)


def test_standard_prolong_derivative_closure():
    x = space("D(3,4)")
    dec = decomposition("D(3,4)")
    w0, w1 = standard_prolong(dec.p, 1, x.sigma)
    assert w1.dim == 1
    for f in w1.basis:
        for name in f.variables:
            d = f.derivative(name)
            if d.terms:
                assert w0.contains(d)


def test_secant_ideal_twisted_cubic():
    x = space("D(2,3)")
    base = shift_orbit_sampler(x, 0)
    assert secant_ideal(base, 0)[0].dim == 3
    assert secant_ideal(base, 1)[1].dim == 0


def test_secant_ideal_quartic_catalecticant():
    x = space("D(3,4)")
    base = shift_orbit_sampler(x, 0)
    assert secant_ideal(base, 0)[0].dim == 6
    chords = secant_ideal(base, 1)[1]
    assert chords.dim == 1


def test_secant_ideal_members_vanish_symbolically():
    # independent re-certification of the emitted polynomials
    x = space("D(3,4)")
    base = shift_orbit_sampler(x, 0)
    ideal = secant_ideal(base, 0)[0]
    subs_map = {name: c for name, c in zip(base.ambient, base.coords)}
    for f in ideal.basis:
        assert not f.subs(subs_map).terms


def test_secant_ideal_deterministic():
    x = space("D(2,3)")
    base = shift_orbit_sampler(x, 0)
    a = secant_ideal(base, 1)
    b = secant_ideal(base, 1)
    assert [w.basis for w in a] == [w.basis for w in b]


def test_developable_ideal_slice():
    # quadrics through the tangent surface of the rational normal quartic
    x = space("D(2,4)")
    base = shift_orbit_sampler(x, 0)
    tangent = developable_sampler(base, 1)
    ideal = secant_ideal(tangent, 0)[0]
    assert ideal.dim == 1
    subs_map = {name: c for name, c in zip(tangent.ambient, tangent.coords)}
    for f in ideal.basis:
        assert not f.subs(subs_map).terms


def test_hankel_minor_space_values():
    assert hankel_minor_space(2, 0).dim == 3
    assert hankel_minor_space(3, 1).dim == 1


def _leibniz_det(a):
    """Determinant as the signed sum over permutations (Leibniz formula)."""
    n = len(a)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = math.prod((a[i][perm[i]] for i in range(n)), start=1)
        total = total - term if inversions % 2 else total + term
    return total


@pytest.mark.parametrize("s, k, alpha", [
    (s, k, alpha) for s in range(2, 9) for k in range(0, 3)
    for alpha in range(k + 1, s - k + 1)])
def test_hankel_minor_space_matches_leibniz_minors(s, k, alpha):
    # the (k+2)-minors of the (alpha+1) x (s+2-alpha) Hankel matrix, by the
    # Leibniz formula, span the same space as the maximal minors of the
    # (k+2)-row one
    variables = tuple(f"x{i}" for i in range(1, s + 3))
    gens = [MultiPoly.variable(variables, name) for name in variables]
    size = k + 2
    minors = [_leibniz_det([[gens[i + j] for j in csel] for i in rsel])
              for rsel in itertools.combinations(range(alpha + 1), size)
              for csel in itertools.combinations(range(s + 2 - alpha), size)]
    want = poly_space(size, variables, minors)
    got = hankel_minor_space(s, k)
    assert want.dim > 0
    assert got.equals(want)


@pytest.mark.parametrize("s", range(2, 13))
def test_hankel_maximal_minors_are_independent(s):
    for k in range(0, (s - 1) // 2 + 1):
        assert hankel_minor_space(s, k).dim == math.comb(s + 1 - k, k + 2), k


def test_hankel_minor_space_expands_only_maximal_minors(monkeypatch):
    # one table of one (k+2)-row matrix: C(11, 4) = 330 maximal minors for
    # s = 12, k = 2, where the minors of every admissible Hankel matrix
    # number 11,440
    asked = []
    table = polyprolong._minors

    def counting_minors(a):
        minor = table(a)

        def counted(rows, cols):
            asked.append((rows, cols))
            return minor(rows, cols)
        return counted

    monkeypatch.setattr(polyprolong, "_minors", counting_minors)
    assert hankel_minor_space(12, 2).dim == 330
    assert len(asked) == 330


def test_hankel_range_errors():
    with pytest.raises(RangeError):
        hankel_minor_space(2, 1)


def test_hankel_minors_vanish_on_moment_curve():
    sp = hankel_minor_space(2, 0)
    t = MultiPoly.variable(("t",), "t")
    subs_map = {f"x{i}": t ** (i - 1) for i in range(1, 5)}
    for f in sp.basis:
        assert not f.subs(subs_map).terms


# a symbol whose first row curve has the given number of boxes, s + 2 for
# the Hankel minors in s + 2 variables; the row curve depends only on that
ROW_OF_BOXES = {4: "D(2,3)", 5: "D(3,4)", 6: "D(3,5)", 7: "D(4,6)", 8: "R(7/2)",
                9: "D(4,8)"}
# (boxes, k) for every row curve of 5-9 boxes and k = 1, 2 with s >= 2k + 1,
# after the conic case of 4 boxes
HANKEL_CASES = [(4, 0)] + [(b, k) for b in range(5, 10) for k in (1, 2)
                           if b - 2 >= 2 * k + 1]


@lru_cache(maxsize=None)
def row_hankel(boxes, k):
    """The row curve, its degree-(k+2) slice of the k-th secant, and the
    Hankel (k+2)-minors in s + 2 = boxes variables."""
    base = shift_orbit_sampler(space(ROW_OF_BOXES[boxes]), 0)
    assert len(base.coords) == boxes
    return base, secant_ideal(base, k)[k], hankel_minor_space(boxes - 2, k)


def subs_rescaled_hankel(hank, ambient):
    """Oracle for cli._rescaled_hankel: x_{i+1} = i! y_i by substitution."""
    ren = {f"x{i + 1}": MultiPoly.variable(ambient, f"y{i}") * math.factorial(i)
           for i in range(len(ambient))}
    return poly_space(hank.degree, ambient, [f.subs(ren) for f in hank.basis])


def test_hankel_matches_secant_after_rescaling():
    # the shifted-row minor space is the secant ideal slice once coordinates
    # are rescaled from the moment curve to the exponential curve
    for boxes, k in HANKEL_CASES:
        base, ideal, hank = row_hankel(boxes, k)
        rescaled = subs_rescaled_hankel(hank, base.ambient)
        assert rescaled.equals(ideal), (boxes, k)
        moved = _rescaled_hankel(hank, base.ambient)
        assert [p.terms for p in moved.basis] == [p.terms for p in rescaled.basis]


@pytest.mark.parametrize("boxes,k", HANKEL_CASES[1:])
def test_slice_membership_agrees_with_secant_certificate(boxes, k):
    # membership in the slice is the vanishing test secant uses for its
    # minors; substituting the symbolic secant point is the oracle
    base, ideal, hank = row_hankel(boxes, k)
    rescaled = _rescaled_hankel(hank, base.ambient).basis
    certify = secant_certificate(base, k)
    assert all(map(ideal.contains, rescaled)) and certify(rescaled)
    assert subs_vanishes(base, k, rescaled)
    y0 = MultiPoly.variable(base.ambient, "y0")
    for outside in (y0 ** (k + 2), rescaled[0] + y0 ** (k + 2)):
        assert not ideal.contains(outside)
        assert not certify([outside])
        assert not subs_vanishes(base, k, [outside])


def test_layer_polynomials_faithful():
    x = space("R(3/2)")
    fp = flag_prolong(x)
    tp = prolong(heisenberg_from_space(x), fp.matrices(), kmax=6)
    u1 = tanaka_layer_polynomials(tp, 1)[1]
    assert u1.dim == len(tp.layers[0]) == 4


def descent_layer_polynomials(tp, k, variables=None):
    """Oracle for the Tanaka layer polynomials of degree k: walk each layer
    element down to g0 through its M1 rows, then pair the composed matrix
    with sigma."""
    x = tp.heis.space
    n = x.dim
    if variables is None:
        variables = default_variables(n)
    xs = [MultiPoly.variable(variables, name) for name in variables]
    zero = MultiPoly.constant(variables, 0)

    def linear(row):
        return sum((xs[a] * c for a, c in enumerate(row) if c), zero)

    layer = tp.layers[k - 1] if k - 1 < len(tp.layers) else ()
    polys = []
    for pick in range(len(layer)):
        cur = [MultiPoly.constant(variables, 1 if i == pick else 0) for i in range(len(layer))]
        for j in range(k, 0, -1):
            prev_dim = len(tp.layers[j - 2]) if j >= 2 else len(tp.g0)
            nxt = [zero] * prev_dim
            for idx, elem in enumerate(tp.layers[j - 1]):
                if cur[idx].terms:
                    for r in range(prev_dim):
                        nxt[r] = nxt[r] + cur[idx] * linear(elem.m1[r])
            cur = nxt
        w_vec = [zero] * n
        for coord, g in zip(cur, tp.g0):
            for i in range(n):
                w_vec[i] = w_vec[i] + coord * linear(g[i])
        polys.append(sum((xs[i] * w_vec[j] * x.sigma[i][j]
                          for i in range(n) for j in range(n) if x.sigma[i][j]), zero))
    return poly_space(k + 2, tuple(variables), polys)


@pytest.mark.parametrize("text", [
    "R(3/2)", "D(2,3)", "D(3,4)", "D(1,2)+R(3/2)", "3*D(1/2,1)+R(1/2)",
])
def test_tanaka_chain_matches_descent(text):
    x = space(text)
    tp = prolong(heisenberg_from_space(x), flag_prolong(x).matrices(), kmax=6)
    top = len(tp.layers) + 1    # one degree past termination
    chain = tanaka_layer_polynomials(tp, top)
    assert len(chain) == top + 1
    xvars = default_variables(x.dim)
    g0_forms = [symmetric_form(g, x.sigma, xvars) for g in tp.g0]
    assert repr(chain[0]) == repr(poly_space(2, xvars, g0_forms))
    for k in range(1, top + 1):
        assert repr(chain[k]) == repr(descent_layer_polynomials(tp, k))
        assert chain[k].dim == (len(tp.layers[k - 1]) if k <= len(tp.layers) else 0)


def test_each_tanaka_chain_is_built_once(monkeypatch):
    # verify reads every degree of one u chain, so one call per report
    calls = []
    build = polyprolong.tanaka_layer_polynomials
    monkeypatch.setattr(polyprolong, "tanaka_layer_polynomials",
                        lambda *args, **kw: calls.append(args) or build(*args, **kw))
    rep = verify_prolongation_theorems(parse_symbol("D(3,4)"), 3)
    assert [e["dim_layer_polys"] for e in rep["layers"]] == [1, 0, 0]
    assert len(calls) == 1
    calls.clear()
    assert main(["verify", "--spec", "R(3/2)", "--kmax", "2", "--json"]) == 0
    assert len(calls) == 1


def subs_rename(p, target_vars, position_of):
    """Oracle for embed_poly: substitute each variable's target variable."""
    out = p.subs({name: MultiPoly.variable(target_vars, target_vars[position_of[name]])
                  for name in p.variables})
    return MultiPoly.constant(target_vars, out) if isinstance(out, Fraction) else out


def test_embed_poly_renames():
    p = MultiPoly(("y0", "y1"), {(1, 1): Fraction(2)})
    q = embed_poly(p, ("x0", "x1", "x2"), {"y0": 0, "y1": 2})
    assert q == MultiPoly(("x0", "x1", "x2"), {(1, 0, 1): Fraction(2)})


def test_embed_poly_matches_subs_rename():
    rng = random.Random(7)
    names, target = ("a", "b", "c"), ("x0", "x1", "x2", "x3")
    maps = [{"a": 0, "b": 2, "c": 3}, {"a": 3, "b": 1, "c": 0},
            {"a": 1, "b": 1, "c": 2}, {"a": 2, "b": 2, "c": 2}]
    for _ in range(30):
        terms = {tuple(rng.randint(0, 3) for _ in names): Fraction(rng.randint(-9, 9),
                                                                   rng.randint(1, 4))
                 for _ in range(rng.randint(0, 6))}
        p = MultiPoly(names, terms)
        for position_of in maps:
            got = embed_poly(p, target, position_of)
            assert got == subs_rename(p, target, position_of)
            assert repr(got) == repr(subs_rename(p, target, position_of))
    # two names on one target can cancel: a*b - a^2 with a, b -> x1
    ab = MultiPoly(names, {(1, 1, 0): 1, (2, 0, 0): -1, (0, 0, 1): 2})
    assert embed_poly(ab, target, maps[2]) == subs_rename(ab, target, maps[2])
    assert embed_poly(ab, target, maps[2]) == MultiPoly.variable(target, "x2") * 2
    assert embed_poly(MultiPoly((), {(): 3}), target, {}) == MultiPoly.constant(target, 3)


def subs_secant_parametrization(v, k):
    """Symbolic point of the k-th secant, renaming each copy by subs: one
    parameter copy per point plus mixing coefficients c1..ck (the first
    point enters with coefficient 1, which loses nothing for homogeneous
    polynomials)."""
    copies = [f"{name}__{copy}" for copy in range(k + 1) for name in v.params]
    all_params = tuple(copies + [f"c__{i}" for i in range(1, k + 1)])
    point = [MultiPoly.constant(all_params, 0)] * len(v.coords)
    for copy in range(k + 1):
        ren = {name: MultiPoly.variable(all_params, f"{name}__{copy}") for name in v.params}
        scale = MultiPoly.variable(all_params, f"c__{copy}") if copy else 1
        point = [x + c.subs(ren) * scale for x, c in zip(point, v.coords)]
    return all_params, tuple(point)


def subs_vanishes(v, k, polys):
    """The symbolic oracle: every polynomial substitutes to zero at the
    symbolic point of the k-th secant of v."""
    subs_map = dict(zip(v.ambient, subs_secant_parametrization(v, k)[1]))
    return all(not p.subs(subs_map).terms for p in polys)


@pytest.mark.parametrize("text,j", [("D(3,5)", 1), ("D(4,7)", 2)])
def test_developable_matches_subs_rename(text, j):
    # the developable, with t renamed into (t, u0, ..., uj) by subs
    var = sampler(text, j)
    t, us = MultiPoly.variable(var.params, "t"), var.params[1:]
    want = []
    for c in sampler(text, 0).coords:
        total, deriv = MultiPoly.constant(var.params, 0), c
        for u in us:
            total = total + deriv.subs({"t": t}) * MultiPoly.variable(var.params, u)
            deriv = deriv.derivative("t")
        want.append(total)
    assert repr(var.coords) == repr(tuple(want))


def test_secant_certificate_rejects_other_degrees():
    # the zero polynomial vanishes everywhere; a nonzero polynomial of a
    # degree other than k + 2 is not certified, even where it vanishes
    curve = shift_orbit_sampler(space("D(3,4)"), 0)
    y0, y1, y2 = (MultiPoly.variable(curve.ambient, f"y{i}") for i in range(3))
    conic = y0 * y2 * 2 - y1 * y1
    cubic = secant_ideal(curve, 1)[1].basis[0]
    zero = MultiPoly(curve.ambient)
    for k in range(4):
        certify = secant_certificate(curve, k)
        assert certify([]) and certify([zero]) and certify([y0 * 0])
        assert certify([conic]) is (k == 0)
        assert certify([zero, cubic]) is (k == 1)
        assert not certify([y0]) and not certify([conic + cubic])
    # y0 * cubic vanishes on the chords, but its degree is 4, not 3
    assert subs_vanishes(curve, 1, [y0 * cubic])
    assert not secant_certificate(curve, 1)([y0 * cubic])


@pytest.mark.parametrize("text,j,k", [
    ("D(4,5)", 0, 1), ("D(5,6)", 0, 2), ("D(3,5)", 1, 0), ("exp(2+t+3t^2)", 0, 0),
])
def test_secant_certificate_matches_substitution(text, j, k):
    # each member of the slice, and each member plus a polynomial off the
    # secant, gets the same verdict from the certificate and by substitution
    var = sampler(text, j)
    certify = secant_certificate(var, k)
    members = secant_ideal(var, k)[k].basis
    outside = MultiPoly.variable(var.ambient, "y0") ** (k + 2)
    assert members
    for p in members:
        assert certify([p]) and subs_vanishes(var, k, [p])
        assert not certify([p + outside]) and not subs_vanishes(var, k, [p + outside])


def test_secant_functions_reject_dependent_coordinates():
    # (1, t, 2t) spans only a plane, where the prolongations of I_2 miss
    # part of each secant slice, so both functions refuse it
    t = MultiPoly.variable(("t",), "t")
    line = VarietySampler(("t",), (MultiPoly.constant(("t",), 1), t, t * 2),
                          ("y0", "y1", "y2"))
    with pytest.raises(ValueError, match="linearly dependent"):
        secant_ideal(line, 1)
    with pytest.raises(ValueError, match="linearly dependent"):
        secant_certificate(line, 1)


@pytest.mark.parametrize("spec,kmax,want", [("D(3,4)", 1, 1), ("D(4,6)", 2, 2)])
def test_secant_builds_one_chain_per_variety(monkeypatch, spec, kmax, want):
    # one chain up to kmax per variety, not one computation per k; for
    # D(3,4) the tangential variety is the row curve and shares its chain
    chains = []
    build = polyprolong._prolong_chain
    monkeypatch.setattr(polyprolong, "_prolong_chain",
                        lambda space, k: chains.append(k) or build(space, k))
    assert main(["secant", "--spec", spec, "--kmax", str(kmax), "--json"]) == 0
    assert chains == [kmax] * want


def test_verify_report_nonrectangular_tower():
    rep = verify_prolongation_theorems(parse_symbol("D(2,3)"), 1)
    assert rep["terminated"]
    assert rep["hypotheses"]["standard_equality"]["holds"]
    assert rep["hypotheses"]["tangential_secant"]["holds"]
    e = rep["layers"][0]
    assert e["dim_layer"] == e["dim_p"] == e["dim_l"] == e["dim_ideal"] == 0
    assert rep["passes"]["standard_equality"] is True
    assert rep["passes"]["tangential_secant"] is True
    assert rep["passes"]["row_secant_inclusion"] is True


def full_ambient_vanishes(x, ci, polys, k):
    """The row-secant certificate over the whole space: the row curve of
    component ci written out over every coordinate, zero off its row, and
    its symbolic k-th secant point substituted into each polynomial."""
    row = shift_orbit_sampler(x, ci)
    full = [MultiPoly.constant(row.params, 0)] * x.dim
    for pos, i in enumerate(_row_boxes(x, ci)):
        full[i] = row.coords[pos]
    curve = VarietySampler(row.params, tuple(full), default_variables(x.dim))
    return subs_vanishes(curve, k, polys)


def row_vanishes(x, ci, polys, k):
    curve = shift_orbit_sampler(x, ci)
    boxes = _row_boxes(x, ci)
    return secant_certificate(curve, k)([restrict_poly(q, boxes, curve.ambient) for q in polys])


@pytest.mark.parametrize("text", [
    "D(2,3)+R(5/2)", "2*D(2,3)", "D(1,2)+R(3/2)", "D(3,4)+R(5/2)", "D(2,3)+D(3,4)",
])
def test_row_secant_inclusion_matches_full_ambient_substitution(text):
    x = space(text)
    rep = verify_prolongation_theorems(parse_symbol(text), 2)
    chain = standard_prolong(decomposition(text).p, 2, x.sigma)
    for e in rep["layers"]:
        p_k = chain[e["k"]]
        want = all(full_ambient_vanishes(x, ci, p_k.basis, e["k"])
                   for ci in range(len(x.symbol.components)))
        assert e["p_vanishes_on_row_secants"] is want


@pytest.mark.parametrize("text", ["D(1,1)", "D(2,2)"])
def test_row_certificate_matches_full_ambient_where_it_fails(text):
    # infinite type: p^(k) does not vanish on the row secants, and verify
    # reports null, so compare the two certificates directly
    x = space(text)
    chain = standard_prolong(decomposition(text).p, 2, x.sigma)
    for k in (1, 2):
        p_k = chain[k]
        for ci in range(len(x.symbol.components)):
            assert row_vanishes(x, ci, p_k.basis, k) is False
            assert full_ambient_vanishes(x, ci, p_k.basis, k) is False


def test_secant_certificate_rejects_a_conic_off_its_secant():
    # y_i = t^i/i! satisfies 2 y0 y2 = y1^2, which fails on its chords
    x = space("D(2,3)")
    curve = shift_orbit_sampler(x, 0)
    y0, y1, y2 = (MultiPoly.variable(curve.ambient, f"y{i}") for i in range(3))
    conic = y0 * y2 * 2 - y1 * y1
    assert secant_certificate(curve, 0)([conic])
    assert not secant_certificate(curve, 1)([conic])
    # in the whole space, a term off the row does not count
    xs = [MultiPoly.variable(default_variables(x.dim), v) for v in default_variables(x.dim)]
    boxes = _row_boxes(x, 0)
    b0, b1, b2 = (xs[i] for i in boxes[:3])
    off = next(xs[i] for i in range(x.dim) if i not in boxes)
    for q, k, want in ((b0 * b2 * 2 - b1 * b1 + off * b0, 0, True),
                       (b0 * b2 * 2 - b1 * b1, 1, False), (b0 * b1, 0, False)):
        assert row_vanishes(x, 0, [q], k) is want
        assert full_ambient_vanishes(x, 0, [q], k) is want


@pytest.mark.parametrize("text", ["D(0,0)", "D(1,1)", "D(2,2)"])
def test_verify_report_infinite_type_certifies_no_row_secants(text):
    rep = verify_prolongation_theorems(parse_symbol(text), 6)
    assert [e["p_vanishes_on_row_secants"] for e in rep["layers"]] == [None] * 6
    assert rep["passes"]["row_secant_inclusion"] is None


def test_verify_report_skips_small_rows():
    rep = verify_prolongation_theorems(parse_symbol("R(3/2)"), 1)
    hyp = rep["hypotheses"]["standard_equality"]
    assert hyp["holds"] is False
    assert "6" in hyp["why"]
    assert rep["passes"]["standard_equality"] is None
    # the first layer is computed anyway and is nonzero
    assert rep["layers"][0]["dim_layer"] == 4


def test_verify_report_quartic_tower():
    rep = verify_prolongation_theorems(parse_symbol("D(3,4)"), 2)
    dims = [(e["dim_layer"], e["dim_p"], e["dim_l"], e["dim_ideal"]) for e in rep["layers"]]
    assert dims == [(1, 1, 1, 1), (0, 0, 0, 0)]
    assert all(e["layer_equals_p"] and e["p_equals_l"] and e["ideal_equals_p"]
               for e in rep["layers"])
    assert rep["passes"] == {
        "standard_equality": True,
        "tangential_secant": True,
        "row_secant_inclusion": True,
    }


# --- oracles: the dense all-at-once kernels the chain and block solvers replaced

def _falling_factor(mu, alpha):
    # coefficient of x^(mu-alpha) in d^alpha(x^mu)
    c = 1
    for m_e, a_e in zip(mu, alpha):
        if a_e > m_e:
            return 0
        for t in range(a_e):
            c *= m_e - t
    return c


def reference_standard_prolong(w, k, sigma, variables=None, weights=None):
    """One kernel for the whole degree: unknowns are the coefficients of f and,
    for every order-k multi-index alpha, those of d^alpha f in the quadratic
    space; equations match the two expressions of d^alpha f."""
    mats = tuple(w.basis) if hasattr(w, "basis") else tuple(w)
    n = len(sigma)
    if variables is None:
        variables = tuple(f"x{i}" for i in range(n))
    quad = poly_space(2, variables, [symmetric_form(a, sigma, variables) for a in mats])
    if k == 0:
        return quad
    monos_f = monomials_of_degree(n, k + 2)
    monos_a = monomials_of_degree(n, k)
    monos_2 = monomials_of_degree(n, 2)

    def mono_weight(exp):
        return sum((e * weights[i] for i, e in enumerate(exp) if e), Fraction(0))

    if weights is not None:
        weight_2 = {m: mono_weight(m) for m in monos_2}
        quad_weights = []
        for q in quad.basis:
            ws = {weight_2[e] for e in q.terms}
            if len(ws) != 1:
                weights = None
                break
            quad_weights.append(ws.pop())
    if weights is None:
        blocks = {None: list(range(len(monos_f)))}
    else:
        weight_a = [mono_weight(alpha) for alpha in monos_a]
        blocks = {}
        for idx, mu in enumerate(monos_f):
            blocks.setdefault(mono_weight(mu), []).append(idx)
    out_polys = []
    for omega, mu_indices in blocks.items():
        mu_col = {monos_f[i]: c for c, i in enumerate(mu_indices)}
        aux_col = {}
        for ai in range(len(monos_a)):
            for qi in range(quad.dim):
                if omega is not None and quad_weights[qi] + weight_a[ai] != omega:
                    continue
                aux_col[(ai, qi)] = len(mu_indices) + len(aux_col)
        nvars = len(mu_indices) + len(aux_col)
        rows = []
        for ai, alpha in enumerate(monos_a):
            for m in monos_2:
                mu = tuple(a + b for a, b in zip(alpha, m))
                if mu not in mu_col:
                    continue
                row = [Fraction(0)] * nvars
                row[mu_col[mu]] = Fraction(_falling_factor(mu, alpha))
                for qi in range(quad.dim):
                    col = aux_col.get((ai, qi))
                    if col is not None:
                        row[col] = -quad.basis[qi].terms.get(m, Fraction(0))
                rows.append(row)
        if not rows:
            continue
        for v in dense_kernel(tuple(tuple(r) for r in rows)):
            terms = {monos_f[i]: v[c] for c, i in enumerate(mu_indices) if v[c] != 0}
            if terms:
                out_polys.append(MultiPoly(tuple(variables), terms))
    return poly_space(k + 2, variables, out_polys)


STANDARD_REFERENCE_CASES = [
    ("D(1,1)", 3), ("D(2,2)", 3), ("D(0,0)", 2), ("D(3,4)", 2), ("D(1,2)+R(3/2)", 2),
]


@pytest.mark.parametrize("text,kmax", STANDARD_REFERENCE_CASES)
def test_standard_prolong_matches_dense_reference(text, kmax):
    x = space(text)
    dec = decomposition(text)
    for w in (dec.p, dec.l_of_x):
        chain = standard_prolong(w, kmax, x.sigma)
        assert [got.degree for got in chain] == list(range(2, kmax + 3))
        for k, got in enumerate(chain):
            want = reference_standard_prolong(w, k, x.sigma, weights=x.weights)
            assert repr(got.basis) == repr(want.basis)


def test_standard_prolong_matches_dense_reference_on_sp2():
    x = space("D(1,0)")
    sp2 = []
    for k in (-2, -1, 0, 1, 2):
        sp2.extend(graded_symplectic_basis(x, k, conformal=False))
    for k, got in enumerate(standard_prolong(tuple(sp2), 3, x.sigma)):
        assert got.dim == k + 3
        assert repr(got.basis) == repr(
            reference_standard_prolong(tuple(sp2), k, x.sigma, weights=x.weights).basis)


def test_standard_prolong_inhomogeneous_space_matches_dense_reference():
    # the sum of a degree-0 and a degree-1 element is not weight-homogeneous,
    # so the reference keeps one block
    x = space("D(1,1)")
    mixed = [
        tuple(tuple(p + q for p, q in zip(ra, rb)) for ra, rb in zip(a, b))
        for a, b in zip(graded_symplectic_basis(x, 0, conformal=False),
                        graded_symplectic_basis(x, 1, conformal=False))
    ]
    for k, got in enumerate(standard_prolong(mixed, 2, x.sigma)):
        want = reference_standard_prolong(mixed, k, x.sigma, weights=x.weights)
        assert repr(got.basis) == repr(want.basis)


def reference_secant_ideal(v, degree, k, seed=42, max_rounds=4, split=False):
    """Secant ideal slice sampled at random rationals and eliminated over Q,
    then certified by substitution: one kernel over all degree-`degree`
    monomials, or with split one kernel per weight block of monomials on
    shared points, when every coordinate is weight-homogeneous for the
    weights of shift_orbit_sampler and developable_sampler (t of weight 1,
    u_i of weight i)."""
    nvars = len(v.coords)
    monos = monomials_of_degree(nvars, degree)
    weights = None
    if split:
        param_weights = (1,) + tuple(range(len(v.params) - 1))
        ws = [{sum(e * x for e, x in zip(exp, param_weights)) for exp in c.terms}
              for c in v.coords]
        if all(len(x) == 1 for x in ws):
            weights = [x.pop() for x in ws]
    blocks = {}
    for m in monos:
        w = None if weights is None else sum(e * x for e, x in zip(m, weights))
        blocks.setdefault(w, []).append(m)
    rng = random.Random(seed)
    all_params, point = subs_secant_parametrization(v, k)
    pts = []
    need = max(map(len, blocks.values())) + 8
    for round_no in range(max_rounds):
        while len(pts) < need:
            vals = {}
            for copy in range(k + 1):
                for name in v.params:
                    vals[f"{name}__{copy}"] = Fraction(rng.randint(-20, 20), rng.randint(1, 7))
            for i in range(1, k + 1):
                vals[f"c__{i}"] = Fraction(rng.randint(-20, 20), rng.randint(1, 7))
            pts.append([c.subs(vals) for c in point])
        polys = []
        for block in blocks.values():
            rows = []
            for pt in pts:
                row = []
                for m in block:
                    val = Fraction(1)
                    for coord, e in zip(pt, m):
                        if e:
                            val *= coord ** e
                    row.append(val)
                rows.append(tuple(row))
            polys += [
                MultiPoly(v.ambient, {m: c for m, c in zip(block, vec) if c != 0})
                for vec in dense_kernel(tuple(rows))
            ]
        if subs_vanishes(v, k, polys):
            return poly_space(degree, v.ambient, polys)
        need *= 2
    raise AssertionError("reference sampling did not stabilize")


def exp_curve(coeffs):
    """VarietySampler of y_i = p(t)^i / i! for the polynomial p with the
    given coefficients, i = 0..3."""
    t = MultiPoly.variable(("t",), "t")
    p = sum((t ** e * c for e, c in enumerate(coeffs)), MultiPoly.constant(("t",), 0))
    coords, fact = [], 1
    for i in range(4):
        fact *= max(i, 1)
        coords.append(p ** i * Fraction(1, fact))
    return VarietySampler(("t",), tuple(coords), ("y0", "y1", "y2", "y3"))


# the exp_curve of p, by a name for p
EXP_CURVES = {"exp(1+t)": [1, 1], "exp(t)": [0, 1], "exp(2+t+3t^2)": [2, 1, 3]}


def sampler(text, j):
    """The row curve of text, its j-th osculating developable, or an
    exp_curve named in EXP_CURVES."""
    if text in EXP_CURVES:
        return exp_curve(EXP_CURVES[text])
    base = shift_orbit_sampler(space(text), 0)
    return base if j == 0 else developable_sampler(base, j)


@pytest.mark.parametrize("text,j,kmax", [
    ("D(2,3)", 0, 2), ("D(3,4)", 0, 2), ("D(4,5)", 0, 2), ("D(5,6)", 0, 2),
    ("D(3,5)", 1, 1), ("D(4,6)", 1, 1), ("D(4,7)", 2, 0),
    ("exp(1+t)", 0, 2), ("exp(t)", 0, 2), ("exp(2+t+3t^2)", 0, 2),
])
def test_secant_ideal_matches_one_block_reference(text, j, kmax):
    var = sampler(text, j)
    chain = secant_ideal(var, kmax)
    assert len(chain) == kmax + 1
    for k, got in enumerate(chain):
        want = repr(reference_secant_ideal(var, k + 2, k, split=True).basis)
        assert repr(got.basis) == want, k
        # the one-block reference takes 23 s for D(4,5) and 350 s for D(5,6)
        # at k = 2; everywhere else it checks the weight-block reference
        if k < 2 or text not in ("D(4,5)", "D(5,6)"):
            assert repr(reference_secant_ideal(var, k + 2, k).basis) == want, k


def test_secant_ideal_is_invariant_under_reparametrization():
    # y_i = (1+t)^i/i! is not homogeneous in t, but through t -> t - 1 it
    # is the curve t^i/i!, so the two have the same secant slices
    chains = [secant_ideal(sampler(text, 0), 2) for text in ("exp(1+t)", "exp(t)")]
    assert [repr(w.basis) for w in chains[0]] == [repr(w.basis) for w in chains[1]]


def jacobian_rank_over_q(var, k, seed=42):
    """The rank over Q, at one random rational point, of the Jacobian of
    (lambda, parameters) -> lambda * (the symbolic secant point) at lambda = 1:
    its columns are the point and the point's partials."""
    params, point = subs_secant_parametrization(var, k)
    rng = random.Random(seed)
    vals = {name: Fraction(rng.randint(-20, 20), rng.randint(1, 7)) for name in params}
    columns = [[c.subs(vals) for c in point]]
    columns += [[c.derivative(name).subs(vals) for c in point] for name in params]
    return rank(columns)


@pytest.mark.parametrize("text,j,k", [("D(2,3)", 0, 1), ("D(2,3)", 0, 2), ("D(4,7)", 2, 1)])
def test_secant_ideal_cone_fills(text, j, k):
    var = sampler(text, j)
    n = len(var.coords)
    # Terracini's lemma over Q: a Jacobian of rank N means the cone fills
    assert jacobian_rank_over_q(var, k) == n
    if text != "D(4,7)":
        # the one-block reference takes about 30 s for D(4,7)
        assert repr(reference_secant_ideal(var, k + 2, k).basis) == "()"
    assert repr(secant_ideal(var, k)[k].basis) == "()"


def test_secant_ideal_lifts_a_nonzero_slice():
    var = sampler("D(3,4)", 0)
    want = reference_secant_ideal(var, 3, 1)
    got = secant_ideal(var, 1)[1]
    assert repr(got.basis) == repr(want.basis)
    assert got.dim == 1
    # the one cubic is nonzero, so the chords do not fill the space
    assert jacobian_rank_over_q(var, 1) < len(var.coords)


def test_secant_ideal_cone_does_not_fill():
    var = sampler("D(4,5)", 0)
    want = reference_secant_ideal(var, 3, 1)
    got = secant_ideal(var, 1)[1]
    assert repr(got.basis) == repr(want.basis)
    assert got.dim == 4
    # the Jacobian has rank 4 of 6, so the chords do not fill the space
    assert jacobian_rank_over_q(var, 1) == 4
