"""End-to-end acceptance runs, one test per shipped guarantee.

Each test prints a single pass/fail line (visible with -v via the test
verdict, and directly under -s) and asserts exact equalities; the stated
runtime ceilings are asserted where a guarantee carries one.
"""
from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from spflag.abnormal import (
    degeneracy_locus,
    derived_filtration,
    dual_variables,
    extract_flag_symbol,
    flat_curve,
    goh_matrix,
    hamiltonian_form,
    linear_coefficients,
    random_symplectic,
    transform_curve,
)
from spflag.errors import CapReached
from spflag.exact import (
    MultiPoly,
    det,
    kernel_basis,
    pfaffian,
    rank,
    rref,
    skew_kernel,
    spans_equal,
    sub_pfaffians,
)
from spflag.flagprolong import decompose_azp, flag_prolong, predicted_dims
from spflag.liealg import flat_model, heisenberg_from_space, killing_matrix
from spflag.polyprolong import (
    hankel_minor_space,
    secant_ideal,
    shift_orbit_sampler,
    verify_prolongation_theorems,
)
from spflag.symbols import (
    OneRow,
    TwoRow,
    build_model_space,
    dim_x,
    enumerate_symbols,
    is_finite_type,
    make_symbol,
    parse_symbol,
    render_symbol,
)
from spflag.tanaka import assemble_algebra, prolong
from universes import formula_universe

T = MultiPoly.variable(("t",), "t")


def report_line(num, name, ok, elapsed):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}  {name}  ({elapsed:.1f}s)")


def tanaka_pipeline(text, kmax=6):
    x = build_model_space(parse_symbol(text))
    return prolong(heisenberg_from_space(x), flag_prolong(x).matrices(), kmax=kmax)


def finite_symbols_up_to(bound):
    """Every finite-type symbol whose model space dimension is at most bound."""
    twos = [TwoRow(Fraction(s2, 2), l)
            for l in range(1, bound // 2)
            for s2 in range(l, 2 * l)]
    ones = [OneRow(m2) for m2 in range(1, bound, 2)]
    out = {}

    def keep(components):
        sym = make_symbol(components)
        if is_finite_type(sym):
            out.setdefault(render_symbol(sym), sym)

    def grow(prefix, start, budget):
        for i in range(start, len(twos)):
            c = twos[i]
            d = 2 * (c.l + 1)
            if d > budget:
                continue
            cur = prefix + [c]
            keep(cur)
            for o in ones:
                if o.m2 + 1 <= budget - d:
                    keep(cur + [o])
            grow(cur, i, budget - d)

    grow([], 0, bound)
    for o in ones:
        if o.m2 + 1 <= bound:
            keep([o])
    return out


# ---------------------------------------------------------------------------

def test_criterion_01_exceptional_14_dim_algebra():
    t0 = time.monotonic()
    tp = tanaka_pipeline("R(3/2)")
    alg = assemble_algebra(tp)
    killing_rank = rank(killing_matrix(alg))
    elapsed = time.monotonic() - t0
    ok = (tp.report.terminated and tp.report.total_dim == 14
          and killing_rank == 14 and elapsed < 10)
    report_line(1, "14-dim exceptional algebra with nondegenerate pairing", ok, elapsed)
    assert tp.report.total_dim == 14
    assert killing_rank == 14
    assert elapsed < 10


def test_criterion_02_rank2_rigidity():
    t0 = time.monotonic()
    ok = True
    for n in (6, 7, 8):
        sym = enumerate_symbols(2, n)[0]
        tp = tanaka_pipeline(render_symbol(sym))
        first = dict(tp.report.degrees).get(1)
        ok = ok and tp.report.terminated and first == 0 \
            and tp.report.total_dim == 2 * n - 1
        assert first == 0
        assert tp.report.total_dim == 2 * n - 1
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 30
    report_line(2, "rank-2 rigidity for n = 6, 7, 8", ok, elapsed)
    assert elapsed < 30


def test_criterion_03_so43_reproduction():
    t0 = time.monotonic()
    tp = tanaka_pipeline("D(1,2)")
    alg = assemble_algebra(tp)
    killing_rank = rank(killing_matrix(alg))
    elapsed = time.monotonic() - t0
    ok = tp.report.total_dim == 21 and killing_rank == 21 and elapsed < 60
    report_line(3, "21-dim orthogonal algebra with full Killing rank", ok, elapsed)
    assert tp.report.total_dim == 21
    assert killing_rank == 21
    assert elapsed < 60


def test_criterion_04_rank3_rectangular_rigidity():
    t0 = time.monotonic()
    tp = tanaka_pipeline("D(2,4)")
    elapsed = time.monotonic() - t0
    first = dict(tp.report.degrees).get(1)
    ok = first == 0 and tp.report.total_dim == 18
    report_line(4, "rectangular rank-3 model is rigid at total dim 18", ok, elapsed)
    assert first == 0
    assert tp.report.total_dim == 18


def test_criterion_05_nonrectangular_tower_cross_checks():
    t0 = time.monotonic()
    expected = {
        "D(2,3)": {"total": 17, "layers": {1: 0, 2: 0}},
        "D(3,4)": {"total": 23, "layers": {1: 1, 2: 0}},
    }
    ok = True
    for text, want in expected.items():
        tp = tanaka_pipeline(text)
        assert tp.report.terminated
        assert tp.report.total_dim == want["total"]
        rep = verify_prolongation_theorems(parse_symbol(text), 2, seed=42)
        assert rep["terminated"]
        for entry in rep["layers"]:
            k = entry["k"]
            # the four layer spaces must agree in dimension and as spaces
            assert entry["dim_layer"] == want["layers"][k]
            assert entry["dim_p"] == entry["dim_l"] == entry["dim_layer"]
            assert entry["dim_ideal"] == entry["dim_p"]
            assert entry["p_equals_l"] and entry["layer_equals_p"]
            assert entry["ideal_equals_p"] and entry["layer_faithful"]
            ok = ok and entry["dim_layer"] == want["layers"][k]
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 120
    report_line(5, "nonrectangular towers match all four layer spaces", ok, elapsed)
    assert elapsed < 120


def test_criterion_06_formula_vs_brute_force():
    t0 = time.monotonic()
    universe = formula_universe()
    assert len(universe) == 771
    for name in sorted(universe):
        sym = universe[name]
        pd = predicted_dims(sym)
        x = build_model_space(sym)
        fp = flag_prolong(x)
        dec = decompose_azp(x)
        assert pd["flag_total"] == fp.total_dim, name
        assert pd["l"] == dec.l_of_x.dim, name
        assert pd["z"] == dec.z.dim, name
        assert pd["p"] == dec.p.dim, name
    elapsed = time.monotonic() - t0
    ok = elapsed < 120
    report_line(6, f"closed formulas match linear algebra on {len(universe)} symbols",
                ok, elapsed)
    assert elapsed < 120


def test_criterion_07_finiteness_classifier_consistency():
    t0 = time.monotonic()
    universe = finite_symbols_up_to(12)
    for name in sorted(universe):
        x = build_model_space(universe[name])
        tp = prolong(heisenberg_from_space(x), flag_prolong(x).matrices(), kmax=6)
        assert tp.report.terminated, name
    for text in ("D(2,2)", "D(1,1)", "R(1/2)"):
        with pytest.raises(CapReached) as exc:
            tanaka_pipeline(text, kmax=3)
        degrees = dict(exc.value.report.degrees)
        assert all(degrees[k] > 0 for k in (1, 2, 3)), text
    elapsed = time.monotonic() - t0
    report_line(7, f"{len(universe)} finite verdicts terminate; infinite ones grow",
                True, elapsed)


def test_criterion_08_pfaffian_property_suite():
    t0 = time.monotonic()
    rng = random.Random(8128)
    for trial in range(100):
        n = rng.randint(2, 8)
        m = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                m[i][j] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                m[j][i] = -m[i][j]
        m = tuple(tuple(row) for row in m)
        cof = sub_pfaffians(m)
        if n % 2 == 0:
            pf = pfaffian(m)
            assert pf * pf == det(m)
            # alternating entry/cofactor sums give delta times the pfaffian
            for s in range(1, n + 1):
                for i in range(1, n + 1):
                    total = Fraction(0)
                    for j in range(1, n + 1):
                        term = m[s - 1][j - 1] * cof[i - 1][j - 1]
                        total += term if j % 2 == 0 else -term
                    want = Fraction(0)
                    if i == s:
                        want = pf if s % 2 == 1 else -pf
                    assert total == want
        else:
            assert det(m) == 0
            for s in range(n):
                total = Fraction(0)
                for j in range(n):
                    term = m[s][j] * cof[j]
                    total += term if j % 2 == 1 else -term
                assert total == 0
        sk = skew_kernel(m)
        nullspace = kernel_basis(m)
        assert spans_equal(sk.basis, nullspace)
    elapsed = time.monotonic() - t0
    report_line(8, "pfaffian squares, cofactor identity, kernels on 100 samples",
                True, elapsed)


def test_criterion_09_goh_locus_identities():
    t0 = time.monotonic()
    for text in ("D(1,2)", "D(2,3)", "D(3,4)"):
        m = flat_model(parse_symbol(text))
        loc = degeneracy_locus(m)
        assert loc.always_degenerate and loc.pfaffian is None
        filt = derived_filtration(m)
        dist = [m.algebra.basis_vector(i) for i in m.distribution]
        coeffs = [linear_coefficients(p) for p in loc.sub_pfaffians
                  if p.degree() == 1]
        assert spans_equal(rref(dist + coeffs)[0], filt[1]), text
    for text in ("R(3/2)", "R(5/2)", "R(7/2)"):
        m = flat_model(parse_symbol(text))
        g = goh_matrix(m)
        loc = degeneracy_locus(m)
        alg = m.algebra
        x1, x2 = (alg.basis_vector(i) for i in m.distribution)
        b12 = alg.bracket(x1, x2)
        assert loc.pfaffian == hamiltonian_form(g.variables, b12), text
        filt = derived_filtration(m)
        dist = [alg.basis_vector(i) for i in m.distribution]
        assert spans_equal(rref(dist + [linear_coefficients(loc.pfaffian)])[0],
                           filt[1]), text
        double = [alg.bracket(x1, b12), alg.bracket(x2, b12)]
        assert spans_equal(rref(list(filt[1]) + double)[0], filt[2]), text
    elapsed = time.monotonic() - t0
    report_line(9, "degeneracy loci carve the derived filtration exactly",
                True, elapsed)


def test_criterion_10_symbol_round_trip():
    t0 = time.monotonic()
    universe = finite_symbols_up_to(14)
    assert len(universe) == 98
    reparam = T + T * T * Fraction(1, 2)
    for i, name in enumerate(sorted(universe)):
        curve = flat_curve(build_model_space(universe[name]))
        assert render_symbol(extract_flag_symbol(curve)) == name
        moved = transform_curve(curve,
                                matrix=random_symplectic(curve.sigma, seed=1000 + i),
                                reparam=reparam)
        assert render_symbol(extract_flag_symbol(moved)) == name
    elapsed = time.monotonic() - t0
    report_line(10, f"{len(universe)} symbols survive the curve round trip",
                True, elapsed)


def test_criterion_11_secant_certification():
    t0 = time.monotonic()

    def secant_substitution(sampler, k):
        params = tuple(f"t{m}" for m in range(k + 1)) + \
            tuple(f"c{m}" for m in range(k + 1))
        point = [MultiPoly.constant(params, 0)] * len(sampler.coords)
        for m in range(k + 1):
            tm = MultiPoly.variable(params, f"t{m}")
            cm = MultiPoly.variable(params, f"c{m}")
            for idx, coord in enumerate(sampler.coords):
                point[idx] = point[idx] + coord.subs({"t": tm}) * cm
        return {name: point[i] for i, name in enumerate(sampler.ambient)}

    checked = 0
    for text in ("D(2,3)", "D(3,4)"):
        x = build_model_space(parse_symbol(text))
        base = shift_orbit_sampler(x, 0)
        for k in (1, 2):
            ideal = secant_ideal(base, k)[k]
            subs = secant_substitution(base, k)
            for f in ideal.basis:
                assert not f.subs(subs).terms
                checked += 1
            s_h = len(base.coords) - 2
            if s_h >= 2 * k + 1:
                hank = hankel_minor_space(s_h, k)
                params = tuple(f"t{m}" for m in range(k + 1)) + \
                    tuple(f"c{m}" for m in range(k + 1))
                moment = {}
                for idx in range(s_h + 2):
                    coord = MultiPoly.constant(params, 0)
                    for mth in range(k + 1):
                        tm = MultiPoly.variable(params, f"t{mth}")
                        cm = MultiPoly.variable(params, f"c{mth}")
                        coord = coord + cm * tm ** idx
                    moment[f"x{idx + 1}"] = coord
                for f in hank.basis:
                    assert not f.subs(moment).terms
                    checked += 1
    assert checked > 0
    elapsed = time.monotonic() - t0
    report_line(11, f"{checked} emitted polynomials vanish on their varieties",
                True, elapsed)
