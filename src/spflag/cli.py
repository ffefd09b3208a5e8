"""Batch command line front end.

Every subcommand builds its full report before writing anything, prints
either a stable text table or versioned JSON, and maps failures to exit
codes: 0 success, 1 usage or input errors, 2 a verification check failed.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from fractions import Fraction

from .abnormal import (
    check_pairing,
    column,
    degeneracy_locus,
    derived_filtration,
    extract_flag_symbol,
    flat_curve,
    goh_matrix,
    hamiltonian_form,
    linear_coefficients,
    rank_parity_of,
)
from .errors import (
    CapReached,
    NonRegularPoint,
    NonSymplecticFlag,
)
from .exact import MultiPoly, frac, spans_equal
from .flagprolong import decompose_azp, flag_prolong
from .liealg import flat_model, heisenberg_from_space
from .polyprolong import (
    default_variables,
    hankel_minor_space,
    poly_space,
    secant_ideal,
    shift_orbit_sampler,
    standard_prolong,
    tangential_variety,
    verify_prolongation_theorems,
)
from .symbols import (
    build_model_space,
    dim_x,
    distribution_rank,
    enumerate_symbols,
    index_parity,
    is_finite_type,
    parse_symbol,
    render_symbol,
    rows_of,
    symbol_to_json,
)
from .tanaka import prolong

SCHEMA = "sp-1"
# the largest prolongation degree a command accepts: the cost of a degree
# grows with it, and prolong tanaka on R(1/2) takes seconds at this bound
MAX_KMAX = 32


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# report plumbing

def _num(x):
    f = frac(x)
    return int(f) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _jsonable(x):
    if isinstance(x, Fraction):
        return _num(x)
    if isinstance(x, MultiPoly):
        return repr(x)
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _emit(args, report, lines):
    if args.json:
        payload = json.dumps(_jsonable(report), indent=2, sort_keys=True) + "\n"
    else:
        payload = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _resolve_kmax(args, fallback=6):
    env = os.environ.get("SP_KMAX")
    if env is not None:
        try:
            kmax = int(env)
        except ValueError:
            raise _UsageError(f"SP_KMAX must be an integer, got {env!r}") from None
    elif args.kmax is not None:
        kmax = args.kmax
    else:
        return fallback
    if kmax < 1:
        raise _UsageError(f"kmax must be at least 1, got {kmax}")
    if kmax > MAX_KMAX:
        raise _UsageError(f"kmax must be at most {MAX_KMAX}, got {kmax}")
    return kmax


def _require_spec(args):
    if not args.spec:
        raise _UsageError("this command needs --spec")
    return args.spec


def _resolve_symbols(args):
    """--spec wins; --n alone enumerates rank-2/3 symbols on an n-manifold."""
    if args.spec:
        sym = parse_symbol(args.spec)
        if getattr(args, "n", None) is not None:
            rank = distribution_rank(sym)
            names = {render_symbol(s) for s in enumerate_symbols(rank, args.n)}
            if render_symbol(sym) not in names:
                raise _UsageError(
                    f"--spec {args.spec!r} is not a rank-{rank} symbol for n={args.n}")
        return (sym,)
    if getattr(args, "n", None) is not None:
        rank = args.rank if args.rank is not None else 2
        return tuple(enumerate_symbols(rank, args.n))
    raise _UsageError("this command needs --spec or --n")


def _verdict(sym):
    if is_finite_type(sym):
        return True, "Finite"
    rows = rows_of(sym)
    if len(rows) == 1 and rows[0].length == 2:
        return False, "Infinite (one row with two boxes)"
    return False, "Infinite (a full row lies at or below the bottom of another)"


# ---------------------------------------------------------------------------
# symbol commands

def _cmd_symbol_parse(args):
    sym = parse_symbol(_require_spec(args))
    finite, verdict = _verdict(sym)
    report = {
        "schema": SCHEMA,
        "command": "symbol parse",
        "input": args.spec,
        "symbol": render_symbol(sym),
        "components": symbol_to_json(sym)["components"],
        "dim_x": dim_x(sym),
        "distribution_rank": distribution_rank(sym),
        "index_parity": index_parity(sym),
        "finite_type": finite,
    }
    lines = [
        f"symbol             {report['symbol']}",
        f"dim_x              {report['dim_x']}",
        f"distribution rank  {report['distribution_rank']}",
        f"index parity       {report['index_parity']}",
        f"type               {verdict}",
    ]
    _emit(args, report, lines)
    return 0


def _cmd_symbol_classify(args):
    sym = parse_symbol(_require_spec(args))
    finite, verdict = _verdict(sym)
    report = {
        "schema": SCHEMA,
        "command": "symbol classify",
        "symbol": render_symbol(sym),
        "finite_type": finite,
        "verdict": verdict,
    }
    _emit(args, report, [verdict])
    return 0


def _cmd_symbol_enumerate(args):
    if args.rank is None or args.n is None:
        raise _UsageError("enumerate needs --rank and --n")
    syms = enumerate_symbols(args.rank, args.n)
    entries = []
    lines = []
    for s in syms:
        finite, verdict = _verdict(s)
        entries.append({
            "symbol": render_symbol(s),
            "dim_x": dim_x(s),
            "finite_type": finite,
            "verdict": verdict,
        })
        lines.append(f"{render_symbol(s):<16}dim_x={dim_x(s):<4}{verdict}")
    report = {
        "schema": SCHEMA,
        "command": "symbol enumerate",
        "rank": args.rank,
        "n": args.n,
        "symbols": entries,
    }
    _emit(args, report, lines)
    return 0


# ---------------------------------------------------------------------------
# flat model

def _cmd_flat_model(args):
    sym = parse_symbol(_require_spec(args))
    m = flat_model(sym)
    alg = m.algebra
    brackets = [{"left": alg.labels[i], "right": alg.labels[j],
                 "value": {alg.labels[k]: c for k, c in sorted(row[j].items())}}
                for i, row in enumerate(alg.rows) for j in sorted(row) if j > i]
    report = {
        "schema": SCHEMA,
        "command": "flat-model",
        "symbol": render_symbol(sym),
        "dim": alg.dim,
        "basis": [{"label": alg.labels[i], "degree": _num(frac(alg.degrees2[i]) / 2)}
                  for i in range(alg.dim)],
        "distribution": [alg.labels[i] for i in m.distribution],
        "brackets": brackets,
    }
    lines = [
        f"symbol        {report['symbol']}",
        f"dimension     {alg.dim}",
        "basis         " + " ".join(
            f"{b['label']}:{b['degree']}" for b in report["basis"]),
        "distribution  " + " ".join(report["distribution"]),
    ]
    for b in brackets:
        rhs = " + ".join(
            (f"{b['value'][k]}*{k}" if b["value"][k] != 1 else k) for k in b["value"])
        lines.append(f"[{b['left']}, {b['right']}] = {rhs}")
    _emit(args, report, lines)
    return 0


# ---------------------------------------------------------------------------
# prolongations

def _cmd_prolong_flag(args):
    cap = _resolve_kmax(args, fallback=None)
    results = []
    lines = []
    for sym in _resolve_symbols(args):
        x = build_model_space(sym)
        fp = flag_prolong(x, k_max=cap)
        degs = [{"degree": _num(d), "dim": fp.layer_dim(d)} for d in fp.degrees]
        results.append({
            "symbol": render_symbol(sym),
            "shift_dim": fp.delta_dim,
            "degrees": degs,
            "total_dim": fp.total_dim,
        })
        lines.append(f"symbol     {render_symbol(sym)}")
        lines.append(f"shift dim  {fp.delta_dim}")
        for d in degs:
            lines.append(f"degree {d['degree']:<5} dim {d['dim']}")
        lines.append(f"total_dim  {fp.total_dim}")
    report = {"schema": SCHEMA, "command": "prolong flag", "results": results}
    _emit(args, report, lines)
    return 0


def _cmd_prolong_tanaka(args):
    kmax = _resolve_kmax(args)
    results = []
    lines = []
    for sym in _resolve_symbols(args):
        x = build_model_space(sym)
        g0 = flag_prolong(x).matrices()
        try:
            rep = prolong(heisenberg_from_space(x), g0, kmax=kmax).report
        except CapReached as exc:
            rep = exc.report
        entry = {"symbol": render_symbol(sym)}
        entry.update({k: v for k, v in rep.to_json_dict().items() if k != "schema"})
        results.append(entry)
        lines.append(f"symbol        {render_symbol(sym)}")
        lines.append(f"dim_negative  {rep.dim_negative}")
        lines.append(f"dim_g0        {rep.dim_g0}")
        for k, d in rep.degrees:
            lines.append(f"degree {k:<5} dim {d}")
        lines.append(f"terminated    {'yes' if rep.terminated else 'no'}")
        lines.append(f"total_dim     {rep.total_dim if rep.terminated else '-'}")
    report = {"schema": SCHEMA, "command": "prolong tanaka", "results": results}
    _emit(args, report, lines)
    return 0


def _cmd_prolong_standard(args):
    kmax = _resolve_kmax(args)
    results = []
    lines = []
    for sym in _resolve_symbols(args):
        x = build_model_space(sym)
        dec = decompose_azp(x)
        xvars = default_variables(x.dim)
        rows = []
        lines.append(f"symbol  {render_symbol(sym)}")
        p_chain = standard_prolong(dec.p, kmax, x.sigma, variables=xvars)
        l_chain = standard_prolong(dec.l_of_x, kmax, x.sigma, variables=xvars)
        for k in range(1, kmax + 1):
            p_k, l_k = p_chain[k], l_chain[k]
            rows.append({"k": k, "dim_p": p_k.dim, "dim_l": l_k.dim,
                         "p_equals_l": p_k.equals(l_k)})
            lines.append(f"k={k} dim_p={p_k.dim} dim_l={l_k.dim} "
                         f"equal={'yes' if rows[-1]['p_equals_l'] else 'no'}")
        results.append({"symbol": render_symbol(sym), "layers": rows})
    report = {"schema": SCHEMA, "command": "prolong standard", "results": results}
    _emit(args, report, lines)
    return 0


# ---------------------------------------------------------------------------
# theorem verification

def _flag(v):
    if v is None:
        return "SKIP"
    return "PASS" if v else "FAIL"


def _cmd_verify(args):
    sym = parse_symbol(_require_spec(args))
    rep = verify_prolongation_theorems(sym, _resolve_kmax(args), seed=args.seed)
    report = {"schema": SCHEMA, "command": "verify"}
    report.update(rep)
    lines = [f"symbol  {rep['symbol']}"]
    for name, h in rep["hypotheses"].items():
        state = "applicable" if h["holds"] else f"skipped ({h['why']})"
        lines.append(f"hypothesis {name:<20} {state}")
    for e in rep["layers"]:
        cells = [f"k={e['k']}"]
        for key in ("dim_layer", "dim_p", "dim_l", "dim_ideal"):
            if e.get(key) is not None:
                cells.append(f"{key}={e[key]}")
        lines.append("  ".join(cells))
    for name, v in rep["passes"].items():
        lines.append(f"theorem {name:<24} {_flag(v)}")
    _emit(args, report, lines)
    return 2 if False in rep["passes"].values() else 0


# ---------------------------------------------------------------------------
# secant ideals

def _rescaled_hankel(hank, ambient):
    """The minors with x_{i+1} = i! y_i, which takes the moment curve (t^i)
    to the shift-orbit row curve (t^i / i!): x^e goes to prod_i (i!)^e_i y^e."""
    facts = [math.factorial(i) for i in range(len(ambient))]
    return poly_space(hank.degree, ambient, [
        MultiPoly(ambient, {e: c * math.prod(map(pow, facts, e)) for e, c in p.terms.items()})
        for p in hank.basis])


def _cmd_secant(args):
    """Row-ideal slices for k = 1..kmax, from one prolongation chain per
    variety.  The Hankel minors vanish on the row curve's k-th secant iff
    they lie in that slice, which spans every polynomial that does."""
    sym = parse_symbol(_require_spec(args))
    x = build_model_space(sym)
    kmax = _resolve_kmax(args)
    base = shift_orbit_sampler(x, 0)
    s_h = len(base.coords) - 2
    tangential = tangential_variety(sym, base)
    rows = []
    lines = [f"symbol  {render_symbol(sym)}", f"row curve degree  {s_h + 1}"]
    ideals = secant_ideal(base, kmax)
    tan_ideals = None
    if tangential is not None:
        # for j = 0 the tangential variety is the row curve itself
        tan_ideals = ideals if tangential is base else secant_ideal(tangential, kmax)
    failed = False
    for k in range(1, kmax + 1):
        ideal = ideals[k]
        entry = {"k": k, "degree": k + 2, "dim_row_ideal": ideal.dim,
                 "dim_hankel": None, "hankel_certified": None,
                 "hankel_matches_row_ideal": None, "dim_tangential_ideal": None}
        if s_h >= 2 * k + 1:
            hank = hankel_minor_space(s_h, k)
            rescaled = _rescaled_hankel(hank, base.ambient)
            entry["dim_hankel"] = hank.dim
            entry["hankel_certified"] = all(map(ideal.contains, rescaled.basis))
            entry["hankel_matches_row_ideal"] = matches = rescaled.equals(ideal)
            failed = failed or not (entry["hankel_certified"] and matches)
        if tan_ideals is not None:
            entry["dim_tangential_ideal"] = tan_ideals[k].dim
        rows.append(entry)
        cells = [f"k={k}", f"degree={k + 2}", f"dim_row_ideal={ideal.dim}"]
        if entry["dim_hankel"] is not None:
            cells.append(f"dim_hankel={entry['dim_hankel']}")
            cells.append(f"certified={_flag(entry['hankel_certified'])}")
            cells.append(f"matches={_flag(entry['hankel_matches_row_ideal'])}")
        if entry["dim_tangential_ideal"] is not None:
            cells.append(f"dim_tangential_ideal={entry['dim_tangential_ideal']}")
        lines.append("  ".join(cells))
    report = {"schema": SCHEMA, "command": "secant",
              "symbol": render_symbol(sym), "seed": args.seed, "layers": rows}
    _emit(args, report, lines)
    return 2 if failed else 0


# ---------------------------------------------------------------------------
# Goh matrix and degeneracy locus

def _locus_span_target(filt, level):
    return filt[level] if len(filt) > level else filt[-1]


def _goh_checks(m, g, loc):
    alg = m.algebra
    l = g.size
    zero = MultiPoly.constant(g.variables, 0)
    # the Pfaffian row expansion, 0-based, for both parities:
    # sum_j (-1)^(j+1) G[s][j] C[i][j] = delta_is (-1)^s pf, where at odd size
    # C is the one row of sub-Pfaffians and pf = 0
    cof, pf = ((loc.sub_pfaffians,), zero) if l % 2 else (loc.sub_pfaffians, loc.pfaffian)
    ok = True
    for s, grow in enumerate(g.entries):
        for i, crow in enumerate(cof):
            total = sum((e * c if j % 2 else -(e * c)
                         for j, (e, c) in enumerate(zip(grow, crow))), zero)
            ok = ok and total == ((-pf if s % 2 else pf) if i == s else zero)
    checks = [{"name": "sub-pfaffian vector spans the kernel" if l % 2
               else "sub-pfaffian matrix reproduces the pfaffian", "holds": ok}]
    coeff_vecs = [linear_coefficients(p) for p in (cof[0] if l % 2 else (pf,))
                  if p.degree() == 1]

    if l % 2 or l == 2:
        # the sub-pfaffians span the locus only while they are linear: l <= 3
        holds = None
        if l <= 3:
            filt = derived_filtration(m)
            dist = [alg.basis_vector(i) for i in m.distribution]
            holds = spans_equal(dist + coeff_vecs, _locus_span_target(filt, 1))
        checks.append({"name": "degeneracy locus is the second derived annihilator",
                       "holds": holds})
    if l == 2:
        x1, x2 = (alg.basis_vector(i) for i in m.distribution)
        b12 = alg.bracket(x1, x2)
        checks.append({"name": "pfaffian is the central bracket form",
                       "holds": loc.pfaffian == hamiltonian_form(g.variables, b12)})
        double = [alg.bracket(x1, b12), alg.bracket(x2, b12)]
        checks.append({"name": "double brackets fill the third filtration level",
                       "holds": spans_equal(list(_locus_span_target(filt, 1)) + double,
                                            _locus_span_target(filt, 2))})
    return checks


def _cmd_goh(args):
    sym = parse_symbol(_require_spec(args))
    m = flat_model(sym)
    g = goh_matrix(m)
    loc = degeneracy_locus(m)
    checks = _goh_checks(m, g, loc)
    report = {
        "schema": SCHEMA,
        "command": "goh",
        "symbol": render_symbol(sym),
        "rank": g.size,
        "rank_parity": rank_parity_of(sym),
        "variables": {name: m.algebra.labels[i]
                      for i, name in enumerate(g.variables)},
        "matrix": [[repr(e) for e in row] for row in g.entries],
        "always_degenerate": loc.always_degenerate,
        "pfaffian": None if loc.pfaffian is None else repr(loc.pfaffian),
        "sub_pfaffians": loc.sub_pfaffians,
        "checks": checks,
    }
    lines = [
        f"symbol       {report['symbol']}",
        f"rank         {g.size}",
        f"rank parity  {report['rank_parity']}",
        "dual legend  " + " ".join(
            f"{name}={m.algebra.labels[i]}" for i, name in enumerate(g.variables)
            if i not in m.distribution),
        "goh matrix",
    ]
    for row in g.entries:
        lines.append("  [" + ", ".join(repr(e) for e in row) + "]")
    if loc.always_degenerate:
        lines.append("sub-pfaffians  " + ", ".join(repr(p) for p in loc.sub_pfaffians))
    else:
        lines.append(f"pfaffian  {loc.pfaffian!r}")
    for c in checks:
        lines.append(f"check {c['name']:<48} {_flag(c['holds'])}")
    _emit(args, report, lines)
    return 2 if any(c["holds"] is False for c in checks) else 0


# ---------------------------------------------------------------------------
# curve extraction

def _rational_from_json(v):
    if isinstance(v, bool) or isinstance(v, float):
        raise ValueError("curve entries must be integers or 'p/q' strings")
    if isinstance(v, int):
        return Fraction(v)
    # 'p/q' in ASCII digits only, as in parse_symbol: Fraction would also read
    # other Unicode digits and expand an exponent such as '1e999999999'
    if isinstance(v, str) and re.fullmatch(r"\s*[+-]?[0-9]+(/[0-9]*[1-9][0-9]*)?\s*", v):
        return Fraction(v)
    raise ValueError(f"bad rational value {v!r}")


def _json_list(v, what):
    if not isinstance(v, list):
        raise ValueError(f"{what} must be a JSON list, got {v!r}")
    return v


def _curve_from_json(data):
    if not isinstance(data, dict):
        raise ValueError("curve file must hold a JSON object")
    if data.get("schema", SCHEMA) != SCHEMA:
        raise ValueError(f"unsupported schema {data.get('schema')!r}")
    for key in ("rank_parity", "sigma", "columns"):
        if key not in data:
            raise ValueError(f"curve file lacks {key!r}")
    sigma = tuple(tuple(_rational_from_json(e) for e in _json_list(row, "a sigma row"))
                  for row in _json_list(data["sigma"], "sigma"))
    columns = [[[_rational_from_json(c) for c in _json_list(coeffs, "a column entry")]
                for coeffs in _json_list(col, "a column")]
               for col in _json_list(data["columns"], "columns")]
    check_pairing(sigma)
    n = len(sigma)
    if any(len(col) != n for col in columns):
        raise ValueError(f"columns must have length {n}, the size of sigma")
    return tuple(column(col) for col in columns), data["rank_parity"], sigma


def _cmd_extract(args):
    if args.curve:
        with open(args.curve, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except RecursionError:
                raise ValueError("curve file nests too deeply") from None
        columns, parity, sigma = _curve_from_json(data)
        sym = extract_flag_symbol(columns, rank_parity=parity, sigma=sigma)
        source = args.curve
    elif args.spec:
        sym = extract_flag_symbol(flat_curve(build_model_space(parse_symbol(args.spec))))
        source = args.spec
    else:
        raise _UsageError("extract needs --curve or --spec")
    finite, verdict = _verdict(sym)
    report = {
        "schema": SCHEMA,
        "command": "extract",
        "source": source,
        "symbol": render_symbol(sym),
        "components": symbol_to_json(sym)["components"],
        "dim_x": dim_x(sym),
        "finite_type": finite,
    }
    lines = [f"symbol  {render_symbol(sym)}", f"dim_x   {dim_x(sym)}",
             f"type    {verdict}"]
    _emit(args, report, lines)
    return 0


# ---------------------------------------------------------------------------
# argument wiring

def _add_common(p, spec=True, n=False, rank=False, kmax=False, seed=False):
    if spec:
        p.add_argument("--spec", help="symbol expression, e.g. 'D(2,3)+R(5/2)'")
    if n:
        p.add_argument("--n", type=int, help="ambient manifold dimension")
    if rank:
        p.add_argument("--rank", type=int, help="distribution rank for --n")
    if kmax:
        p.add_argument("--kmax", type=int, help="prolongation degree cap")
    if seed:
        p.add_argument("--seed", type=int, default=42,
                       help="echoed in the report; no result depends on it")
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.add_argument("--out", help="write the report to this file")


@functools.cache
def build_parser() -> _Parser:
    """The parser, built at the first call (the first main()) and reused."""
    parser = _Parser(prog="spflag", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    ps = sub.add_parser("symbol", help="parse, classify, or enumerate symbols")
    pssub = ps.add_subparsers(dest="action")
    p = pssub.add_parser("parse")
    _add_common(p)
    p.set_defaults(func=_cmd_symbol_parse)
    p = pssub.add_parser("classify")
    _add_common(p)
    p.set_defaults(func=_cmd_symbol_classify)
    p = pssub.add_parser("enumerate")
    _add_common(p, spec=False, n=True, rank=True)
    p.set_defaults(func=_cmd_symbol_enumerate)

    p = sub.add_parser("flat-model", help="structure constants of the flat model")
    _add_common(p)
    p.set_defaults(func=_cmd_flat_model)

    pp = sub.add_parser("prolong", help="graded prolongations")
    ppsub = pp.add_subparsers(dest="action")
    p = ppsub.add_parser("flag")
    _add_common(p, n=True, rank=True, kmax=True)
    p.set_defaults(func=_cmd_prolong_flag)
    p = ppsub.add_parser("tanaka")
    _add_common(p, n=True, rank=True, kmax=True)
    p.set_defaults(func=_cmd_prolong_tanaka)
    p = ppsub.add_parser("standard")
    _add_common(p, n=True, rank=True, kmax=True)
    p.set_defaults(func=_cmd_prolong_standard)

    p = sub.add_parser("verify", help="cross-check layer spaces against "
                                      "standard prolongations and ideals")
    _add_common(p, kmax=True, seed=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("secant", help="secant ideal slices of the first component's row curve")
    _add_common(p, kmax=True, seed=True)
    p.set_defaults(func=_cmd_secant)

    p = sub.add_parser("goh", help="Goh matrix and degeneracy locus identities")
    _add_common(p)
    p.set_defaults(func=_cmd_goh)

    p = sub.add_parser("extract", help="recover the symbol of a polynomial curve")
    _add_common(p)
    p.add_argument("--curve", help="JSON file with sigma, rank_parity, columns")
    p.set_defaults(func=_cmd_extract)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if not hasattr(args, "func"):
            raise _UsageError("missing subcommand; see --help")
        return args.func(args)
    except _UsageError as exc:
        code, line = 1, f"usage error: {exc}"
    except (NonRegularPoint, NonSymplecticFlag) as exc:
        code, line = 2, f"verification failure: {exc}"
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        code, line = 1, f"error: {exc}"
    # one line, also where the message quotes an argument that holds a newline
    print(line.replace("\n", "\\n"), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
