"""The two benchmark workloads: inputs made from a seed, jobs, references.

``algebra`` joins the tower and extract pools below, ``checks`` the sweep
and verify pools.  The pools are sized so that one pass over a workload
takes about 9 s on a 2-vCPU machine, and a run repeats every job several
times.

Importing this module imports ``spflag``; ``build(name, seed)`` makes the
workload's inputs.  Together they are the set-up that ``setup_s`` times.

A job is a callable that runs one unit of work through the library and
returns ``None`` when the result matches its reference, or a one-line reason
otherwise.  Every reference is independent of the code path the job times:
closed-form counts, dimensions from the paper, the input symbol, or reports
recorded at a known-good commit.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import re
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from spflag import cli
from spflag.abnormal import (
    extract_flag_symbol,
    flat_curve,
    random_symplectic,
    transform_curve,
)
from spflag.errors import CapReached
from spflag.exact import MultiPoly, rank
from spflag.flagprolong import decompose_azp, flag_prolong, predicted_dims
from spflag.liealg import heisenberg_from_space, killing_matrix
from spflag.symbols import (
    OneRow,
    TwoRow,
    build_model_space,
    is_finite_type,
    make_symbol,
    parse_symbol,
    render_symbol,
)
from spflag.tanaka import assemble_algebra, prolong

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
DEFAULT_SEED = 42


class Job(NamedTuple):
    label: str
    run: Callable[[], Optional[str]]
    # The symptom of a defect known at the time the benchmark was defined;
    # a job with one still counts as failed, but does not make the run
    # incorrect while it fails in exactly that way.
    known_defect: Optional[str] = None


# ---------------------------------------------------------------------------
# tower: prolong -> assemble_algebra (with its Jacobi check) -> Killing rank

# Dimensions from the paper; full Killing rank where the algebra is simple.
# D(1,2) (dimension 21) is left out: its assembly alone takes 13-21 s, longer
# than a whole pass, so a run could time it only once.
TOWER_ANCHORS = {
    "R(3/2)": (14, True),
    "D(2,3)": (17, False),
    "D(2,4)": (18, False),
    "D(3,4)": (23, False),
}
# Prolonged to TOWER_KMAX, where CapReached is the expected result: about
# 0.7 s and 0.1 s at kmax 4, against 4.8 s and 0.5 s at kmax 6.
TOWER_INFINITE = ("D(2,2)", "D(1,1)")
TOWER_KMAX = 4
# Two of the finite-type symbols with dim_x <= 8.  Left out for pass
# length: 2*D(1/2,1) (122 s), D(1/2,1)+R(1/2) (23 s), D(3/2,2)+R(1/2)
# (5.7 s), D(3/2,2) and D(1/2,1) (1.9 s each), and four that take 0.2-0.7 s.
TOWER_SMALL = ("R(5/2)", "D(3/2,3)")


def _tower_job(sym, dim, full_killing):
    finite = is_finite_type(sym)

    def run():
        x = build_model_space(sym)
        try:
            tp = prolong(heisenberg_from_space(x), flag_prolong(x).matrices(),
                         kmax=TOWER_KMAX)
        except CapReached:
            return None if not finite else "finite type but the cap was reached"
        if not finite:
            return "infinite type but the prolongation terminated"
        alg = assemble_algebra(tp)
        r = rank(killing_matrix(alg))
        if alg.dim != tp.report.total_dim:
            return f"algebra dim {alg.dim} != total_dim {tp.report.total_dim}"
        if dim is not None and alg.dim != dim:
            return f"dim {alg.dim}, paper says {dim}"
        if full_killing and r != alg.dim:
            return f"Killing rank {r} of {alg.dim}"
        return None

    return run


def tower():
    specs = [(s, d, k) for s, (d, k) in TOWER_ANCHORS.items()]
    specs += [(s, None, False) for s in TOWER_INFINITE + TOWER_SMALL]
    return [Job(f"tower {s}", _tower_job(parse_symbol(s), d, k)) for s, d, k in specs]


# ---------------------------------------------------------------------------
# sweep: closed-form dimensions against flag prolongation and a/z/p split

SWEEP_STRATA = 32


def sweep_costs():
    """Single-run seconds per sweep symbol, measured when the benchmark was
    defined.  They only shape the strata of the seeded draw, and are never
    updated, so a seed draws the same jobs on every commit."""
    with open(HERE / "sweep_costs.json", encoding="utf-8") as fh:
        return json.load(fh)


def sweep_universe():
    """The 771 symbols of acceptance criterion 06, keyed by rendered name."""
    grid = [TwoRow(Fraction(s2, 2), l) for s2 in range(0, 9) for l in range(0, s2 + 1)]
    ones = [OneRow(m2) for m2 in range(1, 14, 2)]
    universe = {}

    def keep(components):
        sym = make_symbol(components)
        universe.setdefault(render_symbol(sym), sym)

    for c in grid:
        keep([c])
    for o in ones:
        keep([o])
    for a, b in itertools.combinations_with_replacement(grid, 2):
        if 2 * (a.l + 1) + 2 * (b.l + 1) <= 14:
            keep([a, b])
    for c in grid:
        for o in ones:
            if 2 * (c.l + 1) + o.m2 + 1 <= 14:
                keep([c, o])
    return universe


def _sweep_job(sym):
    def run():
        pd = predicted_dims(sym)
        x = build_model_space(sym)
        fp = flag_prolong(x)
        dec = decompose_azp(x)
        got = (fp.total_dim, dec.l_of_x.dim, dec.z.dim, dec.p.dim)
        want = (pd["flag_total"], pd["l"], pd["z"], pd["p"])
        return None if got == want else f"(flag, l, z, p) = {got}, formula {want}"

    return run


def sweep(seed):
    """One symbol from each of SWEEP_STRATA strata of equal size, in the
    universe sorted by recorded cost."""
    rng = random.Random(seed)
    cost = sweep_costs()
    universe = sweep_universe()
    pool = sorted(universe, key=lambda n: (cost[n], n))
    picks = []
    for i in range(SWEEP_STRATA):
        lo = i * len(pool) // SWEEP_STRATA
        hi = (i + 1) * len(pool) // SWEEP_STRATA
        picks.append(pool[rng.randrange(lo, hi)])
    return [Job(f"sweep {n}", _sweep_job(universe[n])) for n in picks]


# ---------------------------------------------------------------------------
# verify: CLI commands in-process, checked against acceptance 05 and goldens

# Layer dimensions from acceptance criterion 05: {k: dim} for kmax 2.
VERIFY_LAYERS = {"D(2,3)": {1: 0, 2: 0}, "D(3,4)": {1: 1, 2: 0}}
GOH_POOL = ("D(1,2)", "D(2,3)", "D(3,4)", "R(3/2)", "R(5/2)", "R(7/2)")
SEEDED_COMMANDS = ("verify", "secant")
# D(3,4) runs at kmax 1: at kmax 2 verify, secant and prolong standard take
# 7.5, 7.0 and 3.7 s, most of a pass each.
VERIFY_COMMANDS = (
    ("verify", "--spec", "D(3,4)", "--kmax", "1"),
    ("verify", "--spec", "D(2,3)", "--kmax", "2"),
    ("verify", "--spec", "D(2,3)+R(5/2)", "--kmax", "1"),
    ("secant", "--spec", "D(3,4)", "--kmax", "1"),
    ("secant", "--spec", "D(2,3)", "--kmax", "2"),
    ("prolong", "standard", "--spec", "D(3,4)", "--kmax", "1"),
)
# verify on infinite-type symbols reports row_secant_inclusion FAIL because
# that check has no hypothesis gate (ROADMAP open item 5).
KNOWN_DEFECT_COMMAND = ("verify", "--spec", "D(1,1)", "--kmax", "2")
KNOWN_DEFECT = "exit 2: row_secant_inclusion FAIL"


def golden_name(argv):
    return re.sub(r"[^A-Za-z0-9]+", "_", " ".join(argv)).strip("_") + ".json"


def run_cli(argv, out_bytes=None):
    """cli.main in-process; returns (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    text = buf.getvalue()
    if out_bytes is not None:
        out_bytes(len(text.encode()))
    return code, text


def _check_report(argv, report):
    cmd = argv[0]
    spec = argv[argv.index("--spec") + 1]
    if cmd == "verify":
        if any(v is False for v in report["passes"].values()):
            failing = [k for k, v in report["passes"].items() if v is False]
            return f"{', '.join(failing)} FAIL"
        want = VERIFY_LAYERS.get(spec)
        if want is not None:
            for e in report["layers"]:
                dims = {e["dim_layer"], e["dim_p"], e["dim_l"], e["dim_ideal"]}
                if dims != {want[e["k"]]}:
                    return f"k={e['k']} dims {sorted(dims)}, acceptance 05 says {want[e['k']]}"
                if not (e["p_equals_l"] and e["layer_equals_p"]
                        and e["ideal_equals_p"] and e["layer_faithful"]):
                    return f"k={e['k']} layer spaces differ"
    elif cmd == "secant":
        for e in report["layers"]:
            if False in (e["hankel_certified"], e["hankel_matches_row_ideal"]):
                return f"k={e['k']} Hankel certificate FAIL"
    elif cmd == "prolong":
        want = VERIFY_LAYERS.get(spec, {})
        for e in report["results"][0]["layers"]:
            if not e["p_equals_l"]:
                return f"k={e['k']} p != l"
            if e["k"] in want and e["dim_p"] != want[e["k"]]:
                return f"k={e['k']} dim_p {e['dim_p']}, acceptance 05 says {want[e['k']]}"
    elif cmd == "goh":
        if not all(c["holds"] for c in report["checks"]):
            return "a Goh check FAIL"
    return None


def _cli_job(argv, golden, out_bytes):
    def run():
        code, text = run_cli(argv, out_bytes)
        if not text:
            return f"exit {code}, no report"
        reason = _check_report(argv, json.loads(text))
        if code != 0:
            return f"exit {code}" + (f": {reason}" if reason else "")
        if reason is None and golden is not None and text != golden:
            reason = "report differs from the recorded one"
        return reason

    return run


def _full_argv(argv, seed):
    argv = argv + ("--json",)
    if argv[0] in SEEDED_COMMANDS:
        argv = argv + ("--seed", str(seed))
    return argv


def verify_argvs(seed):
    argvs = list(VERIFY_COMMANDS) + [("goh", "--spec", s) for s in GOH_POOL]
    return [_full_argv(argv, seed) for argv in argvs + [KNOWN_DEFECT_COMMAND]]


def golden_argvs():
    """Every command whose report is recorded: all but the known defect, at
    the default seed, with every symbol of the goh pool."""
    argvs = list(VERIFY_COMMANDS) + [("goh", "--spec", s) for s in GOH_POOL]
    return [_full_argv(argv, DEFAULT_SEED) for argv in argvs]


def verify(seed, out_bytes=None):
    jobs = []
    for argv in verify_argvs(seed):
        golden = None
        path = GOLDEN / golden_name(argv)
        if path.exists():
            golden = path.read_text(encoding="utf-8")
        known = KNOWN_DEFECT if argv[:5] == KNOWN_DEFECT_COMMAND else None
        jobs.append(Job(" ".join(argv), _cli_job(argv, golden, out_bytes), known))
    return jobs


# ---------------------------------------------------------------------------
# extract: recover each symbol from its flat curve and from a moved curve

# Five of the 98 finite-type symbols with dim_x <= 14 (acceptance 10): the
# symbols, sorted by single-run extraction time when the benchmark was
# defined, fall in 14 blocks of 7; these are the middle symbols of blocks 1,
# 3, 5, 7 and 11.  A seeded draw of 10 symbols, one per stratum of equal
# recorded cost, moved throughput and p50 by about 16% between seeds on the
# recorded costs alone, so the seed moves the curves instead.
EXTRACT_SYMBOLS = (
    "D(1,2)", "D(3/2,3)+D(1/2,1)", "D(5/2,3)+D(1/2,1)", "D(5/2,5)+R(1/2)",
    "D(2,3)+D(1/2,1)",
)
T = MultiPoly.variable(("t",), "t")
REPARAM = T + T * T * Fraction(1, 2)


def _extract_job(curve, sym):
    def run():
        got = extract_flag_symbol(curve)
        return None if got == sym else f"extracted {render_symbol(got)}"

    return run


def extract(seed):
    jobs = []
    for i, name in enumerate(EXTRACT_SYMBOLS):
        sym = parse_symbol(name)
        curve = flat_curve(build_model_space(sym))
        moved = transform_curve(
            curve, matrix=random_symplectic(curve.sigma, seed=seed * 1000 + i),
            reparam=REPARAM)
        jobs.append(Job(f"extract {name} flat", _extract_job(curve, sym)))
        jobs.append(Job(f"extract {name} moved", _extract_job(moved, sym)))
    return jobs


def build(name, seed, out_bytes=None):
    """The job list of one pass of workload `name`, in an order shuffled by
    the seed; out_bytes(n) is told the size of each cli report."""
    if name == "algebra":
        jobs = tower() + extract(seed)
    elif name == "checks":
        jobs = sweep(seed) + verify(seed, out_bytes)
    else:
        raise ValueError(f"unknown workload {name}")
    random.Random(seed).shuffle(jobs)
    return jobs
