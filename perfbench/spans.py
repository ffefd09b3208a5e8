"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side of each layer boundary: the
functions listed in TARGETS are replaced, in every ``spflag.*`` module that
holds a reference to them (and in the benchmark's workload module), by a
wrapper that opens a span around the call.  Nothing in ``spflag`` itself is
edited, and ``install`` returns a function that restores every original.

Each span records its name, start and end (``perf_counter_ns``), the index of
its parent span, the job id, and the module whose namespace made the call.
Spans stay in memory until the run ends; self time is computed afterwards
from the child spans, so that the self times of all spans plus the time not
covered by any span add up to the traced wall time exactly.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from fractions import Fraction

# (module, attribute) -> span name.  Names of the form "mod.Class.method"
# patch the method on the class.  The four Pfaffian-related functions share
# one span name, exact.pfaffian_family.
TARGETS = {
    ("exact", "kernel_basis"): "exact.kernel_basis",
    ("exact", "rref"): "exact.rref",
    ("exact", "solve_linear"): "exact.solve_linear",
    ("exact", "rank"): "exact.rank",
    ("exact", "span_contains"): "exact.span_contains",
    ("exact", "det"): "exact.pfaffian_family",
    ("exact", "pfaffian"): "exact.pfaffian_family",
    ("exact", "sub_pfaffians"): "exact.pfaffian_family",
    ("exact", "skew_kernel"): "exact.pfaffian_family",
    ("exact", "MultiPoly.subs"): "exact.MultiPoly.subs",
    ("symbols", "parse_symbol"): "symbols.parse_symbol",
    ("symbols", "make_symbol"): "symbols.make_symbol",
    ("symbols", "render_symbol"): "symbols.render_symbol",
    ("symbols", "is_finite_type"): "symbols.is_finite_type",
    ("symbols", "enumerate_symbols"): "symbols.enumerate_symbols",
    ("symbols", "build_model_space"): "symbols.build_model_space",
    ("flagprolong", "flag_prolong"): "flagprolong.flag_prolong",
    ("flagprolong", "decompose_azp"): "flagprolong.decompose_azp",
    ("flagprolong", "predicted_dims"): "flagprolong.predicted_dims",
    ("liealg", "heisenberg_from_space"): "liealg.heisenberg_from_space",
    ("liealg", "flat_model"): "liealg.flat_model",
    ("liealg", "generated_subalgebra"): "liealg.generated_subalgebra",
    ("liealg", "killing_matrix"): "liealg.killing_matrix",
    ("liealg", "GradedLieAlgebra.check_jacobi"): "liealg.check_jacobi",
    ("tanaka", "prolong"): "tanaka.prolong",
    ("tanaka", "assemble_algebra"): "tanaka.assemble_algebra",
    ("polyprolong", "standard_prolong"): "polyprolong.standard_prolong",
    ("polyprolong", "secant_ideal"): "polyprolong.secant_ideal",
    ("polyprolong", "tanaka_layer_polynomials"): "polyprolong.tanaka_layer_polynomials",
    ("polyprolong", "poly_space"): "polyprolong.poly_space",
    ("polyprolong", "verify_prolongation_theorems"):
        "polyprolong.verify_prolongation_theorems",
    ("abnormal", "extract_flag_symbol"): "abnormal.extract_flag_symbol",
    ("abnormal", "flat_curve"): "abnormal.flat_curve",
    ("abnormal", "transform_curve"): "abnormal.transform_curve",
    ("abnormal", "random_symplectic"): "abnormal.random_symplectic",
    ("abnormal", "goh_matrix"): "abnormal.goh_matrix",
    ("abnormal", "degeneracy_locus"): "abnormal.degeneracy_locus",
    ("abnormal", "derived_filtration"): "abnormal.derived_filtration",
    ("cli", "main"): "cli.main",
}

SIZES_SPAN = "trace.sizes"


def matrix_sizes(a):
    """(cells, nonzeros, largest numerator or denominator bit length)."""
    cells = nnz = bits = 0
    for row in a:
        for e in row:
            cells += 1
            if e:
                nnz += 1
                if isinstance(e, Fraction):
                    b = max(e.numerator.bit_length(), e.denominator.bit_length())
                else:
                    b = int(e).bit_length()
                if b > bits:
                    bits = b
    return cells, nnz, bits


def _layer_dims(report):
    return sum(d for _, d in report.degrees)


class Recorder:
    """In-memory spans and counters of one traced phase."""

    def __init__(self):
        self.names = []
        self.callers = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.jobs = []
        self.stack = []
        self.job = None
        self.counters = {}
        self.maxima = {}

    def open(self, name, caller):
        idx = len(self.names)
        self.names.append(name)
        self.callers.append(caller)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.jobs.append(self.job)
        self.ends.append(None)
        self.stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def close(self, idx):
        self.ends[idx] = time.perf_counter_ns()
        popped = self.stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.names[idx]} closed out of order")

    def count(self, name, n):
        self.counters[name] = self.counters.get(name, 0) + n

    def maximum(self, name, n):
        if n > self.maxima.get(name, 0):
            self.maxima[name] = n

    def self_times(self):
        """Per span: duration minus the durations of its direct children.

        Children run on the same thread inside their parent, so the direct
        children's durations are exactly the part of the parent they cover.
        """
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for i, p in enumerate(self.parents):
            if p >= 0:
                s, e = self.starts[i], self.ends[i]
                if s < self.starts[p] or e > self.ends[p]:
                    raise RuntimeError(f"span {self.names[i]} escapes its parent")
                own[p] -= e - s
        return own

    def write(self, path):
        """One JSON line per span, in the order the spans were opened."""
        own = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "name": name, "caller": self.callers[i], "job": self.jobs[i],
                    "parent": self.parents[i], "start_ns": self.starts[i],
                    "end_ns": self.ends[i], "self_ns": own[i]}) + "\n")

    def covered_ns(self):
        """Time covered by root spans, which never overlap one another."""
        return sum(e - s for s, e, p in zip(self.starts, self.ends, self.parents)
                   if p < 0)


def _measure_sizes(rec, caller, name, args):
    if name == "exact.kernel_basis" and args:
        idx = rec.open(SIZES_SPAN, caller)
        try:
            cells, nnz, bits = matrix_sizes(args[0])
        finally:
            rec.close(idx)
        rec.count("exact.kernel_basis.cells", cells)
        rec.count("exact.kernel_basis.nnz", nnz)
        rec.maximum("exact.kernel_basis.max_bits", bits)


def _count_result(rec, name, result):
    if name == "tanaka.prolong":
        rec.count("tanaka.prolong.layer_dims", _layer_dims(result.report))
    elif name == "tanaka.assemble_algebra":
        rec.count("tanaka.assemble_algebra.algebra_dim", result.dim)


def _wrap(rec, fn, name, caller, cap_reached):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        _measure_sizes(rec, caller, name, args)
        idx = rec.open(name, caller)
        try:
            result = fn(*args, **kwargs)
        except cap_reached as exc:
            if name == "tanaka.prolong":
                rec.count("tanaka.prolong.layer_dims", _layer_dims(exc.report))
            raise
        finally:
            rec.close(idx)
        _count_result(rec, name, result)
        return result

    return traced


def install(rec, extra_modules=()):
    """Wrap every TARGETS function where spflag modules (and extra_modules,
    given as (caller tag, module) pairs) refer to it.  Returns undo()."""
    from spflag.errors import CapReached

    modules = [(m.split(".", 1)[1], mod) for m, mod in sorted(sys.modules.items())
               if m.startswith("spflag.") and mod is not None]
    modules += list(extra_modules)
    undo = []
    for (home, attr), name in TARGETS.items():
        owner = sys.modules[f"spflag.{home}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, _wrap(rec, original, name, home, CapReached))
            undo.append((cls, meth, original))
            continue
        original = getattr(owner, attr)
        for caller, mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, _wrap(rec, original, name, caller, CapReached))
                    undo.append((mod, key, original))

    def restore():
        for target, key, original in reversed(undo):
            setattr(target, key, original)

    return restore


def layer_metrics(rec, wall_ns, untraced_wall_ns):
    """Per-layer totals of one traced phase, keyed by metric name."""
    own = rec.self_times()
    calls = {}
    self_ns = {}
    by_caller = {}
    for i, name in enumerate(rec.names):
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + own[i]
        key = (name, rec.callers[i])
        by_caller[key] = by_caller.get(key, 0) + own[i]

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return self_ns.get(name, 0) / 1e9

    def module_self(prefix):
        return sum(v for k, v in self_ns.items() if k.startswith(prefix)) / 1e9

    out = {
        "cli.main.calls": (c("cli.main"), "count"),
        "cli.main.self_s": (s("cli.main"), "s"),
        "cli.out_bytes": (rec.counters.get("cli.out_bytes", 0), "bytes"),
        "symbols.build_model_space.calls": (c("symbols.build_model_space"), "count"),
        "symbols.self_s": (module_self("symbols."), "s"),
        "flagprolong.flag_prolong.calls": (c("flagprolong.flag_prolong"), "count"),
        "flagprolong.flag_prolong.self_s": (s("flagprolong.flag_prolong"), "s"),
        "flagprolong.decompose_azp.self_s": (s("flagprolong.decompose_azp"), "s"),
        "flagprolong.predicted_dims.self_s": (s("flagprolong.predicted_dims"), "s"),
        "tanaka.prolong.calls": (c("tanaka.prolong"), "count"),
        "tanaka.prolong.self_s": (s("tanaka.prolong"), "s"),
        "tanaka.prolong.layer_dims":
            (rec.counters.get("tanaka.prolong.layer_dims", 0), "count"),
        "tanaka.assemble_algebra.calls": (c("tanaka.assemble_algebra"), "count"),
        "tanaka.assemble_algebra.self_s": (s("tanaka.assemble_algebra"), "s"),
        "tanaka.assemble_algebra.algebra_dim":
            (rec.counters.get("tanaka.assemble_algebra.algebra_dim", 0), "count"),
    }
    for name in ("liealg.check_jacobi", "liealg.killing_matrix", "liealg.flat_model",
                 "liealg.generated_subalgebra"):
        out[f"{name}.self_s"] = (s(name), "s")
    for name in ("polyprolong.standard_prolong", "polyprolong.secant_ideal"):
        out[f"{name}.calls"] = (c(name), "count")
        out[f"{name}.self_s"] = (s(name), "s")
    for name in ("polyprolong.tanaka_layer_polynomials", "polyprolong.poly_space",
                 "polyprolong.verify_prolongation_theorems"):
        out[f"{name}.self_s"] = (s(name), "s")
    out["abnormal.extract_flag_symbol.calls"] = (c("abnormal.extract_flag_symbol"), "count")
    for name in ("extract_flag_symbol", "flat_curve", "transform_curve",
                 "random_symplectic", "goh_matrix", "degeneracy_locus",
                 "derived_filtration"):
        out[f"abnormal.{name}.self_s"] = (s(f"abnormal.{name}"), "s")
    out["exact.kernel_basis.calls"] = (c("exact.kernel_basis"), "count")
    out["exact.kernel_basis.self_s"] = (s("exact.kernel_basis"), "s")
    for key in ("cells", "nnz"):
        out[f"exact.kernel_basis.{key}"] = (
            rec.counters.get(f"exact.kernel_basis.{key}", 0), "count")
    out["exact.kernel_basis.max_bits"] = (
        rec.maxima.get("exact.kernel_basis.max_bits", 0), "bits")
    for caller in ("tanaka", "flagprolong", "polyprolong", "abnormal"):
        out[f"exact.kernel_basis.from_{caller}.self_s"] = (
            by_caller.get(("exact.kernel_basis", caller), 0) / 1e9, "s")
    for name in ("rref", "solve_linear", "rank", "span_contains"):
        out[f"exact.{name}.calls"] = (c(f"exact.{name}"), "count")
        out[f"exact.{name}.self_s"] = (s(f"exact.{name}"), "s")
    for caller in ("tanaka", "abnormal"):
        out[f"exact.solve_linear.from_{caller}.self_s"] = (
            by_caller.get(("exact.solve_linear", caller), 0) / 1e9, "s")
    out["exact.pfaffian_family.self_s"] = (s("exact.pfaffian_family"), "s")
    out["exact.MultiPoly.subs.calls"] = (c("exact.MultiPoly.subs"), "count")
    out["exact.MultiPoly.subs.self_s"] = (s("exact.MultiPoly.subs"), "s")
    out["trace.spans"] = (len(rec.names), "count")
    out["trace.overhead_frac"] = (wall_ns / untraced_wall_ns - 1, "ratio")
    return out
