"""spflag benchmark: one workload, one seed, one closed loop with one client.

    python3 perfbench/run.py --workload algebra --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  The workload's job list is made from the seed at set-up, then run
in whole passes, one job after another on one thread, for as many passes as
fit in ``--seconds`` (at least one).  Every job's result is checked against
an independent reference (see workloads.py and README.md).

With ``--trace 0`` the end-to-end metrics are printed.  With ``--trace 1``
one pass is run untraced, then set-up and the same pass are run again with
the span recorder of spans.py; the per-layer metrics are printed and the
spans written to .perfbench/spans-<workload>-<seed>.jsonl.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("algebra", "checks")
SETUP_SAMPLES = 5
TAIL_QUANTILES = (0.9, 0.75)
SPANS_DIR = HERE.parent / ".perfbench"


class Outcome:
    """Results of the jobs run in one phase."""

    def __init__(self):
        self.labels = []
        self.times_ns = []
        self.reasons = []
        self.known = []
        self.wall_ns = 0
        self.pass_ns = []

    def add(self, job, ns, reason):
        self.labels.append(job.label)
        self.times_ns.append(ns)
        self.reasons.append(reason)
        self.known.append(reason is not None and reason == job.known_defect)

    @property
    def passes(self):
        return len(self.pass_ns)

    @property
    def attempted(self):
        return len(self.reasons)

    @property
    def ok(self):
        return sum(r is None for r in self.reasons)

    @property
    def unexpected(self):
        """Failures other than a defect recorded in the workload's pool."""
        return sum(r is not None and not k for r, k in zip(self.reasons, self.known))

    @property
    def failed_frac(self):
        return (self.attempted - self.ok) / self.attempted


def percentile(values, q):
    """Linear interpolation between closest ranks; q in [0, 1]."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no values")
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def beyond(values, cut):
    return sum(v > cut for v in values)


def tail_quantile(per_pass):
    """The highest of TAIL_QUANTILES that leaves at least 10 of a pass's
    jobs beyond it, or the median when none does.  Chosen from the pass size,
    which the seed fixes, so that it does not change with the pass count."""
    for q in TAIL_QUANTILES:
        if per_pass - 1 - int(q * (per_pass - 1)) >= 10:
            return q
    return 0.5


def run_phase(jobs, seconds, passes=None, rec=None):
    """Whole passes over jobs while one more pass, at the mean pass time so
    far, still ends within `seconds`; at least one.  Exactly `passes` passes
    when given."""
    out = Outcome()
    start = time.perf_counter_ns()
    while True:
        pass_start = time.perf_counter_ns()
        for job in jobs:
            t = time.perf_counter_ns()
            if rec is not None:
                rec.job = out.attempted
                span = rec.open("bench.job", "bench")
            try:
                reason = job.run()
            except Exception as exc:  # a job that raises is a failed job
                reason = f"raised {type(exc).__name__}: {exc}"
            finally:
                if rec is not None:
                    rec.close(span)
            out.add(job, time.perf_counter_ns() - t, reason)
        out.pass_ns.append(time.perf_counter_ns() - pass_start)
        elapsed = time.perf_counter_ns() - start
        if passes is not None:
            if out.passes >= passes:
                break
        elif elapsed + elapsed / out.passes > seconds * 1e9:
            break
    out.wall_ns = time.perf_counter_ns() - start
    return out


def check_source():
    if not (SRC / "spflag" / "__init__.py").is_file():
        sys.exit(f"perfbench: no spflag sources under {SRC}")
    sys.path.insert(0, str(SRC))


def setup(workload, seed):
    """Import spflag and make the workload's inputs; returns (seconds, jobs)."""
    t0 = time.perf_counter()
    import spflag
    import workloads
    jobs = workloads.build(workload, seed)
    elapsed = time.perf_counter() - t0
    if Path(spflag.__file__).resolve().parent != (SRC / "spflag").resolve():
        sys.exit(f"perfbench: imported spflag from {spflag.__file__}, not {SRC}")
    return elapsed, jobs


def setup_in_subprocess(workload, seed):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
    return float(done.stdout.split()[-1])


def metric(value, unit):
    return {"value": value, "unit": unit}


def report_untraced(args, setup_samples, res):
    per_pass = res.attempted // res.passes
    times = [ns / 1e9 for ns in res.times_ns]
    p50 = percentile(times, 0.5)
    q = tail_quantile(per_pass)
    tail = percentile(times, q)
    wall = res.wall_ns / 1e9
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    n = len(times)
    lines = [
        f"workload {args.workload}  seed {args.seed}  passes {res.passes}  "
        f"jobs {res.attempted} ({per_pass} a pass)  wall {wall:.3f} s",
        "pass times " + " ".join(f"{ns / 1e9:.3f}" for ns in res.pass_ns) + " s",
        f"setup_s      {statistics.median(setup_samples):.4f} s     "
        f"median of {len(setup_samples)} set-ups",
        f"jobs_per_s   {res.ok / wall:.4f} 1/s   {res.ok} correct jobs in {wall:.3f} s",
        f"job_p50_s    {p50:.4f} s     n={n}, {beyond(times, p50)} beyond",
        f"job_tail_s   {tail:.4f} s     p{round(q * 100)}, n={n}, {beyond(times, tail)} beyond",
        f"peak_rss_mb  {rss_mb:.1f} MB",
        f"failed_frac  {res.failed_frac:.4f}      "
        f"{res.attempted - res.ok} of {res.attempted} attempted",
        f"ok_frac      {res.ok / res.attempted:.4f}      "
        f"{res.ok} of {res.attempted} attempted",
    ]
    metrics = {
        "setup_s": metric(statistics.median(setup_samples), "s"),
        "jobs_per_s": metric(res.ok / wall, "1/s"),
        "job_p50_s": metric(p50, "s"),
        "job_tail_s": metric(tail, "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
        "ok_frac": metric(res.ok / res.attempted, "ratio"),
    }
    return lines, metrics


def report_traced(args, plain, traced, rec, wall_ns):
    own = rec.self_times()
    covered = rec.covered_ns()
    problems = []
    if sum(own) != covered or covered > wall_ns:
        problems.append("self times do not add up to the traced wall time")
    if plain.reasons != traced.reasons:
        problems.append("traced results differ from untraced results")
    layer = spans.layer_metrics(rec, traced.wall_ns, plain.wall_ns)
    lines = [
        f"workload {args.workload}  seed {args.seed}  jobs {traced.attempted}  "
        f"untraced pass {plain.wall_ns / 1e9:.3f} s  traced pass {traced.wall_ns / 1e9:.3f} s",
        f"traced set-up and pass {wall_ns / 1e9:.6f} s = self times of {len(own)} spans "
        f"{sum(own) / 1e9:.6f} s + uncovered {(wall_ns - covered) / 1e9:.6f} s",
        f"failed_frac  untraced {plain.failed_frac:.4f}  traced {traced.failed_frac:.4f}",
    ]
    lines += [f"{name:<48} {value:.6g} {unit}" for name, (value, unit) in layer.items()]
    metrics = {name: metric(value, unit) for name, (value, unit) in layer.items()}
    return lines, metrics, problems


def traced_run(args, jobs):
    """One untraced pass, then set-up and the same pass under the recorder."""
    import workloads
    plain = run_phase(jobs, args.seconds, passes=1)
    rec = spans.Recorder()
    restore = spans.install(rec, extra_modules=[("bench", workloads)])
    try:
        start = time.perf_counter_ns()
        idx = rec.open("bench.setup", "bench")
        try:
            jobs = workloads.build(args.workload, args.seed,
                                   out_bytes=lambda n: rec.count("cli.out_bytes", n))
        finally:
            rec.close(idx)
        traced = run_phase(jobs, args.seconds, passes=1, rec=rec)
        wall_ns = time.perf_counter_ns() - start
    finally:
        restore()
    SPANS_DIR.mkdir(exist_ok=True)
    rec.write(SPANS_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
    lines, metrics, problems = report_traced(args, plain, traced, rec, wall_ns)
    return traced, lines, metrics, problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=60)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    check_source()

    first_setup, jobs = setup(args.workload, args.seed)
    if args.setup_only:
        print(repr(first_setup))
        return 0

    if args.trace:
        res, lines, metrics, problems = traced_run(args, jobs)
    else:
        res = run_phase(jobs, args.seconds)
        samples = [first_setup] + [setup_in_subprocess(args.workload, args.seed)
                                   for _ in range(SETUP_SAMPLES - 1)]
        lines, metrics = report_untraced(args, samples, res)
        problems = []

    for label, reason, known in zip(res.labels, res.reasons, res.known):
        if reason is not None:
            kind = "known defect" if known else "FAILED"
            lines.append(f"{kind}: {label}: {reason}")
    lines += [f"problem: {p}" for p in problems]
    print("\n".join(lines))
    result = {
        "correct": res.unexpected == 0 and not problems,
        "attempted": res.attempted,
        "failed": res.unexpected,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
