"""Self-tests for the benchmark's own arithmetic.

    python3 -m pytest perfbench -q

They cover percentiles and their sample counts, self time on nested and
sibling spans, the span recorder's install/restore, and failed_frac when a
job returns a wrong answer.
"""
from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_percentile_interpolates_between_ranks():
    xs = list(range(1, 11))
    assert run.percentile(xs, 0.5) == 5.5
    assert run.percentile(xs, 0.9) == pytest.approx(9.1)
    assert run.percentile(xs, 0.0) == 1
    assert run.percentile(xs, 1.0) == 10
    assert run.percentile([3.0], 0.9) == 3.0
    assert run.percentile([5, 1, 3], 0.5) == 3
    with pytest.raises(ValueError):
        run.percentile([], 0.5)


def test_sample_counts_beyond_a_percentile():
    xs = list(range(1, 101))
    assert run.beyond(xs, run.percentile(xs, 0.9)) == 10
    assert run.beyond(xs, run.percentile(xs, 0.5)) == 50
    small = list(range(1, 12))
    assert run.beyond(small, run.percentile(small, 0.9)) == 1


def test_tail_quantile_leaves_ten_jobs_beyond():
    assert run.tail_quantile(128) == 0.9
    assert run.tail_quantile(100) == 0.9
    assert run.tail_quantile(99) == 0.9
    assert run.tail_quantile(91) == 0.75
    assert run.tail_quantile(56) == 0.75
    assert run.tail_quantile(13) == 0.5
    assert run.tail_quantile(10) == 0.5
    for n in (41, 56, 100, 128):
        xs = list(range(n))
        assert run.beyond(xs, run.percentile(xs, run.tail_quantile(n))) >= 10


def test_a_run_has_at_least_one_pass():
    res = run.run_phase([workloads.Job("x", lambda: None)], 0)
    assert (res.passes, res.attempted, res.ok) == (1, 1, 1)


def _recorder(spans_ns):
    """A recorder filled with (name, start, end, parent) spans."""
    rec = spans.Recorder()
    for name, start, end, parent in spans_ns:
        rec.names.append(name)
        rec.callers.append("test")
        rec.starts.append(start)
        rec.ends.append(end)
        rec.parents.append(parent)
        rec.jobs.append(0)
    return rec


def test_self_time_of_nested_and_sibling_spans():
    rec = _recorder([
        ("job", 0, 100, -1),
        ("a", 10, 40, 0),
        ("a.inner", 20, 30, 1),
        ("b", 50, 90, 0),
        ("job", 120, 150, -1),
    ])
    assert rec.self_times() == [30, 20, 10, 40, 30]
    assert rec.covered_ns() == 130
    # self times plus the uncovered gap add up to the wall time
    wall = 160
    assert sum(rec.self_times()) + (wall - rec.covered_ns()) == wall


def test_child_escaping_its_parent_is_refused():
    rec = _recorder([("job", 0, 10, -1), ("late", 5, 12, 0)])
    with pytest.raises(RuntimeError):
        rec.self_times()


def test_install_records_spans_and_restore_undoes_it():
    from spflag import exact, tanaka
    original = exact.kernel_basis
    rec = spans.Recorder()
    restore = spans.install(rec)
    try:
        assert tanaka.kernel_basis is not original
        basis = exact.kernel_basis(((1, 2), (2, 4)))
        exact.rank(((1, 0), (0, 1)))
    finally:
        restore()
    assert exact.kernel_basis is original and tanaka.kernel_basis is original
    assert len(basis) == 1
    assert rec.names.count("exact.kernel_basis") >= 1
    assert "exact.rank" in rec.names
    assert rec.counters["exact.kernel_basis.cells"] >= 4
    assert rec.maxima["exact.kernel_basis.max_bits"] == 3
    own = rec.self_times()
    assert sum(own) == rec.covered_ns()
    metrics = spans.layer_metrics(rec, 110, 100)
    assert metrics["trace.overhead_frac"][0] == pytest.approx(0.1)
    assert metrics["exact.kernel_basis.calls"][0] == rec.names.count("exact.kernel_basis")


def test_matrix_sizes():
    from fractions import Fraction
    cells, nnz, bits = spans.matrix_sizes([[Fraction(0), Fraction(5, 16)], [1, 0]])
    assert (cells, nnz, bits) == (4, 2, 5)


def test_failed_frac_counts_an_injected_wrong_answer(monkeypatch):
    syms = [workloads.parse_symbol(t) for t in ("D(1,2)", "R(5/2)", "D(2,3)", "R(3/2)")]
    jobs = [workloads.Job(str(i), workloads._sweep_job(s)) for i, s in enumerate(syms)]
    res = run.run_phase(jobs, 0, passes=1)
    assert (res.attempted, res.ok, res.unexpected, res.failed_frac) == (4, 4, 0, 0.0)

    real = workloads.decompose_azp

    def wrong_for_first(x):
        dec = real(x)
        if x.symbol == syms[0]:
            dec = dataclasses.replace(dec, p=dec.z)
        return dec

    monkeypatch.setattr(workloads, "decompose_azp", wrong_for_first)
    res = run.run_phase(jobs, 0, passes=1)
    assert (res.attempted, res.ok, res.unexpected) == (4, 3, 1)
    assert res.failed_frac == 0.25
    assert "formula" in res.reasons[0]


def test_known_defect_counts_as_failed_but_not_unexpected():
    def defect():
        return workloads.KNOWN_DEFECT

    def other():
        return "exit 1"

    jobs = [workloads.Job("d", defect, workloads.KNOWN_DEFECT),
            workloads.Job("o", other, workloads.KNOWN_DEFECT),
            workloads.Job("ok", lambda: None)]
    res = run.run_phase(jobs, 0, passes=1)
    assert res.failed_frac == pytest.approx(2 / 3)
    assert res.known == [True, False, False]
    assert res.unexpected == 1


def test_a_job_that_raises_is_a_failed_job():
    def boom():
        raise ValueError("no")

    res = run.run_phase([workloads.Job("boom", boom)], 0, passes=1)
    assert res.unexpected == 1
    assert res.reasons[0] == "raised ValueError: no"


def test_verify_report_checks_reject_wrong_layers():
    argv = ("verify", "--spec", "D(3,4)", "--kmax", "2", "--json")
    entry = {"k": 1, "dim_layer": 1, "dim_p": 1, "dim_l": 1, "dim_ideal": 1,
             "p_equals_l": True, "layer_equals_p": True, "ideal_equals_p": True,
             "layer_faithful": True}
    report = {"passes": {"standard_equality": True}, "layers": [entry]}
    assert workloads._check_report(argv, report) is None
    report["layers"] = [dict(entry, dim_p=2)]
    assert "acceptance 05" in workloads._check_report(argv, report)
    report["passes"] = {"row_secant_inclusion": False}
    assert workloads._check_report(argv, report) == "row_secant_inclusion FAIL"


def test_draws_repeat_for_a_seed():
    assert workloads.verify_argvs(3) == workloads.verify_argvs(3)
    assert [j.label for j in workloads.sweep(3)] == [j.label for j in workloads.sweep(3)]
    for name in run.WORKLOADS:
        labels = [j.label for j in workloads.build(name, 3)]
        assert labels == [j.label for j in workloads.build(name, 3)]
    # on algebra the seed moves the curves and the order, not the job set
    assert (sorted(j.label for j in workloads.build("algebra", 3))
            == sorted(j.label for j in workloads.build("algebra", 4)))


def test_every_recorded_report_is_used():
    used = {workloads.golden_name(argv) for argv in workloads.golden_argvs()}
    assert {p.name for p in workloads.GOLDEN.glob("*.json")} == used


def test_extract_symbols_come_from_the_acceptance_pool():
    from spflag.symbols import rows_of
    for name in workloads.EXTRACT_SYMBOLS:
        sym = workloads.parse_symbol(name)
        assert workloads.render_symbol(sym) == name
        assert workloads.is_finite_type(sym)
        assert sum(r.length for r in rows_of(sym)) <= 14
