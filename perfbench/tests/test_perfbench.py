"""Tests of the benchmark itself, at smoke size.

    python3 -m pytest -q perfbench/tests
"""

import random
import shutil
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from clock import Timer  # noqa: E402
from tracer import Tracer, fglog_modules, series_mul_pairs, targets  # noqa

ROOT = run.ROOT


def smoke(name):
    return workloads.setup(name, ROOT, smoke=True)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_pass_matches_goldens(name):
    workload = smoke(name)
    phase = run.run_passes(workload, random.Random(1), inprocess=False,
                           passes=1)
    assert phase.attempted == len(workload.all_items())
    assert phase.failures == []


def test_cli_known_defect_is_reported():
    (report,) = run.known_defects(smoke("cli"))
    assert report["expected_exit"] == 2
    assert report["status"] == ("fixed" if report["exit"] == 2
                                else "still failing")


def test_cli_in_process_matches_goldens():
    workload = smoke("cli")
    phase = run.run_passes(workload, random.Random(2), inprocess=True,
                           passes=1)
    assert phase.failures == []


def _bindings():
    modules = fglog_modules()
    namespaces = list(modules.values()) + [
        modules["fglog.series"].Series, modules["fglog.hopf"].TensorElement,
        modules["fglog.hopf"].HopfElement, modules["fglog.hopf"].HopfAlgebra]
    return {(id(ns), key): value for ns in namespaces
            for key, value in vars(ns).items()}


def test_uninstall_restores_identical_objects():
    workloads.import_fglog(ROOT)
    before = _bindings()
    originals = {id(vars(owner)[attr]) for _, owner, attr in targets()}
    tracer = Tracer()
    tracer.install(fglog_modules())
    during = _bindings()
    restored = tracer.uninstall()
    after = _bindings()
    replaced = [k for k in before if before[k] is not during[k]]
    assert replaced and len(replaced) == len(restored)
    assert {id(before[k]) for k in replaced} == originals
    assert all(after[k] is before[k] for k in before)


def _traced_pass(name):
    workload = smoke(name)
    tracer = Tracer()
    tracer.install(fglog_modules())
    try:
        phase = run.run_passes(workload, random.Random(3), inprocess=True,
                               passes=1, tracer=tracer)
    finally:
        tracer.uninstall()
    assert phase.failures == []  # traced outputs equal the goldens
    return tracer, phase


@pytest.mark.parametrize("name", ["roundtrip6", "reversion", "cli"])
def test_traced_counts_repeat_exactly(name):
    first, _ = _traced_pass(name)
    second, _ = _traced_pass(name)
    assert first.counters == second.counters
    assert first.counters["series.mul.madds"] > 0
    calls = {n: c for n, (c, _) in first.by_name().items()}
    assert calls == {n: c for n, (c, _) in second.by_name().items()}


def test_top_level_spans_cover_each_operation():
    tracer, phase = _traced_pass("roundtrip6")
    for op, wall in enumerate(phase.wall_times):
        assert tracer.top_level_cover(op) >= 0.9 * wall


def test_self_times_partition_span_time():
    tracer, _ = _traced_pass("reversion")
    selfs = tracer.self_times()
    top = sum(end - start for _, _, start, end, parent, _ in tracer.spans
              if parent is None)
    overhead = sum(tracer.overhead.values())
    assert sum(selfs.values()) + overhead == pytest.approx(top, rel=1e-9)
    assert min(selfs.values()) > -1e-6


def _brute_force_pairs(f, g):
    """Pairs and multiply-adds the product loop visits, term by term."""
    cap = min(f.order + g.valuation(), g.order + f.valuation())
    alg = f.algebra
    pairs = madds = 0
    for ea, ca in f.terms.items():
        for eb, cb in g.terms.items():
            if sum(ea) + sum(eb) > cap:
                continue
            for ka in ca.terms:
                for kb in cb.terms:
                    pairs += 1
                    if (alg.key_degree(ka) + alg.key_degree(kb)
                            <= alg.degree_bound):
                        madds += 1
    return pairs, madds


def test_series_mul_pairs_match_the_product_loop():
    fg = workloads.import_fglog(ROOT)
    item = workloads.qt2_item(fg, 1, 6)
    lifted, h = item.run()
    assert series_mul_pairs(lifted, h) == _brute_force_pairs(lifted, h)
    F = fg.lemma_law(fg.builtin_algebra("qt1", degree_bound=4),
                     fg.coboundary(fg.exprparse.parse_element(
                         "t^2", fg.builtin_algebra("qt1", degree_bound=4))))
    G = F.truncate(5)
    assert series_mul_pairs(G, G * G) == _brute_force_pairs(G, G * G)


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_reports_every_declared_metric(trace):
    workload = smoke("reversion")
    args = Namespace(workload="reversion", seed=5, seconds=0.0, trace=trace)
    setup = {"corrected": [0.01], "wall": [0.01]}
    result, details = run.measure(args, workload, setup)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    e2e, layer = run.declared_metrics()
    declared = layer if trace else e2e
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert details["env"]["rational_backend"]
    if trace:
        assert result["metrics"]["trace.min_coverage"]["value"] >= 0.9


def test_timer_reports_results_and_exceptions():
    timer = Timer()
    out, wall, corrected = timer.measure(lambda: 42)
    assert out == 42 and wall > 0 and corrected > 0
    out, wall, _ = timer.measure(lambda: 1 / 0)
    assert isinstance(out, ZeroDivisionError) and wall > 0


def test_refuses_a_checkout_without_fglog(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
