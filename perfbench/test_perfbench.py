"""Smoke tests for the benchmark: every workload at a tiny size passes its
checks, and the tracer attributes time correctly.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import layers  # noqa: E402
import workloads as W  # noqa: E402
from motion_forge import prefix_loop  # noqa: E402
from tracer import Target, Tracer  # noqa: E402


def tiny(name: str, tmp_path: Path):
    if name == "prefix-long":
        return W.PrefixLong(3, horizon_s=4.0)
    if name == "curriculum-2k":
        return W.Curriculum2k(3, files=200, iters=300)
    if name == "dataset-pass":
        return W.DatasetPass(3, tmp_path, clip_seconds=(1.0, 2.0), samples=2000)
    return W.MoeGen(3, steps=2, records=40, frames=16, tokens=2)


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_workload_passes_its_checks(name, tmp_path):
    wl = tiny(name, tmp_path)
    wl.warm_up()
    first = wl.run_pass()
    assert first.failures == []
    assert first.ops == wl.ops_per_pass
    assert first.seconds > 0 and first.latencies and all(t >= 0 for t in first.latencies)
    again = wl.run_pass()
    assert again.digest == first.digest
    assert W.compare_reference(first.summary, again.summary) == []


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_traced_pass_matches_untraced(name, tmp_path):
    wl = tiny(name, tmp_path)
    plain = wl.run_pass()
    tracer = Tracer()
    tracer.install(layers.TARGETS)
    try:
        traced = wl.run_pass(tracer.wrap)
    finally:
        tracer.uninstall()
    assert traced.failures == [] and traced.digest == plain.digest
    assert tracer.missing == []
    ctx = layers.Context(tracer, traced.outputs, 1, 1.0)
    values, skipped = layers.layer_metrics(ctx)
    assert skipped == [] and set(values) == {m.name for m in layers.METRICS}


def _spin(seconds: float) -> None:
    end = perf_counter() + seconds
    while perf_counter() < end:
        pass


def test_self_time_excludes_traced_children():
    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda: _spin(0.002), hot=True)
    inner = tracer.wrap("inner", lambda: (_spin(0.01), leaf(), leaf()))
    outer = tracer.wrap("outer", lambda: (_spin(0.01), inner(), leaf()))
    outer()
    st = tracer.stats
    assert [st[k].calls for k in ("outer", "inner", "leaf")] == [1, 1, 3]
    # exclusive times partition the root's inclusive time exactly
    assert sum(s.self_ns for s in st.values()) == st["outer"].total_ns
    assert st["leaf"].self_ns == st["leaf"].total_ns >= 3 * 0.002e9
    assert 0.01e9 <= st["inner"].self_ns <= st["inner"].total_ns - 2 * 0.002e9
    assert 0.01e9 <= st["outer"].self_ns <= st["outer"].total_ns - st["inner"].total_ns - 0.002e9
    # hot calls leave no span; the inner span's parent is the outer span
    spans = tracer.span_records()
    assert [s["name"] for s in spans] == ["outer", "inner"]
    assert spans[0]["parent"] is None and spans[1]["parent"] == 0
    assert spans[0]["start_ns"] <= spans[1]["start_ns"] <= spans[1]["end_ns"] <= spans[0]["end_ns"]


def test_install_patches_every_holder_and_uninstall_restores():
    original = prefix_loop.features_to_motion
    tracer = Tracer()
    tracer.install([Target("f2m", "prefix_loop", "features_to_motion", hot=False)])
    assert prefix_loop.features_to_motion is not original
    tracer.uninstall()
    assert prefix_loop.features_to_motion is original


def test_renamed_function_is_missing_not_zero():
    tracer = Tracer()
    gone = Target("features.features_to_motion", "prefix_loop", "no_such_function", hot=False)
    tracer.install([gone])
    tracer.uninstall()
    assert tracer.missing == ["features.features_to_motion"]
    values, skipped = layers.layer_metrics(layers.Context(tracer, {}, 1, 1.0))
    assert "features.frames_decoded" in skipped and "features.frames_decoded" not in values
    assert "prefix_loop.attempts" in values


def test_reference_comparison_flags_changed_counts_and_floats():
    ref = {"attempts": 80, "features_sum": 1.5, "mass": [0.25, 0.75]}
    assert W.compare_reference(ref, {"attempts": 80, "features_sum": 1.5 + 1e-12,
                                     "mass": [0.25, 0.75]}) == []
    bad = W.compare_reference(ref, {"attempts": 81, "features_sum": 1.6, "mass": [0.25]})
    assert len(bad) == 3


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in layers.METRICS]
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "ops_per_s", "op_ms_p50", "op_ms_p90", "peak_rss_mb"}
