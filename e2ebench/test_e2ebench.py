"""Tests of the benchmark itself: ``python -m pytest -q e2ebench``.

The in-process tests take seconds; the two that run ``run.py`` end to end
take about a minute together.
"""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from common import ROOT, SRC

sys.path.insert(0, SRC)

import run  # noqa: E402
import serving  # noqa: E402
import sweeps  # noqa: E402
import tracing  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _run(workload, seed, seconds, trace):
    completed = subprocess.run(
        [sys.executable, os.path.join(ROOT, "e2ebench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, completed.stderr[-3000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_metric_names_and_benchmark_json_agree():
    for name in list(run.END_TO_END) + list(run.PER_LAYER):
        assert NAME.fullmatch(name), name
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert all(w["why"].strip() for w in spec["workloads"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_self_time_excludes_nested_spans():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    summary = tracing.summarize(tracer.spans)
    layers = summary["layers"]
    assert layers["inner"]["calls"] == 3
    outer_span = [s for s in tracer.spans if s[tracing.NAME] == "outer"][0]
    duration = (outer_span[tracing.END] - outer_span[tracing.START]) / 1e9
    assert layers["outer"]["self_s"] == pytest.approx(
        duration - sum(layers["inner"]["durations_s"]), abs=1e-9)
    assert summary["top_s"] == pytest.approx(duration, abs=1e-9)


def test_seed_changes_request_plan():
    first = serving.request_plan(0, 256, 10.0)
    again = serving.request_plan(0, 256, 10.0)
    other = serving.request_plan(1, 256, 10.0)
    for a, b, c in zip(first, again, other):
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
    assert len(first.open_offsets) == 10 * serving.OPEN_RATE
    assert 9.0 < first.open_offsets[-1] < 11.0


def test_seed_changes_injection_streams():
    runner = _untrained_runner()
    try:
        assert (sweeps.sweep("char-sweep", runner, 0)
                == sweeps.sweep("char-sweep", runner, 0))
        assert (sweeps.sweep("char-sweep", runner, 0)
                != sweeps.sweep("char-sweep", runner, 1))
    finally:
        runner.close()


def _untrained_runner():
    from repro.analysis.runner import ExperimentRunner
    from repro.engine.session import ReadSemantics
    from repro.nn.models import build_model_with_dataset

    network, dataset, spec = build_model_with_dataset("lenet", seed=0)
    network.eval()
    return ExperimentRunner(network, dataset, metric=spec.metric, seed=0,
                            repeats=sweeps.REPEATS,
                            semantics=ReadSemantics.STATIC_STORE)


def test_shims_change_no_sweep_output_and_undo_cleanly():
    from repro.dram.injection import BitErrorInjector

    original = BitErrorInjector.__dict__["apply"]
    runner = _untrained_runner()
    try:
        plain = sweeps.sweep("ecc-sweep", runner, 3)
        tracer = tracing.Tracer()
        undo = tracing.install(tracer)
        try:
            traced = sweeps.sweep("ecc-sweep", runner, 3)
        finally:
            undo()
    finally:
        runner.close()
    assert traced == plain
    assert BitErrorInjector.__dict__["apply"] is original
    metrics = tracing.layer_metrics(tracing.summarize(tracer.spans))
    for name in ("dram.apply_calls", "ecc.decode_calls", "ecc.codewords",
                 "nn.gemm_macs", "engine.evaluate_s"):
        assert metrics[name] > 0, name
    assert metrics["int.gemm_macs"] == 0
    assert metrics["ecc.codewords"] == sum(point[2] for point in traced)


def test_shims_change_no_served_bytes():
    from repro.serve.bench import build_serving_gateway

    gateway, session, dataset = build_serving_gateway(
        "lenet", ber=serving.BER, seed=0, max_batch=serving.MAX_BATCH,
        dtype="int8")
    try:
        inputs = dataset.val_x[:40]
        plain = session.predict(inputs, pad_to=serving.MAX_BATCH)
        tracer = tracing.Tracer()
        undo = tracing.install(tracer)
        try:
            traced = session.predict(inputs, pad_to=serving.MAX_BATCH)
        finally:
            undo()
    finally:
        gateway.close()
    assert traced.tobytes() == plain.tobytes()
    metrics = tracing.layer_metrics(tracing.summarize(tracer.spans))
    assert metrics["int.gemm_macs"] > 0
    assert metrics["engine.predict_calls"] == 1
    assert metrics["nn.gemm_macs"] == 0


def test_other_seed_same_end_to_end_metric_set():
    first = _run("char-sweep", 1, 0.1, 0)
    second = _run("char-sweep", 2, 0.1, 0)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == set(run.END_TO_END)
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_http_run_matches_untraced_bytes():
    # The traced run byte-checks the untraced and the traced server against
    # one in-process reference, so "correct" means identical outputs.
    result = _run("http-serve", 4, 2, 1)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.PER_LAYER)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["int.gemm_macs"] > 0 and metrics["nn.gemm_macs"] == 0
    assert 0 < metrics["trace.coverage"] <= 1
