"""In-memory span recorder and the timing shims a traced run installs.

A traced run wraps the public entry points of each layer of the program with
:meth:`Tracer.wrap`, patched where the caller looks the name up (a module
attribute read at call time, or a method on its class), so nothing under
``src/`` changes.  Spans stay in memory; a layer's self time is its span's
duration minus the time of the spans nested inside it on the same thread.

Span timestamps come from :func:`time.perf_counter_ns`, which on Linux reads
``CLOCK_MONOTONIC`` — one clock for every process on the host, so the spans a
traced server dumps can be cut to the client's timed window.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional

import numpy as np

# A span is a list [name, start_ns, end_ns, self_ns, top_level, counts];
# counts is a small dict of work counts (or None) summed per span name.
NAME, START, END, SELF, TOP, COUNTS = range(6)

#: prefix of the stdout line on which a traced server prints its spans.
SPANS_MARK = "E2EBENCH_SPANS "


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self):
        self.spans: List[list] = []
        self._local = threading.local()

    def wrap(self, name: str, fn: Callable,
             count: Optional[Callable] = None) -> Callable:
        """Return ``fn`` wrapped to record a span called ``name``.

        ``count(args, result)``, when given, returns a dict of work counts
        for the call; it runs after the span closes, so its cost shows only
        as tracing overhead.
        """
        spans = self.spans
        local = self._local

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            children = [0]
            stack.append(children)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                if stack:
                    stack[-1][0] += end - start
                span = [name, start, end, end - start - children[0],
                        not stack, None]
                spans.append(span)
            if count is not None:
                span[COUNTS] = count(args, result)
            return result

        traced.__wrapped__ = fn
        return traced


# -- work counts computed from argument shapes ---------------------------

def _conv_counts(args, result) -> Dict[str, int]:
    x, weight = args[0], args[1]
    out = result[0]
    rows = out.shape[0] * out.shape[2] * out.shape[3]
    depth = x.shape[1] * weight.shape[2] * weight.shape[3]
    cols = weight.shape[0]
    return {"macs": rows * depth * cols,
            "bytes": 4 * (rows * depth + depth * cols + rows * cols)}


def _linear_counts(args, result) -> Dict[str, int]:
    x, weight = args[0], args[1]
    rows, depth, cols = x.shape[0], x.shape[1], weight.shape[0]
    return {"macs": rows * depth * cols,
            "bytes": 4 * (rows * depth + depth * cols + rows * cols)}


def _int_gemm_counts(args, result) -> Dict[str, int]:
    a, b = args[0], args[1]
    return {"macs": a.shape[0] * a.shape[1] * b.shape[1]}


def _apply_counts(args, result) -> Dict[str, int]:
    # BitErrorInjector.apply adds exactly this to stats["values_loaded"].
    return {"values": int(np.asarray(args[1]).size)}


def _decode_counts(args, result) -> Dict[str, int]:
    report = result[1].as_dict()
    return {"codewords": report["codewords"],
            "corrected": report["corrected_codewords"],
            "uncorrectable": report["uncorrectable_codewords"]}


def _forward_counts(args, result) -> Dict[str, int]:
    out = np.asarray(result)
    finite = np.isfinite(out.reshape(len(out), -1)).all(axis=1)
    return {"nonfinite": int(len(out) - finite.sum())}


def _predict_counts(args, result) -> Dict[str, int]:
    return {"rows": len(args[1])}


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer entry point the benchmark traces; return the undo."""
    from repro.core import ecc
    from repro.dram import error_models, injection
    from repro.engine import session
    from repro.nn import functional, integer, network
    from repro.serve import server

    patches = []

    def patch(owner, attr: str, name: str, count=None) -> None:
        original = owner.__dict__[attr]
        setattr(owner, attr, tracer.wrap(name, original, count))
        patches.append((owner, attr, original))

    patch(injection.BitErrorInjector, "apply", "dram.apply", _apply_counts)
    for value in list(vars(error_models).values()):
        if isinstance(value, type) and "flip_word_mask" in value.__dict__:
            patch(value, "flip_word_mask", "dram.flip_mask")
    patch(ecc.RsCodecModel, "correct_words", "ecc.decode", _decode_counts)
    # FP32 kernels: layers call F.<kernel>; conv and pool call im2col as a
    # module global.
    patch(functional, "im2col", "nn.im2col")
    patch(functional, "conv2d_forward", "nn.conv", _conv_counts)
    patch(functional, "linear_forward", "nn.linear", _linear_counts)
    patch(functional, "max_pool2d_forward", "nn.pool")
    patch(network.Network, "forward", "nn.forward", _forward_counts)
    # Integer kernels: repro.engine.quantized calls them as IK.<kernel>
    # (IK is repro.nn.integer), and the fused conv/linear kernels call their
    # helpers as module globals of repro.nn.integer.
    patch(integer, "im2col_codes", "int.im2col")
    patch(integer, "exact_matmul", "int.gemm", _int_gemm_counts)
    patch(integer, "quantize_activations", "int.requant")
    patch(integer, "max_pool2d_infer", "int.pool")
    patch(session.InferenceSession, "materialize", "engine.materialize")
    patch(session.InferenceSession, "evaluate", "engine.evaluate")
    patch(session.InferenceSession, "predict", "engine.predict",
          _predict_counts)
    patch(server, "encode_rows", "serve.encode")

    def undo() -> None:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
    return undo


def capture_server_latency(local: threading.local) -> Callable[[], None]:
    """Make the repo's HTTP client keep each response's ``latency_ms``.

    ``HttpTarget.predict`` returns a record without the server-side latency
    the response carries; this wraps the one exchange method it calls so the
    latest value lands on ``local.server_ms`` of the calling thread.  Returns
    the undo.
    """
    from repro.serve.loadgen import HttpTarget

    original = HttpTarget.__dict__["_request"]

    def request(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        payload = result["payload"]
        local.server_ms = (payload.get("latency_ms")
                           if isinstance(payload, dict) else None)
        return result

    HttpTarget._request = request

    def undo() -> None:
        HttpTarget._request = original
    return undo


# -- aggregation ------------------------------------------------------------

def summarize(spans: List[list], start_ns: int = 0,
              end_ns: Optional[int] = None) -> Dict[str, Dict]:
    """Per span name: calls, self seconds, summed counts and durations.

    Only spans inside ``[start_ns, end_ns]`` count.  The ``"top_s"`` entry
    of the result holds the summed duration of top-level spans — the time
    the trace accounts for.
    """
    summary: Dict[str, Dict] = {}
    top_ns = 0
    for span in spans:
        if span[START] < start_ns or (end_ns is not None
                                      and span[END] > end_ns):
            continue
        entry = summary.setdefault(span[NAME], {"calls": 0, "self_s": 0.0,
                                                "counts": {},
                                                "durations_s": []})
        entry["calls"] += 1
        entry["self_s"] += span[SELF] / 1e9
        entry["durations_s"].append((span[END] - span[START]) / 1e9)
        for key, value in (span[COUNTS] or {}).items():
            entry["counts"][key] = entry["counts"].get(key, 0) + value
        if span[TOP]:
            top_ns += span[END] - span[START]
    return {"layers": summary, "top_s": top_ns / 1e9}


def layer_metrics(summary: Dict, scale: float = 1.0) -> Dict[str, float]:
    """The per-layer metrics derived from span data, divided by ``scale``.

    ``scale`` is the number of units of work the spans cover (one traced
    grid sweep gives 1); ratios are not scaled.  Layers that did no work
    report 0.
    """
    layers = summary["layers"]

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    def self_s(name):
        return layers.get(name, {}).get("self_s", 0.0)

    def count(name, key):
        return layers.get(name, {}).get("counts", {}).get(key, 0)

    corrected = count("ecc.decode", "corrected")
    uncorrectable = count("ecc.decode", "uncorrectable")
    predict_calls = calls("engine.predict")
    raw = {
        "dram.apply_calls": calls("dram.apply"),
        "dram.apply_s": self_s("dram.apply"),
        "dram.flip_mask_s": self_s("dram.flip_mask"),
        "dram.values_loaded": count("dram.apply", "values"),
        "ecc.decode_calls": calls("ecc.decode"),
        "ecc.decode_s": self_s("ecc.decode"),
        "ecc.codewords": count("ecc.decode", "codewords"),
        "ecc.corrected_codewords": corrected,
        "ecc.uncorrectable_codewords": uncorrectable,
        "nn.im2col_s": self_s("nn.im2col"),
        "nn.conv_s": self_s("nn.conv"),
        "nn.linear_s": self_s("nn.linear"),
        "nn.pool_s": self_s("nn.pool"),
        "nn.gemm_macs": count("nn.conv", "macs") + count("nn.linear", "macs"),
        "nn.gemm_bytes": (count("nn.conv", "bytes")
                          + count("nn.linear", "bytes")),
        "int.im2col_s": self_s("int.im2col"),
        "int.gemm_s": self_s("int.gemm"),
        "int.requant_s": self_s("int.requant"),
        "int.pool_s": self_s("int.pool"),
        "int.gemm_macs": count("int.gemm", "macs"),
        "engine.materialize_s": self_s("engine.materialize"),
        "engine.evaluate_s": self_s("engine.evaluate"),
        "engine.predict_s": self_s("engine.predict"),
        "engine.predict_calls": predict_calls,
        "engine.nonfinite_rows": count("nn.forward", "nonfinite"),
        "serve.encode_s": self_s("serve.encode"),
    }
    metrics = {name: value / scale for name, value in raw.items()}
    metrics["ecc.useful_ratio"] = (corrected / (corrected + uncorrectable)
                                   if corrected + uncorrectable else 0.0)
    metrics["engine.rows_per_predict"] = (
        count("engine.predict", "rows") / predict_calls
        if predict_calls else 0.0)
    return metrics
