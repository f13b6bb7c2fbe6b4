"""The ``http-serve`` workload: int8 LeNet behind ``repro.cli serve``.

The server runs as its own process.  One client process drives it through
the repo's own client, :class:`repro.serve.loadgen.HttpTarget`, with
``CLIENTS`` threads, each holding one keep-alive connection, and sends
single-row requests in two timed phases after a warm-up:

* an open loop of Poisson arrivals at ``OPEN_RATE`` requests/s, each request
  timed from the moment it was due, so a stall also delays the requests
  queued behind it;
* a closed loop in which every connection sends its next request as soon as
  the previous one returns.

Every 200 response is compared byte for byte, after the timed window, with
``session.predict(samples, pad_to=16)`` of a session built in process from
the same seed and settings.
"""

from __future__ import annotations

import collections
import http.client
import json
import os
import queue
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import List, NamedTuple, Optional

import numpy as np

from common import (HERE, ROOT, SRC, Outcome, peak_rss_mb, percentile,
                    tail_q)
import tracing

MODEL = "lenet"
BER = 1e-3
EPOCHS = 2
MAX_BATCH = 16
SERVER_ARGS = ["serve", "--model", MODEL, "--dtype", "int8",
               "--ber", str(BER), "--epochs", str(EPOCHS),
               "--max-batch", str(MAX_BATCH), "--queue-depth", "64",
               "--port", "0"]
#: client threads = keep-alive connections; no more than the host's 2 CPUs.
CLIENTS = 2
#: well under the ~200 requests/s the closed loop reaches, so a host that
#: slows down by half still keeps up; at 100 requests/s such slow spells
#: built a backlog and p50 read 0.5-0.8 s instead of ~9 ms.
OPEN_RATE = 50.0
WARMUP_REQUESTS = 200
SETUPS = 3
#: requests per second of --seconds in the fixed-size closed loop of a
#: traced run (fixed so per-layer totals compare across versions).
TRACED_CLOSED_RATE = 150
START_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 60.0


class Sample(NamedTuple):
    """One request: plan row, client record, due/sent/done clock readings."""

    row: int
    record: object
    due: float
    sent: float
    done: float
    server_ms: Optional[float]


class Plan(NamedTuple):
    """The request plan of one seed: which row each request sends, when."""

    warmup_rows: np.ndarray
    open_offsets: np.ndarray
    open_rows: np.ndarray
    closed_rows: np.ndarray


def request_plan(seed: int, rows: int, open_seconds: float) -> Plan:
    """Rows and Poisson arrival offsets for every phase, from ``seed``."""
    rng = np.random.default_rng([seed, 1])
    count = max(1, int(round(OPEN_RATE * open_seconds)))
    return Plan(warmup_rows=rng.integers(0, rows, WARMUP_REQUESTS),
                open_offsets=np.cumsum(rng.exponential(1.0 / OPEN_RATE,
                                                       count)),
                open_rows=rng.integers(0, rows, count),
                closed_rows=rng.integers(0, rows, 1 << 16))


class Server:
    """One ``repro.cli serve`` process, from spawn to drained exit.

    ``traced`` starts it through ``traced_server.py``, which installs the
    timing shims first and prints its spans when the server exits.
    ``setup_s`` runs from spawn to the first healthy ``/healthz``.
    """

    def __init__(self, seed: int, traced: bool = False):
        from repro.serve.loadgen import HttpTarget

        entry = ([os.path.join(HERE, "traced_server.py")] if traced
                 else ["-m", "repro.cli"])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-u", *entry, *SERVER_ARGS, "--seed", str(seed)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        self.stdout: "queue.Queue[Optional[str]]" = queue.Queue()
        self.stderr_tail: collections.deque = collections.deque(maxlen=40)
        self._readers = [
            threading.Thread(target=self._pump,
                             args=(self.process.stdout, self.stdout.put),
                             daemon=True),
            threading.Thread(target=self._pump,
                             args=(self.process.stderr,
                                   self.stderr_tail.append),
                             daemon=True),
        ]
        for reader in self._readers:
            reader.start()
        try:
            self.url = self._wait_for_url(started + START_TIMEOUT_S)
            self.target = HttpTarget(self.url)
            self._wait_until_healthy(started + START_TIMEOUT_S)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    @staticmethod
    def _pump(stream, sink) -> None:
        for line in stream:
            sink(line.rstrip("\n"))
        sink(None)

    def _failure(self, what: str) -> RuntimeError:
        tail = "\n".join(line for line in self.stderr_tail if line)
        return RuntimeError(f"server {what}; stderr tail:\n{tail}")

    def _wait_for_url(self, deadline: float) -> str:
        while True:
            try:
                line = self.stdout.get(
                    timeout=max(deadline - time.perf_counter(), 0.0))
            except queue.Empty:
                raise self._failure("printed no URL in time") from None
            if line is None:
                raise self._failure("exited before serving")
            match = re.search(r" on (http://\S+)", line)
            if match:
                return match.group(1)

    def _wait_until_healthy(self, deadline: float) -> None:
        while time.perf_counter() < deadline:
            try:
                if self.target.health().get("status") == "ok":
                    return
            except (http.client.HTTPException, OSError):
                pass
            if self.process.poll() is not None:
                raise self._failure("exited before it was healthy")
            time.sleep(0.005)
        raise self._failure("was not healthy in time")

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.process.pid)

    def stop(self) -> List[str]:
        """SIGINT (the server drains), wait for exit; return stdout lines."""
        target = getattr(self, "target", None)
        if target is not None:
            target.close()
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
        try:
            self.process.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        for reader in self._readers:
            reader.join(timeout=STOP_TIMEOUT_S)
        lines = []
        while not self.stdout.empty():
            line = self.stdout.get_nowait()
            if line is not None:
                lines.append(line)
        return lines


def _drive(url: str, samples: np.ndarray, next_request, local) -> tuple:
    """Run ``CLIENTS`` threads that each send until ``next_request`` says stop.

    ``next_request()`` returns ``(row, due)`` or None; a thread sleeps until
    ``due`` before sending (a closed loop's ``due`` is None: send at once).
    Returns ``(samples, errors, wall seconds)``.
    """
    from repro.serve.loadgen import HttpTarget

    results: List[Sample] = []
    errors: List[str] = []

    def client() -> None:
        target = HttpTarget(url)
        try:
            while True:
                step = next_request()
                if step is None:
                    return
                row, due = step
                if due is not None:
                    delay = due - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                sent = time.perf_counter()
                record = target.predict(MODEL, samples[row])
                done = time.perf_counter()
                results.append(Sample(row, record,
                                      sent if due is None else due, sent,
                                      done, getattr(local, "server_ms", None)))
        except Exception as error:  # a dead client thread must not go unseen
            errors.append(repr(error))
        finally:
            target.close()

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results, errors, time.perf_counter() - started


def _sequence(rows, offsets=None, start: float = 0.0, stop_at=None):
    """Thread-safe ``next_request`` over ``rows`` (due at start + offset)."""
    lock = threading.Lock()
    position = [0]

    def next_request():
        with lock:
            index = position[0]
            position[0] += 1
        if stop_at is not None:
            if time.perf_counter() >= stop_at:
                return None
        elif index >= len(rows):
            return None
        row = int(rows[index % len(rows)])
        return row, (start + offsets[index] if offsets is not None else None)
    return next_request


def open_loop(url, samples, plan: Plan, local):
    start = time.perf_counter() + 0.01
    return _drive(url, samples,
                  _sequence(plan.open_rows, plan.open_offsets, start), local)


def closed_loop(url, samples, rows, local, seconds=None):
    stop_at = time.perf_counter() + seconds if seconds is not None else None
    return _drive(url, samples, _sequence(rows, stop_at=stop_at), local)


def _served(samples: List[Sample]) -> List[Sample]:
    return [s for s in samples if s.record.ok]


def verify(seed: int, phases, dataset, outcome: Outcome) -> float:
    """Byte-compare every timed response with in-process ``predict``.

    ``phases`` maps a label to its samples.  Counts failures (non-200 and
    mismatched bytes) into ``outcome``; returns the served accuracy.
    """
    from repro.serve.bench import build_serving_gateway

    gateway, session, reference_data = build_serving_gateway(
        MODEL, ber=BER, seed=seed, epochs=EPOCHS, max_batch=MAX_BATCH,
        dtype="int8")
    try:
        if not np.array_equal(reference_data.val_x, dataset.val_x):
            outcome.problems.append("reference dataset differs from the "
                                    "samples sent")
        reference = session.predict(dataset.val_x, pad_to=MAX_BATCH)
    finally:
        gateway.close()
    hits = total = 0
    for label, samples in phases.items():
        statuses = collections.Counter()
        mismatched = 0
        for sample in samples:
            outcome.attempted += 1
            if not sample.record.ok:
                statuses[sample.record.status] += 1
                continue
            if sample.record.row.tobytes() != reference[sample.row].tobytes():
                mismatched += 1
                continue
            total += 1
            hits += int(np.argmax(sample.record.row)
                        == dataset.val_y[sample.row])
        failed = sum(statuses.values()) + mismatched
        outcome.failed += failed
        if failed:
            outcome.problems.append(
                f"{label}: {mismatched} byte mismatches, non-200 statuses "
                f"{dict(statuses)}")
        if not samples:
            outcome.problems.append(f"{label}: no requests completed")
    return hits / total if total else 0.0


def _latencies_ms(samples: List[Sample]) -> List[float]:
    """Latency of each request from its due time (closed loop: sent).

    A request that failed counts as missing any latency limit (infinite).
    """
    return [(s.done - s.due) * 1e3 if s.record.ok else float("inf")
            for s in samples]


def _load(server: Server, samples, plan: Plan, seconds: float, local):
    """Warm-up, then the open and the closed phase; returns both phases."""
    _, errors, _ = closed_loop(server.url, samples, plan.warmup_rows, local)
    opened, open_errors, _ = open_loop(server.url, samples, plan, local)
    closed, closed_errors, closed_s = closed_loop(
        server.url, samples, plan.closed_rows, local, seconds / 2)
    return opened, closed, closed_s, errors + open_errors + closed_errors


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    """Run ``http-serve`` at ``seed`` for about ``seconds`` of timed load."""
    from repro.nn.models import build_model_with_dataset

    outcome = Outcome()
    _, dataset, _ = build_model_with_dataset(MODEL, seed=seed)
    samples = np.asarray(dataset.val_x, dtype=np.float32)
    plan = request_plan(seed, len(samples), seconds / 2)
    local = threading.local()
    if trace:
        return _run_traced(seed, seconds, samples, plan, dataset, local,
                           outcome)

    setup_times = []
    for attempt in range(SETUPS):
        server = Server(seed)
        setup_times.append(server.setup_s)
        if attempt < SETUPS - 1:
            server.stop()
    try:
        opened, closed, closed_s, errors = _load(server, samples, plan,
                                                 seconds, local)
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    outcome.problems += errors
    accuracy = verify(seed, {"open loop": opened, "closed loop": closed},
                      dataset, outcome)

    open_ms = _latencies_ms(opened)
    closed_ms = _latencies_ms(closed)
    late_ms = [(s.sent - s.due) * 1e3 for s in opened]
    closed_rps = len(_served(closed)) / closed_s
    outcome.metrics.update({
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": rss,
        "ops_per_s": closed_rps,
        "latency_p50_ms": percentile(open_ms, 50),
    })
    open_q, closed_q = tail_q(len(open_ms)), tail_q(len(closed_ms))
    outcome.info += [
        f"open loop @ {OPEN_RATE:g}/s: {len(open_ms)} samples, open_p50_ms "
        f"{percentile(open_ms, 50):.3f}, open_p{open_q}_ms "
        f"{percentile(open_ms, open_q):.3f} (from due time), generator late "
        f"p{open_q} {percentile(late_ms, open_q):.3f} ms",
        f"closed loop x{CLIENTS}: {len(closed_ms)} samples, closed_rps "
        f"{closed_rps:.1f}, closed_p50_ms {percentile(closed_ms, 50):.3f}, "
        f"closed_p{closed_q}_ms {percentile(closed_ms, closed_q):.3f}",
        f"fail_frac {outcome.failed / max(outcome.attempted, 1):.4f}, "
        f"served accuracy {accuracy:.4f}",
    ]
    return outcome


def _run_traced(seed, seconds, samples, plan, dataset, local,
                outcome: Outcome) -> Outcome:
    """Per-layer run: an untraced server for the overhead, then a traced."""
    closed_count = int(TRACED_CLOSED_RATE * seconds / 2)
    closed_rows = plan.closed_rows[:closed_count]
    undo = tracing.capture_server_latency(local)
    try:
        server = Server(seed)
        try:
            closed_loop(server.url, samples, plan.warmup_rows, local)
            untraced, errors, untraced_s = closed_loop(
                server.url, samples, closed_rows, local)
        finally:
            server.stop()
        outcome.problems += errors

        server = Server(seed, traced=True)
        try:
            closed_loop(server.url, samples, plan.warmup_rows, local)
            before = server.target.metrics()
            window_start = time.perf_counter_ns()
            opened, open_errors, _ = open_loop(server.url, samples, plan,
                                               local)
            closed, closed_errors, closed_s = closed_loop(
                server.url, samples, closed_rows, local)
            window_end = time.perf_counter_ns()
            after = server.target.metrics()
        finally:
            lines = server.stop()
        outcome.problems += open_errors + closed_errors
    finally:
        undo()
    accuracy = verify(seed, {"untraced closed loop": untraced,
                             "traced open loop": opened,
                             "traced closed loop": closed}, dataset, outcome)

    dumps = [line[len(tracing.SPANS_MARK):] for line in lines
             if line.startswith(tracing.SPANS_MARK)]
    if not dumps:
        outcome.problems.append("traced server printed no spans")
        spans = []
    else:
        spans = json.loads(dumps[-1])
    summary = tracing.summarize(spans, window_start, window_end)
    outcome.metrics.update(tracing.layer_metrics(summary))

    timed = [s for s in _served(opened) + _served(closed)
             if s.server_ms is not None]
    server_ms = [s.server_ms for s in timed]
    client_ms = [(s.done - s.sent) * 1e3 for s in timed]
    predict_ms = [d * 1e3 for d in summary["layers"].get(
        "engine.predict", {}).get("durations_s", [0.0])]
    model_before = before["models"][MODEL]
    model_after = after["models"][MODEL]
    batches = model_after["batches"] - model_before["batches"]
    rows = (model_after["mean_occupancy"] * model_after["batches"]
            - model_before["mean_occupancy"] * model_before["batches"])
    late_ms = [(s.sent - s.due) * 1e3 for s in opened]
    outcome.metrics.update({
        "serve.server_ms_p50": percentile(server_ms, 50),
        "serve.server_ms_p99": percentile(server_ms, 99),
        "serve.outside_ms_p50": percentile(
            [c - s for c, s in zip(client_ms, server_ms)], 50),
        "batcher.batches": batches,
        "batcher.mean_occupancy": rows / batches if batches else 0.0,
        "batcher.wait_ms_p50": (percentile(server_ms, 50)
                                - percentile(predict_ms, 50)),
        "serve.shed": (after["server"]["shed_total"]
                       - before["server"]["shed_total"]),
        "serve.expired": (after["server"]["expired_total"]
                          - before["server"]["expired_total"]),
        "loadgen.late_p99_ms": percentile(late_ms, 99),
        "trace.coverage": sum(server_ms) / sum(client_ms),
        "trace.overhead_frac": ((len(_served(untraced)) / untraced_s)
                                / (len(_served(closed)) / closed_s) - 1.0),
        "quality.nominal_accuracy": 0.0,
        "quality.mean_accuracy": accuracy,
        "quality.max_tolerable_ber": 0.0,
    })
    outcome.info.append(f"traced window: {len(opened)} open + {len(closed)} "
                        f"closed requests, {len(spans)} server spans")
    return outcome
