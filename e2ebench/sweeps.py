"""The characterization workloads: ``char-sweep`` and ``ecc-sweep``.

Both score a LeNet trained from the seed over the same 11-point BER grid
through :class:`repro.analysis.runner.ExperimentRunner` with static-store
reads and 3 repeats, serially.  ``char-sweep`` injects FP32 single-bit
flips (Error Model 0) with no correction; ``ecc-sweep`` injects bursts
(Error Model 4) and scores raw and RS(72,64)-corrected weights at each
point, so only it runs the ECC decoder.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List, Tuple

import numpy as np

from common import Outcome, peak_rss_mb
import tracing

BERS = np.logspace(-7, -2, 11)
REPEATS = 3
EPOCHS = 2
SETUPS = 3
#: "well above chance" on 10 classes; a model below it never yields a result.
MIN_NOMINAL = 0.9
#: two epochs leave LeNet below MIN_NOMINAL for about one seed in five; the
#: run then trains a fresh model from the next derived seed.
TRAIN_ATTEMPTS = 4
TOLERANCE = 0.01
#: untraced/traced sweep pairs of a traced run.
TRACE_PAIRS = 2


def model_seed(seed: int, attempt: int) -> int:
    """Seed of the model and dataset built on training attempt ``attempt``."""
    return seed if attempt == 0 else seed + 100_003 * attempt


def set_up(seed: int, attempt: int):
    """Train LeNet for training attempt ``attempt`` and bind a runner to it.

    Returns ``(runner, nominal accuracy)``; the runner's injection streams
    start at ``seed`` whichever attempt produced the model.
    """
    from repro.analysis.runner import ExperimentRunner
    from repro.engine.session import ReadSemantics
    from repro.nn.models import build_model_with_dataset
    from repro.nn.training import Trainer

    network, dataset, spec = build_model_with_dataset(
        "lenet", seed=model_seed(seed, attempt))
    Trainer(network, dataset, spec.training_config(epochs=EPOCHS)).fit()
    network.eval()
    runner = ExperimentRunner(network, dataset, metric=spec.metric,
                              seed=seed, repeats=REPEATS,
                              semantics=ReadSemantics.STATIC_STORE)
    return runner, runner.baseline()


def trainable_attempt(seed: int) -> int:
    """First training attempt whose model reaches ``MIN_NOMINAL``.

    Returns the last attempt when none does (the run then fails its check).
    """
    for attempt in range(TRAIN_ATTEMPTS):
        runner, nominal = set_up(seed, attempt)
        runner.close()
        if nominal >= MIN_NOMINAL:
            break
    return attempt


def sweep(workload: str, runner, seed: int) -> Tuple:
    """One grid sweep; returns its outputs as a comparable tuple.

    ``char-sweep`` gives the score per point; ``ecc-sweep`` gives (raw,
    corrected, codewords, corrected codewords, uncorrectable codewords) per
    point.
    """
    from repro.dram.error_models import make_error_model

    if workload == "char-sweep":
        scores = runner.ber_sweep(make_error_model(0, BERS[0], seed=seed),
                                  BERS, bits=32)
        return tuple(scores[float(ber)] for ber in BERS)
    points = runner.ecc_sweep(make_error_model(4, BERS[0], seed=seed), BERS,
                              bits=32, correction="rs72_64")
    return tuple((p["raw"], p["corrected"], p["codewords"],
                  p["corrected_codewords"], p["uncorrectable_codewords"])
                 for p in (points[float(ber)] for ber in BERS))


def curve(workload: str, result: Tuple) -> List[float]:
    """The accuracy curve of a sweep result (corrected for ``ecc-sweep``)."""
    if workload == "char-sweep":
        return list(result)
    return [point[1] for point in result]


def max_tolerable_ber(scores: List[float], nominal: float) -> float:
    """Largest grid BER whose score stays within 1% of nominal (0 if none)."""
    tolerated = [ber for ber, score in zip(BERS, scores)
                 if score >= (1.0 - TOLERANCE) * nominal]
    return float(max(tolerated)) if tolerated else 0.0


def check(workload: str, reference: Tuple, nominal: float,
          outcome: Outcome) -> None:
    """Checks on the reference sweep that timing cannot affect."""
    if nominal < MIN_NOMINAL:
        outcome.problems.append(
            f"nominal accuracy {nominal:.4f} < {MIN_NOMINAL} after "
            f"{TRAIN_ATTEMPTS} training attempts")
    scores = curve(workload, reference)
    raw = (scores if workload == "char-sweep"
           else [point[0] for point in reference])
    if not raw[-1] < 0.5 * nominal:
        outcome.problems.append(
            f"accuracy {raw[-1]:.4f} at BER {BERS[-1]:g} did not fall: "
            f"injection had no effect")
    if workload == "ecc-sweep":
        corrected = sum(point[3] for point in reference)
        if not (np.mean(scores) > np.mean(raw) and corrected > 0):
            outcome.problems.append("ECC corrected nothing")


def compare(reference: Tuple, result: Tuple, label: str,
            outcome: Outcome) -> None:
    """Count every point of ``result`` that differs from ``reference``."""
    outcome.attempted += len(result)
    wrong = sum(1 for a, b in zip(reference, result) if a != b)
    if wrong:
        outcome.failed += wrong
        outcome.problems.append(f"{label}: {wrong} of {len(result)} points "
                                f"differ from the first sweep at this seed")


def quality(workload: str, reference: Tuple, nominal: float
            ) -> Dict[str, float]:
    scores = curve(workload, reference)
    return {"quality.nominal_accuracy": nominal,
            "quality.mean_accuracy": float(np.mean(scores)),
            "quality.max_tolerable_ber": max_tolerable_ber(scores, nominal)}


def run(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    """Run ``workload`` at ``seed`` for about ``seconds`` of timed sweeps."""
    outcome = Outcome()
    # The search for a trainable model is not timed: setup_s times the
    # set-up of the model the run uses, so it measures the same work at
    # every seed.
    attempt = trainable_attempt(seed)
    setup_times, nominals = [], []
    runner = None
    for _ in range(1 if trace else SETUPS):
        if runner is not None:
            runner.close()
            runner = None
        started = time.perf_counter()
        runner, nominal = set_up(seed, attempt)
        setup_times.append(time.perf_counter() - started)
        nominals.append(nominal)
    if len(set(nominals)) != 1:
        outcome.problems.append(f"set-ups at one seed disagree: {nominals}")
    outcome.info.append(f"model: nominal accuracy {nominal:.4f} from "
                        f"training attempt {attempt + 1} of {EPOCHS} epochs")

    # Warm-up: the first sweep runs slower and is never timed.
    reference = sweep(workload, runner, seed)
    check(workload, reference, nominal, outcome)
    points = len(BERS) * REPEATS

    if trace:
        # Alternate untraced and traced sweeps so drift hits both alike.
        tracer = tracing.Tracer()
        untraced_s = traced_s = 0.0
        for _ in range(TRACE_PAIRS):
            started = time.perf_counter()
            compare(reference, sweep(workload, runner, seed),
                    "untraced sweep", outcome)
            untraced_s += time.perf_counter() - started
            undo = tracing.install(tracer)
            try:
                started = time.perf_counter()
                traced = sweep(workload, runner, seed)
                traced_s += time.perf_counter() - started
            finally:
                undo()
            compare(reference, traced, "traced sweep", outcome)
        summary = tracing.summarize(tracer.spans)
        outcome.metrics.update(tracing.layer_metrics(summary, TRACE_PAIRS))
        outcome.metrics.update(quality(workload, reference, nominal))
        outcome.metrics.update({
            "serve.server_ms_p50": 0.0, "serve.server_ms_p99": 0.0,
            "serve.outside_ms_p50": 0.0, "batcher.batches": 0,
            "batcher.mean_occupancy": 0.0, "batcher.wait_ms_p50": 0.0,
            "serve.shed": 0, "serve.expired": 0, "loadgen.late_p99_ms": 0.0,
            "trace.coverage": summary["top_s"] / traced_s,
            "trace.overhead_frac": traced_s / untraced_s - 1.0,
        })
        outcome.info.append(f"{TRACE_PAIRS} traced sweeps {traced_s:.3f} s vs "
                            f"untraced {untraced_s:.3f} s; per-layer figures "
                            f"are per sweep")
        runner.close()
        return outcome

    # Sweep until the window is spent, stopping early rather than overrunning
    # it by more than half a sweep.
    durations = []
    window_start = time.perf_counter()
    while not durations or (time.perf_counter() - window_start
                            + statistics.mean(durations) / 2 < seconds):
        started = time.perf_counter()
        result = sweep(workload, runner, seed)
        durations.append(time.perf_counter() - started)
        compare(reference, result, f"timed sweep {len(durations)}", outcome)
    runner.close()

    scores = quality(workload, reference, nominal)
    outcome.metrics.update({
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
        "ops_per_s": points * len(durations) / sum(durations),
        "latency_p50_ms": statistics.median(durations) * 1e3,
    })
    outcome.info += [
        f"grid: {len(BERS)} BERs x {REPEATS} repeats, "
        f"{len(durations)} timed sweeps, points_per_s "
        f"{outcome.metrics['ops_per_s']:.3f}",
        "curve: " + " ".join(f"{ber:.1e}:{score:.4f}" for ber, score
                             in zip(BERS, curve(workload, reference))),
        f"fail_frac {outcome.failed / outcome.attempted:.4f}  "
        f"nominal_accuracy {scores['quality.nominal_accuracy']:.4f}  "
        f"mean_accuracy {scores['quality.mean_accuracy']:.4f}  "
        f"max_tolerable_ber {scores['quality.max_tolerable_ber']:.3g}",
    ]
    return outcome
