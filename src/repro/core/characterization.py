"""DNN error tolerance characterization (paper Section 3.3).

Two flavours:

* **Coarse-grained** — find the single highest BER that, applied uniformly to
  every weight and IFM, still meets the accuracy target.  The paper uses a
  logarithmic-scale binary search, justified by the observation that DNN
  error-tolerance curves are monotonically decreasing in BER.
* **Fine-grained** — find a per-data-type (per weight tensor and per IFM)
  tolerable BER by iteratively sweeping a list of data types, trying to raise
  each one's error rate by a small factor and dropping it from the sweep once
  it can take no more.  The search is bootstrapped at the coarse-grained BER
  and uses a subsample of the validation set per evaluation to stay tractable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.analysis.runner import ExperimentRunner
from repro.core.config import AccuracyTarget, EdenConfig
from repro.core.correction import ImplausibleValueCorrector, ThresholdStore
from repro.dram.error_models import ErrorModel
from repro.dram.injection import BitErrorInjector
from repro.engine.session import ReadSemantics
from repro.nn.datasets import Dataset
from repro.nn.network import Network
from repro.nn.tensor import DataKind, TensorSpec

#: the characterization historically reseeds repeats at ``seed + repeat * 101``.
_CHARACTERIZATION_RESEED_STRIDE = 101


@dataclass
class CoarseCharacterization:
    """Result of the whole-DNN (coarse) characterization."""

    baseline_score: float
    max_tolerable_ber: float
    accuracy_at_max: float
    tested: Dict[float, float] = field(default_factory=dict)   # BER -> score

    def meets_target(self, target: AccuracyTarget) -> bool:
        return target.is_met(self.accuracy_at_max, self.baseline_score)


@dataclass
class FineCharacterization:
    """Result of the per-data-type (fine) characterization."""

    baseline_score: float
    coarse_ber: float
    per_tensor_ber: Dict[str, float] = field(default_factory=dict)
    specs: List[TensorSpec] = field(default_factory=list)

    def ber_of(self, name: str) -> float:
        return self.per_tensor_ber[name]

    def weights(self) -> Dict[str, float]:
        names = {s.name for s in self.specs if s.kind is DataKind.WEIGHT}
        return {k: v for k, v in self.per_tensor_ber.items() if k in names}

    def ifms(self) -> Dict[str, float]:
        names = {s.name for s in self.specs if s.kind is DataKind.IFM}
        return {k: v for k, v in self.per_tensor_ber.items() if k in names}

    @property
    def max_gain_over_coarse(self) -> float:
        """Largest ratio of a per-tensor tolerable BER to the coarse BER."""
        if not self.per_tensor_ber or self.coarse_ber <= 0:
            return 1.0
        return max(self.per_tensor_ber.values()) / self.coarse_ber


def _validated_runner(runner: Optional[ExperimentRunner], network: Network,
                      dataset: Dataset, metric: str,
                      semantics: Optional[ReadSemantics] = None,
                      processes: int = 0) -> ExperimentRunner:
    """Build (or sanity-check) the shared runner for a characterization call.

    A caller-supplied runner must be bound to the same network, dataset,
    metric and (when one was requested) read semantics — anything else would
    silently characterize the wrong thing (its own ``processes`` setting
    wins over the ``processes`` argument, which only configures a runner
    built here).  The runner's session is reused across every point of the
    sweep, so in static-store mode each candidate BER materializes its
    corrupted weights exactly once no matter how many batches and repeats
    score it.
    """
    if runner is None:
        return ExperimentRunner(network, dataset, metric=metric,
                                semantics=semantics or ReadSemantics.PER_READ,
                                processes=processes)
    if runner.network is not network or runner.dataset is not dataset:
        raise ValueError("runner is bound to a different network/dataset than "
                         "the one being characterized")
    if runner.metric != metric:
        raise ValueError(
            f"runner is bound to metric {runner.metric!r} but characterization "
            f"was asked for {metric!r}"
        )
    if semantics is not None and runner.semantics is not semantics:
        raise ValueError(
            f"runner uses {runner.semantics.value!r} read semantics but the "
            f"characterization was asked for {semantics.value!r}"
        )
    return runner


def coarse_grained_characterization(network: Network, dataset: Dataset,
                                    error_model: ErrorModel,
                                    target: AccuracyTarget,
                                    config: Optional[EdenConfig] = None,
                                    metric: str = "accuracy",
                                    thresholds: Optional[ThresholdStore] = None,
                                    runner: Optional[ExperimentRunner] = None,
                                    semantics: Optional[ReadSemantics] = None,
                                    ) -> CoarseCharacterization:
    """Logarithmic-scale binary search for the highest uniformly-tolerable BER.

    ``runner`` optionally shares an :class:`ExperimentRunner` (and its
    memoized baseline) across characterizations; it must be bound to the
    same ``network`` and ``dataset``.  Seeding conventions are enforced at
    the call sites, so any runner configuration yields identical results.
    ``semantics`` picks the read semantics (None follows the supplied runner,
    or per-read when the runner is built here): per-read preserves the
    historical results bit-exactly; static-store is paper-faithful (weights
    corrupted once per candidate BER) and faster.  When the runner
    parallelizes (``processes`` > 1, from the argument or from
    ``config.processes``), the whole candidate grid is prefetched
    speculatively through the shared-memory executor and the binary search
    consults the prefetched scores — every consulted score is the one the
    serial search would have computed, so the returned characterization
    (including its ``tested`` memo) is bit-identical to the serial run.
    """
    config = config or EdenConfig()
    thresholds = thresholds or ThresholdStore.from_network(network, dataset.train_x)
    corrector = ImplausibleValueCorrector(thresholds)

    runner = _validated_runner(runner, network, dataset, metric, semantics,
                               config.processes)
    baseline_score = runner.baseline()
    floor = target.threshold(baseline_score)

    grid = np.array(config.ber_grid())
    tested: Dict[float, float] = {}

    # Speculative prefetch: grid points are order-independent (each restarts
    # the stream at the same seed/stride), so a parallel runner can score
    # them all up front; the search below probes exactly as the serial one
    # does and records only the points it actually consults.
    prefetched: Dict[float, float] = {}
    if runner.processes > 1 and len(grid) > 1:
        prefetched = runner.ber_sweep(
            error_model, [float(ber) for ber in grid], bits=config.bits,
            corrector=corrector, repeats=config.evaluation_repeats,
            seed=config.seed, stride=_CHARACTERIZATION_RESEED_STRIDE)

    # A probe scores the one-point sweep the prefetch would have run.
    # Seed/repeat/stride are passed explicitly so any caller-supplied runner
    # still follows the characterization's historical seeding convention.
    def score_at(ber: float) -> float:
        score = prefetched.get(float(ber))
        if score is None:
            score = runner.ber_sweep(
                error_model, [float(ber)], bits=config.bits,
                corrector=corrector, repeats=config.evaluation_repeats,
                seed=config.seed,
                stride=_CHARACTERIZATION_RESEED_STRIDE)[float(ber)]
        tested[float(ber)] = score
        return score

    # Binary search over the index space of the logarithmic grid: error
    # tolerance curves are monotonically decreasing in BER (paper Section 3.3),
    # so the largest passing grid point is well defined.
    low, high = 0, len(grid) - 1
    best_ber = 0.0
    best_score = baseline_score
    if score_at(grid[0]) < floor:
        # Not even the smallest candidate BER is tolerable.
        return CoarseCharacterization(baseline_score, 0.0, baseline_score, tested)
    best_ber, best_score = float(grid[0]), tested[float(grid[0])]
    while low <= high:
        mid = (low + high) // 2
        ber = float(grid[mid])
        score = tested.get(ber)
        if score is None:
            score = score_at(ber)
        if score >= floor:
            if ber >= best_ber:
                best_ber, best_score = ber, score
            low = mid + 1
        else:
            high = mid - 1
    return CoarseCharacterization(baseline_score, best_ber, best_score, tested)


def fine_grained_characterization(network: Network, dataset: Dataset,
                                  error_model: ErrorModel,
                                  target: AccuracyTarget,
                                  coarse: Optional[CoarseCharacterization] = None,
                                  config: Optional[EdenConfig] = None,
                                  metric: str = "accuracy",
                                  thresholds: Optional[ThresholdStore] = None,
                                  runner: Optional[ExperimentRunner] = None,
                                  semantics: Optional[ReadSemantics] = None,
                                  ) -> FineCharacterization:
    """Per-tensor BER sweep, bootstrapped at the coarse-grained BER.

    Every weight tensor and IFM starts at the coarse BER; the sweep repeatedly
    tries to multiply one data type's BER by ``config.fine_step_factor``,
    keeps the increase if the (subsampled) validation score stays above the
    accuracy floor, and removes the data type from the sweep list otherwise —
    the paper's "DNN data sweep procedure".  The round structure is
    data-dependent (a candidate builds on the acceptances earlier in its
    round), so rounds stay serial; a parallel runner still fans each
    candidate's repeat streams out over the executor, which is
    bit-identical to the serial mean.
    """
    config = config or EdenConfig()
    thresholds = thresholds or ThresholdStore.from_network(network, dataset.train_x)
    corrector = ImplausibleValueCorrector(thresholds)

    if coarse is None:
        coarse = coarse_grained_characterization(
            network, dataset, error_model, target, config, metric, thresholds,
            runner, semantics,
        )
    baseline_score = coarse.baseline_score

    runner = _validated_runner(runner, network, dataset, metric, semantics,
                               config.processes)

    specs = network.data_type_specs(dtype_bits=config.bits)
    start_ber = coarse.max_tolerable_ber if coarse.max_tolerable_ber > 0 else config.ber_search_low
    per_tensor = {spec.name: float(start_ber) for spec in specs}

    eval_dataset = dataset.subsample_validation(config.fine_validation_fraction,
                                                seed=config.seed)
    # The subsampled evaluation is noisy (the paper samples 10% of the
    # validation set per run); allow one extra misclassified sample of
    # statistical slack so a single unlucky injection does not freeze the sweep.
    floor = target.threshold(baseline_score) - 1.0 / max(len(eval_dataset.val_y), 1)

    injector = BitErrorInjector(error_model, bits=config.bits,
                                corrector=corrector, seed=config.seed + 7)

    def score_with(assignment: Dict[str, float]) -> float:
        injector.set_per_tensor_ber(assignment)
        return runner.score(injector, repeats=config.evaluation_repeats,
                            seed=config.seed,
                            stride=_CHARACTERIZATION_RESEED_STRIDE,
                            dataset=eval_dataset)

    sweep_list = [spec.name for spec in specs]
    for _ in range(config.fine_max_rounds):
        if not sweep_list:
            break
        still_improving = []
        for name in sweep_list:
            candidate = dict(per_tensor)
            candidate[name] = min(0.5, per_tensor[name] * config.fine_step_factor)
            score = score_with(candidate)
            if score >= floor:
                per_tensor[name] = candidate[name]
                still_improving.append(name)
            # else: data type saturated; drop it from the sweep list.
        sweep_list = still_improving

    return FineCharacterization(
        baseline_score=baseline_score,
        coarse_ber=float(start_ber),
        per_tensor_ber=per_tensor,
        specs=specs,
    )
