"""The sweep runner every injection experiment scores through.

:class:`ExperimentRunner` binds one
:class:`repro.engine.session.InferenceSession` (which owns the
install/reseed/evaluate/restore loop, batching and the read semantics) to a
(network, dataset, metric) triple and adds the sweep vocabulary on top:

* **one scoring loop** — every sweep (BER grids,
  :meth:`~ExperimentRunner.ber_sweep`; device operating points,
  :meth:`~ExperimentRunner.device_sweep`) builds a fresh injector per
  point and scores it through one helper, so points are order-independent;
  :meth:`~ExperimentRunner.ecc_sweep` scores a fresh raw/ECC injector pair
  per point, serially, to keep the decode accounting per point;
* **memoized baseline scores** — the injection-free score of a
  (network, dataset, metric) triple is computed once per runner;
* **shared-memory parallelism** — with ``processes=N`` the runner holds one
  :class:`repro.parallel.SweepExecutor`: the network and dataset are
  exported to shared memory once, worker processes attach zero-copy views,
  and sweep points (or the repeats of a single
  :meth:`~ExperimentRunner.score`) fan out over the same pool.  Each task is
  seeded with exactly the stream the serial loop restarts, so parallel
  results are bit-identical to serial ones.

Seeding conventions differ between call sites (``seed + repeat`` in the
sweeps and retraining, ``seed + repeat * 101`` in the characterization);
``reseed_stride`` selects the convention.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.dram.device import ApproximateDram, DramOperatingPoint
from repro.dram.error_models import ErrorModel
from repro.dram.injection import BitErrorInjector, Corrector, DeviceBackedInjector
from repro.engine.session import InferenceSession, ReadSemantics, _resolve_codec
from repro.nn.datasets import Dataset
from repro.nn.network import Network


class ExperimentRunner:
    """Scores one network/dataset pair under many injection scenarios.

    The install/reseed/evaluate/restore loop itself lives in
    :class:`repro.engine.session.InferenceSession`; the runner binds one
    session to the (network, dataset, metric) triple and layers the sweep
    vocabulary (BER grids, device operating points, ECC decode accounting,
    shared-memory fan-out of sweep points) on top.
    ``semantics`` selects the session's read semantics: the default
    :attr:`ReadSemantics.PER_READ` reproduces the historical per-batch
    injection results bit-exactly, while :attr:`ReadSemantics.STATIC_STORE`
    materializes corrupted weights once per operating point (paper-faithful,
    and integer factors faster on weight-dominated sweeps).

    ``seed``, ``repeats`` and ``reseed_stride`` set the default
    repeat-averaging loop (each repeat restarts the injection stream at
    ``seed + repeat * reseed_stride``); ``processes`` > 1 routes independent
    work through a persistent :class:`repro.parallel.SweepExecutor` whose
    workers hold zero-copy shared-memory views of the network and dataset.
    """

    def __init__(self, network: Network, dataset: Dataset, *,
                 metric: str = "accuracy", seed: int = 0,
                 repeats: int = 1, reseed_stride: int = 1,
                 processes: int = 0,
                 semantics: ReadSemantics = ReadSemantics.PER_READ):
        self.network = network
        self.dataset = dataset
        self.metric = metric
        self.seed = int(seed)
        self.repeats = int(repeats)
        self.reseed_stride = int(reseed_stride)
        self.processes = int(processes)
        self.semantics = semantics
        self.session = InferenceSession(
            network, dataset, semantics=semantics, metric=metric, seed=seed,
            repeats=repeats, reseed_stride=reseed_stride,
        )
        self._executor = None

    @property
    def stats(self) -> Dict[str, int]:
        """Evaluation counters of the underlying session (serial path only)."""
        return self.session.stats

    # -- the shared loop ----------------------------------------------------------
    def baseline(self, dataset: Optional[Dataset] = None) -> float:
        """Injection-free validation score on ``dataset``.

        Memoized only for the runner's own dataset: ad-hoc datasets (e.g.
        subsamples) are evaluated fresh, and a runner is bound to one network
        state — retraining the network warrants a new runner.  Returns the
        score.
        """
        return self.session.baseline(dataset)

    def score(self, injector, *, repeats: Optional[int] = None,
              seed: Optional[int] = None, stride: Optional[int] = None,
              dataset: Optional[Dataset] = None) -> float:
        """Mean validation score with ``injector`` installed.

        The injector's RNG is restarted at ``seed + repeat * stride`` before
        each of the ``repeats`` streams (injection is stochastic; averaging
        a few streams tames the noise), and the network's previous injector
        is always restored.  ``dataset`` defaults to the runner's own.
        Under static-store semantics the weights are materialized once per
        operating point and only the IFM stream is reseeded per repeat.
        With ``processes`` > 1 and several repeats, per-read repeat streams
        are evaluated concurrently on the executor and averaged in repeat
        order — bit-identical to the serial mean.  (Static-store repeats
        stay serial: they share one weight store materialized at the base
        ``seed``, which an isolated per-repeat task would have to rebuild
        at its shifted seed, changing the stored weights.)  Returns the
        score averaged over repeats.
        """
        repeats = self.repeats if repeats is None else int(repeats)
        seed = self.seed if seed is None else int(seed)
        stride = self.reseed_stride if stride is None else int(stride)
        if (self.processes > 1 and repeats > 1 and injector is not None
                and self.semantics is ReadSemantics.PER_READ):
            return self._sweep_executor().score_repeats(
                injector, repeats=repeats, seed=seed, stride=stride,
                dataset=self._executor_dataset(dataset))
        return self.session.evaluate(dataset, injector=injector,
                                     repeats=repeats, seed=seed, stride=stride)

    def _score_points(self, points: Sequence, make_injector: Callable, *,
                      repeats: Optional[int], seed: Optional[int],
                      stride: Optional[int]) -> List[float]:
        """Score a fresh ``make_injector(point)`` at every sweep point.

        The loop behind :meth:`ber_sweep` and :meth:`device_sweep`:
        ``repeats`` streams from ``seed`` spaced by ``stride`` (the runner's
        defaults where None) per point.  Each point gets its own injector,
        so points are order-independent: with ``processes`` > 1 and several
        points they fan out over the executor, bit-identical to the serial
        loop, which builds each injector only when its point is scored.
        Returns the scores in point order.
        """
        repeats = self.repeats if repeats is None else int(repeats)
        seed = self.seed if seed is None else int(seed)
        stride = self.reseed_stride if stride is None else int(stride)
        if self.processes > 1 and len(points) > 1:
            return self._sweep_executor().score_many(
                [make_injector(point) for point in points], repeats=repeats,
                seed=seed, stride=stride)
        return [self.score(make_injector(point), repeats=repeats, seed=seed,
                           stride=stride)
                for point in points]

    # -- model-driven sweeps ------------------------------------------------------
    def ber_sweep(self, error_model: ErrorModel, bers: Sequence[float], *,
                  bits: int = 32, corrector: Optional[Corrector] = None,
                  repeats: Optional[int] = None, seed: Optional[int] = None,
                  stride: Optional[int] = None) -> Dict[float, float]:
        """Score at each bit error rate in ``bers`` (the Figure 8/10 x-axis).

        Every point rescales the base ``error_model`` to the target BER and
        scores a fresh injector at ``bits``-bit precision through the
        optional ``corrector`` (``repeats`` streams from ``seed`` spaced by
        ``stride``).  Returns a ``{ber: score}`` dict.
        """
        seed = self.seed if seed is None else int(seed)

        def make(ber):
            return BitErrorInjector(error_model.with_ber(ber), bits=bits,
                                    corrector=corrector, seed=seed)

        scores = self._score_points(bers, make, repeats=repeats, seed=seed,
                                    stride=stride)
        return {float(ber): score for ber, score in zip(bers, scores)}

    def ecc_sweep(self, error_model: ErrorModel, bers: Sequence[float], *,
                  bits: int = 32, correction="rs72_64",
                  repeats: Optional[int] = None, seed: Optional[int] = None,
                  stride: Optional[int] = None) -> Dict[float, Dict[str, float]]:
        """Raw vs ECC-corrected score plus decode accounting per BER point.

        At every rate in ``bers`` the base ``error_model`` is rescaled and
        scored twice under identical injection streams (``repeats`` streams
        from ``seed`` spaced by ``stride``, ``bits``-bit precision): once
        raw, once decoding each load through the ``correction`` codec (name
        or :class:`~repro.core.ecc.RsCodecModel`).  Each point scores a
        fresh injector pair, serially, so the codec accounting stays
        in-process and per point.  Returns ``{ber: {"raw", "corrected",
        "codewords", "corrected_codewords", "corrected_symbols",
        "uncorrectable_codewords", "miscorrected_codewords"}}``.
        """
        repeats = self.repeats if repeats is None else int(repeats)
        seed = self.seed if seed is None else int(seed)
        stride = self.reseed_stride if stride is None else int(stride)
        codec = _resolve_codec(correction)

        counters = ("codewords", "corrected_codewords", "corrected_symbols",
                    "uncorrectable_codewords", "miscorrected_codewords")
        results: Dict[float, Dict[str, float]] = {}
        for ber in bers:
            point_model = error_model.with_ber(ber)
            ecc_injector = BitErrorInjector(point_model, bits=bits, seed=seed,
                                            ecc=codec)
            point = {
                "raw": self.session.evaluate(
                    injector=BitErrorInjector(point_model, bits=bits, seed=seed),
                    repeats=repeats, seed=seed, stride=stride),
                "corrected": self.session.evaluate(
                    injector=ecc_injector, repeats=repeats, seed=seed,
                    stride=stride),
            }
            for key in counters:
                point[key] = int(ecc_injector.ecc_stats[key])
            results[float(ber)] = point
        return results

    # -- device-backed sweeps -----------------------------------------------------
    def device_sweep(self, device: ApproximateDram,
                     op_points: Sequence[DramOperatingPoint], *,
                     bits: int = 32, corrector: Optional[Corrector] = None,
                     repeats: Optional[int] = None, seed: Optional[int] = None,
                     ) -> Dict[DramOperatingPoint, float]:
        """Score with tensors read from ``device`` at each of ``op_points``.

        Every point scores a fresh :class:`DeviceBackedInjector` (at
        ``bits``-bit precision, with the optional ``corrector``, averaging
        ``repeats`` streams from ``seed``).  Tensor base addresses are
        assigned deterministically in load order, so the same weak cells
        corrupt the same tensor elements at every operating point —
        matching real-device behaviour.  Returns an ``{op_point: score}``
        dict.
        """
        seed = self.seed if seed is None else int(seed)

        def make(op_point):
            return DeviceBackedInjector(device, op_point, bits=bits,
                                        corrector=corrector, seed=seed)

        scores = self._score_points(op_points, make, repeats=repeats,
                                    seed=seed, stride=None)
        return dict(zip(op_points, scores))

    # -- executor plumbing --------------------------------------------------------
    def _executor_dataset(self, dataset):
        """Translate a per-call dataset into executor task form.

        ``None`` (and the runner's own dataset) mean "use the shared-memory
        copy the workers already hold"; anything else ships its arrays
        inline with each task.  Returns ``None`` or an ``(inputs, labels)``
        pair.
        """
        if dataset is None or dataset is self.dataset:
            return None
        if isinstance(dataset, Dataset):
            return (dataset.val_x, dataset.val_y)
        return dataset

    def _sweep_executor(self):
        """Lazily created, cached :class:`repro.parallel.SweepExecutor`.

        The executor exports the network and dataset to shared memory once
        and keeps its worker pool alive across sweeps; it is shut down by
        :meth:`close` / garbage collection / interpreter exit.  Workers
        snapshot the network at pool creation — a runner (like its serial
        memoization) is bound to one network state, so mutate or retrain
        the network and you need a fresh runner.  ``stats`` only counts
        serial evaluations; worker-side counts stay in the workers.
        Returns the executor.
        """
        if self._executor is None:
            from repro.parallel import SweepExecutor

            self._executor = SweepExecutor(
                self.network, self.dataset, metric=self.metric,
                semantics=self.semantics,
                batch_size=self.session.batch_size,
                processes=self.processes,
            )
        return self._executor

    def close(self) -> None:
        """Shut down the executor pool, if one was started."""
        if self._executor is not None:
            self._executor.close()
            self._executor = None

    def __enter__(self) -> "ExperimentRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass
