"""The ExperimentRunner sweeps must reproduce the reference sweep loops.

The reference loops below install a fresh injector per point (and per
repeat) and evaluate the network directly.  The runner scores a fresh
injector per point through the engine session, memoizes baselines and can
fan points out over processes — these tests pin down that none of that
changes a single result.
"""

import numpy as np
import pytest

from repro.analysis.runner import ExperimentRunner
from repro.analysis.sweep import voltage_sweep_points
from repro.dram.device import ApproximateDram, DramOperatingPoint
from repro.dram.error_models import make_error_model
from repro.dram.injection import BitErrorInjector, DeviceBackedInjector
from repro.nn.metrics import evaluate

from tests.conftest import TEST_GEOMETRY

BERS = (1e-4, 1e-3, 1e-2)


def _legacy_ber_sweep(network, dataset, error_model, bers, *, bits=32,
                      corrector=None, repeats=1, metric="accuracy", seed=0):
    """The pre-runner loop: fresh injector per (BER, repeat)."""
    results = {}
    previous = network.fault_injector
    try:
        for ber in bers:
            scores = []
            for repeat in range(repeats):
                injector = BitErrorInjector(
                    error_model.with_ber(ber), bits=bits, corrector=corrector,
                    seed=seed + repeat,
                )
                network.set_fault_injector(injector)
                scores.append(evaluate(network, dataset.val_x, dataset.val_y,
                                       metric=metric))
            results[float(ber)] = float(np.mean(scores))
    finally:
        network.set_fault_injector(previous)
    return results


def _legacy_device_sweep(network, dataset, device, op_points, *, bits=32,
                         corrector=None, metric="accuracy", seed=0):
    """The pre-runner loop: fresh DeviceBackedInjector per operating point."""
    results = {}
    previous = network.fault_injector
    try:
        for op_point in op_points:
            injector = DeviceBackedInjector(device, op_point, bits=bits,
                                            corrector=corrector, seed=seed)
            network.set_fault_injector(injector)
            results[op_point] = float(evaluate(network, dataset.val_x,
                                               dataset.val_y, metric=metric))
    finally:
        network.set_fault_injector(previous)
    return results


class TestBerSweepParity:
    def test_matches_legacy_loop(self, lenet_clone):
        network, dataset, _ = lenet_clone
        model = make_error_model(0, 1e-3, seed=0)
        legacy = _legacy_ber_sweep(network, dataset, model, BERS, repeats=2, seed=3)
        current = ExperimentRunner(network, dataset, repeats=2,
                                   seed=3).ber_sweep(model, BERS)
        assert legacy == current

    def test_matches_legacy_loop_int8(self, lenet_clone):
        network, dataset, _ = lenet_clone
        model = make_error_model(3, 1e-3, seed=1)
        legacy = _legacy_ber_sweep(network, dataset, model, BERS, bits=8, seed=0)
        current = ExperimentRunner(network, dataset, seed=0).ber_sweep(
            model, BERS, bits=8)
        assert legacy == current

    def test_previous_injector_restored(self, lenet_clone):
        network, dataset, _ = lenet_clone
        sentinel = BitErrorInjector(make_error_model(0, 0.0, seed=0))
        network.set_fault_injector(sentinel)
        ExperimentRunner(network, dataset).ber_sweep(
            make_error_model(0, 1e-3, seed=0), BERS[:1])
        assert network.fault_injector is sentinel


class TestDeviceSweepParity:
    def test_matches_legacy_loop(self, lenet_clone):
        network, dataset, _ = lenet_clone
        device = ApproximateDram("A", geometry=TEST_GEOMETRY, seed=1)
        op_points = voltage_sweep_points(device, [1.10, 1.20, 1.30])
        legacy = _legacy_device_sweep(network, dataset, device, op_points, seed=2)
        current = ExperimentRunner(network, dataset, seed=2).device_sweep(
            device, op_points)
        assert legacy == current


class TestRunnerInternals:
    def test_baseline_memoized(self, lenet_clone):
        network, dataset, _ = lenet_clone
        runner = ExperimentRunner(network, dataset)
        first = runner.baseline()
        second = runner.baseline()
        assert first == second
        assert runner.stats["baseline_evaluations"] == 1

    def test_score_restores_previous_injector_on_error(self, lenet_clone):
        network, dataset, _ = lenet_clone
        runner = ExperimentRunner(network, dataset)

        class Exploding:
            def apply(self, array, spec):
                raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            runner.score(Exploding())
        assert network.fault_injector is None

    def test_reseed_stride_convention(self, lenet_clone):
        # stride=101 must match manually reseeding the injector rng per repeat.
        network, dataset, _ = lenet_clone
        model = make_error_model(0, 5e-3, seed=0)

        injector = BitErrorInjector(model, seed=0)
        runner = ExperimentRunner(network, dataset, seed=5, repeats=2,
                                  reseed_stride=101)
        score = runner.score(injector)

        scores = []
        network.set_fault_injector(injector)
        try:
            for repeat in range(2):
                injector._rng = np.random.default_rng(5 + repeat * 101)
                scores.append(evaluate(network, dataset.val_x, dataset.val_y,
                                       metric="accuracy"))
        finally:
            network.set_fault_injector(None)
        assert score == pytest.approx(float(np.mean(scores)))


class TestProcessParallelism:
    def test_parallel_equals_serial(self, lenet_clone):
        network, dataset, _ = lenet_clone
        model = make_error_model(0, 1e-3, seed=0)
        serial = ExperimentRunner(network, dataset, seed=1).ber_sweep(model, BERS)
        with ExperimentRunner(network, dataset, seed=1,
                              processes=2) as runner:
            parallel = runner.ber_sweep(model, BERS)
        assert serial == parallel


class TestInjectorStats:
    def test_device_backed_injector_counts_loads(self, lenet_clone):
        from repro.nn.tensor import DataKind, TensorSpec

        device = ApproximateDram("A", geometry=TEST_GEOMETRY, seed=1)
        op_point = DramOperatingPoint.from_reductions(delta_vdd=0.3)
        injector = DeviceBackedInjector(device, op_point, seed=0)
        values = np.random.default_rng(0).standard_normal(128).astype(np.float32)
        spec = TensorSpec(name="w", kind=DataKind.WEIGHT, shape=values.shape,
                          dtype_bits=32, layer_index=0)
        injector.apply(values, spec)
        injector.apply(values, spec)
        assert injector.stats == {"loads": 2, "values_loaded": 256}

    def test_bit_error_injector_layout_not_rebuilt(self):
        from repro.nn.tensor import DataKind, TensorSpec

        injector = BitErrorInjector(make_error_model(0, 1e-3, seed=0), seed=0)
        layout_before = injector.layout
        values = np.random.default_rng(0).standard_normal(64).astype(np.float32)
        spec = TensorSpec(name="w", kind=DataKind.WEIGHT, shape=values.shape,
                          dtype_bits=32, layer_index=0)
        injector.apply(values, spec)
        assert injector.layout is layout_before
