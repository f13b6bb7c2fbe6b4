"""Engine-vs-legacy parity and static-store semantics.

The engine's PER_READ mode must be bit-exact with the historical per-batch
injection loop (fresh errors into every tensor on every load) for fixed
seeds, across all four error models and the quantized precisions.  Its
STATIC_STORE mode must corrupt each weight tensor exactly once per operating
point, deterministically: the same operating point and seed always produce
the same stored weights, however the session is evaluated.
"""

import numpy as np
import pytest

from repro.analysis.runner import ExperimentRunner
from repro.dram.error_models import make_error_model
from repro.dram.injection import BitErrorInjector
from repro.engine import InferenceSession, ReadSemantics
from repro.engine import evaluate as engine_evaluate
from repro.nn.metrics import evaluate as metric_evaluate
from repro.nn.quantization import QuantizedLoadTransform
from repro.nn.tensor import DataKind, TensorSpec


class _WeightLoadCounter:
    """Injector wrapper counting how often weight tensors hit the injector."""

    def __init__(self, inner):
        self.inner = inner
        self.weight_loads = 0

    def apply(self, array, spec):
        if spec.kind is DataKind.WEIGHT:
            self.weight_loads += 1
        return self.inner.apply(array, spec)

    def reseed(self, seed):
        self.inner.reseed(seed)


def _legacy_score(network, dataset, injector, *, repeats=1, seed=0, stride=1,
                  metric="accuracy"):
    """The historical per-batch loop: install, reseed per repeat, evaluate."""
    scores = []
    previous = network.fault_injector
    network.set_fault_injector(injector)
    try:
        for repeat in range(repeats):
            injector.reseed(seed + repeat * stride)
            scores.append(metric_evaluate(network, dataset.val_x, dataset.val_y,
                                          metric=metric))
    finally:
        network.set_fault_injector(previous)
    return float(np.mean(scores))


class TestPerReadParity:
    @pytest.mark.parametrize("model_id", [0, 1, 2, 3])
    def test_bit_exact_with_legacy_loop(self, lenet_clone, model_id):
        network, dataset, _ = lenet_clone
        model = make_error_model(model_id, 2e-3, seed=model_id)
        legacy = _legacy_score(network, dataset,
                               BitErrorInjector(model, seed=4),
                               repeats=2, seed=4, stride=101)
        session = InferenceSession(network, dataset,
                                   injector=BitErrorInjector(model, seed=4),
                                   semantics=ReadSemantics.PER_READ)
        assert session.evaluate(repeats=2, seed=4, stride=101) == legacy

    def test_bit_exact_with_legacy_loop_int8(self, lenet_clone):
        network, dataset, _ = lenet_clone
        model = make_error_model(3, 5e-3, seed=1)
        legacy = _legacy_score(network, dataset,
                               BitErrorInjector(model, bits=8, seed=0), seed=0)
        session = InferenceSession(network, dataset,
                                   injector=BitErrorInjector(model, bits=8, seed=0),
                                   semantics=ReadSemantics.PER_READ)
        assert session.evaluate(seed=0) == legacy

    def test_helper_matches_runner_score(self, lenet_clone):
        network, dataset, _ = lenet_clone
        model = make_error_model(1, 1e-3, seed=0)
        runner = ExperimentRunner(network, dataset, seed=2, repeats=2)
        via_runner = runner.score(BitErrorInjector(model, seed=2))
        via_helper = engine_evaluate(network, dataset,
                                     BitErrorInjector(model, seed=2),
                                     repeats=2, seed=2)
        assert via_runner == via_helper

    def test_previous_injector_restored(self, lenet_clone):
        network, dataset, _ = lenet_clone
        sentinel = BitErrorInjector(make_error_model(0, 0.0, seed=0))
        network.set_fault_injector(sentinel)
        session = InferenceSession(network, dataset)
        session.evaluate(injector=BitErrorInjector(make_error_model(0, 1e-3, seed=0)))
        assert network.fault_injector is sentinel

    def test_ifm_stream_identical_when_weights_reliable(self, lenet_clone):
        """With an IFM-only injector the two semantics are stream-identical:
        weight loads consume no randomness either way, so static-store (which
        serves weights from the store) must reproduce per-read bit-exactly."""
        network, dataset, _ = lenet_clone
        model = make_error_model(0, 5e-3, seed=0)

        def ifm_injector():
            return BitErrorInjector(model, data_kinds={DataKind.IFM}, seed=3)

        per_read = InferenceSession(network, dataset, injector=ifm_injector(),
                                    semantics=ReadSemantics.PER_READ)
        static = InferenceSession(network, dataset, injector=ifm_injector(),
                                  semantics=ReadSemantics.STATIC_STORE)
        assert per_read.evaluate(repeats=2, seed=3) == \
            static.evaluate(repeats=2, seed=3)


class TestStaticStore:
    def test_same_operating_point_same_weights(self, lenet_clone):
        network, dataset, _ = lenet_clone
        model = make_error_model(0, 1e-2, seed=0)

        def build():
            return InferenceSession(network, dataset,
                                    injector=BitErrorInjector(model, seed=0),
                                    semantics=ReadSemantics.STATIC_STORE, seed=7)

        first = build().materialize()
        second = build().materialize()
        assert set(first) == set(second) and first
        for name in first:
            np.testing.assert_array_equal(first[name], second[name])

    def test_materialization_is_batch_size_independent(self, lenet_clone):
        network, dataset, _ = lenet_clone
        model = make_error_model(2, 1e-2, seed=0)
        stores = []
        for batch_size in (16, 64):
            session = InferenceSession(network, dataset,
                                       injector=BitErrorInjector(model, seed=0),
                                       semantics=ReadSemantics.STATIC_STORE,
                                       batch_size=batch_size, seed=0)
            session.evaluate()
            stores.append(session.materialized_weights())
        for name in stores[0]:
            np.testing.assert_array_equal(stores[0][name], stores[1][name])

    def test_weights_corrupted_once_per_operating_point(self, lenet_clone):
        network, dataset, _ = lenet_clone
        model = make_error_model(0, 1e-2, seed=0)
        counter = _WeightLoadCounter(BitErrorInjector(model, seed=0))
        session = InferenceSession(network, dataset, injector=counter,
                                   semantics=ReadSemantics.STATIC_STORE, seed=0)
        session.evaluate(repeats=3)
        session.evaluate(repeats=2)
        # Every weight tensor hit the injector exactly once — during the
        # single materialization pass, not per batch or repeat.
        assert session.stats["materializations"] == 1
        assert counter.weight_loads == len(session.materialized_weights())

    def test_store_invalidated_when_error_model_changes(self, lenet_clone):
        network, dataset, _ = lenet_clone
        base = make_error_model(0, 1e-3, seed=0)
        injector = BitErrorInjector(base, data_kinds={DataKind.WEIGHT}, seed=0)
        session = InferenceSession(network, dataset, injector=injector,
                                   semantics=ReadSemantics.STATIC_STORE, seed=0)
        session.evaluate()
        low = session.materialized_weights()
        injector.set_error_model(base.with_ber(0.1))
        session.evaluate()
        high = session.materialized_weights()
        assert session.stats["materializations"] == 2
        assert any(not np.array_equal(low[name], high[name]) for name in low)

    def test_different_devices_do_not_share_a_store(self, lenet_clone):
        from repro.dram.device import ApproximateDram, DramOperatingPoint
        from repro.dram.geometry import DramGeometry
        from repro.dram.injection import DeviceBackedInjector

        network, dataset, _ = lenet_clone
        geometry = DramGeometry(row_size_bytes=512, subarrays_per_bank=4,
                                rows_per_subarray=64)
        op_point = DramOperatingPoint.from_reductions(delta_vdd=0.3)
        session = InferenceSession(network, dataset,
                                   semantics=ReadSemantics.STATIC_STORE, seed=0)
        stores = []
        for device_seed in (1, 2):
            device = ApproximateDram("A", geometry=geometry, seed=device_seed)
            injector = DeviceBackedInjector(device, op_point, seed=0)
            session.evaluate(injector=injector)
            stores.append(dict(session.materialized_weights()))
        # Same operating point on a different module must re-materialize
        # against that module's weak cells, not reuse the cached store.
        assert session.stats["materializations"] == 2
        assert any(not np.array_equal(stores[0][name], stores[1][name])
                   for name in stores[0])

    def test_characterization_rejects_semantics_mismatch(self, lenet_clone):
        from repro.core.characterization import coarse_grained_characterization
        from repro.core.config import AccuracyTarget

        network, dataset, _ = lenet_clone
        runner = ExperimentRunner(network, dataset)   # per-read session
        with pytest.raises(ValueError, match="semantics"):
            coarse_grained_characterization(
                network, dataset, make_error_model(0, 1e-3, seed=0),
                AccuracyTarget.within_one_percent(), runner=runner,
                semantics=ReadSemantics.STATIC_STORE,
            )

    def test_zero_ber_matches_baseline(self, lenet_clone):
        network, dataset, _ = lenet_clone
        injector = BitErrorInjector(make_error_model(0, 0.0, seed=0), seed=0)
        session = InferenceSession(network, dataset, injector=injector,
                                   semantics=ReadSemantics.STATIC_STORE)
        assert session.evaluate() == session.baseline()

    def test_quantized_transform_matches_per_read(self, lenet_clone):
        # Fake quantization is deterministic, so serving the quantized weights
        # from the store must be bit-identical to re-quantizing every load.
        network, dataset, _ = lenet_clone
        static = engine_evaluate(network, dataset, QuantizedLoadTransform(8),
                                 semantics=ReadSemantics.STATIC_STORE)
        per_read = engine_evaluate(network, dataset, QuantizedLoadTransform(8),
                                   semantics=ReadSemantics.PER_READ)
        assert static == per_read

    def test_static_store_faster_in_injector_work(self, lenet_clone):
        """Static-store does strictly less injector work: weight loads seen by
        the injector drop from (weights x batches x repeats) to (weights, once)."""
        network, dataset, _ = lenet_clone
        model = make_error_model(0, 1e-3, seed=0)

        def run(semantics):
            counter = _WeightLoadCounter(BitErrorInjector(model, seed=0))
            session = InferenceSession(network, dataset, injector=counter,
                                       semantics=semantics, seed=0)
            session.evaluate(repeats=2)
            return counter.weight_loads

        static_loads = run(ReadSemantics.STATIC_STORE)
        per_read_loads = run(ReadSemantics.PER_READ)
        # lenet: 4 weight tensors, 4 batches, 2 repeats.
        assert per_read_loads == static_loads * 4 * 2


class TestWeightOnlyInjection:
    def test_data_kinds_filter(self):
        injector = BitErrorInjector(make_error_model(0, 0.5, seed=0),
                                    data_kinds={DataKind.WEIGHT}, seed=0)
        values = np.random.default_rng(0).standard_normal(256).astype(np.float32)
        weight_spec = TensorSpec("w", DataKind.WEIGHT, values.shape, 32, 0)
        ifm_spec = TensorSpec("x", DataKind.IFM, values.shape, 32, 0)
        corrupted = injector.apply(values, weight_spec)
        untouched = injector.apply(values, ifm_spec)
        assert not np.array_equal(corrupted, values)
        np.testing.assert_array_equal(untouched, values)


class TestSweepSemanticsPlumbing:
    def test_ber_sweep_accepts_semantics(self, lenet_clone):
        from repro.analysis.sweep import ber_sweep

        network, dataset, _ = lenet_clone
        model = make_error_model(0, 1e-3, seed=0)
        static = ber_sweep(network, dataset, model, (5e-2,), seed=0,
                           semantics=ReadSemantics.STATIC_STORE)
        per_read = ber_sweep(network, dataset, model, (5e-2,), seed=0)
        assert set(static) == set(per_read)
        assert all(0.0 <= v <= 1.0 for v in static.values())

    def test_accuracy_on_device_accepts_semantics(self, lenet_clone, device_vendor_a):
        from repro.analysis.sweep import accuracy_on_device, voltage_sweep_points

        network, dataset, _ = lenet_clone
        ops = voltage_sweep_points(device_vendor_a, [1.10])
        curve = accuracy_on_device(network, dataset, device_vendor_a, ops,
                                   semantics=ReadSemantics.STATIC_STORE)
        assert all(0.0 <= v <= 1.0 for v in curve.values())


class TestParallelSweepSemantics:
    def test_parallel_static_store_sweep_equals_serial(self, lenet_clone):
        network, dataset, _ = lenet_clone
        model = make_error_model(0, 1e-3, seed=0)
        bers = (1e-4, 1e-3, 1e-2)
        serial = ExperimentRunner(network, dataset, seed=1,
                                  semantics=ReadSemantics.STATIC_STORE)
        with ExperimentRunner(network, dataset, seed=1, processes=2,
                              semantics=ReadSemantics.STATIC_STORE) as parallel:
            # Workers must inherit the runner's read semantics.
            assert serial.ber_sweep(model, bers) == parallel.ber_sweep(model, bers)


class TestSessionConstructors:
    def test_missing_dataset_raises_clearly(self, lenet_clone):
        network, _, _ = lenet_clone
        session = InferenceSession(network)
        with pytest.raises(ValueError, match="no dataset"):
            session.evaluate()

    def test_from_error_model(self, lenet_clone):
        network, dataset, _ = lenet_clone
        session = InferenceSession.from_error_model(
            network, dataset, make_error_model(0, 1e-2, seed=0), ber=1e-3,
        )
        assert session.injector.error_model.expected_ber() == pytest.approx(1e-3)
        assert 0.0 <= session.evaluate() <= 1.0

    def test_from_device(self, lenet_clone, device_vendor_a):
        from repro.dram.device import DramOperatingPoint

        network, dataset, _ = lenet_clone
        session = InferenceSession.from_device(
            network, dataset, device_vendor_a,
            DramOperatingPoint.from_reductions(delta_vdd=0.25),
        )
        score = session.evaluate()
        assert 0.0 <= score <= 1.0
        assert session.stats["materializations"] == 1
