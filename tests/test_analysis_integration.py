"""Tests for the analysis helpers plus cross-module integration tests."""

import numpy as np
import pytest

from repro.analysis.reporting import format_multi_series, format_series, format_table
from repro.analysis.runner import ExperimentRunner
from repro.analysis.sweep import trcd_sweep, voltage_sweep_points
from repro.analysis.tables import (
    PAPER_TABLE3_FP32,
    PAPER_TABLE3_INT8,
    system_configurations,
    table1_model_zoo,
)
from repro.core.correction import ImplausibleValueCorrector, ThresholdStore
from repro.dram.device import DramOperatingPoint
from repro.dram.error_models import make_error_model


class TestReporting:
    def test_format_table_aligns_columns(self):
        text = format_table(["name", "value"], [["a", 1.0], ["longer", 2.5]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5
        assert lines[3].index("1") == lines[4].index("2.5")

    def test_format_series(self):
        text = format_series({1e-3: 0.95, 1e-2: 0.2}, x_label="BER", y_label="accuracy")
        assert "BER" in text and "0.001" in text

    def test_format_multi_series_merges_x_values(self):
        text = format_multi_series({"a": {1: 10}, "b": {2: 20}}, x_label="x")
        assert "a" in text and "b" in text
        assert text.count("\n") == 3


class TestSweeps:
    def test_ber_sweep_monotone_collapse(self, lenet_trained):
        network, dataset, _ = lenet_trained
        model = make_error_model(0, 1e-3, seed=0)
        thresholds = ThresholdStore.from_network(network, dataset.train_x)
        sweep = ExperimentRunner(network, dataset, seed=0).ber_sweep(
            model, [1e-4, 1e-2, 2e-1],
            corrector=ImplausibleValueCorrector(thresholds))
        assert sweep[1e-4] > sweep[2e-1]
        assert sweep[1e-4] > 0.9

    def test_voltage_and_trcd_sweep_points(self, device_vendor_a):
        points = voltage_sweep_points(device_vendor_a, [1.35, 1.15])
        assert [p.vdd for p in points] == pytest.approx([1.35, 1.15])
        points = trcd_sweep(device_vendor_a, [12.5, 7.5])
        assert [p.trcd_ns for p in points] == pytest.approx([12.5, 7.5])

    def test_accuracy_on_device_degrades_at_low_voltage(self, lenet_trained, device_vendor_a):
        network, dataset, _ = lenet_trained
        thresholds = ThresholdStore.from_network(network, dataset.train_x)
        corrector = ImplausibleValueCorrector(thresholds)
        points = voltage_sweep_points(device_vendor_a, [1.35, 1.02])
        curve = ExperimentRunner(network, dataset, seed=0).device_sweep(
            device_vendor_a, points, corrector=corrector)
        accuracies = [curve[p] for p in points]
        assert accuracies[0] > accuracies[1] + 0.1
        assert network.fault_injector is None


class TestTables:
    def test_table1_rows_cover_zoo(self):
        rows = table1_model_zoo(models=["lenet", "squeezenet1.1"])
        assert {row["model"] for row in rows} == {"LeNet", "SqueezeNet1.1"}
        for row in rows:
            assert row["analogue_parameters"] > 0
            assert row["analogue_footprint_bytes"] > 0

    def test_paper_table3_constants_are_consistent(self):
        assert set(PAPER_TABLE3_FP32) == set(PAPER_TABLE3_INT8)
        for name, row in PAPER_TABLE3_FP32.items():
            assert 0 < row["ber"] <= 0.05
            assert 0 < row["delta_vdd"] <= 0.35
            assert 0 < row["delta_trcd_ns"] <= 6.0
        # YOLO tolerates the most, SqueezeNet the least (paper Table 3).
        assert PAPER_TABLE3_FP32["yolo"]["ber"] >= PAPER_TABLE3_FP32["squeezenet1.1"]["ber"]

    def test_system_configurations_cover_four_platforms(self):
        rows = system_configurations()
        assert {row["platform"] for row in rows} == {"CPU", "GPU", "Eyeriss", "TPU"}


class TestEndToEndIntegration:
    def test_eden_flow_on_real_device_improves_over_naive(self, lenet_trained, device_vendor_a):
        """End to end: profile the device, fit a model, characterize, and check
        that the resulting operating point actually preserves accuracy when the
        DNN's tensors are served from the device itself."""
        from repro.core.config import AccuracyTarget, EdenConfig
        from repro.core.pipeline import Eden
        from repro.nn.metrics import evaluate

        network, dataset, _ = lenet_trained
        config = EdenConfig(retrain_epochs=0, evaluation_repeats=1, ber_search_steps=7, seed=0)
        eden = Eden(AccuracyTarget.within_one_percent(), config)
        result = eden.run(network.clone(), dataset, device_vendor_a, boost=False)
        assert result.delta_vdd >= 0.0

        chosen_op = DramOperatingPoint.from_reductions(
            delta_vdd=result.delta_vdd, delta_trcd_ns=result.delta_trcd_ns)
        thresholds = ThresholdStore.from_network(result.network, dataset.train_x)
        corrector = ImplausibleValueCorrector(thresholds)
        curve = ExperimentRunner(result.network, dataset, seed=0).device_sweep(
            device_vendor_a, [chosen_op], corrector=corrector)
        accuracy_at_chosen = list(curve.values())[0]
        baseline = evaluate(result.network, dataset.val_x, dataset.val_y)
        assert accuracy_at_chosen >= baseline - 0.05

    def test_fine_mapping_end_to_end_respects_tolerances(self, lenet_trained, device_vendor_a):
        """Characterize per-tensor tolerances, map onto device banks, and check
        every assignment's BER is below the tensor's tolerable BER."""
        from repro.core.characterization import fine_grained_characterization
        from repro.core.config import AccuracyTarget, EdenConfig
        from repro.core.mapping import fine_grained_mapping
        from repro.dram.geometry import PartitionLevel
        from repro.dram.partitions import PartitionTable

        network, dataset, _ = lenet_trained
        config = EdenConfig(evaluation_repeats=1, fine_max_rounds=2,
                            fine_validation_fraction=0.5, seed=0)
        fine = fine_grained_characterization(
            network, dataset, make_error_model(0, 1e-3, seed=0),
            AccuracyTarget.within_one_percent(), config=config)
        ops = [DramOperatingPoint.from_reductions(delta_vdd=d) for d in (0.05, 0.22, 0.30)]
        table = PartitionTable.from_device(device_vendor_a, ops,
                                           level=PartitionLevel.BANK, sample_bits=1 << 12)
        mapping = fine_grained_mapping(fine, table)
        assert mapping.assignments
        for tensor, partition_id in mapping.assignments.items():
            partition = next(p for p in table if p.partition_id == partition_id)
            op_point = mapping.operating_points[partition_id]
            assert partition.ber_by_op_point[op_point] <= fine.per_tensor_ber[tensor] + 1e-12
