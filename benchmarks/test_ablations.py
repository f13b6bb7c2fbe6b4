"""Ablations of EDEN's design choices (DESIGN.md Section 5).

These cover the paper's secondary findings:

* zeroing implausible values beats saturating them (Section 3.2: ~7-8% better
  accuracy at the same BER), and both beat no correction at all;
* magnitude pruning does not significantly change error tolerance
  (Section 3.3, "Effect of Pruning");
* correcting implausible values raises the tolerable BER by orders of
  magnitude for FP32 models (Section 3.2: from ~1e-7/1e-6 to ~1e-3).
"""

import pytest

from repro.analysis.reporting import format_series
from repro.analysis.runner import ExperimentRunner
from repro.core.correction import CorrectionMode, ImplausibleValueCorrector, ThresholdStore
from repro.dram.error_models import make_error_model
from repro.nn.models import build_model_with_dataset, get_spec
from repro.nn.pruning import magnitude_prune
from repro.nn.training import Trainer

from benchmarks.conftest import BASELINE_EPOCHS, print_header, run_once

BERS = (1e-4, 1e-3, 1e-2)


def _sweep_with_mode(network, dataset, mode):
    thresholds = ThresholdStore.from_network(network, dataset.train_x)
    corrector = None if mode is None else ImplausibleValueCorrector(thresholds, mode)
    return ExperimentRunner(network, dataset, repeats=2, seed=0).ber_sweep(
        make_error_model(0, 1e-3, seed=0), BERS, corrector=corrector)


@pytest.mark.benchmark(group="ablation-correction")
def test_ablation_zeroing_vs_saturating_vs_none(benchmark, trained_lenet):
    network, dataset, _ = trained_lenet

    def experiment():
        return {
            "zero": _sweep_with_mode(network, dataset, CorrectionMode.ZERO),
            "saturate": _sweep_with_mode(network, dataset, CorrectionMode.SATURATE),
            "none": _sweep_with_mode(network, dataset, None),
        }

    curves = run_once(benchmark, experiment)

    print_header("Ablation: implausible-value correction mode")
    for mode, curve in curves.items():
        print(format_series(curve, title=f"mode = {mode}", x_label="BER",
                            y_label="accuracy", float_format="{:.3f}"))

    high_ber = max(BERS)
    # Correction (either flavour) rescues accuracy that collapses without it.
    assert curves["zero"][high_ber] > curves["none"][high_ber] + 0.2
    assert curves["saturate"][high_ber] > curves["none"][high_ber]
    # Zeroing is at least as good as saturating (paper: better by ~7-8%).
    assert sum(curves["zero"].values()) >= sum(curves["saturate"].values()) - 0.05


@pytest.mark.benchmark(group="ablation-pruning")
def test_ablation_pruning_does_not_change_error_tolerance(benchmark):
    spec = get_spec("lenet")

    def experiment():
        results = {}
        for sparsity in (0.0, 0.5):
            network, dataset, _ = build_model_with_dataset("lenet", seed=0)
            Trainer(network, dataset, spec.training_config(epochs=BASELINE_EPOCHS)).fit()
            if sparsity:
                magnitude_prune(network, sparsity)
                # brief fine-tune after pruning, as the paper's pruning flow does
                Trainer(network, dataset, spec.training_config(epochs=2)).fit()
            thresholds = ThresholdStore.from_network(network, dataset.train_x)
            corrector = ImplausibleValueCorrector(thresholds)
            results[sparsity] = ExperimentRunner(
                network, dataset, repeats=2, seed=0).ber_sweep(
                make_error_model(0, 1e-3, seed=0), BERS, corrector=corrector)
        return results

    curves = run_once(benchmark, experiment)

    print_header("Ablation: magnitude pruning vs error tolerance")
    for sparsity, curve in curves.items():
        print(format_series(curve, title=f"sparsity = {sparsity:.0%}", x_label="BER",
                            y_label="accuracy", float_format="{:.3f}"))

    # Pruning does not significantly improve error tolerance: the pruned
    # network's accuracy-vs-BER curve is not better than the dense one's by
    # more than noise (paper Section 3.3).
    dense_area = sum(curves[0.0].values())
    pruned_area = sum(curves[0.5].values())
    assert pruned_area <= dense_area + 0.15
    # Both remain functional at low BER.
    assert curves[0.5][min(BERS)] > 0.8


@pytest.mark.benchmark(group="ablation-collapse")
def test_ablation_correction_extends_tolerable_ber(benchmark, trained_lenet):
    """Without bounding, FP32 accuracy collapses orders of magnitude earlier."""
    network, dataset, _ = trained_lenet
    fine_bers = (1e-5, 1e-4, 1e-3, 1e-2)

    def experiment():
        thresholds = ThresholdStore.from_network(network, dataset.train_x)
        runner = ExperimentRunner(network, dataset, repeats=2, seed=0)
        with_correction = runner.ber_sweep(
            make_error_model(0, 1e-3, seed=0), fine_bers,
            corrector=ImplausibleValueCorrector(thresholds))
        without_correction = runner.ber_sweep(
            make_error_model(0, 1e-3, seed=0), fine_bers, corrector=None)
        return {"corrected": with_correction, "uncorrected": without_correction}

    curves = run_once(benchmark, experiment)

    print_header("Ablation: tolerable BER with vs without implausible-value correction")
    for label, curve in curves.items():
        print(format_series(curve, title=label, x_label="BER", y_label="accuracy",
                            float_format="{:.3f}"))

    baseline = curves["corrected"][min(fine_bers)]
    floor = baseline - 0.02

    def max_tolerable(curve):
        passing = [ber for ber, acc in curve.items() if acc >= floor]
        return max(passing) if passing else 0.0

    corrected_limit = max_tolerable(curves["corrected"])
    uncorrected_limit = max_tolerable(curves["uncorrected"])
    # Correction extends the tolerable BER by at least an order of magnitude.
    assert corrected_limit >= uncorrected_limit * 10 or uncorrected_limit == 0.0
