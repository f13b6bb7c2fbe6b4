"""Exact pins of three small seeded sweeps.

The packed-vs-reference parity tests compare two implementations that
share their building blocks (weak-cell hashing, stream layout), so a change
to a shared hot-path primitive can move both sides at once.  These literals
were recorded from the engine before its closed-form PCG64 draws and
word-level ECC accounting; any drift in the scores or the decode counters
of a Figure 8/10 ``ber_sweep``, a burst ``ecc_sweep`` or a Figure 7/9
``device_sweep`` fails here with ``==``.
"""

from repro.analysis.runner import ExperimentRunner
from repro.analysis.sweep import voltage_sweep_points
from repro.dram.device import ApproximateDram
from repro.dram.error_models import make_error_model

from tests.conftest import TEST_GEOMETRY


def _runner(lenet_clone):
    network, dataset, spec = lenet_clone
    return ExperimentRunner(network, dataset, metric=spec.metric, seed=3,
                            repeats=2)


def test_ber_sweep_error_model_0_pinned(lenet_clone):
    scores = _runner(lenet_clone).ber_sweep(
        make_error_model(0, 1e-4, seed=1), [1e-5, 1e-4, 3e-4, 1e-3])
    assert scores == {1e-05: 0.966796875, 0.0001: 0.86328125,
                      0.0003: 0.1953125, 0.001: 0.08984375}


def test_ecc_sweep_error_model_4_pinned(lenet_clone):
    points = _runner(lenet_clone).ecc_sweep(
        make_error_model(4, 1e-4, seed=1), [1e-4, 3e-3, 2e-2],
        correction="rs72_64")
    assert points == {
        0.0001: {"raw": 0.91015625, "corrected": 1.0, "codewords": 44760,
                 "corrected_codewords": 1837, "corrected_symbols": 1873,
                 "uncorrectable_codewords": 0, "miscorrected_codewords": 0},
        0.003: {"raw": 0.09765625, "corrected": 0.6328125, "codewords": 44760,
                "corrected_codewords": 32591, "corrected_symbols": 57977,
                "uncorrectable_codewords": 617, "miscorrected_codewords": 0},
        0.02: {"raw": 0.09765625, "corrected": 0.09765625, "codewords": 44760,
               "corrected_codewords": 2413, "corrected_symbols": 8513,
               "uncorrectable_codewords": 42345, "miscorrected_codewords": 0},
    }


def test_device_sweep_pinned(lenet_clone):
    device = ApproximateDram("A", geometry=TEST_GEOMETRY, seed=1)
    points = voltage_sweep_points(device, [1.05, 1.15, 1.25])
    scores = _runner(lenet_clone).device_sweep(device, points)
    assert {point.vdd: score for point, score in scores.items()} == {
        1.05: 0.09765625, 1.15: 0.986328125, 1.25: 1.0}
