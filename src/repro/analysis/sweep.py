"""Operating-point constructors for device sweeps.

The sweeps themselves are :class:`repro.analysis.runner.ExperimentRunner`
methods; the points built here feed
:meth:`~repro.analysis.runner.ExperimentRunner.device_sweep`.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.dram.device import ApproximateDram, DramOperatingPoint


def voltage_sweep_points(device: ApproximateDram,
                         voltages: Sequence[float]) -> List[DramOperatingPoint]:
    """Operating points at each supply voltage (nominal timing)."""
    return [
        DramOperatingPoint.from_reductions(
            delta_vdd=device.nominal_vdd - vdd,
            nominal_vdd=device.nominal_vdd, nominal_timing=device.nominal_timing,
        )
        for vdd in voltages
    ]


def trcd_sweep(device: ApproximateDram,
               trcd_values_ns: Sequence[float]) -> List[DramOperatingPoint]:
    """Operating points at each tRCD (nominal voltage)."""
    return [
        DramOperatingPoint.from_reductions(
            delta_trcd_ns=device.nominal_timing.trcd_ns - trcd,
            nominal_vdd=device.nominal_vdd, nominal_timing=device.nominal_timing,
        )
        for trcd in trcd_values_ns
    ]
