"""Pieces shared by the workloads: the outcome record and small statistics."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


@dataclass
class Outcome:
    """What one workload run measured and whether its outputs were right.

    ``metrics`` maps metric names to values; ``attempted``/``failed`` count
    the operations of the timed window (sweep points or requests);
    ``problems`` lists every failed output check (the run is correct only
    when it is empty); ``info`` holds human-readable report lines.
    """

    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    info: List[str] = field(default_factory=list)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of ``values`` by nearest rank.

    Nearest rank never interpolates, so an infinite latency (a failed
    request) shows only when the percentile lands on it.
    """
    return float(np.percentile(np.asarray(values, dtype=np.float64), q,
                               method="inverted_cdf"))


def tail_q(samples: int) -> int:
    """Highest of p99/p98/p95/p90 with at least ten samples beyond it."""
    for q in (99, 98, 95, 90):
        if samples * (100 - q) >= 1000:
            return q
    return 50


def peak_rss_mb(pid="self") -> float:
    """Peak resident set size (``VmHWM``) of process ``pid`` in MiB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for pid {pid}")
