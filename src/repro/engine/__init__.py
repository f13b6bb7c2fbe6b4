"""Inference engine: sessions that execute a Network at a DRAM operating point.

See :mod:`repro.engine.session` for the two read-semantics modes
(paper-faithful static-store vs legacy per-read) and
:mod:`repro.engine.bench` for the engine-layer benchmarks that
``repro.cli perf run`` measures.
"""

from repro.engine.quantized import (
    QuantizedPlan,
    compile_quantized_plan,
    integer_plan_supported,
)
from repro.engine.session import (
    DeadlineExceeded,
    InferenceSession,
    ReadSemantics,
    evaluate,
    injector_fingerprint,
)
from repro.nn.quantization import ExecutionMode

__all__ = ["DeadlineExceeded", "ExecutionMode", "InferenceSession",
           "QuantizedPlan", "ReadSemantics", "compile_quantized_plan",
           "evaluate", "injector_fingerprint", "integer_plan_supported"]
