"""Multi-process serving dispatch over an exported session plan.

:class:`PlanDispatcher` turns one compiled
:class:`~repro.engine.session.InferenceSession` into a pool of worker
processes, each holding a private copy of the network *structure* whose
weights — clean and corrupted alike — are zero-copy views into the owner's
shared-memory export (:func:`repro.parallel.plan.export_session_plan`).  A
dispatch ships only the stacked input batch; the worker runs the same
static-shape ``predict`` the in-process gateway would, so results are
bit-identical to serial in-process dispatch (the guarantee
:mod:`repro.serve`'s micro-batcher is specified against).

Because workers own their network copies, two endpoints serving the *same*
network object no longer contend on the per-network dispatch lock — the
process pool is what lets one stored model serve traffic from several
endpoints (or several gateways) concurrently.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.engine.session import InferenceSession, _StaticStoreReader, _reseed
from repro.parallel.plan import PlanHandle, attach_plan

#: module-level worker state: the serving session built by the initializer.
_WORKER_STATE: Dict[str, object] = {}


def session_from_plan(handle: PlanHandle,
                      batch_size: int = 64) -> InferenceSession:
    """Build a serving session in this process from an exported plan.

    ``handle`` is a :class:`~repro.parallel.plan.PlanHandle`; the segments
    it names are attached zero-copy (cached per process by token) and an
    :class:`~repro.engine.session.InferenceSession` is assembled around the
    rebuilt network exactly as the exporting session would execute:
    integer plans are adopted (fused kernels over the shared code arrays),
    static stores are installed as the network's load hook, and per-read
    injectors are installed directly.  ``batch_size`` sets the session's
    chunking default.  This is how a dispatch worker or a
    :mod:`repro.serve.replica` server process turns one shared plan export
    into an executable endpoint without recompiling or re-materializing.
    Returns the ready-to-``predict`` session.
    """
    plan = attach_plan(handle)
    network = plan.network
    session = InferenceSession(network, batch_size=batch_size)
    if plan.qplan is not None:
        # Integer plan: the worker adopts the owner's compiled plan (code
        # arrays mapped zero-copy from shared memory) instead of installing
        # a float store reader — predict() runs the fused kernels.
        session.adopt_quantized_plan(plan.qplan)
    elif plan.store is not None:
        network.set_fault_injector(_StaticStoreReader(plan.injector, plan.store))
    elif plan.injector is not None:
        network.set_fault_injector(plan.injector)
    return session


def _init_plan_worker(handle: PlanHandle, batch_size: int) -> None:
    plan = attach_plan(handle)
    _WORKER_STATE["injector"] = plan.injector
    _WORKER_STATE["session"] = session_from_plan(handle, batch_size)


def _predict_task(batch: np.ndarray, pad_to: Optional[int],
                  seed: Optional[int]) -> np.ndarray:
    session: InferenceSession = _WORKER_STATE["session"]
    injector = _WORKER_STATE["injector"]
    if injector is not None and seed is not None:
        _reseed(injector, seed)
    return session.predict(batch, pad_to=pad_to)


class PlanDispatcher:
    """Dispatch callable running a compiled plan in worker processes.

    Parameters
    ----------
    session:
        The compiled session to export.  Static-store sessions have their
        weight store materialized (if it was not already) and served from
        shared memory; per-read sessions ship their injector instead, and
        workers reseed it per dispatch — the same per-dispatch determinism
        (and the same batching-variance caveat) as the in-process path.
    processes:
        Worker process count.
    pad_to:
        Static batch shape forwarded to ``predict`` (None chunks by the
        session's batch size) — same contract as the in-process dispatcher.
    ifm_errors:
        When True the session's injector is shipped to the workers and
        reseeded per dispatch at the session seed, replicating
        ``predict(..., ifm_errors=True)``; results are then deterministic
        per dispatch but not batching-invariant (see ``docs/serving.md``).
        Per-read sessions ship and reseed their injector the same way
        regardless of this flag — that *is* their read semantics.
    """

    def __init__(self, session: InferenceSession, *, processes: int = 2,
                 pad_to: Optional[int] = None, ifm_errors: bool = False):
        if processes < 1:
            raise ValueError("processes must be >= 1")
        from repro.engine.session import ReadSemantics
        from repro.parallel.plan import export_session_plan

        self.pad_to = pad_to
        self.ifm_errors = ifm_errors
        if ifm_errors and session._integer_mode_active(session.injector):
            raise ValueError(
                "ifm_errors dispatch needs the FP32 path; integer-mode "
                "sessions serve IFMs from reliable DRAM")
        per_read = (session.injector is not None
                    and session.semantics is ReadSemantics.PER_READ)
        #: reseed workers per dispatch only when they inject per read.
        self._dispatch_seed = (session.seed if (ifm_errors or per_read)
                               else None)
        # The dispatcher owns its export (rather than borrowing the
        # session's cached one): workers fork lazily, and an export whose
        # lifetime were tied to the session's fingerprint could be unlinked
        # (re-export, registry eviction) before a late-spawning worker
        # attaches.  This plan lives exactly as long as the pool does.
        self._plan = export_session_plan(
            session, include_injector=ifm_errors or per_read)
        import concurrent.futures

        from repro.parallel.shm import fork_context

        self._pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=int(processes),
            mp_context=fork_context(),
            initializer=_init_plan_worker,
            initargs=(self._plan.handle, session.batch_size),
        )

    def submit(self, batch: np.ndarray):
        """Submit one batch to the pool; returns a ``Future`` of the rows.

        Batches are independent (each worker holds its own network copy and
        a deterministic plan), so callers — notably the micro-batcher's
        flush path — may keep several in flight to occupy every worker.
        """
        return self._pool.submit(_predict_task, batch, self.pad_to,
                                 self._dispatch_seed)

    def __call__(self, batch: np.ndarray) -> np.ndarray:
        """Run one batch on a worker; returns the stacked output rows."""
        return self.submit(batch).result()

    def close(self) -> None:
        """Shut the worker pool down and unlink the dispatcher's plan export."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        if self._plan is not None:
            self._plan.close()
            self._plan = None

    def __enter__(self) -> "PlanDispatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
