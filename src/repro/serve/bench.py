"""Serving-stack measurements behind the perf-history registry.

Three of the registered benchmarks (:data:`repro.analysis.perfhistory.BENCHMARKS`)
measure this layer; ``repro.cli perf run`` calls their ``*_benchmark``
callables, each returning ``(metrics, units, payload)``:

* :func:`serving_benchmark` — one call to :func:`measure_serving`:

  * **batch-1 serial vs micro-batched** — wall clock of serving
    ``n_requests`` single-sample requests through a gateway compiled at
    batch shape 1 (every request is its own forward pass) vs through a
    micro-batching gateway that coalesces up to ``max_batch`` requests per
    dispatch.  The ratio is the headline speedup CI gates on.
  * **bit-identity check** — within the micro-batching gateway, the
    coalesced results are compared bit-for-bit against strictly serial
    per-request dispatch through the same compiled plan (static batch
    shapes make the two identical for fixed seeds).
  * **cold vs warm registry** — seconds to register an endpoint when the
    plan must be compiled + materialized (cold) vs when the registry
    already holds it (warm hit).
  * **async front end** — throughput of concurrent client threads
    submitting through the worker-thread batcher.

* :func:`server_benchmark` — the HTTP front end under generated load:
  steady (bit-identical to in-process ``predict``), burst (must shed, and
  admitted rows stay correct) and open-loop Poisson scenarios.
* :func:`router_benchmark` — the router tier over 1 and 3 replicas sharing
  one plan export (:func:`measure_topology`): bit identity and scale-out.

:func:`build_serving_gateway` and :func:`request_set` are also the shared
builders behind ``repro.cli serve``/``route``/``loadgen``.  Untrained
networks are used throughout: serving throughput does not depend on what
the weights converged to.
"""

from __future__ import annotations

import threading
import time
from typing import Dict

import numpy as np

from repro.dram.error_models import make_error_model
from repro.dram.injection import BitErrorInjector
from repro.nn.models import build_model_with_dataset
from repro.nn.tensor import DataKind
from repro.serve.gateway import ServeConfig, ServingGateway


def request_set(dataset, n_requests: int) -> np.ndarray:
    """``n_requests`` single-sample inputs, tiling ``dataset``'s validation set.

    Returns the stacked inputs as an array of shape
    ``(n_requests,) + input_shape``.
    """
    val_x = np.asarray(dataset.val_x)
    repeats = -(-n_requests // len(val_x))        # ceil division
    return np.concatenate([val_x] * repeats)[:n_requests]


#: serving dtypes reachable from the CLI and benchmark drivers.
SERVING_DTYPES = ("fp32", "int8", "int4", "int16")


def serving_injector(dtype: str, *, ber: float, model_id: int, seed: int):
    """Injector + execution mode for a serving endpoint at ``dtype``.

    The weight store runs at ``ber`` with error model ``model_id`` and its
    streams fixed by ``seed``.  ``fp32`` returns the historical float
    injector.  Integer dtypes store the model as b-bit codes (bit errors
    applied to the codes) and select integer execution: the returned
    :class:`~repro.nn.quantization.QuantizedLoadTransform` wraps the bit
    error injector, and the mode is ``"integer"`` so a misconfigured
    endpoint fails loudly instead of silently serving FP32.  Returns the
    ``(injector, execution_mode)`` pair to pass to ``register``.
    """
    if dtype not in SERVING_DTYPES:
        raise ValueError(f"unknown serving dtype {dtype!r}; "
                         f"expected one of {SERVING_DTYPES}")
    bits = 32 if dtype == "fp32" else int(dtype[3:])
    inner = BitErrorInjector(make_error_model(model_id, ber, seed=seed),
                             bits=bits, data_kinds={DataKind.WEIGHT},
                             seed=seed)
    if dtype == "fp32":
        return inner, "fp32"
    from repro.nn.quantization import QuantizedLoadTransform

    return QuantizedLoadTransform(bits, inner=inner), "integer"


def build_serving_gateway(model: str = "lenet", *, ber: float = 1e-3,
                          model_id: int = 0, seed: int = 0, epochs: int = 0,
                          max_batch: int = 32, max_wait_ms: float = 2.0,
                          dtype: str = "fp32"):
    """Build the canonical one-endpoint serving gateway for ``model``.

    The shared builder behind ``repro.cli serve`` / ``loadgen`` and the
    ``server`` and ``router`` benchmarks: builds ``model`` from the zoo (trained
    for ``epochs`` when > 0; untrained serves fine for throughput work),
    stores its weights in approximate DRAM at ``ber`` (error model
    ``model_id``, stream fixed by ``seed``), and registers it under its
    model name on a gateway whose micro-batcher runs at
    ``max_batch``/``max_wait_ms``.  ``dtype`` selects the stored precision
    and execution path (see :func:`serving_injector`); integer dtypes
    serve through the fused integer-GEMM plan.  Returns
    ``(gateway, session, dataset)``.
    """
    from repro.nn.training import Trainer

    network, dataset, spec = build_model_with_dataset(model, seed=seed)
    if epochs > 0:
        Trainer(network, dataset, spec.training_config(epochs=epochs)).fit()
    network.eval()
    injector, execution_mode = serving_injector(dtype, ber=ber,
                                                model_id=model_id, seed=seed)
    gateway = ServingGateway(ServeConfig(max_batch=max_batch,
                                         max_wait_ms=max_wait_ms))
    session = gateway.register(model, network, dataset, injector=injector,
                               seed=seed, metric=spec.metric,
                               execution_mode=execution_mode)
    return gateway, session, dataset


def measure_serving(model_name: str = "lenet", *, ber: float = 1e-3,
                    model_id: int = 0, n_requests: int = 256,
                    max_batch: int = 32, client_threads: int = 4,
                    seed: int = 0, dtype: str = "fp32") -> Dict:
    """Measure the serving gateway against batch-1 per-request serving.

    Builds ``model_name`` from the zoo, stores its weights in approximate
    DRAM at ``ber`` (error model ``model_id``), and serves ``n_requests``
    single-sample requests four ways (serial batch-1, micro-batched,
    micro-batched via concurrent ``client_threads``, and the serial
    reference for the bit-identity check).  ``max_batch`` is the
    micro-batcher's coalescing bound, ``seed`` fixes every stream, and
    ``dtype`` selects the stored precision / execution path of every
    endpoint under test (see :func:`serving_injector`).
    Returns a JSON-serializable dict with timings, the headline
    ``microbatch_speedup``, ``bit_identical``, cold/warm registry seconds,
    and the gateway telemetry snapshot.
    """
    network, dataset, spec = build_model_with_dataset(model_name, seed=seed)
    network.eval()
    requests = request_set(dataset, n_requests)
    injector, execution_mode = serving_injector(dtype, ber=ber,
                                                model_id=model_id, seed=seed)

    # -- cold vs warm registry ---------------------------------------------------
    gateway = ServingGateway(ServeConfig(max_batch=max_batch,
                                         auto_flush=False))
    started = time.perf_counter()
    gateway.register(model_name, network, dataset, injector=injector,
                     seed=seed, metric=spec.metric,
                     execution_mode=execution_mode)
    cold_register_seconds = time.perf_counter() - started
    started = time.perf_counter()
    gateway.register(f"{model_name}-replica", network, dataset,
                     injector=injector, seed=seed, metric=spec.metric,
                     execution_mode=execution_mode)
    warm_register_seconds = time.perf_counter() - started

    # -- batch-1 serial per-request serving --------------------------------------
    serial_gateway = ServingGateway(ServeConfig(max_batch=1,
                                                auto_flush=False))
    serial_gateway.register(model_name, network, dataset, injector=injector,
                            seed=seed, metric=spec.metric,
                            execution_mode=execution_mode)
    serial_gateway.predict(model_name, requests[0])      # warm caches
    started = time.perf_counter()
    serial_outputs = serial_gateway.predict_many(model_name, requests,
                                                 coalesce=False)
    serial_seconds = time.perf_counter() - started

    # -- micro-batched serving through the shared plan ---------------------------
    gateway.predict(model_name, requests[0])             # warm caches
    started = time.perf_counter()
    batched_outputs = gateway.predict_many(model_name, requests,
                                           coalesce=True)
    batched_seconds = time.perf_counter() - started

    # -- bit-identity: coalesced vs serial dispatch, same compiled shape ---------
    reference_outputs = gateway.predict_many(model_name, requests,
                                             coalesce=False)
    # Raw byte comparison: bit-identity must hold even through NaN logits
    # (corrupted FP32 weights produce them), which np.array_equal rejects.
    bit_identical = (batched_outputs.shape == reference_outputs.shape and
                     batched_outputs.tobytes() == reference_outputs.tobytes())

    # -- async front end: concurrent clients, worker-thread batcher --------------
    async_gateway = ServingGateway(ServeConfig(max_batch=max_batch,
                                               max_wait_ms=2.0,
                                               auto_flush=True))
    async_gateway.register(model_name, network, dataset, injector=injector,
                           seed=seed, metric=spec.metric,
                           execution_mode=execution_mode)
    async_gateway.predict(model_name, requests[0])       # warm caches
    shards = np.array_split(requests, client_threads)

    def client(shard: np.ndarray) -> None:
        futures = [async_gateway.submit(model_name, sample)
                   for sample in shard]
        for future in futures:
            future.result()

    threads = [threading.Thread(target=client, args=(shard,))
               for shard in shards]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    async_seconds = time.perf_counter() - started
    async_gateway.close()

    snapshot = gateway.snapshot()
    record = {
        "model": model_name,
        "dtype": dtype,
        "ber": float(ber),
        "n_requests": int(n_requests),
        "max_batch": int(max_batch),
        "client_threads": int(client_threads),
        "serial_batch1_seconds": serial_seconds,
        "microbatched_seconds": batched_seconds,
        "microbatch_speedup": serial_seconds / batched_seconds,
        "async_seconds": async_seconds,
        "serial_rps": n_requests / serial_seconds,
        "microbatched_rps": n_requests / batched_seconds,
        "async_rps": n_requests / async_seconds,
        "bit_identical": bit_identical,
        "cold_register_seconds": cold_register_seconds,
        "warm_register_seconds": warm_register_seconds,
        "registry": dict(gateway.registry.stats),
        "telemetry": snapshot,
        "serial_matches_batch1_predictions": bool(np.array_equal(
            np.argmax(serial_outputs, axis=1),
            np.argmax(batched_outputs, axis=1))),
    }
    return record


def serving_benchmark():
    """The ``serving`` benchmark: LeNet at BER 1e-3, 512 requests, batch <= 32.

    Runs :func:`measure_serving`.  Returns ``(metrics, units, payload)``.
    """
    model = "lenet"
    record = measure_serving(model, n_requests=512, max_batch=32)
    metrics = {
        "bit_identical": bool(record["bit_identical"]),
        "microbatch_speedup": record["microbatch_speedup"],
        "serial_rps": record["serial_rps"],
        "microbatched_rps": record["microbatched_rps"],
        "async_rps": record["async_rps"],
        "cold_register_seconds": record["cold_register_seconds"],
        "warm_register_seconds": record["warm_register_seconds"],
    }
    units = {
        "microbatch_speedup": "x", "serial_rps": "req/s",
        "microbatched_rps": "req/s", "async_rps": "req/s",
        "cold_register_seconds": "s", "warm_register_seconds": "s",
    }
    payload = {
        "benchmark": "serving_gateway",
        "headline": {
            "name": f"{model}_microbatch_vs_batch1_serial",
            "speedup": record["microbatch_speedup"],
            "serial_batch1_seconds": record["serial_batch1_seconds"],
            "microbatched_seconds": record["microbatched_seconds"],
            "bit_identical": record["bit_identical"],
        },
        **record,
    }
    return metrics, units, payload


def server_benchmark():
    """The ``server`` benchmark: int8 LeNet behind the HTTP front end.

    Serves through :func:`repro.serve.server.serve_in_thread` (queue depth
    8, micro-batches of up to 16) and drives three
    :mod:`repro.serve.loadgen` scenarios: 192 steady requests that must be
    bit-identical to serial in-process ``session.predict``, a 64-request
    burst that must shed while every admitted row stays correct, and 192
    open-loop Poisson arrivals at 400 req/s (recorded, not gated).  Returns
    ``(metrics, units, payload)``.
    """
    from repro.serve import loadgen
    from repro.serve.server import ServerConfig, serve_in_thread

    model, dtype, ber, seed = "lenet", "int8", 1e-3, 0
    requests, burst_size, queue_depth, max_batch, rate = 192, 64, 8, 16, 400.0
    gateway, session, dataset = build_serving_gateway(
        model, ber=ber, seed=seed, max_batch=max_batch, max_wait_ms=2.0,
        dtype=dtype)
    handle = serve_in_thread(gateway,
                             ServerConfig(max_queue_depth=queue_depth))
    target = loadgen.HttpTarget(handle.base_url)
    try:
        steady_samples = request_set(dataset, requests)
        reference = session.predict(steady_samples, pad_to=max_batch)
        steady = loadgen.run_steady(target, model, steady_samples,
                                    concurrency=4)
        bit_identical = (steady.ok == steady.sent
                         and steady.stacked_rows().tobytes()
                         == reference.tobytes())

        burst_samples = request_set(dataset, burst_size)
        burst_reference = session.predict(burst_samples, pad_to=max_batch)
        burst = loadgen.run_burst(target, model, burst_samples)
        admitted_correct = all(
            row.tobytes() == burst_reference[index].tobytes()
            for index, row in burst.ok_rows().items())

        open_loop = loadgen.run_open_loop(
            target, model, request_set(dataset, requests), rate_rps=rate,
            seed=seed)
        snapshot = target.metrics()
    finally:
        target.close()
        handle.stop()
        gateway.close()

    steady_record = steady.to_record()
    open_record = open_loop.to_record()
    metrics = {
        "bit_identical": bool(bit_identical),
        "burst_shed": int(burst.shed),
        "burst_admitted_correct": bool(admitted_correct),
        "steady_rps": steady_record["achieved_rps"],
        "steady_p99_ms": steady_record["latency_ms"]["p99"],
        "open_loop_rps": open_record["achieved_rps"],
    }
    units = {"burst_shed": "requests", "steady_rps": "req/s",
             "steady_p99_ms": "ms", "open_loop_rps": "req/s"}
    payload = {
        "benchmark": "http_server",
        "headline": {
            "name": f"{model}_http_steady_bit_identity",
            "bit_identical": bool(bit_identical),
            "steady_rps": steady_record["achieved_rps"],
            "burst_shed": int(burst.shed),
            "burst_admitted_correct": bool(admitted_correct),
        },
        "model": model,
        "dtype": dtype,
        "execution_mode": session.mode_label(),
        "ber": float(ber),
        "queue_depth": int(queue_depth),
        "max_batch": int(max_batch),
        "steady": steady_record,
        "burst": burst.to_record(),
        "open_loop": open_record,
        "bit_identical": bool(bit_identical),
        "burst_admitted_correct": bool(admitted_correct),
        "telemetry": snapshot,
    }
    return metrics, units, payload


def measure_topology(plan, model: str, samples: np.ndarray, *,
                     replicas: int, max_batch: int, queue_depth: int,
                     concurrency: int) -> Dict:
    """Steady-scenario throughput through a router over ``replicas`` replicas.

    ``plan`` is the shared :class:`~repro.parallel.plan.ExportedPlan` every
    replica adopts, ``model`` the endpoint name, ``samples`` the request
    set; ``max_batch``/``queue_depth`` configure each replica and
    ``concurrency`` the closed-loop client.  Returns a dict with the
    :class:`~repro.serve.loadgen.LoadResult` record, the per-replica
    request spread, the router's final metrics and the stacked response
    ``rows`` (None unless every request succeeded).
    """
    from repro.serve import loadgen
    from repro.serve.replica import ReplicaManager
    from repro.serve.router import RouterConfig, route_in_thread
    from repro.serve.server import ServerConfig

    manager = ReplicaManager(
        {model: plan},
        serve_config=ServeConfig(max_batch=max_batch),
        server_config=ServerConfig(max_queue_depth=queue_depth))
    handle = None
    target = None
    try:
        spawned = manager.spawn_many(replicas)
        handle = route_in_thread(spawned, manager, RouterConfig())
        target = loadgen.HttpTarget(handle.base_url)
        loadgen.run_steady(target, model, samples[:4 * replicas],
                           concurrency=concurrency)        # warm every replica
        result = loadgen.run_steady(target, model, samples,
                                    concurrency=concurrency)
        metrics = target.metrics()
    finally:
        if target is not None:
            target.close()
        if handle is not None:
            handle.stop()
        manager.close()
    return {
        "replicas": replicas,
        "steady": result.to_record(),
        "replica_spread": result.replica_counts(),
        "router": metrics["router"],
        "rows": result.stacked_rows() if result.ok == result.sent else None,
    }


def router_benchmark():
    """The ``router`` benchmark: int8 LeNet through 1 vs 3 routed replicas.

    Exports one plan, measures 192 steady requests from 12 closed-loop
    workers through :func:`measure_topology` at 1 and 3 replicas (queue
    depth 64, micro-batches of up to 16), and checks both response sets
    against serial in-process ``session.predict``.  Returns
    ``(metrics, units, payload)``.
    """
    import os

    from repro.parallel.plan import export_session_plan

    model, dtype, ber, seed = "lenet", "int8", 1e-3, 0
    requests, replicas, concurrency, queue_depth, max_batch = 192, 3, 12, 64, 16
    gateway, session, dataset = build_serving_gateway(
        model, ber=ber, seed=seed, max_batch=max_batch, max_wait_ms=2.0,
        dtype=dtype)
    samples = request_set(dataset, requests)
    reference = session.predict(samples, pad_to=max_batch)
    plan = export_session_plan(session)
    try:
        single = measure_topology(
            plan, model, samples, replicas=1, max_batch=max_batch,
            queue_depth=queue_depth, concurrency=concurrency)
        scaled = measure_topology(
            plan, model, samples, replicas=replicas, max_batch=max_batch,
            queue_depth=queue_depth, concurrency=concurrency)
    finally:
        plan.close()
        gateway.close()

    def identical(topology: Dict) -> bool:
        rows = topology.pop("rows")
        return rows is not None and rows.tobytes() == reference.tobytes()

    single_identical = identical(single)
    bit_identical = identical(scaled) and single_identical
    rps_single = single["steady"]["achieved_rps"]
    rps_scaled = scaled["steady"]["achieved_rps"]
    speedup = rps_scaled / rps_single if rps_single > 0 else float("nan")
    metrics = {
        "bit_identical": bool(bit_identical),
        "scaleout_speedup": float(speedup),
        "rps_1_replica": float(rps_single),
        "rps_scaled": float(rps_scaled),
        "scaled_replicas": int(replicas),
    }
    units = {"scaleout_speedup": "x", "rps_1_replica": "req/s",
             "rps_scaled": "req/s", "scaled_replicas": "replicas"}
    payload = {
        "benchmark": "router",
        "headline": {
            "name": f"{model}_router_{replicas}x_scaling",
            "bit_identical": bool(bit_identical),
            "rps_1_replica": rps_single,
            f"rps_{replicas}_replicas": rps_scaled,
            "speedup": speedup,
        },
        "model": model,
        "dtype": dtype,
        "execution_mode": session.mode_label(),
        "ber": float(ber),
        "requests": int(requests),
        "concurrency": int(concurrency),
        "queue_depth": int(queue_depth),
        "max_batch": int(max_batch),
        "cpus_visible": int(os.cpu_count() or 1),
        "single": single,
        "scaled": scaled,
        "bit_identical": bool(bit_identical),
    }
    return metrics, units, payload
