"""Traced mode: spans and counts at the program's layer boundaries.

Nothing here changes the program.  :func:`install` replaces public
functions (and the few executor entry points that cross into pool
workers) with wrappers that record a count, the time spent and — in
the benchmark's own process — a span with name, start, end, parent and
the id of the operation that caused it.  :meth:`Recorder.restore` puts
every original back.

Pool workers are forked from the benchmark process, so they inherit
the wrappers.  Their spans stay in the worker; their counts and times
are added to a shared-memory array at the end of every chunk (and of
the worker's initializer), which the parent reads after the sweep.
Spans of the parent and of the daemon's threads are kept in memory and
written out by :meth:`Recorder.write` when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import multiprocessing
import os
import threading
import time
import weakref
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple
from contextlib import contextmanager

#: Every slot a wrapper records into.  A slot holds a count and a time.
SLOTS = (
    "api.execute_request",
    "codec.request_encode",
    "codec.request_decode",
    "codec.fingerprint",
    "codec.reply_encode",
    "codec.reply_decode",
    "codec.frame_bytes",
    "service.computed",
    "runtime.sweep",
    "runtime.tasks",
    "runtime.chunks",
    "runtime.ship_bytes",
    "runtime.registry_gets",
    "runtime.registry_hits",
    "runtime.cache_lookups",
    "runtime.cost_evaluations",
    "perf.kernel_compile",
    "joinopt.dp",
    "joinopt.plans_explored",
    "joinopt.accessor_calls",
    "joinopt.heuristic",
    "hashjoin.qoh_exhaustive",
    "hashjoin.heuristic",
    "hashjoin.lp_solves",
    "reductions.build",
)
_INDEX = {name: index for index, name in enumerate(SLOTS)}

#: Optimizer registry name -> slot.
OPTIMIZER_SLOTS = {
    "dp": "joinopt.dp",
    "greedy-cost": "joinopt.heuristic",
    "greedy-size": "joinopt.heuristic",
    "iterative": "joinopt.heuristic",
    "ikkbz": "joinopt.heuristic",
    "qoh-exhaustive": "hashjoin.qoh_exhaustive",
    "qoh-greedy": "hashjoin.heuristic",
    "qoh-beam": "hashjoin.heuristic",
}

Span = Tuple[int, Optional[int], Optional[int], str, str, float, float]


class _Acc:
    """One thread's counts, times and finished spans."""

    __slots__ = ("counts", "seconds", "spans", "stack")

    def __init__(self) -> None:
        # Every key exists from the start, so another thread summing
        # this dict never sees it change size.
        self.counts: Dict[str, int] = dict.fromkeys(SLOTS, 0)
        self.seconds: Dict[str, float] = dict.fromkeys(SLOTS, 0.0)
        self.spans: List[Span] = []
        self.stack: List[int] = []

    def clear(self) -> None:
        for name in SLOTS:
            self.counts[name] = 0
            self.seconds[name] = 0.0
        self.spans.clear()
        self.stack.clear()


def _is_main_thread() -> bool:
    return threading.current_thread() is threading.main_thread()


class Recorder:
    """Per-thread accumulators plus a shared array for pool workers."""

    def __init__(self) -> None:
        self._tls = threading.local()
        self._accs: List[_Acc] = []
        self._accs_lock = threading.Lock()
        self._shared = multiprocessing.Array("d", 2 * len(SLOTS))
        self._ids = itertools.count(1)
        self._origin = time.perf_counter()
        self._patches: List[Tuple[Any, Any, Any, bool]] = []
        self._seen: Dict[str, object] = {}
        self.in_worker = False
        #: The operation in flight and its span (set by :meth:`operation`);
        #: daemon-thread spans hang under it.
        self.op_id: Optional[int] = None
        self.op_span: Optional[int] = None
        ref = weakref.ref(self)
        os.register_at_fork(
            after_in_child=lambda: (ref() is not None and ref()._after_fork())
        )

    # -- accumulation ---------------------------------------------------

    def _acc(self) -> _Acc:
        try:
            return self._tls.acc
        except AttributeError:
            acc = _Acc()
            with self._accs_lock:
                self._accs.append(acc)
            self._tls.acc = acc
            return acc

    def _after_fork(self) -> None:
        self.in_worker = True
        self._accs_lock = threading.Lock()
        self._seen = {}
        for acc in self._accs:
            acc.clear()

    def count(self, name: str, amount: int = 1) -> None:
        self._acc().counts[name] += amount

    def call(
        self, name: str, fn: Callable, args: tuple, kwargs: dict,
        span: bool = False,
    ) -> Any:
        acc = self._acc()
        acc.counts[name] += 1
        record = span and not self.in_worker
        if record:
            span_id = next(self._ids)
            parent = acc.stack[-1] if acc.stack else self.op_span
            acc.stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            acc.seconds[name] += end - start
            if record:
                acc.stack.pop()
                acc.spans.append((
                    span_id, parent, self.op_id, name,
                    threading.current_thread().name,
                    start - self._origin, end - self._origin,
                ))

    def flush_worker(self) -> None:
        """Add this worker's accumulators to the shared array."""
        if not self.in_worker:
            return
        with self._shared.get_lock():
            for acc in self._accs:
                for name, index in _INDEX.items():
                    self._shared[2 * index] += acc.counts[name]
                    self._shared[2 * index + 1] += acc.seconds[name]
                acc.clear()

    @contextmanager
    def operation(self, op_id: int) -> Iterator[None]:
        """Mark one benchmark operation; spans it causes carry its id."""
        acc = self._acc()
        span_id = next(self._ids)
        parent = acc.stack[-1] if acc.stack else None
        self.op_id, self.op_span = op_id, span_id
        acc.stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            acc.stack.pop()
            acc.spans.append((
                span_id, parent, op_id, "operation",
                threading.current_thread().name,
                start - self._origin, end - self._origin,
            ))
            self.op_id = self.op_span = None

    # -- reading --------------------------------------------------------

    def local_totals(self) -> Dict[str, Tuple[float, float]]:
        """(count, seconds) per slot over this process's threads."""
        with self._accs_lock:
            accs = list(self._accs)
        return {
            name: (
                sum(acc.counts[name] for acc in accs),
                sum(acc.seconds[name] for acc in accs),
            )
            for name in SLOTS
        }

    def worker_totals(self) -> Dict[str, Tuple[float, float]]:
        """(count, seconds) per slot flushed by pool workers."""
        with self._shared.get_lock():
            values = list(self._shared)
        return {
            name: (values[2 * index], values[2 * index + 1])
            for name, index in _INDEX.items()
        }

    def totals(self) -> Dict[str, Tuple[float, float]]:
        local, worker = self.local_totals(), self.worker_totals()
        return {
            name: (local[name][0] + worker[name][0],
                   local[name][1] + worker[name][1])
            for name in SLOTS
        }

    def seconds(self, name: str) -> float:
        with self._accs_lock:
            accs = list(self._accs)
        return sum(acc.seconds[name] for acc in accs)

    def spans(self) -> List[Dict[str, Any]]:
        with self._accs_lock:
            accs = list(self._accs)
        records = sorted(
            (span for acc in accs for span in acc.spans),
            key=lambda span: (span[5], span[0]),
        )
        return [
            {"id": span_id, "parent": parent, "op": op, "name": name,
             "thread": thread, "start_s": start, "end_s": end}
            for span_id, parent, op, name, thread, start, end in records
        ]

    def write(self, path: Path, meta: Dict[str, Any]) -> None:
        """Write spans, per-span-name self time and totals as JSON."""
        spans = self.spans()
        payload = {
            "schema": "perfbench.trace/1",
            **meta,
            "spans": spans,
            "self_time_s": self_times(spans),
            "totals": {
                name: {"count": count, "seconds": seconds}
                for name, (count, seconds) in self.totals().items()
            },
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload) + "\n")

    # -- patching -------------------------------------------------------

    def _set(self, owner: Any, key: Any, new: Any, item: bool) -> None:
        if item:
            old = owner[key]
            owner[key] = new
        else:
            old = owner.__dict__[key]
            setattr(owner, key, new)
        self._patches.append((owner, key, old, item))

    def restore(self) -> None:
        """Put every replaced function back, newest first."""
        while self._patches:
            owner, key, old, item = self._patches.pop()
            if item:
                owner[key] = old
            else:
                setattr(owner, key, old)

    def timed(
        self, owner: Any, attr: str, name: str, span: bool = False,
        item: bool = False,
    ) -> None:
        """Record calls of ``owner.attr`` (or ``owner[attr]``) in ``name``."""
        raw = owner[attr] if item else owner.__dict__[attr]
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return self.call(name, fn, args, kwargs, span)

        self._set(
            owner, attr,
            classmethod(wrapper) if is_classmethod else wrapper, item,
        )

    def counted(self, owner: Any, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` without timing them."""
        fn = owner.__dict__[attr]
        acc_of = self._acc

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            acc_of().counts[name] += 1
            return fn(*args, **kwargs)

        self._set(owner, attr, wrapper, False)

    def by_thread(
        self, owner: Any, attr: str, client: str, server: str,
        size_slot: Optional[str] = None, classmeth: bool = False,
    ) -> None:
        """Record in ``client`` on the main thread, else in ``server``."""
        raw = owner.__dict__[attr]
        fn = raw.__func__ if classmeth else raw

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            name = client if _is_main_thread() else server
            result = self.call(name, fn, args, kwargs, True)
            if size_slot is not None:
                self.count(size_slot, len(result))
            return result

        self._set(
            owner, attr, classmethod(wrapper) if classmeth else wrapper,
            False,
        )


def self_times(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Per span name: duration minus the part its children cover."""
    children: Dict[Optional[int], List[Tuple[float, float]]] = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(
            (span["start_s"], span["end_s"])
        )
    totals: Dict[str, float] = {}
    for span in spans:
        start, end = span["start_s"], span["end_s"]
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(span["id"], [])):
            low, high = max(child_start, cursor), min(child_end, end)
            if high > low:
                covered += high - low
                cursor = high
        totals[span["name"]] = (
            totals.get(span["name"], 0.0) + (end - start) - covered
        )
    return totals


def install(recorder: Recorder) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    from repro import api
    from repro.core import requests
    from repro.graphs.graph import Graph
    from repro.hashjoin import allocation, pipeline
    from repro.joinopt.instance import QONInstance
    from repro.perf import kernels
    from repro.runtime import costcache, registry, runner
    from repro.service import protocol
    from repro.workloads import gaps

    rec = recorder

    # Entry point: an operation on the main thread, a computation on a
    # daemon worker thread, or a whole sweep.
    execute = api.__dict__["execute_request"]

    @functools.wraps(execute)
    def execute_request(request: Any) -> Any:
        if not _is_main_thread():
            return rec.call("service.computed", execute, (request,), {}, True)
        if isinstance(request, api.SweepSpec):
            result = rec.call("runtime.sweep", execute, (request,), {}, True)
            rec.count("runtime.tasks", len(result))
            return result
        return rec.call("api.execute_request", execute, (request,), {}, True)

    rec._set(api, "execute_request", execute_request, False)

    for name, slot in OPTIMIZER_SLOTS.items():
        rec.timed(runner.OPTIMIZERS, name, slot, span=True, item=True)
    dp = runner.OPTIMIZERS["dp"]

    def dp_explored(*args: Any, **kwargs: Any) -> Any:
        result = dp(*args, **kwargs)
        rec.count("joinopt.plans_explored", result.explored)
        return result

    rec._set(runner.OPTIMIZERS, "dp", functools.wraps(dp)(dp_explored), True)

    # Codec and framing (client on the main thread, daemon elsewhere).
    rec.timed(requests.OptimizeRequest, "to_dict", "codec.request_encode",
              span=True)
    rec.timed(requests.OptimizeRequest, "from_dict", "codec.request_decode",
              span=True)
    rec.timed(requests.OptimizeRequest, "fingerprint", "codec.fingerprint",
              span=True)
    rec.timed(requests.ServiceReply, "to_dict", "codec.reply_encode",
              span=True)
    rec.timed(requests.ServiceReply, "from_dict", "codec.reply_decode",
              span=True)
    rec.by_thread(protocol, "encode_frame", "codec.request_encode",
                  "codec.reply_encode", size_slot="codec.frame_bytes")
    rec.by_thread(protocol, "decode_line", "codec.reply_decode",
                  "codec.request_decode")

    # Sweep executor: worker initializer and chunk runner run in the
    # pool workers, so they flush what the worker recorded.
    init = runner.__dict__["_worker_init"]

    @functools.wraps(init)
    def worker_init(*args: Any, **kwargs: Any) -> None:
        init(*args, **kwargs)
        payloads = args[2] if len(args) > 2 else kwargs.get("payloads")
        if payloads:
            rec.count("runtime.ship_bytes",
                      sum(len(blob) for blob in payloads.values()))
        rec.flush_worker()

    rec._set(runner, "_worker_init", worker_init, False)
    run_chunk = runner.__dict__["_worker_run_chunk"]

    @functools.wraps(run_chunk)
    def worker_run_chunk(payload: Any) -> Any:
        try:
            return rec.call("runtime.chunks", run_chunk, (payload,), {})
        finally:
            rec.flush_worker()

    rec._set(runner, "_worker_run_chunk", worker_run_chunk, False)

    get = registry.InstanceRegistry.__dict__["get"]

    @functools.wraps(get)
    def registry_get(store: Any, key: str) -> Any:
        instance = get(store, key)
        rec.count("runtime.registry_gets")
        if rec._seen.get(key) is instance:
            rec.count("runtime.registry_hits")
        rec._seen[key] = instance
        return instance

    rec._set(registry.InstanceRegistry, "get", registry_get, False)

    get_or_compute = costcache.CostCache.__dict__["get_or_compute"]

    @functools.wraps(get_or_compute)
    def cache_get_or_compute(
        cache: Any, instance: Any, kind: str, key: Any, compute: Callable,
    ) -> Any:
        rec.count("runtime.cache_lookups")

        def evaluate() -> Any:
            rec.count("runtime.cost_evaluations")
            return compute()

        return get_or_compute(cache, instance, kind, key, evaluate)

    rec._set(costcache.CostCache, "get_or_compute", cache_get_or_compute,
             False)

    # Kernel construction is the work compile_qon/compile_qoh do on a
    # memo miss.
    rec.timed(kernels.CompiledQON, "__init__", "perf.kernel_compile")
    rec.timed(kernels.CompiledQOH, "__init__", "perf.kernel_compile")

    for owner, attr in (
        (QONInstance, "access_cost"),
        (QONInstance, "selectivity"),
        (Graph, "has_edge"),
    ):
        rec.counted(owner, attr, "joinopt.accessor_calls")
    rec.timed(allocation, "allocate_memory", "hashjoin.lp_solves")
    rec.timed(pipeline, "allocate_memory", "hashjoin.lp_solves")

    for owner, attr in (
        (gaps, "qon_gap_pair"), (gaps, "qoh_gap_pair"), (api, "generate"),
    ):
        rec.timed(owner, attr, "reductions.build", span=True)
