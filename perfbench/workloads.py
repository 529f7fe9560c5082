"""The three workloads: inputs from a seed, operations, output checks.

A workload's ``setup()`` builds every input from ``--seed`` (and, for
``serve-mixed``, starts the daemon) and returns a session whose
``ops`` are the operations of one round.  Every round runs the same
operations, so outputs of later rounds must equal those of the first in
value, type and ``repr``; the first output of each operation is checked
against the independent references in :mod:`checks`.

The structure of each workload (sizes, families, optimizers, shares of
repeated requests) is fixed; the seed picks instance statistics,
optimizer random seeds and request order, so every seed does the same
amount of work.
"""

from __future__ import annotations

import functools
import random
import socket
import threading
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Tuple

import checks
from checks import CheckFailed, require

FAMILIES = ("chain", "star", "cycle", "clique", "random")
TREE_FAMILIES = ("chain", "star")
#: Largest n whose every permutation is costed by brute force.
BRUTE_FORCE_MAX_N = 7


def _k_no(rng: random.Random, k_yes: int) -> int:
    """A NO-side clique bound in {2, 3} that survives f_N's parity fix."""
    options = [k for k in (2, 3) if k + (k_yes + k) % 2 < k_yes]
    return rng.choice(options)


class Session:
    """One set-up workload: the ops of a round and their checks.

    :meth:`settle` runs after each operation, outside its timing: it
    keeps the first output of each operation whole and compares every
    later one with it at once, keeping only a small summary, so memory
    does not grow with the number of rounds (a faster program would
    otherwise read as a hungrier one).
    """

    ops: List[Callable[[], Any]]

    def __init__(self) -> None:
        self.firsts: Dict[int, Any] = {}
        self.mismatches: List[str] = []

    def key(self, index: int) -> int:
        """Which outputs must be identical: by op position by default."""
        return index

    def compare(self, first: Any, output: Any, index: int) -> None:
        raise NotImplementedError

    def summary(self, output: Any) -> Any:
        return True

    def settle(self, index: int, output: Any) -> Any:
        key = self.key(index)
        if key not in self.firsts:
            self.firsts[key] = output
        else:
            try:
                self.compare(self.firsts[key], output, index)
            except CheckFailed as failure:
                self.mismatches.append(str(failure))
        return self.summary(output)

    def warmup(self) -> None:
        """An untimed round before measuring (if the workload has one)."""

    def check(self, rounds: List[List[Any]]) -> None:
        """Raise the first mismatch, then check the first outputs."""
        if self.mismatches:
            raise CheckFailed(self.mismatches[0])
        self.check_firsts()

    def check_firsts(self) -> None:
        raise NotImplementedError

    def check_trace(self, rounds: List[List[Any]], recorder: Any,
                    compiles: int) -> None:
        """Traced runs: the benchmark's counts equal the program's."""
        raise NotImplementedError

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------
# exact-gap
# ---------------------------------------------------------------------


@dataclass
class ExactItem:
    label: str
    instance: Any
    algorithm: str
    reduction: Any = None
    side: str = ""
    pair: Any = None


def _run_exact(request: Any) -> Tuple[Any, Any]:
    """One exact optimization under a fresh cost cache, as the sweep
    runner and the daemon run every optimizer."""
    from repro import api

    cache = api.CostCache()
    with api.use_cache(cache):
        result = api.execute_request(request)
    return result, cache.stats()


class ExactSession(Session):
    def __init__(self, items: List[ExactItem], seed: int) -> None:
        from repro import api

        super().__init__()
        self.items = items
        self.seed = seed
        self.ops = [
            functools.partial(
                _run_exact,
                api.OptimizeRequest.build(item.instance, item.algorithm),
            )
            for item in items
        ]

    def compare(self, first: Any, output: Any, index: int) -> None:
        checks.same_result(first[0], output[0], self.items[index].label)

    def summary(self, output: Any) -> Any:
        return output[1]  # the operation's CostCache.stats()

    def check_firsts(self) -> None:
        results = {
            self.items[index].label: output[0]
            for index, output in self.firsts.items()
        }
        for index, item in enumerate(self.items):
            result = results.get(item.label)
            if result is None:
                continue
            what = f"exact-gap {item.label}"
            n = item.instance.num_relations
            if item.algorithm == "qoh-exhaustive":
                checks.qoh_plan(item.instance, result, what)
                checks.qoh_below_samples(
                    item.instance, result.cost, self.seed + index, what
                )
                continue
            checks.qon_plan(item.instance, result, what)
            if n <= BRUTE_FORCE_MAX_N:
                checks.exact_optimum(
                    result, checks.brute_force_optimum(item.instance), what
                )
            else:
                checks.below_samples(
                    item.instance, result.cost, self.seed + index, what
                )
            if item.side == "yes":
                checks.gap_yes(
                    item.reduction, item.pair.yes_clique, result.cost, what
                )
            elif item.side == "no":
                checks.gap_no(item.reduction, result.cost, what)
        for item in self.items:
            yes_label = item.label.replace("-no-", "-yes-")
            if item.side != "no" or yes_label not in results \
                    or item.label not in results:
                continue
            yes_cost = results[yes_label].cost
            no_cost = results[item.label].cost
            what = f"exact-gap {item.label}"
            if item.algorithm == "qoh-exhaustive":
                checks.qoh_gap(item.pair, yes_cost, no_cost, what)
            else:
                require(
                    no_cost > yes_cost,
                    f"{what}: NO optimum {no_cost!r} does not exceed the "
                    f"YES optimum {yes_cost!r}",
                )

    def check_trace(self, rounds: List[List[Any]], recorder: Any,
                    compiles: int) -> None:
        totals = recorder.totals()
        stats = [stat for outputs in rounds for stat in outputs
                 if stat is not None]
        checks.counters(
            {
                "cost_evaluations": int(totals["runtime.cost_evaluations"][0]),
                "cache_lookups": int(totals["runtime.cache_lookups"][0]),
                "kernel_compiles": int(totals["perf.kernel_compile"][0]),
            },
            {
                "cost_evaluations": sum(s.misses for s in stats),
                "cache_lookups": sum(s.hits + s.misses for s in stats),
                "kernel_compiles": compiles,
            },
            "exact-gap trace vs CostCache.stats()/compiles_total()",
        )


class ExactGap:
    """Exact optimizers, serial and in-process, on gap pairs."""

    name = "exact-gap"
    tail_mark = 75.0
    min_rounds = 2
    pin_cpu = True

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> ExactSession:
        from repro import api
        from repro.workloads import gaps

        rng = random.Random(self.seed)
        items: List[ExactItem] = []
        for n in (6, 7, 8, 10, 12):
            k_yes = n - 2
            pair = gaps.qon_gap_pair(n, k_yes, _k_no(rng, k_yes), alpha=4)
            for side in ("yes", "no"):
                reduction = getattr(pair, f"{side}_reduction")
                items.append(ExactItem(
                    f"t9-{side}-n{n}", reduction.instance, "dp",
                    reduction, side, pair,
                ))
        for family in FAMILIES:
            for n in (6, 9, 11):
                instance = api.generate(
                    family, n, seed=rng.randrange(1 << 30)
                )
                items.append(ExactItem(f"{family}-n{n}", instance, "dp"))
        hpair = gaps.qoh_gap_pair(6, Fraction(1, 2), alpha=4**6)
        for side in ("yes", "no"):
            reduction = getattr(hpair, f"{side}_reduction")
            items.append(ExactItem(
                f"t15-{side}-n6", reduction.instance, "qoh-exhaustive",
                reduction, side, hpair,
            ))
        return ExactSession(items, self.seed)


# ---------------------------------------------------------------------
# sweep-grid
# ---------------------------------------------------------------------


@dataclass
class Grid:
    name: str
    spec: Any
    instances: Dict[str, Any]
    #: label -> (reduction, side, pair) for gap-pair instances.
    gap: Dict[str, Tuple[Any, str, Any]] = field(default_factory=dict)


def _run_sweep(spec: Any) -> Any:
    from repro import api

    return api.execute_request(spec)


@dataclass(frozen=True)
class SweepSummary:
    """What the traced run's counter check needs from one sweep."""

    executor: Any
    cache: Any
    tasks: int


class SweepSession(Session):
    def __init__(self, grids: List[Grid]) -> None:
        super().__init__()
        self.grids = grids
        self.ops = [functools.partial(_run_sweep, grid.spec) for grid in grids]

    def _tasks(self, index: int) -> int:
        spec = self.grids[index].spec
        return len(spec.optimizers) * len(spec.instances)

    def compare(self, first: Any, output: Any, index: int) -> None:
        name = self.grids[index].name
        checks.sweep_outcomes(output, self._tasks(index), f"sweep-grid {name}")
        for reference, outcome in zip(first, output):
            checks.same_result(
                reference.result, outcome.result,
                f"sweep-grid {name} {outcome.optimizer}/{outcome.label}",
            )

    def summary(self, output: Any) -> Any:
        return SweepSummary(output.executor, output.cache_totals(),
                            len(output))

    def check_firsts(self) -> None:
        for index, first in self.firsts.items():
            grid = self.grids[index]
            checks.sweep_outcomes(first, self._tasks(index),
                                  f"sweep-grid {grid.name}")
            for outcome in first:
                what = (f"sweep-grid {grid.name} "
                        f"{outcome.optimizer}/{outcome.label}")
                instance = grid.instances[outcome.label]
                gap = grid.gap.get(outcome.label)
                if outcome.optimizer.startswith("qoh-"):
                    checks.qoh_plan(instance, outcome.result, what)
                    if gap is not None and gap[1] == "no":
                        checks.qoh_separation(
                            gap[2], outcome.result.cost, what
                        )
                    continue
                checks.qon_plan(instance, outcome.result, what)
                if gap is not None and gap[1] == "no":
                    checks.gap_no(gap[0], outcome.result.cost, what)

    def check_trace(self, rounds: List[List[Any]], recorder: Any,
                    compiles: int) -> None:
        sweeps = [out for outputs in rounds for out in outputs
                  if out is not None]
        workers = recorder.worker_totals()
        local = recorder.local_totals()
        checks.counters(
            {
                "chunks": int(workers["runtime.chunks"][0]),
                "ship_bytes": int(workers["runtime.ship_bytes"][0]),
                "registry_hits": int(workers["runtime.registry_hits"][0]),
                "kernels_compiled": int(workers["perf.kernel_compile"][0]),
                "cost_evaluations":
                    int(workers["runtime.cost_evaluations"][0]),
                "cache_hits": int(workers["runtime.cache_lookups"][0]
                                  - workers["runtime.cost_evaluations"][0]),
                "tasks": int(local["runtime.tasks"][0]),
                "parent_kernel_compiles":
                    int(local["perf.kernel_compile"][0]),
            },
            {
                "chunks": sum(s.executor.chunks for s in sweeps),
                "ship_bytes": sum(s.executor.ship_bytes for s in sweeps),
                "registry_hits":
                    sum(s.executor.registry_hits for s in sweeps),
                "kernels_compiled":
                    sum(s.executor.kernels_compiled for s in sweeps),
                "cost_evaluations": sum(s.cache.misses for s in sweeps),
                "cache_hits": sum(s.cache.hits for s in sweeps),
                "tasks": sum(s.tasks for s in sweeps),
                "parent_kernel_compiles": compiles,
            },
            "sweep-grid trace vs SweepResult.executor/cache_totals()",
        )


class SweepGrid:
    """Table-sized heuristic grids through the two-worker pool."""

    name = "sweep-grid"
    tail_mark = 75.0
    min_rounds = 14
    workers = 2

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> SweepSession:
        from repro import api
        from repro.workloads import gaps

        rng = random.Random(self.seed)

        def generated(families: Tuple[str, ...]) -> List[Tuple[str, Any]]:
            return [
                (f"{family}-n{n}-{copy}",
                 api.generate(family, n, seed=rng.randrange(1 << 30)))
                for family in families for n in (8, 12) for copy in "ab"
            ]

        trees = generated(TREE_FAMILIES)
        general = generated(("cycle", "clique", "random"))
        pair = gaps.qon_gap_pair(10, 8, _k_no(rng, 8), alpha=4)
        qon_gap = {
            f"t9-{side}-n10": (getattr(pair, f"{side}_reduction"), side, pair)
            for side in ("yes", "no")
        }
        general += [(label, gap[0].instance) for label, gap in qon_gap.items()]
        qoh_gap: Dict[str, Tuple[Any, str, Any]] = {}
        for n in (6, 9):
            hpair = gaps.qoh_gap_pair(n, Fraction(1, 2), alpha=4**n)
            for side in ("yes", "no"):
                qoh_gap[f"t15-{side}-n{n}"] = (
                    getattr(hpair, f"{side}_reduction"), side, hpair
                )
        qoh = [(label, gap[0].instance) for label, gap in qoh_gap.items()]
        # Tables repeat instances: the first instance of each QO_N grid
        # appears twice, with identical parameters.
        for pool in (trees, general):
            pool.append((pool[0][0] + "-again", pool[0][1]))

        params: Dict[Tuple[str, str], Dict[str, Any]] = {}
        for label, _ in trees + general:
            base = label.replace("-again", "")
            params.setdefault(
                ("iterative", base),
                {"restarts": 3, "rng": rng.randrange(1 << 30)},
            )
            params[("iterative", label)] = params[("iterative", base)]
        for label, _ in qoh:
            params[("qoh-beam", label)] = {
                "beam_width": 4, "rng": rng.randrange(1 << 30)
            }

        def grid(name: str, optimizers: List[str],
                 instances: List[Tuple[str, Any]],
                 gap: Dict[str, Tuple[Any, str, Any]]) -> Grid:
            labels = {label for label, _ in instances}
            spec = api.SweepSpec.build(
                optimizers, instances,
                {key: value for key, value in params.items()
                 if key[1] in labels and key[0] in optimizers},
                workers=self.workers,
            )
            return Grid(name, spec, dict(instances), gap)

        return SweepSession([
            grid("trees", ["greedy-cost", "greedy-size", "iterative",
                           "ikkbz"], trees, {}),
            grid("general", ["greedy-cost", "greedy-size", "iterative"],
                 general, qon_gap),
            grid("qoh", ["qoh-greedy", "qoh-beam"], qoh, qoh_gap),
        ])


# ---------------------------------------------------------------------
# serve-mixed
# ---------------------------------------------------------------------

FRESH, REPEAT, NO_CACHE = "fresh", "repeat", "no_cache"


@dataclass
class Request:
    label: str
    instance: Any
    request: Any
    bypass: Any  # the same request with no_cache set


class ServeSession(Session):
    def __init__(self, requests: List[Request],
                 stream: List[Tuple[str, int]], server: Any,
                 client: Any) -> None:
        super().__init__()
        self.requests = requests
        self.stream = stream
        self.server = server
        self.client = client
        self.answered = 0
        self.failed = 0
        self.ops = [
            functools.partial(self._call, kind, index)
            for kind, index in stream
        ]

    def _call(self, kind: str, index: int) -> Any:
        request = self.requests[index]
        reply = self.client.optimize(
            request.bypass if kind == NO_CACHE else request.request,
            wait=False,
        )
        if not reply.ok:
            raise RuntimeError(f"{request.label}: {reply.status} "
                               f"({reply.error})")
        return reply

    def key(self, index: int) -> int:
        return self.stream[index][1]  # replies to one request must agree

    def settle(self, index: int, output: Any) -> Any:
        kind, request = self.stream[index]
        self.answered += 1
        if output.cached != (kind == REPEAT):
            self.mismatches.append(
                f"serve-mixed {kind} {self.requests[request].label}: "
                f"reply.cached is {output.cached}"
            )
        return super().settle(index, output)

    def compare(self, first: Any, output: Any, index: int) -> None:
        kind, request = self.stream[index]
        checks.same_result(
            first.result, output.result,
            f"serve-mixed {kind} {self.requests[request].label}",
        )

    def warmup(self) -> None:
        for index, op in enumerate(self.ops):
            self.settle(index, op())

    def tally(self, rounds: int) -> Dict[str, int]:
        """What the server must have counted, from the stream alone."""
        kinds = [kind for kind, _ in self.stream]
        return {
            "received": len(kinds) * rounds,
            "computed": (kinds.count(FRESH) + kinds.count(NO_CACHE)) * rounds,
            "cache_hits": kinds.count(REPEAT) * rounds,
            "coalesced": 0,
            "rejected": 0,
            "errors": 0,
        }

    def check(self, rounds: List[List[Any]]) -> None:
        super().check(rounds)
        failed = sum(out is None for outputs in rounds for out in outputs)
        if failed == 0:
            require(self.answered % len(self.stream) == 0,
                    "serve-mixed: a round was cut short")
            checks.counters(
                self.server.stats_snapshot()["counters"],
                self.tally(self.answered // len(self.stream)),
                "serve-mixed server counters vs the stream's tally",
            )

    def check_firsts(self) -> None:
        for index, reply in self.firsts.items():
            request = self.requests[index]
            what = f"serve-mixed {request.label}"
            checks.qon_plan(request.instance, reply.result, what)
            if request.request.algorithm != "dp":
                continue
            if request.instance.num_relations <= BRUTE_FORCE_MAX_N:
                checks.exact_optimum(
                    reply.result,
                    checks.brute_force_optimum(request.instance), what,
                )
            else:
                checks.below_samples(
                    request.instance, reply.result.cost, 1, what
                )

    def check_trace(self, rounds: List[List[Any]], recorder: Any,
                    compiles: int) -> None:
        totals = recorder.totals()
        counters = self.server.stats_snapshot()["counters"]
        checks.counters(
            {
                "computed": int(totals["service.computed"][0]),
                "kernel_compiles": int(totals["perf.kernel_compile"][0]),
            },
            {
                "computed": counters["computed"],
                "kernel_compiles": compiles,
            },
            "serve-mixed trace vs server counters/compiles_total()",
        )

    def close(self) -> None:
        stop_server(self.server, self.client)


def stop_server(server: Any, client: Any) -> None:
    """Close the client, drain the daemon and wait for its threads.

    ``OptimizationServer.shutdown`` closes the listening socket but
    leaves its accept thread blocked in ``accept()``; one throwaway
    connection after the stop request lets that thread see the stop
    and return.
    """
    try:
        if client is not None:
            client.close()
    finally:
        server.request_stop()
        try:
            socket.create_connection(server.address, timeout=1.0).close()
        except OSError:
            pass
        server.shutdown(drain_timeout=10.0)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and _daemon_threads():
            time.sleep(0.01)
    left = _daemon_threads()
    if left:
        raise CheckFailed(f"daemon threads still running: {left}")


def _daemon_threads() -> List[str]:
    return [thread.name for thread in threading.enumerate()
            if thread.name.startswith("repro-")]


def _stats_key(instance: Any) -> Tuple[Any, ...]:
    graph = instance.graph
    n = instance.num_relations
    return (
        tuple(instance.sizes),
        tuple(sorted(graph.edges)),
        tuple(instance.selectivity(i, j)
              for i in range(n) for j in range(n) if graph.has_edge(i, j)),
    )


class ServeMixed:
    """Closed-loop round trips to an in-process daemon."""

    name = "serve-mixed"
    tail_mark = 99.0
    min_rounds = 16
    #: Client and daemon threads share one interpreter lock; on one CPU
    #: their hand-offs do not bounce between CPUs, whose wake-up delays
    #: on a shared host moved p99 by 20-60% between runs.
    pin_cpu = True
    #: Smaller than the 45 distinct requests of a round, so each first
    #: request of a round has been evicted since the previous round
    #: (a miss), while repeats come a few requests after their
    #: original (a hit).
    result_cache_size = 24

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> ServeSession:
        from repro import api
        from repro.service.client import ServiceClient
        from repro.service.server import OptimizationServer, ServerConfig

        rng = random.Random(self.seed)
        requests: List[Request] = []
        seen = set()
        for family in FAMILIES:
            for n in (5, 6, 8):
                while True:
                    instance = api.generate(
                        family, n, seed=rng.randrange(1 << 30)
                    )
                    key = _stats_key(instance)
                    if key not in seen:
                        seen.add(key)
                        break
                third = ("dp" if n <= 6 else
                         "ikkbz" if family in TREE_FAMILIES else "sampling")
                for algorithm in ("greedy-cost", "greedy-size", third):
                    params = ({"samples": 32, "rng": rng.randrange(1 << 30)}
                              if algorithm == "sampling" else {})
                    request = api.OptimizeRequest.build(
                        instance, algorithm, **params
                    )
                    requests.append(Request(
                        f"{family}-n{n}/{algorithm}", instance, request,
                        replace(request, no_cache=True),
                    ))
        # The seed orders the stream; which requests repeat is fixed:
        # every greedy-cost request once (read path), every n=6
        # greedy-size request once with no_cache (write path), each
        # one to three requests after its original.
        order = list(range(len(requests)))
        rng.shuffle(order)
        stream: List[Tuple[str, int]] = []
        pending: List[Tuple[int, str, int]] = []
        for position, index in enumerate(order):
            stream.append((FRESH, index))
            label = requests[index].label
            if label.endswith("/greedy-cost"):
                pending.append((position + rng.randint(1, 3), REPEAT, index))
            if label.endswith("/greedy-size") and "-n6/" in label:
                pending.append(
                    (position + rng.randint(1, 3), NO_CACHE, index)
                )
            pending.sort()
            while pending and pending[0][0] <= position:
                _, kind, due = pending.pop(0)
                stream.append((kind, due))
        stream.extend((kind, index) for _, kind, index in pending)
        server = OptimizationServer(ServerConfig(
            address=("127.0.0.1", 0),
            result_cache_size=self.result_cache_size,
        ))
        server.start()
        client: Optional[Any] = None
        try:
            client = ServiceClient(server.address)
        except BaseException:
            stop_server(server, client)
            raise
        return ServeSession(requests, stream, server, client)


WORKLOADS = {cls.name: cls for cls in (ExactGap, SweepGrid, ServeMixed)}


def serve_teardown_self_test() -> bool:
    """A failed check on a served reply still tears the daemon down."""
    session = ServeMixed(0).setup()
    try:
        reply = session.ops[0]()
        corrupted = replace(
            reply, result=replace(reply.result, cost=reply.result.cost + 1)
        )
        session.settle(0, corrupted)
        try:
            session.check([[True]])
        except CheckFailed:
            rejected = True
        else:
            rejected = False
    finally:
        session.close()
    return rejected and not _daemon_threads()
