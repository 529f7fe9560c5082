"""Timing, CPU and memory measurement for one benchmark run.

The host this benchmark was built on runs other tenants' work on the
same cores, and its speed for the same Python code drifts by up to 1.7x
over tens of seconds (in wall and in CPU time alike).  Every time the
benchmark reports is therefore scaled to a reference host speed:
:class:`SpeedTrack` times a fixed stdlib-only probe between operations,
and an operation's time is multiplied by ``REFERENCE_PROBE_S`` over the
median of the probes taken nearest to it.  The program never runs
inside a probe, so a change that makes the program faster shows up in
full; only the host's drift is divided out.
"""

from __future__ import annotations

import bisect
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, List, Optional, Sequence


#: The probe's median time on the 2-core host the benchmark was tuned
#: on; scaled times read as if every probe had taken this long.
REFERENCE_PROBE_S = 0.0025
#: Probes nearest an operation whose median sets its scale factor.
_PROBES_PER_FACTOR = 5


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children.

    Pool workers are joined when the sweep's pool closes, so their CPU
    is in ``RUSAGE_CHILDREN`` by the time a sweep call returns.
    """
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def probe_seconds() -> float:
    """Time one fixed piece of pure-Python work (Fraction arithmetic,
    calls, allocation, dict stores — the program's mix)."""
    began = time.perf_counter()
    total = Fraction(0)
    seen = {}
    for i in range(1, 300):
        step = Fraction(i, i + 7)
        total += step * step
        seen[i] = total.numerator % 1000003
    return time.perf_counter() - began


class SpeedTrack:
    """Probe times over the run, for scaling measured times."""

    def __init__(self, every_s: float = 0.25) -> None:
        self._every_s = every_s
        self._at: List[float] = []
        self._seconds: List[float] = []

    def sample(self, force: bool = False) -> None:
        """Run the probe if ``every_s`` has passed since the last one."""
        now = time.perf_counter()
        if force or not self._at or now - self._at[-1] >= self._every_s:
            seconds = probe_seconds()
            self._at.append(now + seconds / 2)
            self._seconds.append(seconds)

    def factor(self, at: float) -> float:
        """Reference over the median of the probes nearest ``at``."""
        index = bisect.bisect_left(self._at, at)
        low = max(0, index - _PROBES_PER_FACTOR)
        nearest = sorted(
            range(low, min(len(self._at), index + _PROBES_PER_FACTOR)),
            key=lambda i: abs(self._at[i] - at),
        )[:_PROBES_PER_FACTOR]
        return REFERENCE_PROBE_S / statistics.median(
            self._seconds[i] for i in nearest
        )


def percentile(values: Sequence[float], mark: float) -> float:
    """Linear-interpolated percentile (``statistics.quantiles`` inclusive)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    position = (len(ordered) - 1) * mark / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def peak_rss_mb(workers: int) -> float:
    """Peak resident memory of the process plus its pool workers.

    The process's own ``ru_maxrss``, plus ``workers`` times the largest
    ``ru_maxrss`` of any reaped child: an upper bound on the peak of
    the process and its live workers together.  No sampling thread:
    the program forks its pool from this process, and a second thread
    running at fork time can leave a worker deadlocked.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


@dataclass
class Rounds:
    """What a timed loop of whole rounds produced.

    Per operation: its raw latency, its CPU (process and reaped
    children) and its host-speed factor; :meth:`scaled` applies the
    factors.
    """

    outputs: List[List[Any]] = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)
    cpus: List[float] = field(default_factory=list)
    factors: List[float] = field(default_factory=list)
    failed: int = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def done(self) -> List[int]:
        """Indices of the operations that did not fail."""
        flat = [out for outputs in self.outputs for out in outputs]
        return [i for i, out in enumerate(flat) if out is not None]

    def scaled(self, values: List[float]) -> List[float]:
        return [value * factor for value, factor in zip(values, self.factors)]


def run_rounds(
    ops: Sequence[Callable[[], Any]],
    seconds: float,
    min_rounds: int,
    track: SpeedTrack,
    settle: Callable[[int, Any], Any],
    max_rounds: Optional[int] = None,
    after_op: Optional[Callable[[int, Any, float], None]] = None,
) -> Rounds:
    """Run whole rounds of ``ops`` until ``seconds`` and ``min_rounds``.

    Every round runs every op once, in order, so the share of failed
    operations is the same in every run however long it is.  An op
    that raises counts as failed (its output is ``None``) and the loop
    goes on; the first traceback per op position is printed.  After
    each operation, outside its timing, ``settle(index, output)`` turns
    the output into what is kept.  The speed probe runs between
    operations, never inside one.
    """
    result = Rounds()
    reported = set()
    middles: List[float] = []
    start = time.perf_counter()
    track.sample(force=True)
    while (
        len(result.outputs) < min_rounds
        or time.perf_counter() - start < seconds
    ):
        if max_rounds is not None and len(result.outputs) >= max_rounds:
            break
        outputs: List[Any] = []
        for index, op in enumerate(ops):
            track.sample()
            cpu_before = cpu_seconds()
            began = time.perf_counter()
            try:
                output = op()
            except Exception:
                output = None
                result.failed += 1
                if index not in reported:
                    reported.add(index)
                    traceback.print_exc()
            elapsed = time.perf_counter() - began
            result.cpus.append(cpu_seconds() - cpu_before)
            result.latencies.append(elapsed)
            middles.append(began + elapsed / 2)
            outputs.append(None if output is None
                           else settle(index, output))
            if after_op is not None:
                after_op(index, output, elapsed)
        result.outputs.append(outputs)
    track.sample(force=True)
    result.factors = [track.factor(middle) for middle in middles]
    return result
