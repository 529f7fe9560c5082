"""The benchmark command.

Run from the repository root::

    python3 perfbench/run.py --workload exact-gap --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1   # all three
    python3 perfbench/run.py --self-test       # checks reject corruption

With ``--trace 0`` it measures the end-to-end metrics; with
``--trace 1`` it makes a separate traced run for the per-layer metrics
and writes its spans to ``perfbench/out/``.  It prints every metric by
name and unit, the attempted and failed operation counts, and as its
last line one JSON object.  ``--workload all`` runs each workload in a
child process of its own, so that its CPU and peak memory are its own,
and ends with one JSON object over the three.  Exit status: 0 when
every check passed, 1 when a check failed (the JSON line says
``"correct": false``), 2 when the program cannot be loaded (nothing is
printed on stdout).
"""

from __future__ import annotations

import argparse
import faulthandler
import itertools
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 11


def _load_program() -> bool:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {src}/repro", file=sys.stderr)
        return False
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, "
              f"not from {src}", file=sys.stderr)
        return False
    return True


def _metric_payload(values: Dict[str, float], trace: bool) -> Dict[str, Any]:
    import spec

    return {name: {"value": float(values[name]), "unit": entry["unit"]}
            for name, entry in spec.metrics(trace).items()}


@contextmanager
def _counted(*loops: Any) -> Iterator[None]:
    """A check failing inside carries the operation counts of ``loops``."""
    from checks import CheckFailed

    try:
        yield
    except CheckFailed as failure:
        failure.attempted = sum(loop.attempted for loop in loops)
        failure.failed = sum(loop.failed for loop in loops)
        raise


def end_to_end(workload: Any, seconds: float) -> Tuple[
        Dict[str, float], Dict[str, float], int, int]:
    """Timed run: set up several times, then whole rounds, then check.

    Returns the metrics scaled to the reference host speed, the same
    metrics unscaled, and the attempted and failed operation counts.
    """
    from measure import SpeedTrack, peak_rss_mb, percentile, run_rounds

    track = SpeedTrack()
    setups: List[Tuple[float, float]] = []
    session = None
    try:
        for _ in range(SETUPS):
            if session is not None:
                session.close()
                session = None
            track.sample(force=True)
            began = time.perf_counter()
            session = workload.setup()
            elapsed = time.perf_counter() - began
            setups.append((elapsed, began + elapsed / 2))
        session.warmup()
        rounds = run_rounds(session.ops, seconds, workload.min_rounds, track,
                            session.settle)
        peak_mb = peak_rss_mb(getattr(workload, "workers", 0))
        with _counted(rounds):
            session.check(rounds.outputs)
    finally:
        if session is not None:
            session.close()
    beyond = rounds.attempted * (1 - workload.tail_mark / 100)
    if beyond < 10:
        raise RuntimeError(
            f"{workload.name}: only {beyond:.1f} samples beyond "
            f"p{workload.tail_mark:g}; raise min_rounds"
        )
    done = rounds.done()

    def metrics(latencies: List[float], cpus: List[float],
                setup: List[float]) -> Dict[str, float]:
        finished = [latencies[i] for i in done]
        return {
            "setup_s": statistics.median(setup),
            "ops_per_s": len(finished) / sum(finished),
            "latency_p50_ms": percentile(finished, 50) * 1000,
            "latency_tail_ms":
                percentile(finished, workload.tail_mark) * 1000,
            "cpu_s": sum(cpus) / rounds.attempted,
            "peak_rss_mb": peak_mb,
        }

    scaled = metrics(
        rounds.scaled(rounds.latencies), rounds.scaled(rounds.cpus),
        [elapsed * track.factor(middle) for elapsed, middle in setups],
    )
    raw = metrics(rounds.latencies, rounds.cpus,
                  [elapsed for elapsed, _ in setups])
    return scaled, raw, rounds.attempted, rounds.failed


def per_layer(workload: Any, seconds: float, seed: int) -> Tuple[
        Dict[str, float], int, int]:
    """Untraced rounds, then as many traced rounds; layer metrics from
    the traced ones, overhead from the pair."""
    import layers
    from measure import SpeedTrack, run_rounds
    from repro.perf.kernels import compiles_total

    track = SpeedTrack()
    session = workload.setup()
    try:
        session.warmup()
        plain = run_rounds(session.ops, seconds / 3, 1, track,
                           session.settle)
        with _counted(plain):
            session.check(plain.outputs)
    finally:
        session.close()

    recorder = layers.Recorder()
    layers.install(recorder)
    session = None
    try:
        compiled_before = compiles_total()
        session = workload.setup()
        session.warmup()
        base = recorder.totals()
        base_workers = recorder.worker_totals()
        ids = itertools.count(1)
        ops = [_traced_op(recorder, op, ids) for op in session.ops]
        overheads: List[float] = []
        served = [recorder.seconds("service.computed")]

        def after_op(_index: int, _output: Any, elapsed: float) -> None:
            now = recorder.seconds("service.computed")
            overheads.append(elapsed - (now - served[0]))
            served[0] = now

        count = len(plain.outputs)
        traced = run_rounds(ops, 0, count, track, session.settle,
                            max_rounds=count, after_op=after_op)
        compiles = compiles_total() - compiled_before
        with _counted(plain, traced):
            session.check(traced.outputs)
            session.check_trace(traced.outputs, recorder, compiles)
    finally:
        if session is not None:
            session.close()
        recorder.restore()
    recorder.write(
        HERE / "out" / f"trace-{workload.name}-seed{seed}.json",
        {"workload": workload.name, "seed": seed,
         "operations": traced.attempted},
    )

    # Layer times are scaled by the traced rounds' mean host-speed factor.
    scale = sum(traced.scaled(traced.latencies)) / sum(traced.latencies)
    end = recorder.totals()
    workers_end = recorder.worker_totals()
    delta = {
        name: (end[name][0] - base[name][0],
               (end[name][1] - base[name][1]) * scale)
        for name in end
    }
    n = traced.attempted
    overheads = [overhead * scale for overhead in overheads]
    sweep_s = delta["runtime.sweep"][1]
    lookups = delta["runtime.cache_lookups"][0]

    def ms(slot: str) -> float:
        return delta[slot][1] * 1000 / n

    def per_op(slot: str) -> float:
        return delta[slot][0] / n

    metrics = {
        "codec.request_encode_ms": ms("codec.request_encode"),
        "codec.request_decode_ms": ms("codec.request_decode"),
        "codec.fingerprint_ms": ms("codec.fingerprint"),
        "codec.reply_encode_ms": ms("codec.reply_encode"),
        "codec.reply_decode_ms": ms("codec.reply_decode"),
        "codec.frame_bytes": per_op("codec.frame_bytes"),
        "service.rtt_overhead_ms": (
            statistics.median(overheads) * 1000
            if delta["service.computed"][0] else 0.0
        ),
        "service.computed": per_op("service.computed"),
        "runtime.tasks_per_s": (
            delta["runtime.tasks"][0] / sweep_s if sweep_s else 0.0
        ),
        "runtime.worker_busy_ratio": (
            delta["runtime.chunks"][1]
            / (getattr(workload, "workers", 1) * sweep_s)
            if sweep_s else 0.0
        ),
        "runtime.ship_bytes": per_op("runtime.ship_bytes"),
        "runtime.registry_hits": per_op("runtime.registry_hits"),
        "runtime.kernels_compiled": (
            workers_end["perf.kernel_compile"][0]
            - base_workers["perf.kernel_compile"][0]
        ) / n,
        "runtime.chunks": per_op("runtime.chunks"),
        "runtime.cost_evaluations": per_op("runtime.cost_evaluations"),
        "runtime.cache_hit_ratio": (
            (lookups - delta["runtime.cost_evaluations"][0]) / lookups
            if lookups else 0.0
        ),
        "perf.kernel_compiles": per_op("perf.kernel_compile"),
        "perf.kernel_compile_ms": ms("perf.kernel_compile"),
        "joinopt.dp_ms": ms("joinopt.dp"),
        "joinopt.plans_explored": per_op("joinopt.plans_explored"),
        "joinopt.accessor_calls": per_op("joinopt.accessor_calls"),
        "joinopt.heuristic_ms": ms("joinopt.heuristic"),
        "hashjoin.qoh_exhaustive_ms": ms("hashjoin.qoh_exhaustive"),
        "hashjoin.heuristic_ms": ms("hashjoin.heuristic"),
        "hashjoin.lp_solves": per_op("hashjoin.lp_solves"),
        "reductions.build_ms": base["reductions.build"][1] * scale * 1000,
        "observability.trace_overhead_ratio": (
            sum(traced.scaled(traced.latencies)) / len(traced.latencies)
        ) / (sum(plain.scaled(plain.latencies)) / len(plain.latencies)),
    }
    attempted = plain.attempted + traced.attempted
    return metrics, attempted, plain.failed + traced.failed


def _traced_op(recorder: Any, op: Any, ids: Iterator[int]) -> Any:
    def run() -> Any:
        with recorder.operation(next(ids)):
            return op()

    return run


def run_workload(name: str, seed: int, seconds: float,
                 trace: bool) -> Dict[str, Any]:
    """One workload's result object (``correct`` false on a failed check).

    The checks' self-tests run after the measurement, so that their
    work stays out of the run's peak memory and CPU.
    """
    from checks import CheckFailed
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    affinity = os.sched_getaffinity(0)
    if getattr(workload, "pin_cpu", False):
        # Threads started from here on (the daemon's) inherit this.
        os.sched_setaffinity(0, {min(affinity)})
    try:
        if trace:
            values, attempted, failed = per_layer(workload, seconds, seed)
            raw: Dict[str, float] = {}
        else:
            values, raw, attempted, failed = end_to_end(workload, seconds)
    except CheckFailed as failure:
        print(f"perfbench: {name}: check failed: {failure}", file=sys.stderr)
        return {"correct": False, "attempted": failure.attempted,
                "failed": failure.failed, "metrics": {}}
    finally:
        os.sched_setaffinity(0, affinity)
    result = {
        "correct": _self_test(),
        "attempted": attempted,
        "failed": failed,
        "metrics": _metric_payload(values, trace),
    }
    print(f"{name}  seed={seed}  trace={int(trace)}  attempted={attempted}  "
          f"failed={failed}  correct={str(result['correct']).lower()}")
    for metric, entry in result["metrics"].items():
        unscaled = (f"  (unscaled {raw[metric]:.6g})"
                    if metric in raw and metric != "peak_rss_mb" else "")
        print(f"  {metric:<38} {entry['value']:>16.6g} {entry['unit']}"
              f"{unscaled}")
    return result


def _self_test() -> bool:
    import checks
    from workloads import serve_teardown_self_test

    outcomes = checks.self_test()
    outcomes.append(("serve teardown after a failed check",
                     serve_teardown_self_test()))
    bad = [name for name, ok in outcomes if not ok]
    for name in bad:
        print(f"perfbench: self-test {name} did not reject its corrupted "
              "result", file=sys.stderr)
    return not bad


#: A workload that has not finished by now is stopped (exit status 124,
#: no result): a hung pool or daemon must not outlive the run.
WATCHDOG_S = 170


def _terminate(signum: int, _frame: Any) -> None:
    """Unwind through every ``finally`` on SIGTERM or the watchdog."""
    if signum == signal.SIGALRM:
        print("perfbench: watchdog expired, no result; stacks:",
              file=sys.stderr)
        faulthandler.dump_traceback(file=sys.stderr, all_threads=True)
        raise SystemExit(124)
    raise SystemExit(143)


def _default_signals() -> None:
    """In every forked child (the sweep's pool workers): the default
    actions again.  ``Pool.terminate()`` stops workers with SIGTERM and
    then joins them; a worker that inherited a Python-level handler
    instead of the default action survived it now and then, and the
    join never returned."""
    for signum in (signal.SIGTERM, signal.SIGALRM):
        signal.signal(signum, signal.SIG_DFL)


def _child_workload(name: str, args: argparse.Namespace) -> Optional[
        Dict[str, Any]]:
    """Run one workload in a child process; echo its output and return
    its result, or ``None`` when it printed none."""
    child = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    try:
        out, _ = child.communicate()
    finally:
        if child.poll() is None:
            # SIGTERM lets the child tear its daemon and pool down.
            child.terminate()
            try:
                child.wait(timeout=30)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
    sys.stdout.write(out)
    lines = out.strip().splitlines()
    if child.returncode not in (0, 1) or not lines:
        print(f"perfbench: {name} exited {child.returncode} with no result",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def main(argv: Optional[List[str]] = None) -> int:
    import spec

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=spec.WORKLOAD_NAMES + ["all"],
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run only the checks' self-tests")
    args = parser.parse_args(argv)

    if not _load_program():
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    signal.signal(signal.SIGALRM, _terminate)
    os.register_at_fork(after_in_child=_default_signals)
    if args.self_test:
        if not _self_test():
            return 1
        print("perfbench: every check rejected its corrupted result")
        return 0

    if args.workload != "all":
        signal.alarm(WATCHDOG_S)
        final = run_workload(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    else:
        signal.alarm(WATCHDOG_S * len(spec.WORKLOAD_NAMES) + 60)
        results = {}
        for name in spec.WORKLOAD_NAMES:
            result = _child_workload(name, args)
            if result is None:
                return 1
            results[name] = result
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": entry
                        for name, r in results.items()
                        for metric, entry in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
