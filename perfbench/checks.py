"""Output checks computed apart from the optimizers under test.

Every check raises :class:`CheckFailed`.  The references are the
paper's bounds and the substrates' reference cost functions
(``joinopt.cost.total_cost`` for QO_N, ``hashjoin.pipeline.
decomposition_cost`` for QO_H) applied to the plan an optimizer
returned — never a stored copy of an earlier run's output.
:func:`self_test` shows that each check rejects a corrupted result.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Any, Callable, Dict, List, Sequence, Tuple


class CheckFailed(Exception):
    """An output did not match its independent reference.

    ``attempted`` and ``failed`` are the operation counts of the run
    the check ended, set where the failure leaves the timed loops.
    """

    attempted = 0
    failed = 0


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def same_result(first: Any, other: Any, what: str) -> None:
    """Equal in value, type and ``repr`` (cost types included)."""
    require(
        type(first) is type(other)
        and type(getattr(first, "cost", None))
        is type(getattr(other, "cost", None))
        and first == other
        and repr(first) == repr(other),
        f"{what}: {other!r} differs from the first result {first!r}",
    )


def _permutation(sequence: Sequence[int], n: int, what: str) -> None:
    require(
        len(sequence) == n and sorted(sequence) == list(range(n)),
        f"{what}: plan {tuple(sequence)!r} is not a permutation of "
        f"range({n})",
    )


def qon_plan(instance: Any, result: Any, what: str) -> None:
    """A valid permutation whose reported cost is its reference cost."""
    from repro.joinopt.cost import total_cost

    require(result is not None, f"{what}: no plan")
    _permutation(result.sequence, instance.num_relations, what)
    reference = total_cost(instance, result.sequence)
    require(
        reference == result.cost and type(reference) is type(result.cost),
        f"{what}: reported cost {result.cost!r} but the plan costs "
        f"{reference!r}",
    )


def brute_force_optimum(instance: Any) -> Any:
    """Least ``total_cost`` over every permutation (small n only)."""
    from repro.joinopt.cost import total_cost

    return min(
        total_cost(instance, order)
        for order in itertools.permutations(range(instance.num_relations))
    )


def exact_optimum(result: Any, optimum: Any, what: str) -> None:
    require(
        result.cost == optimum,
        f"{what}: reported optimum {result.cost!r}, brute force found "
        f"{optimum!r}",
    )


def below_samples(
    instance: Any, cost: Any, seed: int, what: str, samples: int = 32,
) -> None:
    """No seeded random permutation beats a claimed optimum."""
    from repro.joinopt.cost import total_cost

    rng = random.Random(seed)
    order = list(range(instance.num_relations))
    for _ in range(samples):
        rng.shuffle(order)
        sampled = total_cost(instance, order)
        require(
            cost <= sampled,
            f"{what}: claimed optimum {cost!r} exceeds the cost "
            f"{sampled!r} of {tuple(order)!r}",
        )


def gap_no(reduction: Any, cost: Any, what: str) -> None:
    """Lemma 8: every plan of a NO instance costs at least the floor."""
    floor = reduction.no_cost_lower_bound()
    require(
        cost >= floor,
        f"{what}: cost {cost!r} is below the Lemma 8 floor {floor!r}",
    )


def gap_yes(reduction: Any, clique: Sequence[int], cost: Any,
            what: str) -> None:
    """Lemma 6: the certificate costs at most K, the optimum no more."""
    from repro.core.certificates import qon_certificate_sequence
    from repro.joinopt.cost import total_cost

    certificate = total_cost(
        reduction.instance, qon_certificate_sequence(reduction, clique)
    )
    bound = reduction.yes_cost_bound()
    require(
        certificate <= bound,
        f"{what}: certificate cost {certificate!r} exceeds K = {bound!r}",
    )
    require(
        cost <= certificate,
        f"{what}: optimum {cost!r} exceeds the certificate {certificate!r}",
    )


def qoh_plan(instance: Any, result: Any, what: str) -> None:
    """Feasible permutation; cost equals the decomposition's cost."""
    from repro.hashjoin.optimizer import is_feasible_sequence
    from repro.hashjoin.pipeline import decomposition_cost

    require(result is not None, f"{what}: no plan")
    _permutation(result.sequence, instance.num_relations, what)
    require(
        is_feasible_sequence(instance, result.sequence),
        f"{what}: plan {result.sequence!r} is infeasible",
    )
    require(result.plan is not None, f"{what}: plan has no decomposition")
    reference = decomposition_cost(instance, result.sequence, result.plan)
    require(
        reference == result.cost and type(reference) is type(result.cost),
        f"{what}: reported cost {result.cost!r} but the decomposition "
        f"costs {reference!r}",
    )


def qoh_below_samples(
    instance: Any, cost: Any, seed: int, what: str, samples: int = 8,
) -> None:
    """No seeded hub-first sequence, single-pipeline or fully
    materialized, beats a claimed QO_H optimum."""
    from repro.hashjoin.pipeline import (
        PipelineDecomposition,
        decomposition_cost,
    )

    rng = random.Random(seed)
    tail = list(range(1, instance.num_relations))
    joins = instance.num_relations - 1
    for _ in range(samples):
        rng.shuffle(tail)
        order = [0] + tail
        for decomposition in (
            PipelineDecomposition.single(joins),
            PipelineDecomposition.fully_materialized(joins),
        ):
            sampled = decomposition_cost(instance, order, decomposition)
            require(
                sampled is None or cost <= sampled,
                f"{what}: claimed optimum {cost!r} exceeds {sampled!r}",
            )


def qoh_gap(pair: Any, yes_cost: Any, no_cost: Any, what: str) -> None:
    """Theorem 15 at n=6: YES optimum within the certificate and L, NO
    optimum at least G and above the YES optimum."""
    from repro.core.certificates import qoh_certificate_plan
    from repro.utils.lognum import log2_of

    yes, no = pair.yes_reduction, pair.no_reduction
    certificate = qoh_certificate_plan(yes, pair.yes_clique).cost
    require(
        yes_cost <= certificate,
        f"{what}: YES optimum {yes_cost!r} exceeds the Lemma 12 "
        f"certificate {certificate!r}",
    )
    require(
        log2_of(yes_cost) <= yes.l_bound_log2(),
        f"{what}: log2 YES optimum {log2_of(yes_cost):.2f} exceeds "
        f"log2 L = {float(yes.l_bound_log2()):.2f}",
    )
    require(
        log2_of(no_cost) >= no.g_bound_log2(),
        f"{what}: log2 NO optimum {log2_of(no_cost):.2f} is below "
        f"log2 G = {float(no.g_bound_log2()):.2f}",
    )
    require(
        no_cost > yes_cost,
        f"{what}: NO optimum {no_cost!r} does not exceed YES {yes_cost!r}",
    )


def qoh_separation(pair: Any, no_cost: Any, what: str) -> None:
    """Theorem 15 at search scale: NO plans cost more than the YES
    certificate."""
    from repro.core.certificates import qoh_certificate_plan

    certificate = qoh_certificate_plan(
        pair.yes_reduction, pair.yes_clique
    ).cost
    require(
        no_cost > certificate,
        f"{what}: NO plan cost {no_cost!r} is not above the YES "
        f"certificate {certificate!r}",
    )


def sweep_outcomes(result: Any, tasks: int, what: str) -> None:
    """Every task ran, in the pool, without error."""
    require(
        result.mode == "parallel" and result.workers == 2,
        f"{what}: sweep ran {result.mode} with {result.workers} worker(s), "
        "not in the two-worker pool",
    )
    require(len(result) == tasks, f"{what}: {len(result)} of {tasks} tasks")
    for outcome in result:
        require(
            outcome.ok,
            f"{what}: task {outcome.optimizer}/{outcome.label} failed: "
            f"{outcome.error}",
        )


def counters(observed: Dict[str, int], expected: Dict[str, int],
             what: str) -> None:
    for name, value in expected.items():
        require(
            observed.get(name) == value,
            f"{what}: {name} is {observed.get(name)!r}, expected {value!r}",
        )


# ---------------------------------------------------------------------
# Self-tests: each check must reject a deliberately corrupted result.
# ---------------------------------------------------------------------


def _retyped(cost: Any) -> Any:
    """The same value in another numeric type."""
    if isinstance(cost, Fraction) and cost.denominator == 1:
        return int(cost)
    if isinstance(cost, int):
        return Fraction(cost)
    return float(cost)


def _rejects(check: Callable[[], None]) -> bool:
    try:
        check()
    except CheckFailed:
        return True
    return False


def self_test() -> List[Tuple[str, bool]]:
    """(check name, passes the good result and rejects the corrupted)."""
    from dataclasses import replace

    from repro import api
    from repro.joinopt.cost import total_cost
    from repro.workloads import gaps

    outcomes: List[Tuple[str, bool]] = []

    def case(name: str, good: Callable[[], None],
             bad: Callable[[], None]) -> None:
        outcomes.append((name, not _rejects(good) and _rejects(bad)))

    instance = api.generate("random", 5, seed=1)
    best = api.execute_request(api.OptimizeRequest.build(instance, "dp"))
    case("qon_plan/cost", lambda: qon_plan(instance, best, "t"),
         lambda: qon_plan(instance, replace(best, cost=best.cost + 1), "t"))
    case("qon_plan/type", lambda: qon_plan(instance, best, "t"),
         lambda: qon_plan(
             instance, replace(best, cost=_retyped(best.cost)), "t"))
    case("qon_plan/permutation", lambda: qon_plan(instance, best, "t"),
         lambda: qon_plan(
             instance, replace(best, sequence=(0,) + best.sequence[:-1]),
             "t"))
    optimum = brute_force_optimum(instance)
    worst = max(
        itertools.permutations(range(5)),
        key=lambda order: total_cost(instance, order),
    )
    case("exact_optimum", lambda: exact_optimum(best, optimum, "t"),
         lambda: exact_optimum(
             replace(best, sequence=worst,
                     cost=total_cost(instance, worst)), optimum, "t"))
    case("below_samples", lambda: below_samples(instance, best.cost, 1, "t"),
         lambda: below_samples(
             instance, total_cost(instance, worst) + 1, 1, "t"))

    pair = gaps.qon_gap_pair(6, 4, 2, alpha=4)
    floor = pair.no_reduction.no_cost_lower_bound()
    case("gap_no", lambda: gap_no(pair.no_reduction, floor, "t"),
         lambda: gap_no(pair.no_reduction, floor - 1, "t"))
    yes = api.execute_request(
        api.OptimizeRequest.build(pair.yes_reduction.instance, "dp"))
    case("gap_yes",
         lambda: gap_yes(pair.yes_reduction, pair.yes_clique, yes.cost, "t"),
         lambda: gap_yes(pair.yes_reduction, pair.yes_clique,
                         pair.yes_reduction.yes_cost_bound() + 1, "t"))

    hpair = gaps.qoh_gap_pair(6, Fraction(1, 2), alpha=4**6)
    hyes = hpair.yes_reduction.instance
    plan = api.execute_request(api.OptimizeRequest.build(hyes, "qoh-greedy"))
    hub_late = plan.sequence[1:] + plan.sequence[:1]
    case("qoh_plan/feasible", lambda: qoh_plan(hyes, plan, "t"),
         lambda: qoh_plan(hyes, replace(plan, sequence=hub_late), "t"))
    case("qoh_plan/cost", lambda: qoh_plan(hyes, plan, "t"),
         lambda: qoh_plan(hyes, replace(plan, cost=plan.cost + 1), "t"))
    case("qoh_below_samples",
         lambda: qoh_below_samples(hyes, plan.cost, 1, "t"),
         lambda: qoh_below_samples(hyes, plan.cost * 2**64, 1, "t"))
    hno = api.execute_request(api.OptimizeRequest.build(
        hpair.no_reduction.instance, "qoh-greedy"))
    case("qoh_separation", lambda: qoh_separation(hpair, hno.cost, "t"),
         lambda: qoh_separation(hpair, plan.cost, "t"))
    from repro.core.certificates import qoh_certificate_plan

    certificate = qoh_certificate_plan(
        hpair.yes_reduction, hpair.yes_clique).cost
    case("qoh_gap", lambda: qoh_gap(hpair, certificate, hno.cost, "t"),
         lambda: qoh_gap(hpair, certificate, certificate, "t"))

    case("same_result", lambda: same_result(best, replace(best), "t"),
         lambda: same_result(
             best, replace(best, cost=_retyped(best.cost)), "t"))
    case("counters",
         lambda: counters({"computed": 3}, {"computed": 3}, "t"),
         lambda: counters({"computed": 3}, {"computed": 4}, "t"))
    def pooled(optimizers: List[str]) -> Any:
        result = api.execute_request(api.SweepSpec.build(
            optimizers, [("q", instance)], workers=1))
        return replace(result, mode="parallel", workers=2)

    good_sweep = pooled(["greedy-cost"])
    case("sweep_outcomes/error", lambda: sweep_outcomes(good_sweep, 1, "t"),
         lambda: sweep_outcomes(pooled(["greedy-cost", "ikkbz"]), 2, "t"))
    case("sweep_outcomes/serial",
         lambda: sweep_outcomes(good_sweep, 1, "t"),
         lambda: sweep_outcomes(replace(good_sweep, mode="serial"), 1, "t"))
    return outcomes
