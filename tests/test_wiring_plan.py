"""Pin :func:`build_wiring_plan` on shapes the goldens never build.

The 24 golden cells exercise a handful of symmetric topologies.  The
operation order of a wiring plan is part of the fabric contract
(replaying it reproduces construction order bit for bit), so this file
hashes ``ops`` + ``edges`` + ``elements`` + ``routes`` over a generated
grid of pod shapes — asymmetric rows, one to three pods — against
constants recorded before the pod planners were folded into one.
"""

from __future__ import annotations

import hashlib
from itertools import product

import pytest

from repro.fabrics.wiring import (
    ThreeTierSpec,
    TwoTierSpec,
    build_wiring_plan,
)


def _two_tier_grid():
    for pods, fas, fes, spines in product(
        (1, 2, 3), (1, 2, 3), (1, 2, 3), (1, 2, 3)
    ):
        yield TwoTierSpec(
            pods=pods, fas_per_pod=fas, fes_per_pod=fes, spines=spines,
            hosts_per_fa=1,
        )


def _three_tier_grid():
    for pods, fas, fes1, fes2, spines in product(
        (1, 2, 3), (1, 3), (1, 2, 3), (1, 2), (1, 3)
    ):
        yield ThreeTierSpec(
            pods=pods, fas_per_pod=fas, fes1_per_pod=fes1,
            fes2_per_pod=fes2, spines=spines, hosts_per_fa=2,
        )


def _plan_digest(spec) -> str:
    plan = build_wiring_plan(spec)
    text = repr((
        plan.tiers, plan.hosts_per_edge, plan.edges, plan.elements,
        plan.ops, sorted(plan.routes.items()),
    ))
    return hashlib.sha256(text.encode()).hexdigest()


def _grid_digest(specs) -> tuple:
    rolled = hashlib.sha256()
    count = 0
    for spec in specs:
        rolled.update(_plan_digest(spec).encode())
        count += 1
    return count, rolled.hexdigest()[:16]


#: (specs in the grid, rolled digest) recorded at the parent of the
#: planner fold (commit 65ae61c, `_plan_two_tier` / `_plan_three_tier`).
PINNED = {
    "two_tier": (81, "818737c5fc5c940e"),
    "three_tier": (72, "bdf6ff603c784f80"),
}

GRIDS = {"two_tier": _two_tier_grid, "three_tier": _three_tier_grid}


@pytest.mark.parametrize("family", sorted(GRIDS))
def test_pod_plans_match_the_pinned_digests(family):
    assert _grid_digest(GRIDS[family]()) == PINNED[family]


def test_asymmetric_three_tier_shape_by_hand():
    # One spelled-out case so a digest mismatch has a readable twin:
    # 2 pods x (1 FA, 2 tier-1, 1 tier-2), 1 spine.
    plan = build_wiring_plan(ThreeTierSpec(
        pods=2, fas_per_pod=1, fes1_per_pod=2, fes2_per_pod=1, spines=1,
        hosts_per_fa=1,
    ))
    assert [(n.element_id, n.tier, n.pod, n.sample_queues)
            for n in plan.elements] == [
        (0, 1, 0, True), (1, 1, 0, True), (2, 2, 0, False),
        (3, 1, 1, True), (4, 1, 1, True), (5, 2, 1, False),
        (6, 3, None, False),
    ]
    links = [(op.lower, op.upper) for op in plan.ops if hasattr(op, "lower")]
    assert links == [
        (("edge", 0), ("element", 0)), (("edge", 0), ("element", 1)),
        (("element", 0), ("element", 2)), (("element", 1), ("element", 2)),
        (("edge", 1), ("element", 3)), (("edge", 1), ("element", 4)),
        (("element", 3), ("element", 5)), (("element", 4), ("element", 5)),
        (("element", 2), ("element", 6)), (("element", 5), ("element", 6)),
    ]
    assert plan.routes[2].down == (
        (0, (("element", 0), ("element", 1))),
    )
    assert plan.routes[2].up_reaches_everything
    assert plan.routes[6].down == (
        (0, (("element", 2),)), (1, (("element", 5),)),
    )
    assert not plan.routes[6].up_reaches_everything
