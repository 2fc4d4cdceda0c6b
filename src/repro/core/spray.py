"""Spray arbitration: per-destination round-robin over a rotating
random permutation of eligible links (§5.3).

The arbiter walks the eligible link set in a random permutation order
and reshuffles the permutation every few rounds, so transient
synchronization between packet arrival patterns and the walk order
cannot persist.  Ablation modes (pure random pick, static hash) exist so
benchmarks can show why the paper's choice wins.
"""

from __future__ import annotations

import random
from typing import Dict, Hashable, Sequence, TypeVar

L = TypeVar("L", bound=Hashable)


class SprayArbiter:
    """Chooses the next link for a (destination, link-set) stream."""

    __slots__ = ("_rng", "_reshuffle_every", "mode", "_state")

    MODES = ("permutation", "random", "static")

    def __init__(
        self,
        rng: random.Random,
        reshuffle_every: int = 64,
        mode: str = "permutation",
    ) -> None:
        if mode not in self.MODES:
            raise ValueError(f"unknown spray mode {mode!r}")
        if reshuffle_every < 1:
            raise ValueError("reshuffle period must be >= 1")
        self._rng = rng
        self._reshuffle_every = reshuffle_every
        self.mode = mode
        # Per destination, mutated in place:
        # [permutation, cursor, cells_since_shuffle, last_links_seen].
        # last_links_seen is the eligible sequence exactly as last
        # passed.  Devices memoize their eligible lists per topology
        # epoch, so between reachability events every pick toward a
        # destination passes the *same object* — one identity check
        # replaces the membership compare entirely.  A fresh-but-equal
        # list (uncached callers) still short-circuits on the C-level
        # equality walk, and only a real membership change pays the two
        # set() builds and a reshuffle.
        self._state: Dict[Hashable, list] = {}

    def pick(self, dst: Hashable, links: Sequence[L]) -> L:
        """The link to use for the next cell toward ``dst``.

        ``links`` is the currently eligible set; if it changed since the
        last call (reachability update) the walk restarts on the new set.
        """
        if not links:
            raise ValueError(f"no eligible links toward {dst}")
        if self.mode != "permutation":
            # Ablation modes, off the hot path: the common case above
            # pays exactly one (interned) string compare.
            if self.mode == "random":
                return self._rng.choice(list(links))
            # ECMP-like: a fixed link per destination (ablation only).
            # Destinations are DeviceId/VoqId built on integer ids, whose
            # hashes are PYTHONHASHSEED-independent.
            return links[hash(dst) % len(links)]  # repro-lint: allow=DET004 -- int-based hashes are seed-stable; static mode is an ablation

        state = self._state.get(dst)
        if state is None:
            perm = list(links)
            self._rng.shuffle(perm)
            state = [perm, 0, 0, links]
            self._state[dst] = state
        elif links is not state[3]:
            if links != state[3]:
                # Same membership in a different order keeps the walk; a
                # membership change (reachability update) restarts it.
                if set(state[0]) != set(links):
                    perm = list(links)
                    self._rng.shuffle(perm)
                    state[0] = perm
                    state[1] = 0
                    state[2] = 0
            state[3] = links
        perm = state[0]
        cursor = state[1]
        link = perm[cursor]
        cursor += 1
        state[2] += 1
        if cursor >= len(perm):
            cursor = 0
            if state[2] >= self._reshuffle_every:
                self._rng.shuffle(perm)
                state[2] = 0
        state[1] = cursor
        return link
