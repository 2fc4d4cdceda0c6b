"""Explicit fat-tree graphs (networkx) for structural analysis.

The event-level fabrics in :mod:`repro.fabrics` wire simulator
entities; this module builds the same shapes as annotated graphs so
tests and analyses can check structural invariants (path counts,
bisection, diameter) without running a simulation.
"""

from __future__ import annotations

from typing import List

# networkx is imported where a graph is built or walked, not here:
# ``repro.experiments`` reaches this module through ``repro.analysis``,
# and the import is ~170 ms that every CLI call and sweep worker would
# pay without ever building a graph.


class FatTreeGraph:
    """A folded-Clos / fat-tree as a networkx graph.

    Nodes are strings: ``tor{i}``, ``t1.{i}`` (tier-1), ``t2.{i}``
    (spine).  Node attribute ``kind`` is ``tor``/``fabric``; edges carry
    ``tier`` (1 for ToR<->tier-1, 2 for tier-1<->tier-2).
    """

    def __init__(
        self,
        pods: int,
        tors_per_pod: int,
        t1_per_pod: int,
        spines: int = 0,
    ) -> None:
        if pods < 1 or tors_per_pod < 1 or t1_per_pod < 1:
            raise ValueError("pod shape must be positive")
        if pods > 1 and spines < 1:
            raise ValueError("multi-pod networks need spines")
        import networkx as nx

        self.pods = pods
        self.tors_per_pod = tors_per_pod
        self.t1_per_pod = t1_per_pod
        self.spines = spines
        self.graph = nx.Graph()

        for pod in range(pods):
            for i in range(tors_per_pod):
                tor = f"tor{pod * tors_per_pod + i}"
                self.graph.add_node(tor, kind="tor", pod=pod)
            for j in range(t1_per_pod):
                t1 = f"t1.{pod * t1_per_pod + j}"
                self.graph.add_node(t1, kind="fabric", tier=1, pod=pod)
                for i in range(tors_per_pod):
                    tor = f"tor{pod * tors_per_pod + i}"
                    self.graph.add_edge(tor, t1, tier=1)
        for s in range(spines):
            spine = f"t2.{s}"
            self.graph.add_node(spine, kind="fabric", tier=2)
            for pod in range(pods):
                for j in range(t1_per_pod):
                    t1 = f"t1.{pod * t1_per_pod + j}"
                    self.graph.add_edge(t1, spine, tier=2)

    @property
    def tor_count(self) -> int:
        """Number of ToR nodes."""
        return self.pods * self.tors_per_pod

    @property
    def fabric_count(self) -> int:
        """Number of fabric (non-ToR) switches."""
        return self.pods * self.t1_per_pod + self.spines

    def tors(self) -> List[str]:
        """All ToR node names."""
        return [
            n for n, d in self.graph.nodes(data=True) if d["kind"] == "tor"
        ]

    def shortest_paths(self, src_tor: str, dst_tor: str) -> List[List[str]]:
        """All shortest paths between two ToRs (spray path diversity)."""
        import networkx as nx

        return list(
            nx.all_shortest_paths(self.graph, src_tor, dst_tor)
        )

    def path_diversity(self, src_tor: str, dst_tor: str) -> int:
        """Number of equal-length paths between two ToRs."""
        return len(self.shortest_paths(src_tor, dst_tor))

    def diameter_hops(self) -> int:
        """Longest shortest ToR-to-ToR path (in links)."""
        import networkx as nx

        tors = self.tors()
        best = 0
        lengths = dict(nx.all_pairs_shortest_path_length(self.graph))
        for a in tors:
            for b in tors:
                if a != b:
                    best = max(best, lengths[a][b])
        return best

    def min_edge_cut_between_tors(self, a: str, b: str) -> int:
        """Minimum edge cut between two ToRs (fault tolerance)."""
        import networkx as nx

        return len(nx.minimum_edge_cut(self.graph, a, b))
