"""Valiant load-balanced routing (paper §4.2).

Traffic from a node, irrespective of its destination, is detoured
uniformly through the other nodes: the source picks a random
intermediate for every cell, sends the cell to the intermediate on the
cyclic schedule, and the intermediate forwards it to the final
destination on its own slot.  Detouring converts any demand matrix into
a (near-)uniform one, which the equal-rate cyclic schedule serves
perfectly; the cost is up to 2× worst-case throughput (Chang et al.
[12]), which Sirius offsets with extra uplinks.

Two details from the paper:

* a cell is detoured through *at most one* intermediate — cells arriving
  at a node from the optical network are either consumed (final
  destination) or sent directly to the destination, never re-detoured;
* the destination itself is a legal "intermediate" (the uniform choice
  is over all nodes other than the source), in which case the cell
  takes a single hop.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from itertools import chain
from typing import Iterator, List, Optional, Union


class OtherNodes(Sequence):
    """Every node id in ``range(n_nodes)`` but ``node``, ascending.

    The candidate intermediates of a source (§4.2), computed rather
    than stored: position ``i`` holds node ``i + (i >= node)``.  An
    eager list costs ``n_nodes - 1`` ints per sending node (4095 at
    4096 nodes); this costs two.  Iteration, indexing and slicing
    (slices are lists) match the eager list's, so ``rng.choice`` and
    ``rng.sample`` over either draw the same nodes.
    """

    __slots__ = ("n_nodes", "node")

    def __init__(self, n_nodes: int, node: int) -> None:
        self.n_nodes = n_nodes
        self.node = node

    def __len__(self) -> int:
        return self.n_nodes - 1

    def __iter__(self) -> Iterator[int]:
        return chain(range(self.node), range(self.node + 1, self.n_nodes))

    def __getitem__(self, index: Union[int, slice]):
        node = self.node
        if not isinstance(index, slice):
            position = range(self.n_nodes - 1)[index]
            return position + (position >= node)
        start, stop, step = index.indices(self.n_nodes - 1)
        if step != 1:
            return [i + (i >= node) for i in range(start, stop, step)]
        # Contiguous windows (the DRRM rotation's) are one range, with
        # ``node`` cut out when the window spans it.
        if stop <= node:
            return list(range(start, stop))
        if start >= node:
            return list(range(start + 1, stop + 1))
        picked = list(range(start, stop + 1))
        del picked[node - start]
        return picked


class ValiantRouter:
    """Uniform-random intermediate selection for one source node.

    Parameters
    ----------
    n_nodes:
        Total nodes in the network.
    node:
        The source node this router serves (never chosen as its own
        intermediate).
    rng:
        Random source; pass a seeded ``random.Random`` for reproducible
        simulations.
    exclude_destination:
        When True the final destination is excluded from the
        intermediate choice, forcing every cell through exactly two
        hops.  The paper's design allows the destination (single-hop);
        the flag exists for the ablation benchmarks.
    """

    def __init__(self, n_nodes: int, node: int, *,
                 rng: Optional[random.Random] = None,
                 exclude_destination: bool = False) -> None:
        if n_nodes < 2:
            raise ValueError(f"need at least 2 nodes, got {n_nodes}")
        if not 0 <= node < n_nodes:
            raise ValueError(f"node {node} out of range [0, {n_nodes})")
        self.n_nodes = n_nodes
        self.node = node
        self.rng = rng or random.Random(node)
        self.exclude_destination = exclude_destination
        self._others = OtherNodes(n_nodes, node)

    def pick_intermediate(self, dst: int) -> int:
        """Choose an intermediate for a cell destined to ``dst``."""
        self._check_dst(dst)
        if not self.exclude_destination:
            return self.rng.choice(self._others)
        if self.n_nodes == 2:
            raise ValueError(
                "cannot exclude the destination in a 2-node network"
            )
        while True:
            choice = self.rng.choice(self._others)
            if choice != dst:
                return choice

    def sample_intermediates(self, k: int) -> List[int]:
        """``k`` distinct intermediates, uniformly at random.

        Used by the congestion-control request phase, which sends at
        most one request per intermediate per epoch (§4.3); ``k`` is
        capped at the number of candidate nodes.
        """
        if k < 0:
            raise ValueError(f"k cannot be negative, got {k}")
        k = min(k, len(self._others))
        return self.rng.sample(self._others, k)

    def hops_for(self, intermediate: int, dst: int) -> int:
        """Number of optical hops a cell takes via ``intermediate``."""
        self._check_dst(dst)
        return 1 if intermediate == dst else 2

    @property
    def candidates(self) -> Sequence[int]:
        """All legal intermediates for this source."""
        return tuple(self._others)

    def _check_dst(self, dst: int) -> None:
        if not 0 <= dst < self.n_nodes:
            raise ValueError(f"dst {dst} out of range [0, {self.n_nodes})")
        if dst == self.node:
            raise ValueError("destination equals the source node")
