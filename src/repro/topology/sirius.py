"""The Sirius flat physical topology (paper §4.1, Fig 5a).

Nodes (servers or rack switches) connect to a fully passive core — a
single layer of AWGR gratings — through tunable-transceiver uplinks.
Each uplink is fibre-attached to one grating input port; by retuning its
laser wavelength the uplink can reach any of that grating's output
ports, i.e. any of ``G`` destination nodes (``G`` = grating port count).

Construction used here (generalizing Fig 5a):

* Nodes are partitioned into ``N / G`` *blocks* of ``G`` nodes.
* There is one grating per ``(source block, destination block)`` pair —
  its inputs come from the ``G`` nodes of the source block and its
  outputs feed the ``G`` nodes of the destination block.
* Each node therefore needs ``N / G`` uplinks to reach every block, and
  an *uplink multiplier* ``m`` replicates each of them ``m`` times (the
  paper provisions 1.5–2× uplinks to offset the 2× worst-case throughput
  loss of load-balanced routing, §4.2/Fig 12).

With 4 nodes, ``G = 2`` and ``m = 1`` this reproduces the paper's Fig 5a
exactly: 4 gratings, 2 uplinks per node.  With 100-port gratings and 256
uplinks it scales to the paper's 25,600-rack deployment.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro.optics.awgr import AWGR
from repro.units import GBPS, fibre_delay


@dataclass(frozen=True)
class Uplink:
    """One tunable-transceiver uplink of a node.

    Attributes
    ----------
    node:
        Owning node id.
    index:
        Uplink index within the node (0 .. uplinks_per_node-1).
    grating:
        Id of the grating the uplink's fibre is attached to.
    input_port:
        Input port on that grating.
    reachable_block:
        Destination block this uplink can address.
    """

    node: int
    index: int
    grating: int
    input_port: int
    reachable_block: int


class GratingView(Sequence):
    """The ``n_gratings`` gratings of a topology, indexable by grating id.

    Every grating of a topology has the same port count and insertion
    loss, and routing is a pure function of (input port, channel), so
    all ids map to one shared :class:`AWGR` model instead of one object
    each (65,536 at the paper's 25,600 racks).  The one per-instance
    state of an ``AWGR``, the diagnostic ``routed_count``, is therefore
    shared too; nothing in the topology or schedule routes through
    :meth:`AWGR.route`, which only the testbed rig's own grating uses.
    """

    def __init__(self, awgr: AWGR, count: int) -> None:
        self._awgr = awgr
        self._count = count

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, grating: int) -> AWGR:
        if not -self._count <= grating < self._count:
            raise IndexError(f"grating {grating} out of range "
                             f"[0, {self._count})")
        return self._awgr


class SiriusTopology:
    """A flat Sirius network: ``n_nodes`` nodes over passive gratings.

    The wiring is closed-form, so nothing is stored per uplink: uplink
    ``k`` of node ``n`` sits on input port ``n mod G`` of grating
    ``_grating_id(n // G, k // m, k mod m)``, and :meth:`uplinks`,
    :meth:`iter_uplinks` and :meth:`paths_to` compute their
    :class:`Uplink` records on demand.

    Parameters
    ----------
    n_nodes:
        Number of nodes (racks or servers) attached to the core.
    grating_ports:
        Ports per AWGR grating, ``G``; also the number of wavelength
        channels each laser tunes across.  Must divide ``n_nodes``.
    uplink_multiplier:
        How many parallel uplinks address each destination block
        (paper default 1.5 for the simulations, here any positive
        integer or half-integer yielding an integral uplink count).
    link_rate_bps:
        Line rate of each optical channel (paper: 50 Gb/s).
    fibre_lengths_m:
        Optional per-node fibre length to the grating layer; used by the
        time-synchronization subsystem to derive per-node epoch start
        offsets (§4.4).  Defaults to 0 (equal lengths).
    """

    def __init__(self, n_nodes: int, grating_ports: int, *,
                 uplink_multiplier: float = 1.0,
                 link_rate_bps: float = 50 * GBPS,
                 grating_insertion_loss_db: float = 6.0,
                 fibre_lengths_m: Optional[Sequence[float]] = None) -> None:
        if n_nodes <= 1:
            raise ValueError(f"need at least 2 nodes, got {n_nodes}")
        if grating_ports <= 0:
            raise ValueError(f"grating_ports must be positive, got {grating_ports}")
        if n_nodes % grating_ports != 0:
            raise ValueError(
                f"grating_ports ({grating_ports}) must divide n_nodes ({n_nodes})"
            )
        if link_rate_bps <= 0:
            raise ValueError("link rate must be positive")
        if uplink_multiplier < 1 or abs(uplink_multiplier - round(uplink_multiplier)) > 1e-9:
            raise ValueError(
                "the physical topology needs an integral uplink multiplier "
                f"(got {uplink_multiplier}); fractional provisioning such as "
                "the paper's 1.5x is modelled at the simulator level "
                "(repro.core.network) as per-epoch capacity"
            )
        self.n_nodes = n_nodes
        self.grating_ports = grating_ports
        self.uplink_multiplier = int(round(uplink_multiplier))
        self.link_rate_bps = link_rate_bps
        self.n_blocks = n_nodes // grating_ports
        #: Parallel uplinks addressing each destination block.
        self.links_per_block = self.uplink_multiplier
        self.uplinks_per_node = self.n_blocks * self.links_per_block
        if fibre_lengths_m is None:
            fibre_lengths_m = [0.0] * n_nodes
        if len(fibre_lengths_m) != n_nodes:
            raise ValueError("fibre_lengths_m must have one entry per node")
        self.fibre_lengths_m = list(fibre_lengths_m)

        # One grating per (source block, destination block, replica).
        self.n_gratings = self.n_blocks * self.n_blocks * self.links_per_block
        self.gratings = GratingView(
            AWGR(grating_ports, insertion_loss_db=grating_insertion_loss_db),
            self.n_gratings,
        )

    # -- wiring ---------------------------------------------------------------
    def _grating_id(self, src_block: int, dst_block: int, replica: int) -> int:
        """Grating joining ``src_block`` to ``dst_block`` (one per replica).

        Plain arithmetic, so it also accepts broadcastable integer numpy
        arrays (see :meth:`CyclicSchedule.verify_contention_free`).
        """
        return (
            (src_block * self.n_blocks + dst_block) * self.links_per_block
            + replica
        )

    def _uplinks_at(self, node: int, indices: range) -> List[Uplink]:
        """Uplinks ``indices`` of ``node``: index ``k`` addresses block
        ``k // m`` through replica ``k mod m``."""
        src_block, input_port = divmod(node, self.grating_ports)
        m = self.links_per_block
        return [
            Uplink(
                node=node,
                index=index,
                grating=self._grating_id(src_block, index // m, index % m),
                input_port=input_port,
                reachable_block=index // m,
            )
            for index in indices
        ]

    # -- queries -----------------------------------------------------------
    def uplinks(self, node: int) -> List[Uplink]:
        """All uplinks of ``node``, in index order."""
        self._check_node(node)
        return self._uplinks_at(node, range(self.uplinks_per_node))

    def block_of(self, node: int) -> int:
        """Block (grating output group) a node belongs to."""
        self._check_node(node)
        return node // self.grating_ports

    def nodes_in_block(self, block: int) -> range:
        """Node ids belonging to ``block``."""
        if not 0 <= block < self.n_blocks:
            raise ValueError(f"block {block} out of range [0, {self.n_blocks})")
        start = block * self.grating_ports
        return range(start, start + self.grating_ports)

    def reachable_nodes(self, uplink: Uplink) -> range:
        """Destinations reachable from ``uplink`` (its grating's outputs)."""
        return self.nodes_in_block(uplink.reachable_block)

    def wavelength_for(self, uplink: Uplink, dst_node: int) -> int:
        """Wavelength channel that routes ``uplink`` to ``dst_node``.

        The wavelength is the proxy for the destination address (§1):
        the AWGR's cyclic routing maps (input port, channel) → output
        port, and output port ``p`` of the grating feeds node
        ``dst_block·G + p``.
        """
        self._check_node(dst_node)
        if self.block_of(dst_node) != uplink.reachable_block:
            raise ValueError(
                f"node {dst_node} (block {self.block_of(dst_node)}) is not "
                f"reachable from uplink {uplink.index} of node {uplink.node} "
                f"(block {uplink.reachable_block})"
            )
        output_port = dst_node % self.grating_ports
        return self.gratings[uplink.grating].channel_for(
            uplink.input_port, output_port
        )

    def paths_to(self, src_node: int, dst_node: int
                 ) -> List[Tuple[Uplink, int]]:
        """All single-hop physical paths ``src → dst``: (uplink, wavelength).

        With multiplier ``m`` there are ``m`` such paths.  Direct
        single-hop reachability through *some* uplink exists for every
        node pair, but only through ``links_per_block`` of the node's
        uplinks — which is why Sirius needs load-balanced routing to use
        full node bandwidth between any pair (§4.1).
        """
        self._check_node(src_node)
        first = self.block_of(dst_node) * self.links_per_block
        return [
            (uplink, self.wavelength_for(uplink, dst_node))
            for uplink in self._uplinks_at(
                src_node, range(first, first + self.links_per_block))
        ]

    def iter_uplinks(self) -> Iterator[Uplink]:
        """Iterate over every uplink in the network, node by node."""
        for node in range(self.n_nodes):
            yield from self.uplinks(node)

    # -- aggregate properties -----------------------------------------------
    @property
    def total_uplinks(self) -> int:
        return self.n_nodes * self.uplinks_per_node

    @property
    def node_uplink_bandwidth_bps(self) -> float:
        """Aggregate uplink bandwidth per node."""
        return self.uplinks_per_node * self.link_rate_bps

    @property
    def bisection_bandwidth_bps(self) -> float:
        """Bisection bandwidth of the flat core.

        The cyclic schedule gives every node-pair equal-rate
        connectivity, so the core behaves as a non-blocking switch over
        the node uplink bandwidth.
        """
        return self.n_nodes * self.node_uplink_bandwidth_bps / 2.0

    def propagation_delay(self, node: int) -> float:
        """One-way node → grating-layer propagation delay (seconds)."""
        self._check_node(node)
        return fibre_delay(self.fibre_lengths_m[node])

    def pair_propagation_delay(self, src: int, dst: int) -> float:
        """One-way src → dst propagation delay through the passive core."""
        return self.propagation_delay(src) + self.propagation_delay(dst)

    # -- validation -----------------------------------------------------------
    def validate_full_reachability(self) -> None:
        """Check that every node can reach every other node directly.

        Raises ``AssertionError`` on any violation; used by tests and as
        a post-construction self-check in examples.
        """
        for src in range(self.n_nodes):
            reachable = set()
            for uplink in self.uplinks(src):
                reachable.update(self.reachable_nodes(uplink))
            missing = set(range(self.n_nodes)) - reachable
            assert not missing, (
                f"node {src} cannot reach nodes {sorted(missing)}"
            )

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.n_nodes:
            raise ValueError(f"node {node} out of range [0, {self.n_nodes})")

    def __repr__(self) -> str:
        return (
            f"SiriusTopology(n_nodes={self.n_nodes}, "
            f"grating_ports={self.grating_ports}, "
            f"uplinks_per_node={self.uplinks_per_node}, "
            f"n_gratings={self.n_gratings})"
        )
