"""DRRM vs random request/grant selection (paper §4.3, [13])."""

import random
from collections import Counter, deque

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import Cell, CongestionConfig, Flow, SiriusNetwork, SiriusNode


def make_node(selection, node=0, n_nodes=8, seed=1):
    return SiriusNode(
        node, n_nodes, CongestionConfig(selection=selection),
        random.Random(seed),
    )


class TestConfig:
    def test_default_is_drrm(self):
        assert CongestionConfig().selection == "drrm"

    def test_unknown_selection_rejected(self):
        with pytest.raises(ValueError):
            CongestionConfig(selection="fifo")


class TestDrrmRequests:
    def test_request_offset_rotates_between_epochs(self):
        node = make_node("drrm")
        from repro.core.cell import Cell

        node.apply_grants_and_expiries()
        node.enqueue_local(Cell(1, 0, 0, 3))
        first = node.generate_requests()
        # Expire and re-request: the intermediate advances.
        node.apply_grants_and_expiries()
        node.generate_requests()
        node.apply_grants_and_expiries()
        second = node.generate_requests()
        assert first[0][1] == second[0][1] == 3
        assert first[0][0] != second[0][0]

    def test_different_nodes_desynchronized(self):
        from repro.core.cell import Cell

        requests = {}
        for node_id in (1, 2):
            node = make_node("drrm", node=node_id)
            node.enqueue_local(Cell(1, 0, node_id, 5))
            requests[node_id] = node.generate_requests()[0][0]
        assert requests[1] != requests[2]

    def test_deterministic(self):
        from repro.core.cell import Cell

        def run():
            node = make_node("drrm")
            for seq in range(5):
                node.enqueue_local(Cell(1, seq, 0, 3))
            return node.generate_requests()

        assert run() == run()


class TestDrrmGrants:
    def test_grant_pointer_rotates_across_sources(self):
        node = make_node("drrm", node=7)
        node.request_inbox = [(1, 3), (2, 3), (4, 3)]
        first = node.decide_grants(1)[0][0]
        # Drain the queue bound so the next grant is admissible.
        node.outstanding.clear()
        node.request_inbox = [(1, 3), (2, 3), (4, 3)]
        second = node.decide_grants(1)[0][0]
        assert first != second
        assert second > first or second < first  # rotated


class TestThroughputComparison:
    def _saturation_goodput(self, selection):
        n = 16
        net = SiriusNetwork(
            n, 4, uplink_multiplier=1.0, seed=3,
            config=CongestionConfig(selection=selection),
        )
        rng = random.Random(0)
        flows = []
        fid = 0
        for src in range(n):
            for _ in range(60):
                dst = rng.randrange(n - 1)
                if dst >= src:
                    dst += 1
                flows.append(Flow(fid, src, dst, size_bits=20_000,
                                  arrival_time=0.0))
                fid += 1
        result = net.run(flows)
        return result.normalized_goodput

    def test_both_selections_sustain_saturation(self):
        drrm = self._saturation_goodput("drrm")
        rand = self._saturation_goodput("random")
        # Both within a sane band of each other; neither collapses.
        assert drrm > 0.15 and rand > 0.15
        assert abs(drrm - rand) / max(drrm, rand) < 0.25


def _modulo_requests(node):
    """Request generation with one modulo index per DRRM request.

    The straightforward form of :meth:`SiriusNode.generate_requests`:
    no single-destination shortcut, and the rotation window is built
    as ``candidates[(i + offset) % m]`` one request at a time.
    """
    if node.config.ideal:
        return []
    backlog = [
        (dst, len(queue) - node.requested.get(dst, 0))
        for dst, queue in node.local_by_dst.items()
        if len(queue) > node.requested.get(dst, 0)
        and dst not in node.excluded
    ]
    if not backlog:
        node._sent_request_history.append(Counter())
        return []
    pending = dict(backlog)
    total = min(sum(pending.values()), len(node._others))
    if node.config.selection == "drrm":
        order = sorted(pending)
    else:
        order = list(pending)
        node.rng.shuffle(order)
    dst_sequence = []
    idx = 0
    while len(dst_sequence) < total:
        dst = order[idx % len(order)]
        if pending[dst] > 0:
            dst_sequence.append(dst)
            pending[dst] -= 1
            idx += 1
        else:
            order.remove(dst)
    candidates = (
        [o for o in node._others if o not in node.excluded]
        if node.excluded else node._others
    )
    total = min(total, len(candidates))
    if node.config.selection == "drrm":
        m = len(candidates)
        offset = node._request_offset
        node._request_offset += 1
        intermediates = [candidates[(i + offset) % m] for i in range(total)]
    else:
        intermediates = node.rng.sample(candidates, total)
    requests = []
    batch = Counter()
    for intermediate, dst in zip(intermediates, dst_sequence):
        if node.config.exclude_destination_intermediate and intermediate == dst:
            continue
        requests.append((intermediate, dst))
        batch[dst] += 1
        node.requested[dst] = node.requested.get(dst, 0) + 1
    node._sent_request_history.append(batch)
    return requests


@st.composite
def _request_state(draw):
    """A node mid-run: LOCAL backlog, outstanding requests, exclusions."""
    n_nodes = draw(st.integers(min_value=2, max_value=24))
    node = draw(st.integers(min_value=0, max_value=n_nodes - 1))
    others = [n for n in range(n_nodes) if n != node]
    backlog = draw(st.dictionaries(st.sampled_from(others),
                                   st.integers(min_value=1, max_value=30),
                                   max_size=len(others)))
    requested = {dst: draw(st.integers(min_value=0, max_value=cells))
                 for dst, cells in backlog.items()}
    if draw(st.booleans()):
        excluded = set(others)
    else:
        excluded = draw(st.sets(st.sampled_from(others)))
    return dict(
        n_nodes=n_nodes, node=node, backlog=backlog,
        requested={dst: n for dst, n in requested.items() if n},
        excluded=excluded,
        selection=draw(st.sampled_from(["drrm", "random"])),
        forbid_direct=draw(st.booleans()),
        offset=draw(st.integers(min_value=0, max_value=10_000)),
        seed=draw(st.integers(min_value=0, max_value=2**32 - 1)),
    )


def _node_in(state):
    config = CongestionConfig(
        selection=state["selection"],
        exclude_destination_intermediate=state["forbid_direct"],
    )
    node = SiriusNode(state["node"], state["n_nodes"], config,
                      random.Random(state["seed"]))
    for dst, cells in state["backlog"].items():
        node.local_by_dst[dst] = deque(
            Cell(dst, seq, state["node"], dst) for seq in range(cells))
        node.local_cells += cells
    node.requested = dict(state["requested"])
    node.excluded = set(state["excluded"])
    node._request_offset = state["offset"]
    return node


@settings(max_examples=300, deadline=None)
@given(_request_state())
# One backlogged destination (the slice shortcut) whose window wraps,
# and the same with every other node excluded.
@example(dict(n_nodes=8, node=2, backlog={5: 6}, requested={5: 1},
              excluded=set(), selection="drrm", forbid_direct=False,
              offset=4, seed=1))
@example(dict(n_nodes=8, node=2, backlog={5: 6}, requested={},
              excluded={0, 1, 3, 4, 5, 6, 7}, selection="drrm",
              forbid_direct=False, offset=4, seed=1))
def test_requests_match_modulo_rotation(state):
    """The node's slice rotation and single-destination shortcut issue
    the requests, bookkeeping and RNG draws of the modulo form."""
    sliced, modulo = _node_in(state), _node_in(state)
    assert sliced.generate_requests() == _modulo_requests(modulo)
    assert sliced.requested == modulo.requested
    assert (dict(sliced._sent_request_history[-1])
            == dict(modulo._sent_request_history[-1]))
    assert len(sliced._sent_request_history) == len(
        modulo._sent_request_history)
    assert sliced._request_offset == modulo._request_offset
    assert sliced.rng.getstate() == modulo.rng.getstate()
