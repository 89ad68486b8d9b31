"""The computed "every node but this one" candidate sequence (§4.2)."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.routing import OtherNodes


def _eager(n_nodes, node):
    return [n for n in range(n_nodes) if n != node]


@st.composite
def _network_and_node(draw):
    n_nodes = draw(st.integers(min_value=2, max_value=40))
    return n_nodes, draw(st.integers(min_value=0, max_value=n_nodes - 1))


@settings(max_examples=60, deadline=None)
@given(_network_and_node())
def test_matches_eager_list(network):
    n_nodes, node = network
    others, eager = OtherNodes(n_nodes, node), _eager(n_nodes, node)
    assert len(others) == len(eager)
    assert list(others) == eager
    for i in range(-len(eager), len(eager)):
        assert others[i] == eager[i]
    for bad in (len(eager), -len(eager) - 1):
        with pytest.raises(IndexError):
            others[bad]


@settings(max_examples=60, deadline=None)
@given(_network_and_node(), st.integers(-45, 45), st.integers(-45, 45),
       st.sampled_from([None, 1, 2, -1, -3]))
@example((10, 4), 0, 3, None)   # before the node
@example((10, 4), 5, 9, None)   # after it
@example((10, 4), 2, 7, None)   # across it
@example((10, 4), 7, 2, None)   # empty
def test_slices_match_eager_list(network, start, stop, step):
    """Slices before, after and across ``node``, with any bounds and
    step, equal the eager list's (and are lists)."""
    n_nodes, node = network
    others, eager = OtherNodes(n_nodes, node), _eager(n_nodes, node)
    picked = others[start:stop:step]
    assert isinstance(picked, list)
    assert picked == eager[start:stop:step]


@settings(max_examples=40, deadline=None)
@given(_network_and_node(), st.integers(0, 2**32 - 1), st.integers(0, 45))
# random.sample picks by index from a large population and from a
# pooled copy when k is large against it: both must match.
@example((4096, 1234), 1, 5)
@example((4096, 1234), 2, 4095)
def test_random_draws_match_eager_list(network, seed, k):
    """``sample`` and ``choice`` draw the same nodes from both."""
    n_nodes, node = network
    others, eager = OtherNodes(n_nodes, node), _eager(n_nodes, node)
    k = min(k, len(eager))
    lazy_rng, eager_rng = random.Random(seed), random.Random(seed)
    assert lazy_rng.sample(others, k) == eager_rng.sample(eager, k)
    assert ([lazy_rng.choice(others) for _ in range(5)]
            == [eager_rng.choice(eager) for _ in range(5)])
