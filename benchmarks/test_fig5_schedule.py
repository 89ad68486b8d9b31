"""E4 — Fig 3a / Fig 5: AWGR routing, the 4-node topology and its
static schedule.

Paper: a 4-node, 2-uplink Sirius with four 2-port gratings; the network
schedule (Fig 5b) connects every node pair once per 2-slot epoch with no
receive contention.
"""

from _harness import emit_table

from repro import AWGR, CyclicSchedule, SiriusTopology


def _build():
    topo = SiriusTopology(4, 2)
    schedule = CyclicSchedule(topo)
    schedule.verify_contention_free()
    schedule.verify_full_coverage()
    return topo, schedule


def test_fig3a_awgr_matrix(benchmark):
    awgr = AWGR(4)
    matrix = benchmark(awgr.routing_matrix)
    emit_table(
        "Fig 3a — 4-port AWGR wavelength routing (output port)",
        ["input port"] + [f"wavelength {w}" for w in range(4)],
        [[i] + matrix[i] for i in range(4)],
    )
    for channel in range(4):
        outputs = [matrix[i][channel] for i in range(4)]
        assert sorted(outputs) == [0, 1, 2, 3]


def test_fig5b_schedule_table(benchmark):
    topo, schedule = benchmark(_build)
    wavelength_names = {0: "A", 1: "B"}
    rows = []
    for entry in schedule.table():
        rows.append((
            f"({entry['node'] + 1}, {entry['uplink'] + 1})",
            wavelength_names[entry["slot0"]["wavelength"]],
            f"({entry['slot0']['dst'] + 1})",
            wavelength_names[entry["slot1"]["wavelength"]],
            f"({entry['slot1']['dst'] + 1})",
        ))
    emit_table(
        "Fig 5b — network schedule (paper's 1-based labels)",
        ["(node, port)", "slot1 wl", "slot1 dst", "slot2 wl", "slot2 dst"],
        rows,
    )
    # Every (node, port) appears; each node reaches all 4 nodes per epoch.
    assert len(rows) == 8
    for node in range(4):
        reached = set()
        for entry in schedule.table():
            if entry["node"] == node:
                reached.add(entry["slot0"]["dst"])
                reached.add(entry["slot1"]["dst"])
        assert reached == {0, 1, 2, 3}


def test_paper_scaling_examples(benchmark):
    # 4,096 racks through 16-port gratings with 256 uplinks (§4.1).
    # The wiring is closed form, so construction stores none of the
    # ~1M uplinks; one round is plenty.
    dc = benchmark.pedantic(lambda: SiriusTopology(4096, 16),
                            rounds=1, iterations=1)
    emit_table(
        "§4.1 — rack-based deployment arithmetic",
        ["quantity", "measured", "paper"],
        [
            ("uplinks per rack", dc.uplinks_per_node, 256),
            ("grating ports", dc.grating_ports, 16),
            ("racks", dc.n_nodes, 4096),
        ],
    )
    assert dc.uplinks_per_node == 256
