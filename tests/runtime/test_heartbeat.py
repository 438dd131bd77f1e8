"""Heartbeat failure-detection tests (§6.1 no-response scheme)."""

import pytest

from repro.runtime.des import Simulator
from repro.runtime.heartbeat import HeartbeatMonitor
from repro.runtime.messages import Transport
from repro.runtime.node import Node
from repro.util.errors import ConfigurationError


def build(n_pairs=2, interval=0.5, timeout_factor=4.0):
    sim = Simulator()
    transport = Transport(sim)
    nodes = []
    buddy = {}
    for rank in range(n_pairs):
        a = Node(rank, 0, rank, sim, transport)
        b = Node(n_pairs + rank, 1, rank, sim, transport)
        nodes += [a, b]
        buddy[a.node_id] = b.node_id
        buddy[b.node_id] = a.node_id
    deaths = []
    monitor = HeartbeatMonitor(nodes, buddy, interval=interval,
                               timeout_factor=timeout_factor,
                               on_death=lambda det, dead: deaths.append(
                                   (det.node_id, dead.node_id, det.sim.now)))
    return sim, nodes, monitor, deaths


class TestDetection:
    def test_no_false_positives_when_healthy(self):
        sim, nodes, monitor, deaths = build()
        monitor.start()
        sim.run(until=60.0)
        assert deaths == []

    def test_dead_node_detected_within_timeout_plus_interval(self):
        sim, nodes, monitor, deaths = build()
        monitor.start()
        sim.run(until=10.0)
        nodes[0].die()
        sim.run(until=20.0)
        assert len(deaths) == 1
        detector, dead, when = deaths[0]
        assert dead == nodes[0].node_id
        assert detector == monitor.buddy_of[nodes[0].node_id]
        assert when <= 10.0 + monitor.timeout + monitor.interval + 1e-9

    def test_detection_fires_exactly_once(self):
        sim, nodes, monitor, deaths = build()
        monitor.start()
        sim.run(until=5.0)
        nodes[2].die()
        sim.run(until=60.0)
        assert len(deaths) == 1

    def test_revival_resets_both_clocks(self):
        sim, nodes, monitor, deaths = build()
        monitor.start()
        sim.run(until=5.0)
        nodes[0].die()
        sim.run(until=10.0)
        assert len(deaths) == 1
        nodes[0].revive()
        monitor.notify_revived(nodes[0].node_id)
        sim.run(until=40.0)
        # Neither the revived node nor its buddy may be re-declared dead.
        assert len(deaths) == 1

    def test_second_failure_after_revival_detected_again(self):
        sim, nodes, monitor, deaths = build()
        monitor.start()
        sim.run(until=5.0)
        nodes[0].die()
        sim.run(until=10.0)
        nodes[0].revive()
        monitor.notify_revived(nodes[0].node_id)
        sim.run(until=15.0)
        nodes[0].die()
        sim.run(until=25.0)
        assert len(deaths) == 2

    def test_multiple_simultaneous_failures(self):
        sim, nodes, monitor, deaths = build(n_pairs=3)
        monitor.start()
        sim.run(until=5.0)
        nodes[0].die()
        nodes[3].die()  # a node in the other replica
        sim.run(until=15.0)
        assert {d[1] for d in deaths} == {nodes[0].node_id, nodes[3].node_id}


class TestTransportOwnsLiveness:
    def test_transport_record_is_the_node_liveness(self):
        sim, nodes, monitor, deaths = build()  # interval 0.5 s
        monitor.start()
        sim.run(until=5.1)
        victim = nodes[0]
        buddy = monitor.buddy_of[victim.node_id]
        transport = victim.transport
        transport.set_alive(victim.node_id, False)  # no Node.die()
        assert not victim.alive
        sent = transport.sent_by_kind["heartbeat"]
        sim.run(until=5.6)  # exactly one send sweep, at 5.5
        assert transport.sent_by_kind["heartbeat"] - sent == len(nodes) - 1
        sim.run(until=30.0)
        assert [d[:2] for d in deaths] == [(buddy, victim.node_id)]
        victim.revive()
        monitor.notify_revived(victim.node_id)
        assert victim.alive
        sim.run(until=45.0)
        assert len(deaths) == 1
        transport.set_alive(victim.node_id, False)
        sim.run(until=60.0)
        assert [d[:2] for d in deaths] == [(buddy, victim.node_id)] * 2


class TestValidation:
    def test_asymmetric_buddy_map_rejected(self):
        sim = Simulator()
        transport = Transport(sim)
        a = Node(0, 0, 0, sim, transport)
        b = Node(1, 1, 0, sim, transport)
        with pytest.raises(ConfigurationError):
            HeartbeatMonitor([a, b], {0: 1, 1: 0, 2: 0},
                             on_death=lambda *a: None)

    def test_bad_interval_rejected(self):
        sim = Simulator()
        transport = Transport(sim)
        a = Node(0, 0, 0, sim, transport)
        b = Node(1, 1, 0, sim, transport)
        with pytest.raises(ConfigurationError):
            HeartbeatMonitor([a, b], {0: 1, 1: 0}, interval=0.0,
                             on_death=lambda *a: None)
