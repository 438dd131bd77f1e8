"""Heartbeat failure-detection tests (§6.1 no-response scheme)."""

import pytest

from repro.runtime.des import Simulator
from repro.runtime.heartbeat import HeartbeatMonitor
from repro.runtime.messages import Transport
from repro.runtime.soa import TaskTable
from repro.util.errors import ConfigurationError


def build(n_pairs=2, interval=0.5, timeout_factor=4.0):
    """Buddy pairs ``(rank, n_pairs + rank)``; ``nodes`` lists the ids in
    the monitor's walk order, pair by pair.  The task table hosts them
    (and kills them); no task is started."""
    sim = Simulator()
    transport = Transport(sim)
    table = TaskTable(sim, transport, 2 * n_pairs, rings=2,
                      iteration_time=lambda *_: 1.0)
    nodes = []
    buddy = {}
    for rank in range(n_pairs):
        a, b = rank, n_pairs + rank
        nodes += [a, b]
        buddy[a] = b
        buddy[b] = a
    deaths = []
    monitor = HeartbeatMonitor(transport, nodes, buddy, interval=interval,
                               timeout_factor=timeout_factor,
                               on_death=lambda det, dead: deaths.append(
                                   (det, dead, sim.now)))
    return sim, nodes, monitor, deaths, table


def revive(table, nid):
    table.transport.set_alive(nid, True)


class TestDetection:
    def test_no_false_positives_when_healthy(self):
        sim, nodes, monitor, deaths, table = build()
        monitor.start()
        sim.run(until=60.0)
        assert deaths == []

    def test_dead_node_detected_within_timeout_plus_interval(self):
        sim, nodes, monitor, deaths, table = build()
        monitor.start()
        sim.run(until=10.0)
        table.kill(nodes[0])
        sim.run(until=20.0)
        assert len(deaths) == 1
        detector, dead, when = deaths[0]
        assert dead == nodes[0]
        assert detector == monitor.buddy_of[nodes[0]]
        assert when <= 10.0 + monitor.timeout + monitor.interval + 1e-9

    def test_detection_fires_exactly_once(self):
        sim, nodes, monitor, deaths, table = build()
        monitor.start()
        sim.run(until=5.0)
        table.kill(nodes[2])
        sim.run(until=60.0)
        assert len(deaths) == 1

    def test_revival_resets_both_clocks(self):
        sim, nodes, monitor, deaths, table = build()
        monitor.start()
        sim.run(until=5.0)
        table.kill(nodes[0])
        sim.run(until=10.0)
        assert len(deaths) == 1
        revive(table, nodes[0])
        monitor.notify_revived(nodes[0])
        sim.run(until=40.0)
        # Neither the revived node nor its buddy may be re-declared dead.
        assert len(deaths) == 1

    def test_second_failure_after_revival_detected_again(self):
        sim, nodes, monitor, deaths, table = build()
        monitor.start()
        sim.run(until=5.0)
        table.kill(nodes[0])
        sim.run(until=10.0)
        revive(table, nodes[0])
        monitor.notify_revived(nodes[0])
        sim.run(until=15.0)
        table.kill(nodes[0])
        sim.run(until=25.0)
        assert len(deaths) == 2

    def test_multiple_simultaneous_failures(self):
        sim, nodes, monitor, deaths, table = build(n_pairs=3)
        monitor.start()
        sim.run(until=5.0)
        table.kill(nodes[0])
        table.kill(nodes[3])  # a node in the other replica
        sim.run(until=15.0)
        assert {d[1] for d in deaths} == {nodes[0], nodes[3]}


class TestTransportOwnsLiveness:
    def test_transport_record_is_the_node_liveness(self):
        sim, nodes, monitor, deaths, table = build()  # interval 0.5 s
        monitor.start()
        sim.run(until=5.1)
        victim = nodes[0]
        buddy = monitor.buddy_of[victim]
        transport = table.transport
        transport.set_alive(victim, False)  # no task-table kill
        sent = transport.sent_by_kind["heartbeat"]
        sim.run(until=5.6)  # exactly one send sweep, at 5.5
        assert transport.sent_by_kind["heartbeat"] - sent == len(nodes) - 1
        sim.run(until=30.0)
        assert [d[:2] for d in deaths] == [(buddy, victim)]
        revive(table, victim)
        monitor.notify_revived(victim)
        sim.run(until=45.0)
        assert len(deaths) == 1
        transport.set_alive(victim, False)
        sim.run(until=60.0)
        assert [d[:2] for d in deaths] == [(buddy, victim)] * 2


class TestValidation:
    def test_asymmetric_buddy_map_rejected(self):
        transport = Transport(Simulator())
        with pytest.raises(ConfigurationError):
            HeartbeatMonitor(transport, [0, 1], {0: 1, 1: 0, 2: 0},
                             on_death=lambda *a: None)

    def test_bad_interval_rejected(self):
        transport = Transport(Simulator())
        with pytest.raises(ConfigurationError):
            HeartbeatMonitor(transport, [0, 1], {0: 1, 1: 0}, interval=0.0,
                             on_death=lambda *a: None)
