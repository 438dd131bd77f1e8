"""Transport tests: latency and fail-stop message semantics."""

import pytest

from repro.runtime.des import Simulator
from repro.runtime.messages import Message, MsgKind, Transport
from repro.util.errors import SimulationError


def setup():
    sim = Simulator()
    transport = Transport(sim, latency=1e-3, bandwidth=1e6)
    inboxes = {i: [] for i in range(3)}
    for i in range(3):
        transport.register(i, inboxes[i].append)
    return sim, transport, inboxes


class TestDelivery:
    def test_message_arrives_with_latency(self):
        sim, transport, inboxes = setup()
        transport.send(Message(MsgKind.APP, src=0, dst=1, payload="hi", nbytes=1000))
        sim.run()
        assert len(inboxes[1]) == 1
        # latency + nbytes/bandwidth = 1 ms + 1 ms.
        assert sim.now == pytest.approx(2e-3)

    def test_extra_delay_applied(self):
        sim, transport, _ = setup()
        transport.send(Message(MsgKind.APP, src=0, dst=1, nbytes=0), extra_delay=0.5)
        sim.run()
        assert sim.now == pytest.approx(0.5 + 1e-3)

    def test_unregistered_destination_rejected(self):
        _, transport, _ = setup()
        with pytest.raises(SimulationError):
            transport.send(Message(MsgKind.APP, src=0, dst=99))


class TestFailStop:
    def test_dead_sender_drops_silently(self):
        sim, transport, inboxes = setup()
        transport.set_alive(0, False)
        transport.send(Message(MsgKind.APP, src=0, dst=1))
        sim.run()
        assert inboxes[1] == []
        assert transport.messages_dropped == 1

    def test_dead_receiver_drops_silently(self):
        sim, transport, inboxes = setup()
        transport.send(Message(MsgKind.APP, src=0, dst=1))
        transport.set_alive(1, False)
        sim.run()
        assert inboxes[1] == []
        assert transport.messages_dropped == 1

    def test_unregistered_sender_reads_dead(self):
        sim, transport, inboxes = setup()
        transport.send(Message(MsgKind.APP, src=99, dst=1))
        transport.send_small(MsgKind.APP, -1, 1)
        sim.run()
        assert inboxes[1] == []
        assert transport.messages_dropped == 2
        up = transport.liveness()
        assert up[:3].all() and not up[3:].any()

    def test_negative_node_id_rejected(self):
        _, transport, _ = setup()
        with pytest.raises(SimulationError):
            transport.register(-1, lambda msg: None)

    def test_death_after_delivery_does_not_retract(self):
        sim, transport, inboxes = setup()
        transport.send(Message(MsgKind.APP, src=0, dst=1))
        sim.run()
        transport.set_alive(1, False)
        assert len(inboxes[1]) == 1

    def test_revival_restores_delivery(self):
        sim, transport, inboxes = setup()
        transport.set_alive(1, False)
        transport.send(Message(MsgKind.APP, src=0, dst=1))
        sim.run()
        transport.set_alive(1, True)
        transport.send(Message(MsgKind.APP, src=0, dst=1))
        sim.run()
        assert len(inboxes[1]) == 1

    def test_counters(self):
        sim, transport, _ = setup()
        transport.send(Message(MsgKind.APP, src=0, dst=1))
        transport.send(Message(MsgKind.APP, src=0, dst=2))
        sim.run()
        assert transport.messages_sent == 2
        assert transport.messages_delivered == 2


class TestSendSmall:
    """The fast path must be observably identical to send(Message(...))."""

    def test_same_delivery_instant_as_send(self):
        sim_a, tr_a, in_a = setup()
        tr_a.send(Message(MsgKind.HEARTBEAT, src=0, dst=1, nbytes=16, tag="hb"))
        sim_a.run()
        sim_b, tr_b, in_b = setup()
        tr_b.send_small(MsgKind.HEARTBEAT, 0, 1, nbytes=16, tag="hb")
        sim_b.run()
        assert sim_a.now == sim_b.now  # bit-identical delay
        assert len(in_a[1]) == len(in_b[1]) == 1

    def test_delivered_message_fields(self):
        sim, transport, inboxes = setup()
        transport.send_small(MsgKind.APP, 0, 2, payload=("p", 1),
                             nbytes=128, tag="dep")
        sim.run()
        (msg,) = inboxes[2]
        assert msg.kind is MsgKind.APP
        assert (msg.src, msg.dst) == (0, 2)
        assert msg.payload == ("p", 1)
        assert msg.nbytes == 128
        assert msg.tag == "dep"
        assert msg.send_time == 0.0

    def test_same_accounting_as_send(self):
        sim, transport, _ = setup()
        transport.send_small(MsgKind.HEARTBEAT, 0, 1, nbytes=16)
        transport.send_small(MsgKind.HEARTBEAT, 1, 2, nbytes=16)
        sim.run()
        assert transport.messages_sent == 2
        assert transport.sent_by_kind["heartbeat"] == 2
        assert transport.bytes_by_kind["heartbeat"] == 32

    def test_dead_sender_drops(self):
        sim, transport, inboxes = setup()
        transport.set_alive(0, False)
        transport.send_small(MsgKind.HEARTBEAT, 0, 1, nbytes=16)
        sim.run()
        assert inboxes[1] == []
        assert transport.messages_dropped == 1

    def test_dead_receiver_drops(self):
        sim, transport, inboxes = setup()
        transport.send_small(MsgKind.HEARTBEAT, 0, 1, nbytes=16)
        transport.set_alive(1, False)
        sim.run()
        assert inboxes[1] == []
        assert transport.messages_dropped == 1

    def test_unregistered_destination_rejected(self):
        _, transport, _ = setup()
        with pytest.raises(SimulationError):
            transport.send_small(MsgKind.APP, 0, 99)

    def test_memoised_delay_is_not_stale_across_sizes(self):
        sim, transport, _ = setup()
        transport.send_small(MsgKind.APP, 0, 1, nbytes=1000)
        sim.run()
        t_big = sim.now
        sim2, transport2, _ = setup()
        transport2.send_small(MsgKind.APP, 0, 1, nbytes=0)
        transport2.send_small(MsgKind.APP, 0, 1, nbytes=1000)
        sim2.run()
        assert sim2.now == t_big  # the 1000-byte delay, not the memoised 0-byte one


class TestSendControl:
    """The envelope-free control path must account exactly like
    ``send(Message(MsgKind.CONTROL, ...))`` dispatched by the receiver."""

    SCRIPT = [
        # (op, args): sends at t=0, a death, then sends after it.
        ("send", (0, 1, "a")),
        ("send", (1, 2, "b")),
        ("send", (2, 0, "c")),
        ("kill", 2),              # "b" is in flight to 2: dropped at delivery
        ("send", (2, 1, "d")),    # dead sender: dropped at send
        ("send", (0, 2, "e")),    # dead receiver: dropped at delivery
        ("send", (1, 0, "f")),
    ]

    @staticmethod
    def _counters(transport):
        return (transport.messages_sent, transport.messages_delivered,
                transport.messages_dropped, dict(transport.sent_by_kind),
                dict(transport.bytes_by_kind))

    def _run(self, envelope: bool):
        sim = Simulator()
        transport = Transport(sim, latency=1e-3, bandwidth=1e6)
        seen = []
        for i in range(3):
            transport.register(
                i, lambda msg: seen.append((sim.now, msg.src, msg.dst,
                                            msg.payload)))

        def handler(src, dst, payload):
            seen.append((sim.now, src, dst, payload))

        drops_at_send = 0
        for op, arg in self.SCRIPT:
            if op == "kill":
                transport.set_alive(arg, False)
                continue
            src, dst, payload = arg
            before = transport.messages_dropped
            if envelope:
                transport.send(Message(MsgKind.CONTROL, src, dst, payload,
                                       nbytes=64))
            else:
                transport.send_control(src, dst, handler, payload)
            drops_at_send += transport.messages_dropped - before
        at_send = transport.messages_dropped
        sim.run()
        return (seen, self._counters(transport), drops_at_send,
                transport.messages_dropped - at_send, sim.events_processed)

    def test_matches_message_path_count_for_count(self):
        old = self._run(envelope=True)
        new = self._run(envelope=False)
        assert new == old
        seen, (sent, delivered, dropped, kinds, nbytes), at_send, at_delivery, _ = new
        assert [p for *_, p in seen] == ["a", "c", "f"]
        assert (sent, delivered, dropped) == (5, 3, 3)
        assert (at_send, at_delivery) == (1, 2)
        assert kinds == {"control": 5} and nbytes == {"control": 320}

    def test_same_delivery_instant_as_send(self):
        (seen_old, *_), (seen_new, *_) = (self._run(envelope=True),
                                          self._run(envelope=False))
        assert [t for t, *_ in seen_new] == [t for t, *_ in seen_old]
        assert seen_new[0][0] == 1e-3 + 64 / 1e6  # the send() expression

    def test_unregistered_destination_rejected(self):
        _, transport, _ = setup()
        with pytest.raises(SimulationError):
            transport.send_control(0, 99, lambda *a: None, None)
