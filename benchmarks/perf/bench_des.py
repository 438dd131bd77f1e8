"""Micro-benchmarks for the discrete-event simulation engine hot path.

Every campaign cell, chaos run, and figure sweep spends its life inside
``Simulator.run`` dispatching millions of tiny events, so this file tracks
the engine the same way ``bench_checkpoint.py`` tracks the pack/checksum
path: within-run speedups and host-normalised rates that
``compare_bench.py`` gates in CI.

* **event dispatch** — the fire-and-forget path (:meth:`Simulator.post`,
  what message deliveries use) on a self-sustaining event storm, in
  events/s and in events/s on the reference host of
  ``perfbench/hostspeed.py`` (``ref_events_per_s``, gated by an absolute
  floor); the handle-allocating ``schedule`` path rides along;
* **periodic timers** — ``schedule_periodic`` (in-engine rescheduling) vs
  the classic callback-reschedules-itself pattern through the public API;
* **message fan-out** — ``Transport.send_small`` (the heartbeat/dependency-
  stamp fast path) vs ``send(Message(...))``;
* **end-to-end** — a small full ``ACR`` run measured in events/second
  (machine-dependent, informational only).

All workloads are deterministic (an inline LCG, no wall-clock randomness),
so every path of one benchmark executes the exact same event sequence.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Callable

from benchmarks.perf.bench_checkpoint import host_speed
from repro.runtime.des import Simulator
from repro.runtime.messages import Message, MsgKind, Transport

MIB = float(1 << 20)


# ---------------------------------------------------------------------------
# Workloads (identical event sequences on every path)
# ---------------------------------------------------------------------------

_LCG_MUL = 6364136223846793005
_LCG_ADD = 1442695040888963407
_LCG_MASK = (1 << 64) - 1
_DELAY_TABLE = 4096  # power of two so the storm can mask instead of mod


def _make_delays(n: int = _DELAY_TABLE) -> list[float]:
    """Deterministic pseudo-random delays, precomputed so the benchmark
    callback costs the same handful of bytecodes on every path."""
    state = 0x9E3779B97F4A7C15
    delays = []
    for _ in range(n):
        state = (state * _LCG_MUL + _LCG_ADD) & _LCG_MASK
        delays.append(1e-6 + (state >> 40) * 1e-12)
    return delays


class _DispatchStorm:
    """Self-sustaining event storm: every firing schedules one successor at a
    precomputed pseudo-random delay, holding the heap ``depth`` entries deep —
    the regime real runs live in, where every push/pop pays ``log(depth)``
    sift comparisons."""

    __slots__ = ("sched", "delays", "fired", "n_events")

    def __init__(self, sched: Callable[..., Any], delays: list[float],
                 n_events: int):
        self.sched = sched
        self.delays = delays
        self.fired = 0
        self.n_events = n_events

    def prime(self, depth: int) -> None:
        sched = self.sched
        delays = self.delays
        tick = self.tick
        for i in range(depth):
            sched(delays[i & 4095], tick)

    def tick(self) -> None:
        i = self.fired
        self.fired = i + 1
        if i < self.n_events:
            self.sched(self.delays[i & 4095], self.tick)


def _time_storm(sim: Simulator, sched: Callable[..., Any], n_events: int,
                depth: int, delays: list[float]) -> tuple[float, int]:
    storm = _DispatchStorm(sched, delays, n_events)
    storm.prime(depth)
    t0 = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - t0
    return elapsed, sim.events_processed


def _best_storm(method: str, n_events: int, depth: int, delays: list[float],
                repeats: int) -> tuple[float, int]:
    """Best-of-``repeats`` seconds of the storm through ``Simulator.<method>``."""
    best = float("inf")
    processed = 0
    for _ in range(repeats):
        sim = Simulator()
        elapsed, processed = _time_storm(sim, getattr(sim, method), n_events,
                                         depth, delays)
        best = min(best, elapsed)
    return best, processed


def bench_event_dispatch(n_events: int = 200_000, depth: int = 4096,
                         repeats: int = 3) -> dict:
    """Tuple-heap dispatch rate, raw and host-normalised.

    The gated path is :meth:`Simulator.post` (no handle at all), what the
    engine's deliveries use; ``schedule`` allocates a cancellable handle per
    event and is reported alongside.
    """
    delays = _make_delays()
    (t_post, processed), host = host_speed(
        lambda: _best_storm("post", n_events, depth, delays, repeats))
    (t_handle, handle_processed), handle_host = host_speed(
        lambda: _best_storm("schedule", n_events, depth, delays, repeats))
    assert processed == handle_processed, "post and schedule storms diverged"
    return {
        "n_events": processed,
        "queue_depth": depth,
        "dispatch_s": t_post,
        "dispatch_handle_s": t_handle,
        "events_per_s": processed / t_post,
        "handle_events_per_s": processed / t_handle,
        "host_speed": host,
        "ref_events_per_s": processed / t_post / host,
        "handle_ref_events_per_s": processed / t_handle / handle_host,
    }


def _time_resched(n_timers: int, horizon: float,
                  interval: float) -> tuple[float, int]:
    """The classic pattern: every tick reschedules itself via the public API."""
    sim = Simulator()
    fired = [0]

    def make_tick():
        def tick():
            fired[0] += 1
            sim.schedule(interval, tick)
        return tick

    for _ in range(n_timers):
        sim.schedule(interval, make_tick())
    t0 = time.perf_counter()
    sim.run(until=horizon)
    return time.perf_counter() - t0, fired[0]


def _time_periodic(n_timers: int, horizon: float,
                   interval: float) -> tuple[float, int]:
    sim = Simulator()
    fired = [0]

    def tick():
        fired[0] += 1

    for _ in range(n_timers):
        sim.schedule_periodic(interval, tick)
    t0 = time.perf_counter()
    sim.run(until=horizon)
    return time.perf_counter() - t0, fired[0]


def bench_periodic_timers(n_timers: int = 64, ticks: int = 2000,
                          repeats: int = 3) -> dict:
    """In-engine periodic rescheduling vs self-rescheduling public ticks.

    Models the heartbeat monitor's load: ``n_timers`` recurring timers each
    firing ``ticks`` times.  The baseline is the pre-overhaul pattern: each
    tick re-enters ``schedule`` and allocates a fresh handle.
    """
    interval = 0.5
    horizon = ticks * interval
    t_resched = t_periodic = float("inf")
    fired = 0
    for _ in range(repeats):
        elapsed, fired = _time_resched(n_timers, horizon, interval)
        t_resched = min(t_resched, elapsed)
        elapsed, fired_p = _time_periodic(n_timers, horizon, interval)
        t_periodic = min(t_periodic, elapsed)
        assert fired == fired_p, "timer workloads diverged"
    return {
        "n_timers": n_timers,
        "ticks_fired": fired,
        "resched_s": t_resched,
        "periodic_s": t_periodic,
        "periodic_speedup_vs_resched": t_resched / t_periodic,
        "ticks_per_s": fired / t_periodic,
    }


def _drain_sends(transport: Transport, sender: Callable[[int, int], None],
                 n_nodes: int, rounds: int) -> float:
    """Send ``rounds`` all-to-next-neighbor bursts, draining deliveries."""
    sim = transport.sim
    t0 = time.perf_counter()
    for _ in range(rounds):
        for src in range(n_nodes):
            sender(src, (src + 1) % n_nodes)
        sim.run()
    return time.perf_counter() - t0


def bench_message_fanout(n_nodes: int = 32, rounds: int = 200,
                         repeats: int = 3) -> dict:
    """``send_small`` fast path vs ``send(Message(...))``."""
    sink = [0]

    def build(transport_cls):
        sim = Simulator()
        transport = transport_cls(sim)
        for i in range(n_nodes):
            transport.register(i, lambda msg: sink.__setitem__(0, sink[0] + 1))
        return transport

    n_msgs = n_nodes * rounds
    t_small = t_send = float("inf")
    for _ in range(repeats):
        tr = build(Transport)
        t_small = min(t_small, _drain_sends(
            tr,
            lambda s, d: tr.send_small(MsgKind.HEARTBEAT, s, d,
                                       nbytes=16, tag="hb"),
            n_nodes, rounds))
        tr2 = build(Transport)
        t_send = min(t_send, _drain_sends(
            tr2,
            lambda s, d: tr2.send(Message(kind=MsgKind.HEARTBEAT, src=s,
                                          dst=d, nbytes=16, tag="hb")),
            n_nodes, rounds))
    return {
        "n_nodes": n_nodes,
        "messages": n_msgs,
        "send_small_s": t_small,
        "send_s": t_send,
        "fastpath_speedup": t_send / t_small,
        "messages_per_s": n_msgs / t_small,
    }


#: Fresh runs ``bench_acr_run`` takes the median wall time of.
ACR_RUNS = 5


def bench_acr_run(total_iterations: int = 200) -> dict:
    """End-to-end small-config ACR run in events/second (informational).

    The wall time is the median of ``ACR_RUNS`` fresh runs of the same
    configuration: one run takes a few tens of milliseconds, too short to
    time alone, and it is the denominator of ``bench_scale``'s gated
    ``events_speedup_vs_des_acr``.
    """
    from repro.harness.experiment import run_acr_experiment

    walls = []
    for _ in range(ACR_RUNS):
        t0 = time.perf_counter()
        res = run_acr_experiment(
            "jacobi3d-charm", nodes_per_replica=4,
            total_iterations=total_iterations, checkpoint_interval=2.0,
            hard_mtbf=15.0, sdc_mtbf=25.0, seed=3)
        walls.append(time.perf_counter() - t0)
    elapsed = statistics.median(walls)
    events = res.acr.sim.events_processed
    transport = res.acr.transport
    # Pre-batching granularity: one heap event per message.  The batched
    # engine settles a fan-out/sweep of k messages in one event, so the
    # legacy-equivalent count restores the unit the historical baseline
    # (and any cross-engine comparison) is measured in.
    legacy_events = (events + transport.batched_messages
                     - transport.batch_events)
    return {
        "total_iterations": total_iterations,
        "runs": ACR_RUNS,
        "events": events,
        "legacy_equivalent_events": legacy_events,
        "wall_s": elapsed,
        "events_per_s": events / elapsed,
        "legacy_equivalent_events_per_s": legacy_events / elapsed,
        "completed": res.report.completed,
    }


def run_all_des(*, quick: bool = False, repeats: int = 3) -> dict:
    """Run every engine micro-benchmark; ``quick`` shrinks sizes for smoke."""
    if quick:
        return {
            "des_dispatch": bench_event_dispatch(n_events=5_000, depth=256,
                                                 repeats=1),
            "des_periodic": bench_periodic_timers(n_timers=8, ticks=100,
                                                  repeats=1),
            "des_messages": bench_message_fanout(n_nodes=8, rounds=20,
                                                 repeats=1),
            "des_acr": bench_acr_run(total_iterations=20),
        }
    return {
        "des_dispatch": bench_event_dispatch(repeats=repeats),
        "des_periodic": bench_periodic_timers(repeats=repeats),
        "des_messages": bench_message_fanout(repeats=repeats),
        "des_acr": bench_acr_run(),
    }
