"""Per-layer metrics of one traced pass.

Times come from the spans :mod:`spans` records around each layer's public
functions; counts come from the finished ACR objects (see
``cells._counters``) and repeat exactly, because the simulator is
deterministic.  Every ``_s`` metric of a program layer is host seconds of
*self* time — the layer's own code, without nested calls into other wrapped
layers — except ``runtime.des.run_s``, the inclusive time of
``Simulator.run``.
"""

from __future__ import annotations

import statistics

from spans import TARGETS, SpanRecorder, SpanTable, phase_masks

MIB = float(1 << 20)

#: Span groups: each layer's wrapped functions, by span name.
GROUPS: dict[str, tuple[str, ...]] = {
    "runtime.des.run": ("Simulator.run",),
    "runtime.des.schedule": ("Simulator.schedule", "Simulator.schedule_at",
                             "Simulator.schedule_periodic", "Simulator.post"),
    "runtime.messages.send": ("Transport.send", "Transport.send_small",
                              "Transport.send_stamps"),
    "runtime.task.dep": ("Task.on_dep_message",),
    "runtime.task.resume": ("Task.resume",),
    "core.consensus.start": ("ConsensusController.start_round",),
    "core.checkpoint.store": ("CheckpointStore.put_shard", "CheckpointStore.commit",
                              "CheckpointStore.discard"),
    "core.sdc.scan": ("detect_sdc",),
    "pup.pack": ("pack",),
    "pup.unpack": ("unpack",),
    "pup.checksum": ("checkpoint_checksum",),
    "pup.compare": ("compare_checkpoints", "compare_checksums"),
    "apps.advance": ("ReplicaApp.advance_to",),
    "apps.make": ("make_app",),
    "storage.persist": ("DurableHierarchy.stage", "DurableHierarchy.complete_inflight",
                        "DurableHierarchy.persist_now"),
    "network.setup": ("torus_for_nodes", "build_mapping"),
    "network.cost": tuple(t.name for t in TARGETS if t.name.startswith("CostModel.")),
    "faults.inject": ("BitFlipInjector.inject",),
}

#: Every per-layer metric with its unit and direction, in report order.
METRICS: dict[str, tuple[str, str]] = {
    "python.gc_s": ("s", "lower"),
    "python.gc_collections": ("count", "lower"),
    "proc.cpu_s": ("s", "lower"),
    "host.slowdown": ("ratio", "lower"),
    "runtime.des.events": ("count", "lower"),
    "runtime.des.cohorts": ("count", "lower"),
    "runtime.des.max_queue_depth": ("count", "lower"),
    "runtime.des.run_s": ("s", "lower"),
    "runtime.des.self_s": ("s", "lower"),
    "runtime.des.schedule_calls": ("count", "lower"),
    "runtime.des.schedule_s": ("s", "lower"),
    "runtime.messages.sent": ("count", "lower"),
    "runtime.messages.bytes": ("B", "lower"),
    "runtime.messages.send_calls": ("count", "lower"),
    "runtime.messages.send_s": ("s", "lower"),
    "runtime.heartbeat.messages": ("count", "lower"),
    "runtime.task.dep_calls": ("count", "lower"),
    "runtime.task.dep_s": ("s", "lower"),
    "runtime.task.resume_s": ("s", "lower"),
    "core.consensus.rounds": ("count", "lower"),
    "core.consensus.abort_ratio": ("ratio", "lower"),
    "core.consensus.start_s": ("s", "lower"),
    "core.checkpoint.commits": ("count", "lower"),
    "core.checkpoint.discards": ("count", "lower"),
    "core.checkpoint.high_water_mib": ("MiB", "lower"),
    "core.checkpoint.store_s": ("s", "lower"),
    "core.sdc.scans": ("count", "lower"),
    "core.sdc.scan_self_s": ("s", "lower"),
    "core.sdc.detect_ratio": ("ratio", "higher"),
    "core.rework_ratio": ("ratio", "lower"),
    "core.setup_self_s": ("s", "lower"),
    "pup.pack_calls": ("count", "lower"),
    "pup.pack_s": ("s", "lower"),
    "pup.pack_mib": ("MiB", "lower"),
    "pup.unpack_calls": ("count", "lower"),
    "pup.unpack_s": ("s", "lower"),
    "pup.checksum_s": ("s", "lower"),
    "pup.checksum_mib": ("MiB", "lower"),
    "pup.compare_s": ("s", "lower"),
    "apps.advance_iters": ("count", "lower"),
    "apps.advance_s": ("s", "lower"),
    "apps.make_s": ("s", "lower"),
    "storage.persist_s": ("s", "lower"),
    "storage.persisted_mib": ("MiB", "lower"),
    "network.setup_s": ("s", "lower"),
    "network.cost_calls": ("count", "lower"),
    "network.cost_s": ("s", "lower"),
    "faults.hard_injected": ("count", "lower"),
    "faults.sdc_injected": ("count", "lower"),
    "faults.inject_s": ("s", "lower"),
    "run.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.accounted_s": ("s", "lower"),
    "trace.unattributed_s": ("s", "lower"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(cells, plain, traced, recorder: SpanRecorder,
                  gc_s: float, gc_collections: int) -> dict[str, float]:
    """The per-layer metrics of one (untraced, traced) pair of passes.

    ``plain`` and ``traced`` are the two passes' cell results; process CPU
    and GC come from the untraced pass, so tracing does not inflate them.
    """
    setup_mask, run_mask = phase_masks(recorder)
    cell_table = SpanTable(recorder, setup_mask | run_mask)
    setup_table = SpanTable(recorder, setup_mask)
    run_table = SpanTable(recorder, run_mask)
    g = {name: cell_table.group(members) for name, members in GROUPS.items()}
    amount = recorder.amounts.get

    def total(key: str) -> float:
        return sum(r.counters.get(key, 0) for r in traced)

    plain_run = sum(r.run_s for r in plain)
    traced_run = sum(r.run_s for r in traced)
    accounted = run_table.self_total()
    node_iters = sum(c.node_iters for c in cells)
    return {
        "python.gc_s": gc_s,
        "python.gc_collections": gc_collections,
        "proc.cpu_s": sum(r.cpu_s for r in plain),
        "host.slowdown": statistics.median(r.slowdown for r in plain),
        "runtime.des.events": total("events"),
        "runtime.des.cohorts": total("cohorts"),
        "runtime.des.max_queue_depth": max(r.counters.get("max_queue_depth", 0)
                                           for r in traced),
        "runtime.des.run_s": g["runtime.des.run"].inclusive_s,
        "runtime.des.self_s": g["runtime.des.run"].self_s,
        "runtime.des.schedule_calls": g["runtime.des.schedule"].calls,
        "runtime.des.schedule_s": g["runtime.des.schedule"].self_s,
        "runtime.messages.sent": total("messages"),
        "runtime.messages.bytes": total("message_bytes"),
        "runtime.messages.send_calls": g["runtime.messages.send"].calls,
        "runtime.messages.send_s": g["runtime.messages.send"].self_s,
        "runtime.heartbeat.messages": total("heartbeats"),
        "runtime.task.dep_calls": g["runtime.task.dep"].calls,
        "runtime.task.dep_s": g["runtime.task.dep"].self_s,
        "runtime.task.resume_s": g["runtime.task.resume"].self_s,
        "core.consensus.rounds": total("rounds"),
        "core.consensus.abort_ratio": _ratio(total("rounds_aborted"), total("rounds")),
        "core.consensus.start_s": g["core.consensus.start"].self_s,
        "core.checkpoint.commits": total("commits"),
        "core.checkpoint.discards": total("discards"),
        "core.checkpoint.high_water_mib": max(
            r.counters.get("high_water_bytes", 0) for r in traced) / MIB,
        "core.checkpoint.store_s": g["core.checkpoint.store"].self_s,
        "core.sdc.scans": g["core.sdc.scan"].calls,
        "core.sdc.scan_self_s": g["core.sdc.scan"].self_s,
        "core.sdc.detect_ratio": _ratio(total("sdc_detected"), total("sdc_injected")),
        "core.rework_ratio": _ratio(total("rework_iterations"), node_iters),
        "core.setup_self_s": sum(r.setup_s for r in traced) - setup_table.self_total(),
        "pup.pack_calls": g["pup.pack"].calls,
        "pup.pack_s": g["pup.pack"].self_s,
        "pup.pack_mib": amount("pack", 0) / MIB,
        "pup.unpack_calls": g["pup.unpack"].calls,
        "pup.unpack_s": g["pup.unpack"].self_s,
        "pup.checksum_s": g["pup.checksum"].self_s,
        "pup.checksum_mib": amount("checkpoint_checksum", 0) / MIB,
        "pup.compare_s": g["pup.compare"].self_s,
        "apps.advance_iters": amount("ReplicaApp.advance_to", 0),
        "apps.advance_s": g["apps.advance"].self_s,
        "apps.make_s": g["apps.make"].self_s,
        "storage.persist_s": g["storage.persist"].self_s,
        "storage.persisted_mib": amount("DurableHierarchy.stage", 0) / MIB,
        "network.setup_s": g["network.setup"].self_s,
        "network.cost_calls": g["network.cost"].calls,
        "network.cost_s": g["network.cost"].self_s,
        "faults.hard_injected": total("hard_injected"),
        "faults.sdc_injected": total("sdc_injected"),
        "faults.inject_s": g["faults.inject"].self_s,
        "run.wall_s": plain_run,
        "trace.overhead_s": traced_run - plain_run,
        "trace.accounted_s": accounted,
        "trace.unattributed_s": traced_run - accounted,
    }
