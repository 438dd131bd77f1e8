"""Message-driven simulated runtime: DES engine, tasks, heartbeats.

This is the Charm++-like substrate ACR runs on in the reproduction: a
deterministic discrete-event simulation with fail-stop nodes, dependency-gated
iterative tasks, and buddy heartbeat failure detection.
"""

from repro.runtime.des import EventHandle, Simulator
from repro.runtime.heartbeat import HeartbeatMonitor
from repro.runtime.messages import Message, MsgKind, Transport
from repro.runtime.soa import TaskTable
from repro.runtime.task import Task, TaskState

__all__ = [
    "EventHandle",
    "Simulator",
    "HeartbeatMonitor",
    "Message",
    "MsgKind",
    "Transport",
    "Task",
    "TaskState",
    "TaskTable",
]
