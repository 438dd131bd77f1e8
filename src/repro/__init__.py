"""ACR: Automatic Checkpoint/Restart for Soft and Hard Error Protection.

A full Python reproduction of the SC'13 paper by Ni, Meneses, Jain and Kale:
replication-enhanced in-memory checkpointing with silent-data-corruption
detection, three hard-error recovery schemes, consensus-driven checkpoint
decisions, adaptive checkpoint periods, topology-aware replica mappings on a
3D torus, and the Section-5 analytical performance/reliability model -
evaluated with the paper's five mini-applications on a simulated
Blue Gene/P-like machine.

Quickstart::

    from repro import run_acr_experiment

    result = run_acr_experiment(
        "jacobi3d-charm", nodes_per_replica=4, scheme="strong",
        total_iterations=200, hard_mtbf=30.0, sdc_mtbf=50.0, seed=1,
    )
    assert result.report.result_correct
"""

from repro.apps import MINIAPP_NAMES, ReplicaApp, make_app
from repro.core import ACR, ACRConfig, RunReport
from repro.faults import (
    BitFlipInjector,
    FaultEvent,
    FaultKind,
    InjectionPlan,
    PoissonProcess,
    TraceProcess,
    WeibullProcess,
)
from repro.harness import forward_path_overhead, run_acr_experiment
from repro.model import ModelParams, ResilienceScheme, daly_tau, optimal_tau
from repro.network import (
    CheckpointProfile,
    CostModel,
    MachineConstants,
    MappingScheme,
    Torus3D,
    build_mapping,
    intrepid_allocation,
)
from repro.pup import (
    PackedState,
    Pupable,
    PUPer,
    compare_checkpoints,
    pack,
    unpack,
)

__version__ = "1.0.0"

__all__ = [
    "MINIAPP_NAMES",
    "ReplicaApp",
    "make_app",
    "ACR",
    "ACRConfig",
    "RunReport",
    "BitFlipInjector",
    "FaultEvent",
    "FaultKind",
    "InjectionPlan",
    "PoissonProcess",
    "TraceProcess",
    "WeibullProcess",
    "forward_path_overhead",
    "run_acr_experiment",
    "ModelParams",
    "ResilienceScheme",
    "daly_tau",
    "optimal_tau",
    "CheckpointProfile",
    "CostModel",
    "MachineConstants",
    "MappingScheme",
    "Torus3D",
    "build_mapping",
    "intrepid_allocation",
    "PackedState",
    "Pupable",
    "PUPer",
    "compare_checkpoints",
    "pack",
    "unpack",
    "__version__",
]
