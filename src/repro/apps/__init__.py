"""The paper's mini-applications (§6.1, Table 2) plus a synthetic workload."""

from repro.apps.base import AppDescriptor, ReplicaApp, ShardRef
from repro.apps.hpccg import HPCCG
from repro.apps.jacobi3d import Jacobi3D
from repro.apps.leanmd import LeanMD
from repro.apps.lulesh import LULESH
from repro.apps.minimd import MiniMD
from repro.apps.registry import DESCRIPTORS, MINIAPP_NAMES, descriptor, make_app
from repro.apps.synthetic import SyntheticApp, synthetic_descriptor
from repro.pup.puper import partition_bounds

__all__ = [
    "AppDescriptor",
    "ReplicaApp",
    "ShardRef",
    "partition_bounds",
    "HPCCG",
    "Jacobi3D",
    "LeanMD",
    "LULESH",
    "MiniMD",
    "DESCRIPTORS",
    "MINIAPP_NAMES",
    "descriptor",
    "make_app",
    "SyntheticApp",
    "synthetic_descriptor",
]
