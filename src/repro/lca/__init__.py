"""LCA framework: protocol, baselines, consistency audits."""

from .base import LCAKPAdapter, LocalComputationAlgorithm
from .consistency import (
    ConsistencyReport,
    assemble_solution,
    audit_consistency,
    audit_order_obliviousness,
)
from .full_read import FullReadLCA
from .oblivious import ObliviousThresholdLCA
from .trivial import AlwaysNoLCA, AlwaysYesIfFreeLCA

__all__ = [
    "LocalComputationAlgorithm",
    "LCAKPAdapter",
    "AlwaysNoLCA",
    "AlwaysYesIfFreeLCA",
    "FullReadLCA",
    "ObliviousThresholdLCA",
    "ConsistencyReport",
    "audit_consistency",
    "audit_order_obliviousness",
    "assemble_solution",
]
