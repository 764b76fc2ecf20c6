"""repro — Local Computation Algorithms for Knapsack.

A production-quality reproduction of

    Canonne, Li & Umboh, "Local Computation Algorithms for Knapsack:
    impossibility results, and how to avoid them" (PODC 2025).

Public API tour
---------------
Problem model and workloads::

    from repro import KnapsackInstance, generate
    inst = generate("planted_lsg", 2000, seed=0, epsilon=0.05)

The paper's LCA (Theorem 4.1)::

    from repro import LCAKP, WeightedSampler, QueryOracle
    lca = LCAKP(WeightedSampler(inst), QueryOracle(inst), epsilon=0.05, seed=42)
    lca.answer(17).include          # "is item 17 in the solution?"

Reference solvers, the impossibility constructions and the reproducible-
quantile machinery live in the ``knapsack``, ``lowerbounds`` and
``reproducible`` subpackages; many independent runs over one seed are
audited by the ``fleet`` cells of the ``suite`` subpackage.  See
DESIGN.md for the full inventory and EXPERIMENTS.md for the
per-theorem measurements.
"""

from .access import (
    CustomSampler,
    FunctionInstance,
    QueryOracle,
    SeedChain,
    WeightedSampler,
)
from .core import (
    LCAKP,
    LCAAnswer,
    LCAParameters,
    classify_instance,
    mapping_greedy,
)
from .errors import (
    ConsistencyViolation,
    InvalidInstanceError,
    QueryBudgetExceededError,
    ReproError,
    SolverError,
)
from .knapsack import FAMILIES, Item, KnapsackInstance, generate
from .lca import AlwaysNoLCA, FullReadLCA
from .reproducible import EfficiencyDomain, ReproducibleQuantileEstimator

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # model
    "Item",
    "KnapsackInstance",
    "FAMILIES",
    "generate",
    # access
    "QueryOracle",
    "WeightedSampler",
    "CustomSampler",
    "FunctionInstance",
    "SeedChain",
    # the contribution
    "LCAKP",
    "LCAAnswer",
    "LCAParameters",
    "classify_instance",
    "mapping_greedy",
    # LCA framework
    "AlwaysNoLCA",
    "FullReadLCA",
    # reproducible machinery
    "EfficiencyDomain",
    "ReproducibleQuantileEstimator",
    # errors
    "ReproError",
    "InvalidInstanceError",
    "SolverError",
    "QueryBudgetExceededError",
    "ConsistencyViolation",
]
