"""Knapsack instance representation.

Two representations coexist:

* :class:`KnapsackInstance` — an explicit, array-backed instance.  This is
  what solvers, generators and tests use.  It enforces the paper's model
  (Definition 2.2): profits normalized to total 1, every individual
  weight at most the capacity ``K``.
* :class:`InstanceLike` — the minimal protocol the *oracles* in
  :mod:`repro.access` need (``n``, ``capacity``, ``profit(i)``,
  ``weight(i)``).  Implicitly-defined massive instances (see
  ``examples/massive_instance.py``) implement this protocol without ever
  materializing arrays; the LCA only ever touches instances through
  oracles, so it is oblivious to the representation.
"""

from __future__ import annotations

import json
import math
from typing import Iterable, Protocol, Sequence, runtime_checkable

import numpy as np

from ..errors import InvalidInstanceError, NormalizationError
from .items import Item, efficiency

__all__ = ["InstanceLike", "KnapsackInstance", "SolutionStats"]


@runtime_checkable
class InstanceLike(Protocol):
    """Minimal read-only interface to a Knapsack instance.

    The LCA model gives algorithms *query access*: ask for item ``i``,
    receive ``(p_i, w_i)``.  Anything satisfying this protocol can be
    wrapped in a :class:`repro.access.QueryOracle`.
    """

    @property
    def n(self) -> int:  # pragma: no cover - protocol
        """Number of items."""
        ...

    @property
    def capacity(self) -> float:  # pragma: no cover - protocol
        """The weight limit K."""
        ...

    def profit(self, i: int) -> float:  # pragma: no cover - protocol
        """Profit of item ``i`` (0-based)."""
        ...

    def weight(self, i: int) -> float:  # pragma: no cover - protocol
        """Weight of item ``i`` (0-based)."""
        ...


class KnapsackInstance:
    """Explicit array-backed Knapsack instance ``I = (S, K)``.

    Parameters
    ----------
    profits, weights:
        Per-item profits and weights.  Must have equal length.
    capacity:
        The weight limit ``K >= 0``.
    normalize:
        If true (the default), profits are rescaled so they sum to 1 —
        the normalization Definition 2.2 assumes and the weighted
        sampling model requires (sampling probability equals profit).
    normalize_weights:
        If true, weights *and the capacity* are divided by the total
        weight, realizing the second normalization Section 4 assumes
        ("total profit and weight are both normalized to 1").  This is
        a pure rescaling: feasible sets, optimal sets and approximation
        ratios are unchanged, but efficiencies rescale, which matters
        for the L/S/G partition (e.g. the garbage bound p(G) <= eps^2
        in Lemma 4.6 holds only under it).  Defaults to false because
        the Section 3 lower-bound constructions use unnormalized
        weights.
    validate:
        If true (the default), structural invariants are checked and an
        :class:`InvalidInstanceError` is raised on violation.

    Notes
    -----
    The paper's model requires every individual weight to be at most
    ``K`` ("the (integer) weight of any item in S is at most K").  We
    enforce this under ``validate=True``; an item heavier than the
    capacity could never appear in any feasible solution, and several of
    the paper's arguments (e.g. feasibility of singleton solutions in
    Lemma 4.7) silently rely on the invariant.
    """

    __slots__ = ("_profits", "_weights", "_capacity")

    def __init__(
        self,
        profits: Sequence[float] | np.ndarray,
        weights: Sequence[float] | np.ndarray,
        capacity: float,
        *,
        normalize: bool = True,
        normalize_weights: bool = False,
        validate: bool = True,
    ) -> None:
        # A normalized column is a fresh quotient, so only a column kept
        # as given is copied (the instance never aliases caller memory).
        profits_arr = np.asarray(profits, dtype=float)
        weights_arr = np.asarray(weights, dtype=float)
        if profits_arr.ndim != 1 or weights_arr.ndim != 1:
            raise InvalidInstanceError("profits and weights must be 1-D sequences")
        if profits_arr.shape != weights_arr.shape:
            raise InvalidInstanceError(
                f"profits ({profits_arr.size}) and weights ({weights_arr.size}) "
                "must have the same length"
            )
        if normalize:
            total = float(profits_arr.sum())
            if total <= 0:
                raise NormalizationError(
                    "cannot normalize profits: total profit must be positive"
                )
            profits_arr = profits_arr / total
        else:
            profits_arr = profits_arr.copy()
        if normalize_weights:
            total_w = float(weights_arr.sum())
            if total_w <= 0:
                raise NormalizationError(
                    "cannot normalize weights: total weight must be positive"
                )
            weights_arr = weights_arr / total_w
            capacity = float(capacity) / total_w
        else:
            weights_arr = weights_arr.copy()
        self._profits = profits_arr
        self._weights = weights_arr
        self._capacity = float(capacity)
        if validate:
            self.validate()
        self._profits.setflags(write=False)
        self._weights.setflags(write=False)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_items(
        cls,
        items: Iterable[Item | tuple[float, float]],
        capacity: float,
        *,
        normalize: bool = True,
        validate: bool = True,
    ) -> "KnapsackInstance":
        """Build an instance from ``Item`` objects or ``(p, w)`` tuples."""
        pairs = [it.as_tuple() if isinstance(it, Item) else (float(it[0]), float(it[1])) for it in items]
        if not pairs:
            raise InvalidInstanceError("an instance must contain at least one item")
        profits, weights = zip(*pairs)
        return cls(profits, weights, capacity, normalize=normalize, validate=validate)

    @classmethod
    def from_arrays_view(
        cls,
        profits: np.ndarray,
        weights: np.ndarray,
        capacity: float,
        *,
        validate: bool = False,
    ) -> "KnapsackInstance":
        """Adopt existing float64 arrays zero-copy (no normalization).

        The shared-memory tier uses this to wrap segment-backed columns:
        ``__init__`` copies its inputs (defensive ownership), which would
        defeat the point of a shared segment.  The arrays are adopted
        as-is and marked read-only *in the view metadata only* — the
        underlying buffer is untouched, so shared-memory pages stay
        shared.  ``validate`` defaults to off because the tier verifies
        instance identity by content digest instead; pass ``True`` when
        adopting arrays of unknown provenance.
        """
        profits = np.asarray(profits)
        weights = np.asarray(weights)
        if profits.dtype != np.float64 or weights.dtype != np.float64:
            raise InvalidInstanceError(
                "from_arrays_view requires float64 arrays (got "
                f"{profits.dtype}, {weights.dtype})"
            )
        if profits.ndim != 1 or profits.shape != weights.shape:
            raise InvalidInstanceError(
                "profits and weights must be equal-length 1-D arrays"
            )
        instance = object.__new__(cls)
        instance._profits = profits.view()
        instance._weights = weights.view()
        instance._capacity = float(capacity)
        instance._profits.setflags(write=False)
        instance._weights.setflags(write=False)
        if validate:
            instance.validate()
        return instance

    @classmethod
    def from_dict(cls, payload: dict) -> "KnapsackInstance":
        """Inverse of :meth:`to_dict` (no re-normalization: loads verbatim)."""
        return cls(
            payload["profits"],
            payload["weights"],
            payload["capacity"],
            normalize=False,
            validate=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "KnapsackInstance":
        """Load an instance from the JSON produced by :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    # ------------------------------------------------------------------
    # InstanceLike protocol
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of items."""
        return int(self._profits.size)

    @property
    def capacity(self) -> float:
        """The weight limit K."""
        return self._capacity

    @property
    def slack(self) -> float:
        """Rounding allowance of the solvers' fit test ``w <= K + slack``.

        Proportional to ``K``, so scaling every weight and the capacity
        by one factor never changes which sets fit.
        """
        return 1e-12 * self._capacity

    def profit(self, i: int) -> float:
        """Profit of item ``i`` (0-based, bounds-checked)."""
        self._check_index(i)
        return float(self._profits[i])

    def weight(self, i: int) -> float:
        """Weight of item ``i`` (0-based, bounds-checked)."""
        self._check_index(i)
        return float(self._weights[i])

    # ------------------------------------------------------------------
    # Bulk accessors (solver-facing; the LCA never uses these)
    # ------------------------------------------------------------------
    @property
    def profits(self) -> np.ndarray:
        """Read-only profit array."""
        return self._profits

    @property
    def weights(self) -> np.ndarray:
        """Read-only weight array."""
        return self._weights

    def item(self, i: int) -> Item:
        """Item ``i`` as an :class:`Item` value object."""
        return Item(self.profit(i), self.weight(i))

    def items(self) -> list[Item]:
        """All items, in index order."""
        return [Item(float(p), float(w)) for p, w in zip(self._profits, self._weights)]

    def efficiency(self, i: int) -> float:
        """Efficiency ratio ``p_i / w_i`` of item ``i``."""
        self._check_index(i)
        return efficiency(float(self._profits[i]), float(self._weights[i]))

    def efficiencies(self) -> np.ndarray:
        """Vector of all efficiency ratios (inf for free profitable items)."""
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            eff = np.where(
                self._weights > 0,
                self._profits / np.where(self._weights > 0, self._weights, 1.0),
                np.where(self._profits > 0, np.inf, 0.0),
            )
        return eff

    @property
    def total_profit(self) -> float:
        """Sum of all profits (1.0 for normalized instances)."""
        return float(self._profits.sum())

    @property
    def total_weight(self) -> float:
        """Sum of all weights."""
        return float(self._weights.sum())

    @property
    def is_normalized(self) -> bool:
        """True when total profit is 1 up to floating-point slack."""
        return math.isclose(self.total_profit, 1.0, rel_tol=0, abs_tol=1e-9)

    # ------------------------------------------------------------------
    # Solution predicates
    # ------------------------------------------------------------------
    def profit_of(self, indices: Iterable[int]) -> float:
        """Total profit of the item set ``indices``."""
        idx = self._as_index_array(indices)
        return float(self._profits[idx].sum())

    def weight_of(self, indices: Iterable[int]) -> float:
        """Total weight of the item set ``indices``."""
        idx = self._as_index_array(indices)
        return float(self._weights[idx].sum())

    def is_feasible(self, indices: Iterable[int], *, tol: float = 1e-9) -> bool:
        """True iff the item set fits in the knapsack (within ``tol``)."""
        return self.weight_of(indices) <= self._capacity + tol

    def is_maximal(self, indices: Iterable[int], *, tol: float = 1e-9) -> bool:
        """True iff the set is feasible and no absent item can be added.

        This is the relaxation Theorem 3.4 studies: maximality regardless
        of profit.  ``tol`` is how far the set may overflow and still
        count as feasible; an absent item can be added when it passes the
        solvers' fit test against :attr:`slack`.
        """
        chosen = set(self._as_index_array(indices).tolist())
        weight = self.weight_of(chosen)
        if self._capacity + tol - weight < -2 * tol:
            return False
        room = self._capacity + self.slack - weight
        for i in range(self.n):
            if i not in chosen and self._weights[i] <= room:
                return False
        return True

    def solution_stats(self, indices: Iterable[int]) -> "SolutionStats":
        """Bundle profit/weight/feasibility of a candidate solution."""
        idx = sorted(set(self._as_index_array(indices).tolist()))
        return SolutionStats(
            size=len(idx),
            profit=self.profit_of(idx),
            weight=self.weight_of(idx),
            feasible=self.is_feasible(idx),
        )

    # ------------------------------------------------------------------
    # Validation / serialization / dunder plumbing
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`InvalidInstanceError` on any structural violation."""
        if self._profits.size == 0:
            raise InvalidInstanceError("an instance must contain at least one item")
        if self._capacity < 0 or not math.isfinite(self._capacity):
            raise InvalidInstanceError(f"capacity must be finite and >= 0, got {self._capacity}")
        if not np.all(np.isfinite(self._profits)) or np.any(self._profits < 0):
            raise InvalidInstanceError("profits must be finite and non-negative")
        if not np.all(np.isfinite(self._weights)) or np.any(self._weights < 0):
            raise InvalidInstanceError("weights must be finite and non-negative")
        heaviest = float(self._weights.max())
        if heaviest > self._capacity + 1e-9:
            raise InvalidInstanceError(
                f"every weight must be at most the capacity K={self._capacity} "
                f"(Definition 2.2); found weight {heaviest}"
            )

    def to_dict(self) -> dict:
        """JSON-safe dict round-trippable via :meth:`from_dict`."""
        return {
            "profits": self._profits.tolist(),
            "weights": self._weights.tolist(),
            "capacity": self._capacity,
        }

    def to_json(self, *, indent: int | None = None) -> str:
        """Serialize to JSON text."""
        return json.dumps(self.to_dict(), indent=indent)

    def _check_index(self, i: int) -> None:
        if not isinstance(i, (int, np.integer)):
            raise InvalidInstanceError(f"item index must be an integer, got {type(i).__name__}")
        if not 0 <= i < self.n:
            raise InvalidInstanceError(f"item index {i} out of range [0, {self.n})")

    def _as_index_array(self, indices: Iterable[int]) -> np.ndarray:
        # Solutions are *sets*: duplicates collapse (an item cannot be
        # packed twice in 0/1 knapsack), so profit_of([i, i]) == profit(i).
        idx = np.unique(np.asarray(list(indices), dtype=np.int64))
        if idx.size and (idx.min() < 0 or idx.max() >= self.n):
            raise InvalidInstanceError("solution contains out-of-range item indices")
        return idx

    def __len__(self) -> int:
        return self.n

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KnapsackInstance):
            return NotImplemented
        return (
            self._capacity == other._capacity
            and np.array_equal(self._profits, other._profits)
            and np.array_equal(self._weights, other._weights)
        )

    def __hash__(self) -> int:
        return hash((self._capacity, self._profits.tobytes(), self._weights.tobytes()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"KnapsackInstance(n={self.n}, K={self._capacity:.6g}, total_profit={self.total_profit:.6g})"


class SolutionStats:
    """Profit/weight/feasibility summary of a candidate solution set."""

    __slots__ = ("size", "profit", "weight", "feasible")

    def __init__(self, size: int, profit: float, weight: float, feasible: bool) -> None:
        self.size = size
        self.profit = profit
        self.weight = weight
        self.feasible = feasible

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SolutionStats(size={self.size}, profit={self.profit:.6g}, "
            f"weight={self.weight:.6g}, feasible={self.feasible})"
        )
