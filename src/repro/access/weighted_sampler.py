"""Weighted (profit-proportional) sampling access.

Section 4's positive result replaces plain query access with the
*weighted sampling* model of [IKY12]: each sample returns a uniformly
random item drawn with probability proportional to its profit (profits
normalized to total 1).  :class:`WeightedSampler` implements this with
Walker's alias method — O(n) preprocessing once, O(1) per sample — and
counts samples, which is the "query complexity" currency of
Theorem 4.1/Lemma 4.10.

The batch face of both samplers is *columnar*: :meth:`sample_block`
returns a :class:`~repro.access.blocks.SampleBlock` (parallel numpy
columns, one row per draw) and charges the whole block in one
accounting call.  The model's cost is per draw either way — a block of
``m`` draws bills exactly ``m`` — so the columnar representation changes
nothing about query-complexity accounting, only how many Python objects
exist.  :meth:`sample_many` survives as a thin compatibility wrapper.

Implicit (never-materialized) instances supply their own inverse-CDF via
:class:`CustomSampler`, keeping per-sample work independent of n.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np

from ..errors import OracleError, QueryBudgetExceededError
from ..knapsack.instance import InstanceLike, KnapsackInstance
from ..knapsack.items import Item
from ..obs import runtime as _obs
from .beside import SPLIT_MIN_ROWS, beside
from .blocks import Sample, SampleBlock, TableBlock
from .codes import CodeMemo

__all__ = ["Sample", "SampleBlock", "WeightedSampler", "CustomSampler", "AliasTable"]

#: Guards adding and evicting code memos; reads and fills take no lock.
_MEMO_LOCK = threading.Lock()


class AliasTable:
    """Walker alias table for O(1) categorical sampling.

    Built once from a probability vector; ``draw(rng)`` returns an index
    distributed exactly according to it.

    Construction runs the classic small/large worklist pairing, but as a
    handful of numpy passes instead of an O(n) Python loop: with both
    stacks popped in descending index order, the running deficit of the
    small side (``D``, cumulative ``1 - scaled``) and the running surplus
    of the large side (``E``, cumulative ``scaled - 1``) fully determine
    every pairing — small ``j`` is absorbed by the first large whose
    cumulative surplus covers the deficit accumulated before ``j``, and
    large ``k`` demotes (takes an alias itself) exactly when some prefix
    deficit exceeds ``E_k``, with residual probability
    ``(1 + E_k) - D_j``.  Both cumsums are sorted, so one stable merge of
    the two (a linear-time argsort of their concatenation) counts, for
    every ``D_j``, the ``E_k`` below it and, for every ``E_k``, the
    ``D_j`` at or below it: every pairing at once, in place of the
    item-at-a-time stack walk.  :meth:`_build_reference` is
    the same arithmetic as an explicit stack loop; a property test pins
    the two bit-identical, since sampler RNG draw outcomes depend on the
    table.
    """

    __slots__ = ("_prob", "_alias", "_n", "_memos")

    #: Code memos one table keeps, one per (columns, eps^2, domain).
    MAX_CODE_MEMOS = 4

    def __init__(self, probabilities: Sequence[float] | np.ndarray) -> None:
        p = np.asarray(probabilities, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise OracleError("probability vector must be non-empty and 1-D")
        if np.any(p < 0) or not np.all(np.isfinite(p)):
            raise OracleError("probabilities must be finite and non-negative")
        total = p.sum()
        if total <= 0:
            raise OracleError("probabilities must not all be zero")
        n = p.size
        # The one buffer the build owns: ``p / total``, then scaled by n
        # in place (the same two roundings as ``(p / total) * n``).
        scaled = np.divide(p, total)
        scaled *= n
        self._prob, self._alias = self._build(scaled)
        self._n = n
        self._memos: dict[tuple, CodeMemo | None] = {}

    @classmethod
    def from_arrays(
        cls, prob: np.ndarray, alias: np.ndarray
    ) -> "AliasTable":
        """Adopt prebuilt ``(prob, alias)`` columns zero-copy.

        This is how shared-memory attachments skip the O(n) build: the
        owner process constructs the table once and shares the two
        columns; every attacher re-wraps them.  The arrays are taken as
        given (read-only views are fine) — callers are responsible for
        passing columns produced by a real construction.
        """
        prob = np.asarray(prob, dtype=float)
        alias = np.asarray(alias, dtype=np.int64)
        if prob.ndim != 1 or prob.size == 0 or prob.shape != alias.shape:
            raise OracleError("alias table columns must be equal-length 1-D arrays")
        table = cls.__new__(cls)
        table.__setstate__((prob, alias))
        return table

    def __getstate__(self) -> tuple:
        # The code memos are never pickled: a copy starts without them.
        return (self._prob, self._alias)

    def __setstate__(self, state: tuple) -> None:
        self._prob, self._alias = state
        self._n = self._prob.size
        self._memos = {}

    def code_memo(
        self, profits: np.ndarray, weights: np.ndarray, eps_sq: float, domain
    ) -> CodeMemo | None:
        """The :class:`~repro.access.codes.CodeMemo` of the instance
        columns ``profits``/``weights`` under ``(eps_sq, domain)``.

        The first request for a key returns ``None`` and only marks the
        key seen; the second creates the memo empty.  A memo pays back
        only once a second run draws from this table, so a table that
        serves one run (a fresh service's warm-up request, a one-shot
        query) computes that run's codes from the columns and allocates
        and fills nothing.

        Keyed by the columns' identity, so a table shared by two
        instances of one size never mixes their codes; a memo holds its
        columns, so their ids stay unique while it lives.  At most
        :attr:`MAX_CODE_MEMOS` keys are kept, oldest dropped first.
        """
        key = (
            id(profits), id(weights), float(eps_sq), domain.bits, domain.lo, domain.hi
        )
        memo = self._memos.get(key)
        if memo is None:
            with _MEMO_LOCK:
                if key not in self._memos:
                    self._memos[key] = None
                    while len(self._memos) > self.MAX_CODE_MEMOS:
                        del self._memos[next(iter(self._memos))]
                    return None
                memo = self._memos[key]
                if memo is None:
                    memo = CodeMemo(profits, weights, float(eps_sq), domain)
                    self._memos[key] = memo
        return memo

    @property
    def prob(self) -> np.ndarray:
        """The acceptance-probability column (length n)."""
        return self._prob

    @property
    def alias(self) -> np.ndarray:
        """The alias-index column (length n, int64)."""
        return self._alias

    @staticmethod
    def _build(scaled: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized worklist pairing over ``scaled = p * n``.

        Takes ``scaled`` over and rewrites it in place into the ``prob``
        column, which it returns with a fresh int64 ``alias`` column.
        ``alias`` is allocated first, so it never sits above a freed
        temporary in the heap and keeps that memory resident.  The
        indices kept meanwhile are int32 while n < 2**31.

        One index buffer holds the smalls, then the larges, each in pop
        order; one float buffer gathered through it holds the deficit
        cumsum ``D`` over the smalls, then the surplus cumsum ``E`` over
        the larges.  Both runs are sorted, so a stable argsort of that
        buffer is a linear merge, and on a tie it puts ``D_j`` before
        ``E_k``.  The merged position of ``D_j`` minus ``j`` is then the
        number of ``E_k < D_j``, and that of ``E_k`` minus ``k`` the
        number of ``D_j <= E_k``: the two pairing counts below.
        """
        n = scaled.size
        alias = np.zeros(n, dtype=np.int64)
        # Pop order of the historical stacks: descending index.
        in_stack = scaled[::-1] < 1.0
        n_small = int(np.count_nonzero(in_stack))
        if n_small == 0 or n_small == n:
            scaled.fill(1.0)
            return scaled, alias
        pos = np.empty(n, dtype=np.int32 if n < 2**31 else np.int64)
        pos[:n_small] = np.flatnonzero(in_stack)
        np.logical_not(in_stack, out=in_stack)
        pos[n_small:] = np.flatnonzero(in_stack)
        del in_stack
        np.subtract(n - 1, pos, out=pos)
        smalls, larges = pos[:n_small], pos[n_small:]
        cat = scaled[pos]
        deficit, surplus = cat[:n_small], cat[n_small:]
        np.subtract(1.0, deficit, out=deficit)
        np.cumsum(deficit, out=deficit)  # D_j after j smalls
        surplus -= 1.0
        np.cumsum(surplus, out=surplus)  # E_k after k larges
        # Small j is absorbed by the first large whose cumulative surplus
        # reaches the deficit accumulated *before* j (none for j = 0, so
        # large 0).  Both cumsums are nondecreasing, so the absorbed
        # smalls are a prefix in pop order and keep their scaled value as
        # prob; the rest are never absorbed and get prob 1 (the
        # "numerical leftovers" of the loop formulation).
        served = min(
            n_small, int(np.searchsorted(deficit, surplus[-1], side="right")) + 1
        )
        # Large k demotes when some prefix deficit exceeds E_k, i.e. when
        # E_k lies below the total deficit: again a prefix.  Its residual
        # mass at that moment is (1 + E_k) - D_j for the first such j,
        # and its alias is the next large popped.  A demoted *last* large
        # has no successor: it keeps prob 1 / alias 0, exactly like the
        # loop's leftover handling.
        demoted = min(
            larges.size - 1,
            int(np.searchsorted(surplus, deficit[-1], side="left")),
        )
        # Whether each merged position holds a D_j (rather than an E_k).
        from_d = np.argsort(cat, kind="stable") < n_small
        consumer = np.flatnonzero(from_d)[: served - 1]
        consumer -= np.arange(served - 1, dtype=pos.dtype)  # #{E_k < D_j}
        alias[smalls[0]] = larges[0]
        alias[smalls[1:served]] = larges[consumer]
        del consumer
        np.logical_not(from_d, out=from_d)
        first_over = np.flatnonzero(from_d)[:demoted]
        del from_d
        first_over -= np.arange(demoted, dtype=pos.dtype)  # #{D_j <= E_k}
        residual = surplus[:demoted]
        residual += 1.0
        residual -= deficit[first_over]
        del first_over
        scaled[smalls[served:]] = 1.0
        scaled[larges[:demoted]] = residual
        scaled[larges[demoted:]] = 1.0
        alias[larges[:demoted]] = larges[1 : demoted + 1]
        return scaled, alias

    @staticmethod
    def _build_reference(scaled: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Stack-loop reference of :meth:`_build` (same FP operations).

        Kept as the readable spelling of the worklist invariant and as
        the bit-identity anchor for the vectorized construction: both
        paths compute every comparison and every residual with the same
        floating-point expressions (running cumulative deficit/surplus),
        so the property test can require exact equality.
        """
        n = scaled.size
        prob = np.ones(n)
        alias = np.zeros(n, dtype=np.int64)
        small = [i for i in range(n) if scaled[i] < 1.0]
        large = [i for i in range(n) if scaled[i] >= 1.0]
        deficit = 0.0  # D: cumulative 1 - scaled over absorbed smalls
        surplus = 0.0  # E: cumulative scaled - 1 over popped larges
        pending: int | None = None  # demoted large awaiting its alias
        pending_prob = 1.0
        while large and (small or pending is not None):
            l = large.pop()
            surplus = surplus + (scaled[l] - 1.0)
            if pending is not None:
                alias[pending] = l
                prob[pending] = pending_prob
                pending = None
            while small and deficit <= surplus:
                s = small.pop()
                prob[s] = scaled[s]
                alias[s] = l
                deficit = deficit + (1.0 - scaled[s])
            if deficit > surplus:
                pending = l
                pending_prob = (1.0 + surplus) - deficit
        return prob, alias

    def draw(self, rng: np.random.Generator) -> int:
        """One O(1) draw."""
        i = int(rng.integers(self._n))
        if rng.random() < self._prob[i]:
            return i
        return int(self._alias[i])

    def draw_many(self, m: int, rng: np.random.Generator) -> np.ndarray:
        """Vectorized batch of ``m`` draws: draw ``k`` is ``idx[k]`` when
        ``coin[k] < prob[idx[k]]``, else ``alias[idx[k]]``, with all of
        ``idx`` drawn before all of ``coin``.

        The draws that move to their alias are selected by position, not
        by a boolean mask: the mask is mixed (a third of ``planted_lsg``'s
        draws move), and numpy gathers and scatters through a mixed mask
        several times slower than through its position list.  The moves
        are written into the fresh ``idx`` array, never into a column.

        Both streams are drawn on the caller.  From
        :data:`~repro.access.beside.SPLIT_MIN_ROWS` rows on, the upper
        half of the rows is then settled beside the lower half
        (:func:`~repro.access.beside.beside`): on a helper thread when
        the process may run on more than one CPU and no other call holds
        the helper slot, inline otherwise.  A smaller block settles in
        one pass: two half passes inline would only add numpy's per-call
        overhead (about 3 us at 64 rows, 7 us at 8,000).  Every way is
        bit-identical: the RNG is touched only before the settle, each
        row's outcome depends only on its own ``idx`` and ``coin`` and the
        read-only columns, and the two halves write disjoint rows of
        ``idx``.
        """
        idx = rng.integers(self._n, size=m)
        coin = rng.random(m)
        if m < SPLIT_MIN_ROWS:
            self._settle(idx, coin)
            return idx
        half = m // 2
        beside(
            lambda: self._settle(idx[:half], coin[:half]),
            lambda: self._settle(idx[half:], coin[half:]),
            m,
        )
        return idx

    def _settle(self, idx: np.ndarray, coin: np.ndarray) -> None:
        """Move, in place, the rows of ``idx`` whose coin rejects them."""
        moved = np.flatnonzero(coin >= self._prob[idx])
        idx[moved] = self._alias[idx[moved]]


class WeightedSampler:
    """Profit-proportional sampling access to an explicit instance.

    Parameters
    ----------
    instance:
        An explicit :class:`~repro.knapsack.KnapsackInstance`.  Profits
        need not be normalized; sampling is proportional regardless.
    budget:
        Optional hard cap on the number of samples (the LCA query
        complexity the benches measure).
    table:
        Optional prebuilt :class:`AliasTable` over ``instance.profits``
        (e.g. :meth:`AliasTable.from_arrays` over shared-memory columns),
        skipping the O(n) construction.  Must match the instance size.
        Construction over a table is O(1) in n: the positive-total check
        ran once, when the table was built (or the shared store
        created), and is not repeated here.
    """

    def __init__(
        self,
        instance: KnapsackInstance,
        *,
        budget: int | None = None,
        table: AliasTable | None = None,
    ) -> None:
        if budget is not None and budget < 0:
            raise OracleError(f"budget must be >= 0, got {budget}")
        if table is None:
            if float(np.sum(instance.profits)) <= 0:
                raise OracleError("weighted sampling requires positive total profit")
            table = AliasTable(instance.profits)
        elif table._n != instance.n:
            raise OracleError(
                f"prebuilt alias table has {table._n} rows for an "
                f"instance of size {instance.n}"
            )
        self._instance = instance
        self._table = table
        self._budget = budget
        self._samples = 0
        self._blocks = 0

    @property
    def n(self) -> int:
        """Instance size."""
        return self._instance.n

    @property
    def capacity(self) -> float:
        """The weight limit K."""
        return self._instance.capacity

    @property
    def table(self) -> AliasTable:
        """The alias table drawn from (read-only, safe to share)."""
        return self._table

    def sample(self, rng: np.random.Generator) -> Sample:
        """Draw one profit-proportional sample."""
        self._charge(1)
        idx = self._table.draw(rng)
        return Sample(idx, self._instance.item(idx))

    def sample_block(self, m: int, rng: np.random.Generator) -> SampleBlock:
        """Draw ``m`` samples as one columnar :class:`SampleBlock`.

        One vectorized draw, one accounting call: the block bills exactly
        ``m`` draws (the IKY12 per-draw currency) but materializes zero
        per-draw Python objects.  Its profit and weight columns are
        gathered on first access, and its efficiency codes come from
        this table's :meth:`AliasTable.code_memo`.
        """
        if m < 0:
            raise OracleError("sample count must be >= 0")
        self._charge_block(m)
        indices = self._table.draw_many(m, rng)
        return TableBlock(
            indices, self._instance.profits, self._instance.weights, self._table
        )

    def sample_many(self, m: int, rng: np.random.Generator) -> list[Sample]:
        """Draw ``m`` samples as :class:`Sample` objects.

        Compatibility wrapper over :meth:`sample_block` — the single
        batch code path.  Consumes the RNG and charges the budget
        identically to the block API; only the return representation
        differs (one Python object per draw).  Hot-path consumers
        should use :meth:`sample_block` directly.
        """
        return self.sample_block(m, rng).to_samples()

    @property
    def samples_used(self) -> int:
        """Number of samples drawn so far."""
        return self._samples

    @property
    def blocks_used(self) -> int:
        """Number of columnar blocks charged so far."""
        return self._blocks

    @property
    def cost_counter(self) -> int:
        """Uniform :class:`~repro.access.cost.CostMeter` face of
        :attr:`samples_used` — one cost unit per draw."""
        return self._samples

    @property
    def budget(self) -> int | None:
        """The sample budget, or ``None``."""
        return self._budget

    def reset(self) -> None:
        """Zero the accounting (fresh stateless run)."""
        self._samples = 0
        self._blocks = 0

    def _charge(self, m: int) -> None:
        if self._budget is not None and self._samples + m > self._budget:
            raise QueryBudgetExceededError(self._budget, self._samples + m)
        self._samples += m
        _obs.record_samples(m)

    def _charge_block(self, m: int) -> None:
        if self._budget is not None and self._samples + m > self._budget:
            raise QueryBudgetExceededError(self._budget, self._samples + m)
        self._samples += m
        self._blocks += 1
        _obs.record_sample_block(m)


class CustomSampler:
    """Weighted sampling for implicit instances.

    The caller supplies ``draw_index(rng) -> int`` implementing the
    profit-proportional law analytically (e.g. by inverse CDF over a
    closed-form profit sequence), plus the instance for attribute
    lookup.  Per-sample cost stays O(1) even for n = 10^9.

    Families whose inverse CDF is array-expressible can additionally
    pass ``draw_indices(m, rng) -> ndarray`` to vectorize block draws.
    The vectorized law must consume the RNG identically to ``m``
    successive scalar calls (PCG64 guarantees e.g. ``rng.random(m)``
    matches ``m`` scalar ``rng.random()`` calls), so that
    :class:`SampleBlock` contents stay byte-stable regardless of which
    path ran — a property test pins this for the shipped families.
    """

    def __init__(
        self,
        instance: InstanceLike,
        draw_index: Callable[[np.random.Generator], int],
        *,
        budget: int | None = None,
        draw_indices: Callable[[int, np.random.Generator], np.ndarray] | None = None,
    ) -> None:
        if budget is not None and budget < 0:
            raise OracleError(f"budget must be >= 0, got {budget}")
        self._instance = instance
        self._draw_index = draw_index
        self._draw_indices = draw_indices
        self._budget = budget
        self._samples = 0
        self._blocks = 0

    @property
    def n(self) -> int:
        """Instance size."""
        return self._instance.n

    @property
    def capacity(self) -> float:
        """The weight limit K."""
        return self._instance.capacity

    def sample(self, rng: np.random.Generator) -> Sample:
        """Draw one sample via the user-provided index law."""
        self._charge(1)
        return self._draw(rng)

    def sample_block(self, m: int, rng: np.random.Generator) -> SampleBlock:
        """Draw ``m`` samples as one columnar :class:`SampleBlock`.

        With only the scalar index law, indices are drawn one at a time
        (RNG consumption identical to the object path); when the sampler
        was built with a vectorized ``draw_indices`` law, one array call
        replaces the loop — byte-stable by the law's RNG-lockstep
        contract.  Attribute lookup is vectorized for array-backed
        instances and falls back to per-index ``profit(i)``/``weight(i)``
        calls — in draw order, duplicates included — for implicit ones,
        preserving any side-effect accounting the instance's callables
        perform.
        """
        if m < 0:
            raise OracleError("sample count must be >= 0")
        self._charge_block(m)
        n = self._instance.n
        if self._draw_indices is not None:
            indices = np.asarray(self._draw_indices(m, rng))
            if indices.shape != (m,):
                raise OracleError(
                    f"vectorized sampler law returned shape {indices.shape}, "
                    f"expected ({m},)"
                )
            indices = indices.astype(np.int64, copy=False)
            if m and (indices.min() < 0 or indices.max() >= n):
                bad = indices[(indices < 0) | (indices >= n)][0]
                raise OracleError(
                    f"custom sampler returned out-of-range index {int(bad)}"
                )
        else:
            indices = np.empty(m, dtype=np.int64)
            for k in range(m):
                idx = int(self._draw_index(rng))
                if not 0 <= idx < n:
                    raise OracleError(
                        f"custom sampler returned out-of-range index {idx}"
                    )
                indices[k] = idx
        if isinstance(self._instance, KnapsackInstance):
            profits = self._instance.profits[indices]
            weights = self._instance.weights[indices]
        else:
            profits = np.fromiter(
                (self._instance.profit(int(i)) for i in indices), dtype=float, count=m
            )
            weights = np.fromiter(
                (self._instance.weight(int(i)) for i in indices), dtype=float, count=m
            )
        return SampleBlock(indices, profits, weights)

    def sample_many(self, m: int, rng: np.random.Generator) -> list[Sample]:
        """Draw ``m`` samples as :class:`Sample` objects.

        Compatibility wrapper over :meth:`sample_block` (the single
        batch code path); identical RNG stream, budget and obs
        accounting — only the return representation differs.
        """
        return self.sample_block(m, rng).to_samples()

    def _draw(self, rng: np.random.Generator) -> Sample:
        idx = int(self._draw_index(rng))
        if not 0 <= idx < self._instance.n:
            raise OracleError(f"custom sampler returned out-of-range index {idx}")
        return Sample(idx, Item(self._instance.profit(idx), self._instance.weight(idx)))

    @property
    def samples_used(self) -> int:
        """Number of samples drawn so far."""
        return self._samples

    @property
    def blocks_used(self) -> int:
        """Number of columnar blocks charged so far."""
        return self._blocks

    @property
    def cost_counter(self) -> int:
        """Uniform :class:`~repro.access.cost.CostMeter` face of
        :attr:`samples_used` — one cost unit per draw."""
        return self._samples

    @property
    def budget(self) -> int | None:
        """The sample budget, or ``None``."""
        return self._budget

    def reset(self) -> None:
        """Zero the accounting."""
        self._samples = 0
        self._blocks = 0

    def _charge(self, m: int) -> None:
        if self._budget is not None and self._samples + m > self._budget:
            raise QueryBudgetExceededError(self._budget, self._samples + m)
        self._samples += m
        _obs.record_samples(m)

    def _charge_block(self, m: int) -> None:
        if self._budget is not None and self._samples + m > self._budget:
            raise QueryBudgetExceededError(self._budget, self._samples + m)
        self._samples += m
        self._blocks += 1
        _obs.record_sample_block(m)
