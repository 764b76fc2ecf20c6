"""One base for access decorators that act once around every probe.

An access object exposes four primitive probes — ``query`` and
``query_block`` on an oracle, ``sample`` and ``sample_block`` on a
sampler — and a handful of accounting faces (``cost_counter``,
``queries_used``, ``budget``, ``reset`` ...).  :class:`ProbeLayer`
routes the four probes through one hook, :meth:`ProbeLayer._probe`,
derives the batch faces (``query_many``, ``profit``, ``weight``,
``sample_many``) from them, and forwards every accounting face to the
wrapped object unchanged.  The fault injector
(:class:`~repro.faults.injectors.FaultyAccess`) and the retry wrapper
(:class:`~repro.faults.retry.RetryingAccess`) are the two layers built
on it; an :class:`~repro.core.LCAKP` over either cannot tell it is
wrapped.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from ..access.blocks import Sample, SampleBlock
from ..knapsack.items import Item

__all__ = ["ProbeLayer"]


class ProbeLayer:
    """Wrap an oracle or a sampler; subclasses override :meth:`_probe`.

    ``cost_counter`` is declared rather than forwarded: from Python 3.12
    on, ``isinstance(x, CostMeter)`` looks the attribute up statically,
    so a face that only ``__getattr__`` supplies does not count.
    """

    def __init__(self, inner) -> None:
        self._inner = inner

    @property
    def inner(self):
        """The wrapped access object (possibly itself a layer)."""
        return self._inner

    @property
    def cost_counter(self) -> int:
        return self._inner.cost_counter

    def __getattr__(self, name: str):
        # Accounting faces (n, budget, queries_used, reset, ...)
        # pass through.  A half-built copy (copy.copy, unpickling) has
        # no _inner yet: refusing it keeps the lookup from recursing.
        if name == "_inner":
            raise AttributeError(name)
        return getattr(self._inner, name)

    def _probe(self, resource: str, probe: str, call: Callable[[], Any]) -> Any:
        """Run one probe; ``resource`` is ``"oracle"`` or ``"sampler"``."""
        return call()

    # -- the four primitive probes -------------------------------------
    def query(self, i: int) -> Item:
        return self._probe("oracle", "query", lambda: self._inner.query(i))

    def query_block(self, indices) -> SampleBlock:
        """One columnar reveal = one probe, however many rows it carries."""
        idx = [int(i) for i in indices]
        return self._probe(
            "oracle", "query_block", lambda: self._inner.query_block(idx)
        )

    def sample(self, rng: np.random.Generator) -> Sample:
        return self._probe("sampler", "sample", lambda: self._inner.sample(rng))

    def sample_block(self, m: int, rng: np.random.Generator) -> SampleBlock:
        """One charged block = one probe, however many draws it carries."""
        return self._probe(
            "sampler", "sample_block", lambda: self._inner.sample_block(m, rng)
        )

    # -- derived faces -------------------------------------------------
    def query_many(self, indices) -> list[Item]:
        """Per-index probes, one hook call each."""
        return [self.query(int(i)) for i in indices]

    def profit(self, i: int) -> float:
        return self.query(i).profit

    def weight(self, i: int) -> float:
        return self.query(i).weight

    def sample_many(self, m: int, rng: np.random.Generator) -> list[Sample]:
        """Batch face over :meth:`sample_block` (one hook call)."""
        return self.sample_block(m, rng).to_samples()
