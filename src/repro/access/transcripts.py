"""Record/replay transcripts of oracle interactions.

Useful for two things:

* *Auditing* — the lower-bound experiments need to know exactly which
  indices a strategy probed (to verify it stayed within budget and to
  measure adaptivity);
* *Replay* — a recorded transcript can be replayed against a different
  instance to check that an algorithm is *local*: if the answers along
  the transcript are identical, the algorithm's output must be too.
  This is the mechanism behind the indistinguishability arguments in
  Theorems 3.2-3.4, made executable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..knapsack.instance import InstanceLike
from ..knapsack.items import Item
from .blocks import SampleBlock
from .oracle import QueryOracle

__all__ = ["TranscriptEntry", "Transcript", "RecordingOracle", "transcripts_agree"]


@dataclass(frozen=True)
class TranscriptEntry:
    """One query/answer pair."""

    index: int
    profit: float
    weight: float


@dataclass
class Transcript:
    """Chronological record of queries made and answers received."""

    entries: list[TranscriptEntry] = field(default_factory=list)

    def append(self, index: int, item: Item) -> None:
        """Record one interaction."""
        self.entries.append(TranscriptEntry(index, item.profit, item.weight))

    @property
    def num_queries(self) -> int:
        """Total recorded queries."""
        return len(self.entries)

    def indices(self) -> list[int]:
        """Queried indices, in order."""
        return [e.index for e in self.entries]

    def distinct_indices(self) -> set[int]:
        """Set of distinct indices probed."""
        return {e.index for e in self.entries}

    def replayable_on(self, instance: InstanceLike, *, tol: float = 1e-12) -> bool:
        """True iff ``instance`` would answer every query identically.

        When true, any deterministic algorithm that produced this
        transcript behaves identically on ``instance`` — the executable
        form of "the two instances are indistinguishable to the
        algorithm".
        """
        for e in self.entries:
            if not 0 <= e.index < instance.n:
                return False
            if abs(instance.profit(e.index) - e.profit) > tol:
                return False
            if abs(instance.weight(e.index) - e.weight) > tol:
                return False
        return True


class RecordingOracle(QueryOracle):
    """A :class:`QueryOracle` that also keeps a full :class:`Transcript`.

    Every charged query is recorded exactly once, in order.  Recording
    happens in :meth:`query` alone, so :meth:`query_block` always takes
    the per-query path: the columnar fast path would charge without
    passing through it.
    """

    def __init__(self, instance: InstanceLike, **kwargs) -> None:
        super().__init__(instance, **kwargs)
        self.transcript = Transcript()

    def query(self, i: int) -> Item:
        """Reveal item ``i`` and record the interaction."""
        item = super().query(i)
        self.transcript.append(i, item)
        return item

    def query_block(self, indices) -> SampleBlock:
        """Reveal and record a batch; the recorded prefix is what was charged."""
        return self._query_each([int(i) for i in indices])

    def reset(self) -> None:
        """Clear both accounting and the transcript."""
        super().reset()
        self.transcript = Transcript()


def transcripts_agree(a: Transcript, b: Transcript) -> bool:
    """True iff two transcripts are exactly equal (indices and answers)."""
    if len(a.entries) != len(b.entries):
        return False
    return all(x == y for x, y in zip(a.entries, b.entries))

