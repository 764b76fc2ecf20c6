"""Deterministic, hierarchical randomness for stateless LCA runs.

Definition 2.2 gives an LCA a *read-only random seed r* shared by all
runs; Definition 2.5 (reproducibility) splits randomness into the shared
internal string ``r`` and per-run fresh samples.  :class:`SeedChain`
realizes this split:

* every run constructs ``SeedChain(seed)`` from the same integer seed
  and derives identical sub-streams by *label* — this is ``r``;
* fresh per-run randomness is obtained by also mixing in a run nonce
  (:meth:`SeedChain.run_stream`), so two runs share ``r`` but draw
  independent samples.

Streams are derived by SHA-256 over the label path, so derivation is
order-independent, collision-resistant for distinct paths, and requires
no shared mutable state — exactly the property a memoryless LCA needs.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

import numpy as np

__all__ = ["SeedChain", "fresh_nonce"]


def fresh_nonce() -> int:
    """Return an OS-entropy nonce for per-run sampling randomness."""
    return int(np.random.SeedSequence().entropy)


class SeedChain:
    """A node in a deterministic tree of randomness streams.

    Parameters
    ----------
    seed:
        Root seed (int, bytes or str).  Two chains with equal seeds and
        equal label paths produce identical streams.
    path:
        Label path from the root (used internally by :meth:`child`).

    Examples
    --------
    >>> a = SeedChain(42).child("rquantile").child("k=3")
    >>> b = SeedChain(42).child("rquantile").child("k=3")
    >>> a.uniform() == b.uniform()
    True
    >>> SeedChain(42).child("x").uniform() == SeedChain(42).child("y").uniform()
    False
    """

    __slots__ = ("_seed_bytes", "_path")

    def __init__(self, seed: int | bytes | str, path: tuple[str, ...] = ()) -> None:
        if isinstance(seed, int):
            self._seed_bytes = seed.to_bytes((seed.bit_length() + 8) // 8 or 1, "big", signed=True)
        elif isinstance(seed, str):
            self._seed_bytes = seed.encode("utf-8")
        elif isinstance(seed, bytes):
            self._seed_bytes = seed
        else:
            raise TypeError(f"seed must be int, bytes or str, got {type(seed).__name__}")
        self._path = tuple(str(p) for p in path)

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def child(self, label: str | int) -> "SeedChain":
        """Derive a sub-chain; equal labels yield equal sub-chains."""
        return SeedChain(self._seed_bytes, self._path + (str(label),))

    def descend(self, labels: Iterable[str | int]) -> "SeedChain":
        """Derive through several labels at once."""
        node = self
        for label in labels:
            node = node.child(label)
        return node

    def run_stream(self, nonce: int) -> "SeedChain":
        """Per-run randomness: same seed, distinct nonce => independent stream.

        This models the fresh samples s⃗ of Definition 2.5 while the
        un-nonced chain models the shared internal randomness r.
        """
        return self.child("__run__").child(int(nonce))

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------
    def digest(self) -> bytes:
        """SHA-256 digest identifying this node."""
        h = hashlib.sha256()
        h.update(len(self._seed_bytes).to_bytes(4, "big"))
        h.update(self._seed_bytes)
        for label in self._path:
            encoded = label.encode("utf-8")
            h.update(len(encoded).to_bytes(4, "big"))
            h.update(encoded)
        return h.digest()

    def rng(self) -> np.random.Generator:
        """A numpy Generator deterministically seeded by this node."""
        return np.random.default_rng(int.from_bytes(self.digest(), "big"))

    # ------------------------------------------------------------------
    # Direct scalar draws (each label-derived, hence idempotent)
    # ------------------------------------------------------------------
    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """One deterministic U[low, high) draw from this node."""
        return float(self.rng().uniform(low, high))

    def integer(self, low: int, high: int) -> int:
        """One deterministic integer draw from [low, high)."""
        return int(self.rng().integers(low, high))

    @property
    def path(self) -> tuple[str, ...]:
        """The label path from the root (for debugging/logging)."""
        return self._path

    @property
    def key(self) -> tuple[bytes, tuple[str, ...]]:
        """``(seed bytes, label path)``: equal keys derive equal streams,
        and the tuple hashes without running SHA-256 (a cheap memo key)."""
        return (self._seed_bytes, self._path)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SeedChain):
            return NotImplemented
        return self.digest() == other.digest()

    def __hash__(self) -> int:
        return hash(self.digest())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SeedChain(path={'/'.join(self._path) or '<root>'})"
