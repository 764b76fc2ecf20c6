"""Shared-memory instance tier: one resident copy, many process shards.

Process sharding previously pickled the whole :class:`KnapsackInstance`
into every worker — O(n) serialize + copy + alias-table rebuild per
shard, which caps usable n around 10^6 and makes pool spin-up, not
per-query work, the dominant cost.  This module moves the instance's
columns into a single :mod:`multiprocessing.shared_memory` segment
(with a memmap-file fallback when POSIX shared memory is unavailable)
so every shard attaches zero-copy read-only views of the *same*
physical pages:

* :class:`SharedInstanceStore` — the owner side.  ``create()`` lays the
  profit/weight columns (plus the sampler's prebuilt alias table) into
  one segment behind a JSON header; the store is the only party that ever ``unlink()``s it.
* :class:`SharedInstanceHandle` — the picklable token shipped to
  workers: segment name, dtype/shape metadata, capacity and a content
  digest.  A handle is a few hundred bytes regardless of n.
* :func:`SharedInstanceStore.attach` — the worker side.  Validates the
  digest *before* any query can be billed (a stale or recycled segment
  raises :class:`~repro.errors.DigestMismatchError`; a vanished one
  raises :class:`~repro.errors.SegmentMissingError`), then exposes a
  zero-copy :class:`KnapsackInstance` view and a
  :class:`~repro.access.weighted_sampler.WeightedSampler` wrapping the
  prebuilt alias columns — per-worker setup is O(1) in n.

Lifecycle is refcounted and observable: every create/attach/detach/
unlink increments an ``shm.*`` counter
(:func:`repro.obs.runtime.record_shm`), module-level registries track
live owners and attachments, and ``orphaned_system_segments()`` scans
the platform segment directory so tests and CI can assert nothing
leaked — including after fault-plan worker kills (workers never own
segments; the kernel drops their mappings on exit, and requeued rounds
re-attach the same segment).

Paper connection: "Space-efficient Local Computation Algorithms"
(Alon–Rubinfeld–Vardi–Xie) bounds the *resident state* an LCA touches;
here per-query resident memory is bounded by the sample-block size
while the instance itself stays a single shared mapping, which is what
makes honest n = 10^7–10^8 impossibility demos affordable.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import secrets
import struct
import tempfile
import weakref
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from ..errors import DigestMismatchError, SegmentMissingError, SharedMemoryError
from ..obs import runtime as _obs
from .instance import KnapsackInstance

__all__ = [
    "SharedInstanceHandle",
    "SharedInstanceStore",
    "attach_cached",
    "detach_cached",
    "active_segments",
    "orphaned_system_segments",
    "process_memory",
    "shm_stats",
]

#: Prefix for every segment this tier creates (leak scans key on it).
SEGMENT_PREFIX = "repro-shm-"

_MAGIC = b"repro-shm/v1"
_HEADER_BYTES = 4096
_ALIGN = 64

#: Column layout: name -> dtype.  Order is the physical layout order.
_COLUMNS: tuple[tuple[str, str], ...] = (
    ("profits", "<f8"),
    ("weights", "<f8"),
    ("alias_prob", "<f8"),
    ("alias_idx", "<i8"),
)

#: Segments created (and not yet unlinked) by this process: name ->
#: backend.  Holds no store reference on purpose — the GC-backstop
#: finalizer can only fire if this registry does not keep owners alive.
_OWNED: dict[str, str] = {}

#: Per-process attach cache: (name, digest) -> [store, refcount].
_ATTACH_CACHE: dict[tuple[str, str], list] = {}


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _close_shm_quietly(shm) -> None:
    """Close a :class:`SharedMemory`, neutering it if views escaped.

    ``SharedMemory.close()`` raises :class:`BufferError` while exported
    ndarray views are still alive, and its ``__del__`` would noisily
    retry at interpreter shutdown.  On that path the mapping cannot be
    released now — neuter the object (the kernel reclaims the mapping at
    process exit; ``unlink()`` works by name and is unaffected).
    """
    try:
        shm.close()
    except BufferError:
        shm._mmap = None
        fd = getattr(shm, "_fd", -1)
        if fd >= 0:
            try:
                os.close(fd)
            except OSError:
                pass
            shm._fd = -1


def _digest(profits: np.ndarray, weights: np.ndarray, capacity: float) -> str:
    """Content digest pinning instance identity (n, capacity, columns)."""
    h = hashlib.sha256()
    h.update(struct.pack("<qd", profits.size, float(capacity)))
    h.update(np.ascontiguousarray(profits, dtype="<f8").data)
    h.update(np.ascontiguousarray(weights, dtype="<f8").data)
    return h.hexdigest()[:32]


@dataclass(frozen=True)
class SharedInstanceHandle:
    """Picklable token granting attach access to a shared segment.

    Carries everything a worker needs to map and *verify* the segment —
    name, backend, item count, capacity, content digest, total byte
    length and the column offset table — and nothing that scales with n.
    """

    name: str
    backend: str  # "shm" | "mmap"
    n: int
    capacity: float
    digest: str
    nbytes: int
    columns: tuple[tuple[str, str, int], ...]  # (name, dtype, offset)
    path: str | None = None  # backing file, mmap backend only

    def __post_init__(self) -> None:
        if self.backend not in ("shm", "mmap"):
            raise SharedMemoryError(f"unknown shm backend {self.backend!r}")


class _Segment:
    """One mapped byte range, shm- or file-backed, owner- or attach-side."""

    __slots__ = ("backend", "name", "buf", "_shm", "_mmap", "_path")

    def __init__(self, backend: str, name: str, buf, shm_obj=None, mmap_obj=None, path=None):
        self.backend = backend
        self.name = name
        self.buf = buf
        self._shm = shm_obj
        self._mmap = mmap_obj
        self._path = path

    @classmethod
    def create(cls, name: str, nbytes: int, backend: str, spill_dir: str | None) -> "_Segment":
        if backend in ("auto", "shm"):
            try:
                seg = shared_memory.SharedMemory(name=name, create=True, size=nbytes)
                return cls("shm", name, seg.buf, shm_obj=seg)
            except OSError:
                if backend == "shm":
                    raise
                _obs.record_shm("mmap_spills")
        path = os.path.join(spill_dir or tempfile.gettempdir(), name)
        arr = np.memmap(path, dtype=np.uint8, mode="w+", shape=(nbytes,))
        return cls("mmap", name, memoryview(arr), mmap_obj=arr, path=path)

    @classmethod
    def attach(cls, handle: SharedInstanceHandle) -> "_Segment":
        if handle.backend == "shm":
            try:
                seg = shared_memory.SharedMemory(name=handle.name, create=False)
            except FileNotFoundError:
                raise SegmentMissingError(handle.name) from None
            # Python <3.13 registers *attached* segments with the
            # resource tracker too, which would unlink them when this
            # process exits even though it does not own them.  Undo it —
            # except when this very process owns the segment (owner and
            # attacher share one tracker registration; forked workers
            # inherit ``_OWNED`` and must leave the parent's intact).
            if handle.name not in _OWNED:
                try:  # pragma: no cover - tracker internals
                    resource_tracker.unregister(seg._name, "shared_memory")
                except Exception:
                    pass
            if seg.size < handle.nbytes:
                seg.close()
                raise SharedMemoryError(
                    f"segment {handle.name!r} is {seg.size} bytes, handle "
                    f"expects >= {handle.nbytes}"
                )
            return cls("shm", handle.name, seg.buf, shm_obj=seg)
        path = handle.path or os.path.join(tempfile.gettempdir(), handle.name)
        if not os.path.exists(path):
            raise SegmentMissingError(handle.name)
        arr = np.memmap(path, dtype=np.uint8, mode="r", shape=(handle.nbytes,))
        return cls("mmap", handle.name, memoryview(arr), mmap_obj=arr, path=path)

    def close(self) -> None:
        self.buf = None
        if self._shm is not None:
            gc.collect()  # drop any lingering ndarray views over the buffer
            _close_shm_quietly(self._shm)
            self._shm = None
        self._mmap = None

    def __del__(self) -> None:
        # A segment dropped without close() (e.g. a discarded attachment
        # collected together with its views) must not let SharedMemory's
        # own __del__ raise at teardown.
        try:
            if self._shm is not None:
                _close_shm_quietly(self._shm)
                self._shm = None
        except Exception:
            pass

    def unlink(self) -> None:
        if self._shm is not None:
            try:
                self._shm.unlink()
            except FileNotFoundError:
                pass
        elif self._path is not None:
            try:
                os.unlink(self._path)
            except FileNotFoundError:
                pass


class SharedInstanceStore:
    """Owner/attachment of one shared-memory instance segment.

    Use :meth:`create` in the serving parent (owner: creates, and later
    unlinks, the segment) and :meth:`attach` in workers (maps an
    existing segment after verifying the handle's digest).  Both sides
    expose the same zero-copy products: :attr:`instance`,
    :meth:`sampler` and :meth:`column`.
    """

    def __init__(self) -> None:
        self._segment: _Segment | None = None
        self._handle: SharedInstanceHandle | None = None
        self._views: dict[str, np.ndarray] = {}
        self._instance: KnapsackInstance | None = None
        self._owner = False
        self._unlinked = False
        self._finalizer = None

    # ------------------------------------------------------------------
    # Owner side
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        instance: KnapsackInstance,
        *,
        backend: str = "auto",
        spill_dir: str | None = None,
        table=None,
    ) -> "SharedInstanceStore":
        """Lay ``instance`` (plus its alias table) into a fresh segment.

        ``backend="auto"`` prefers POSIX shared memory and spills to a
        memmapped file in ``spill_dir`` (default: the system tempdir) if
        segment creation fails; ``"shm"``/``"mmap"`` force one side.
        The sampler's alias table is laid in once here so every attacher
        skips its O(n) build.
        ``table`` is an optional prebuilt
        :class:`~repro.access.weighted_sampler.AliasTable` over
        ``instance.profits`` (e.g. the one a service already samples
        from); it is copied in instead of being built a second time.
        """
        if backend not in ("auto", "shm", "mmap"):
            raise SharedMemoryError(f"unknown shm backend {backend!r}")
        from ..access.weighted_sampler import AliasTable  # lazy: avoids an import cycle

        n = instance.n
        if table is None:
            table = AliasTable(instance.profits)
        elif table.prob.size != n:
            raise SharedMemoryError(
                f"prebuilt alias table has {table.prob.size} rows for an "
                f"instance of size {n}"
            )
        offsets: list[tuple[str, str, int]] = []
        cursor = _HEADER_BYTES
        for col_name, dtype in _COLUMNS:
            cursor = _align(cursor)
            offsets.append((col_name, dtype, cursor))
            cursor += n * np.dtype(dtype).itemsize
        nbytes = cursor
        digest = _digest(instance.profits, instance.weights, instance.capacity)
        name = f"{SEGMENT_PREFIX}{secrets.token_hex(8)}"
        segment = _Segment.create(name, nbytes, backend, spill_dir)

        store = cls()
        store._segment = segment
        store._owner = True
        store._handle = SharedInstanceHandle(
            name=name,
            backend=segment.backend,
            n=n,
            capacity=instance.capacity,
            digest=digest,
            nbytes=nbytes,
            columns=tuple(offsets),
            path=segment._path,
        )
        store._map_views(writable=True)
        store._views["profits"][:] = instance.profits
        store._views["weights"][:] = instance.weights
        store._views["alias_prob"][:] = table.prob
        store._views["alias_idx"][:] = table.alias
        header = json.dumps(
            {
                "magic": _MAGIC.decode(),
                "n": n,
                "capacity": instance.capacity,
                "digest": digest,
                "nbytes": nbytes,
                "columns": offsets,
            }
        ).encode()
        if len(header) > _HEADER_BYTES - len(_MAGIC) - 4:
            raise SharedMemoryError("segment header overflow")
        segment.buf[: len(_MAGIC)] = _MAGIC
        segment.buf[len(_MAGIC) : len(_MAGIC) + 4] = struct.pack("<I", len(header))
        segment.buf[len(_MAGIC) + 4 : len(_MAGIC) + 4 + len(header)] = header
        store._freeze_views()
        _OWNED[name] = segment.backend
        _obs.record_shm("segments_created")
        # Best-effort backstop: unlink on garbage collection if the
        # owner forgot.  Explicit close() is still the contract.
        store._finalizer = weakref.finalize(
            store, _finalize_owner, name, segment.backend, segment._path
        )
        return store

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    @classmethod
    def attach(
        cls, handle: SharedInstanceHandle, *, verify: str = "digest"
    ) -> "SharedInstanceStore":
        """Map an existing segment and verify it matches ``handle``.

        ``verify="digest"`` (default) checks the stored header digest
        against the handle's — O(1), catches recycled and mislabeled
        segments.  ``verify="full"`` additionally rehashes the mapped
        profit/weight columns — O(n), catches in-place corruption.
        Verification happens here, before the caller can construct any
        oracle or sampler, so no query is ever billed against a wrong
        instance.
        """
        if verify not in ("digest", "full", "none"):
            raise SharedMemoryError(f"unknown verify mode {verify!r}")
        segment = _Segment.attach(handle)
        try:
            head = bytes(segment.buf[:_HEADER_BYTES])
            if head[: len(_MAGIC)] != _MAGIC:
                raise DigestMismatchError(handle.name, handle.digest, "<no header>")
            (hlen,) = struct.unpack_from("<I", head, len(_MAGIC))
            meta = json.loads(head[len(_MAGIC) + 4 : len(_MAGIC) + 4 + hlen])
            if verify != "none":
                if (
                    meta["digest"] != handle.digest
                    or meta["n"] != handle.n
                    or meta["capacity"] != handle.capacity
                ):
                    raise DigestMismatchError(
                        handle.name, handle.digest, str(meta["digest"])
                    )
            store = cls()
            store._segment = segment
            store._handle = handle
            store._map_views(writable=False)
            if verify == "full":
                actual = _digest(
                    store._views["profits"], store._views["weights"], handle.capacity
                )
                if actual != handle.digest:
                    store._views.clear()
                    raise DigestMismatchError(handle.name, handle.digest, actual)
        except Exception:
            segment.close()
            raise
        _obs.record_shm("attaches")
        return store

    # ------------------------------------------------------------------
    def _map_views(self, *, writable: bool) -> None:
        handle = self._handle
        assert handle is not None and self._segment is not None
        for col_name, dtype, offset in handle.columns:
            arr = np.frombuffer(
                self._segment.buf, dtype=dtype, count=handle.n, offset=offset
            )
            if not writable:
                arr = arr.view()
                arr.setflags(write=False)
            self._views[col_name] = arr

    def _freeze_views(self) -> None:
        for arr in self._views.values():
            arr.setflags(write=False)

    # ------------------------------------------------------------------
    # Zero-copy products
    # ------------------------------------------------------------------
    @property
    def handle(self) -> SharedInstanceHandle:
        """The picklable attach token for this segment."""
        if self._handle is None:
            raise SharedMemoryError("store is closed")
        return self._handle

    @property
    def instance(self) -> KnapsackInstance:
        """Zero-copy :class:`KnapsackInstance` over the shared columns."""
        if self._instance is None:
            if not self._views:
                raise SharedMemoryError("store is closed")
            self._instance = KnapsackInstance.from_arrays_view(
                self._views["profits"],
                self._views["weights"],
                self.handle.capacity,
            )
        return self._instance

    def column(self, name: str) -> np.ndarray:
        """One shared column by name (read-only view)."""
        if not self._views:
            raise SharedMemoryError("store is closed")
        try:
            return self._views[name]
        except KeyError:
            raise SharedMemoryError(f"unknown shared column {name!r}") from None

    def sampler(self, *, budget: int | None = None):
        """A :class:`WeightedSampler` wrapping the shared alias columns.

        O(1) in n: the alias table was built once at ``create()`` time;
        this re-wraps the shared ``alias_prob``/``alias_idx`` columns.
        """
        from ..access.weighted_sampler import AliasTable, WeightedSampler

        table = AliasTable.from_arrays(
            self.column("alias_prob"), self.column("alias_idx")
        )
        return WeightedSampler(self.instance, budget=budget, table=table)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def owner(self) -> bool:
        """True for the creating store (the only one that unlinks)."""
        return self._owner

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run."""
        return self._segment is None

    def close(self) -> None:
        """Drop mappings; the owner additionally unlinks the segment.

        Idempotent.  Attach-side ``close()`` only unmaps (the segment
        survives for other attachments); owner-side ``close()`` retires
        the segment system-wide.
        """
        if self._segment is None:
            return
        self._instance = None
        self._handle = None
        self._views.clear()
        if self._owner and not self._unlinked:
            self._unlinked = True
            self._segment.unlink()
            _OWNED.pop(self._segment.name, None)
            _obs.record_shm("segments_unlinked")
            if self._finalizer is not None:
                self._finalizer.detach()
        else:
            _obs.record_shm("detaches")
        self._segment.close()
        self._segment = None

    def __enter__(self) -> "SharedInstanceStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def stats(self) -> dict:
        """Shape/size facts for CLI and service ``stats()`` surfaces."""
        handle = self.handle
        return {
            "name": handle.name,
            "backend": handle.backend,
            "n": handle.n,
            "nbytes": handle.nbytes,
            "digest": handle.digest,
            "owner": self._owner,
            "columns": [c[0] for c in handle.columns],
        }


def _finalize_owner(name: str, backend: str, path: str | None) -> None:
    """GC backstop for an owner store that was never close()d."""
    if name not in _OWNED:
        return
    _OWNED.pop(name, None)
    try:
        if backend == "shm":
            seg = shared_memory.SharedMemory(name=name, create=False)
            seg.close()
            seg.unlink()
        elif path is not None:
            os.unlink(path)
        _obs.record_shm("segments_unlinked")
    except FileNotFoundError:
        pass


# ----------------------------------------------------------------------
# Per-process attach cache (workers attach once per segment, not per chunk)
# ----------------------------------------------------------------------
def attach_cached(handle: SharedInstanceHandle) -> SharedInstanceStore:
    """Attach with a per-process cache keyed on ``(name, digest)``.

    A service's pool workers live as long as the service and serve many
    chunks across many batches; re-mapping (and re-verifying) the
    segment per chunk would waste syscalls.  The first call in a worker
    attaches and verifies; every later call, in any batch, bumps a
    refcount and records an ``shm.attach_hits`` counter.  Pair with
    :func:`detach_cached`, or let process exit reclaim the mappings
    (workers never own segments, so nothing can leak system-wide; the
    service joins its workers on ``close()``).
    """
    key = (handle.name, handle.digest)
    entry = _ATTACH_CACHE.get(key)
    if entry is not None:
        entry[1] += 1
        _obs.record_shm("attach_hits")
        return entry[0]
    store = SharedInstanceStore.attach(handle)
    _ATTACH_CACHE[key] = [store, 1]
    return store


def detach_cached(handle: SharedInstanceHandle) -> None:
    """Release one :func:`attach_cached` reference; unmap on the last."""
    key = (handle.name, handle.digest)
    entry = _ATTACH_CACHE.get(key)
    if entry is None:
        return
    entry[1] -= 1
    if entry[1] <= 0:
        _ATTACH_CACHE.pop(key, None)
        entry[0].close()


# ----------------------------------------------------------------------
# Leak accounting
# ----------------------------------------------------------------------
def active_segments() -> list[str]:
    """Names of segments this process created and has not yet unlinked."""
    return sorted(_OWNED)


def orphaned_system_segments(prefix: str = SEGMENT_PREFIX) -> list[str]:
    """Segment files matching ``prefix`` visible system-wide.

    Scans the platform shared-memory directory (``/dev/shm`` on Linux)
    plus the memmap spill directory.  After every store is closed this
    must be empty — the CI leak check and the lifecycle tests assert
    exactly that.
    """
    found: list[str] = []
    for root in ("/dev/shm", tempfile.gettempdir()):
        try:
            names = os.listdir(root)
        except OSError:
            continue
        found.extend(sorted(n for n in names if n.startswith(prefix)))
    return found


def process_memory() -> dict:
    """Resident/private memory of this process, in KiB.

    ``private_kb`` (from ``/proc/self/smaps_rollup``) excludes pages
    shared with other processes — it is the honest "per-worker overhead"
    number for the bench's RSS column, since shared segment pages are
    counted once system-wide, not once per worker.  Falls back to
    peak-RSS-only where smaps is unavailable.
    """
    out = {"rss_kb": 0, "private_kb": None}
    try:
        with open("/proc/self/smaps_rollup") as fh:
            private = 0
            for line in fh:
                if line.startswith("Rss:"):
                    out["rss_kb"] = int(line.split()[1])
                elif line.startswith(("Private_Clean:", "Private_Dirty:")):
                    private += int(line.split()[1])
            out["private_kb"] = private
    except OSError:
        import resource

        out["rss_kb"] = int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return out


def shm_stats() -> dict:
    """Process-wide shared-memory tier accounting (CLI surface)."""
    counters = {
        key: value
        for key, value in _obs.snapshot().get("counters", {}).items()
        if key.startswith("shm.")
    }
    return {
        "owned_segments": active_segments(),
        "attach_cache": len(_ATTACH_CACHE),
        "orphans": orphaned_system_segments(),
        "counters": counters,
        "memory": process_memory(),
    }
