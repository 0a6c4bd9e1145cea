"""Read-only NumPy arrays shared with worker processes without pickling.

The process backend of :class:`repro.exec.executor.ChunkExecutor` ships
each chunk's *own* data (packed keep bits, RNG substream seeds) through
the normal pickle channel — those are small.  What must **not** travel
per task are the large read-only constants every chunk shares: the
candidate-pair endpoint arrays, the sorted union incidence, the graph's
CSR arrays (which a worker wraps as a :class:`repro.graphs.graph.Graph`
without copying).  :class:`SharedArrayPack` copies those once into
``multiprocessing.shared_memory`` segments; workers attach by name and
get zero-copy NumPy views.

Lifecycle (see the README "Parallel execution" section):

* the parent creates the pack (one copy per array), passes its
  *descriptor* (names/shapes/dtypes — tiny and picklable) to workers,
  and calls :meth:`SharedArrayPack.close` (which unlinks) when the
  ``map`` call completes — normally via the executor, in a ``finally``;
* workers attach lazily, cache the attachment for the pack's lifetime
  (one attach per worker, not per chunk), and drop it when a new pack
  supersedes it;
* attachment suppresses ``resource_tracker`` registration in the
  child — the parent owns the segment, and fork children share the
  parent's tracker process, so worker-side registrations would corrupt
  its per-name accounting (a well-known CPython wart, fixed upstream
  only in 3.13's ``track=False``).

On Linux the segments live in ``/dev/shm``; a crashed *parent* can
therefore leak them until reboot.  The executor minimises the window by
unlinking in ``finally``, and ``SharedArrayPack`` doubles as a context
manager for direct use.
"""

from __future__ import annotations

import secrets
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.resilience.faults import fault_point

__all__ = ["SharedArrayPack", "attach_shared"]


class SharedArrayPack:
    """A named set of read-only arrays exported to shared memory."""

    def __init__(self, arrays: dict[str, np.ndarray]):
        #: Unique id: worker-side attachment caches key on this.
        self.uid = f"repro-{secrets.token_hex(8)}"
        self._segments: list[shared_memory.SharedMemory] = []
        self.descriptor: dict = {"uid": self.uid, "arrays": {}}
        for name, array in arrays.items():
            array = np.ascontiguousarray(array)
            seg = shared_memory.SharedMemory(
                create=True, size=max(array.nbytes, 1), name=f"{self.uid}-{len(self._segments)}"
            )
            view = np.ndarray(array.shape, dtype=array.dtype, buffer=seg.buf)
            view[...] = array
            self._segments.append(seg)
            self.descriptor["arrays"][name] = {
                "segment": seg.name,
                "shape": tuple(array.shape),
                "dtype": str(array.dtype),
            }

    def close(self) -> None:
        """Release and unlink every segment (idempotent)."""
        for seg in self._segments:
            try:
                seg.close()
                seg.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass
        self._segments = []

    def __enter__(self) -> "SharedArrayPack":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


class _Attachment:
    """A worker's view of one pack: open segments + array views."""

    def __init__(self, descriptor: dict):
        self.uid = descriptor["uid"]
        self.segments: list[shared_memory.SharedMemory] = []
        self.arrays: dict[str, np.ndarray] = {}
        for name, spec in descriptor["arrays"].items():
            # Fork children inherit the PARENT's resource-tracker pipe,
            # so attaching must not register the segment at all: the
            # tracker's cache is a set, and a register/unregister pair
            # from each worker would collapse into one entry and strand
            # the parent's own unregister on a KeyError.  Suppressing
            # registration during the open (the 3.13 ``track=False``
            # behaviour, hand-rolled for 3.11) leaves the parent as the
            # segment's sole owner.
            orig_register = resource_tracker.register
            resource_tracker.register = lambda *a, **k: None
            try:
                seg = shared_memory.SharedMemory(name=spec["segment"])
            finally:
                resource_tracker.register = orig_register
            self.segments.append(seg)
            view = np.ndarray(
                spec["shape"], dtype=np.dtype(spec["dtype"]), buffer=seg.buf
            )
            view.flags.writeable = False
            self.arrays[name] = view

    def close(self) -> None:
        self.arrays = {}
        for seg in self.segments:
            try:
                seg.close()
            except Exception:  # pragma: no cover
                pass
        self.segments = []


#: The worker's single cached attachment (packs supersede each other:
#: one ``map`` call is in flight at a time per executor).
_CACHED: _Attachment | None = None


def attach_shared(descriptor: dict | None) -> dict[str, np.ndarray] | None:
    """Worker-side: the descriptor's arrays as read-only views (cached)."""
    global _CACHED
    if descriptor is None:
        return None
    # Chaos site: a delay here widens the attach-vs-unlink race the
    # executor's retry path must absorb (FileNotFoundError → re-run).
    fault_point("exec.shm.attach", key=descriptor["uid"])
    if _CACHED is None or _CACHED.uid != descriptor["uid"]:
        if _CACHED is not None:
            _CACHED.close()
        _CACHED = _Attachment(descriptor)
    return _CACHED.arrays
