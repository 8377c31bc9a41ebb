"""Shared substrate segments: serialize once per machine, attach everywhere.

The parallel engine's workers all need the same immutable substrate
(framework spec + API database + warm-class key set).  Under the fork
start method they inherit the parent's built objects for free; on
spawn platforms — and for any process that cannot inherit — this
module publishes the substrate **once** into a
:mod:`multiprocessing.shared_memory` segment and lets every worker
(including ones respawned after a worker death) *attach* instead of
re-reading and re-mining:

* the payload is pickled with **protocol 5** and out-of-band buffers
  (:class:`pickle.PickleBuffer`): any buffer-backed data in the
  substrate is written to the segment once and reconstructed in the
  attaching process as memoryviews over the shared pages — zero-copy.
  (Pure-Python object graphs — most of the spec and database — still
  materialize per process on attach; what the segment guarantees is
  one serialization and no per-worker disk or re-mining cost.  The
  honest accounting lives in docs/cost-model.md.)
* when shared memory is unavailable (or creation fails), the same
  bytes go to a read-only temp file attached via ``mmap`` — identical
  layout, identical handle API;
* the segment is **content-guarded**: a magic header plus the
  caller's substrate key are embedded and re-checked on attach, so a
  stale or foreign segment is a miss (``None``), never an error;
* cleanup is **guaranteed**: the publishing process unlinks the
  segment on ``close()``, on context-manager exit, and — covering
  SIGINT/exception paths — via an ``atexit`` guard.  Attaching
  processes never unlink; a worker dying mid-app therefore cannot
  take the segment away from its siblings, and an interrupted run
  cannot leak ``/dev/shm`` entries past interpreter exit.
"""

from __future__ import annotations

import atexit
import mmap
import os
import pickle
import signal
import struct
import tempfile
import threading
import weakref
from dataclasses import dataclass

__all__ = ["SharedSubstrateHandle", "SharedSubstrate"]

_MAGIC = b"RSUBSTR1"
_LEN = struct.Struct("<Q")

try:  # pragma: no cover — present on every supported platform
    from multiprocessing import shared_memory as _shm
except ImportError:  # pragma: no cover
    _shm = None


# -- signal-driven cleanup --------------------------------------------------
#
# atexit covers normal interpreter exit and KeyboardInterrupt, but a
# plain SIGTERM (the way schedulers and `kill` stop a run) terminates
# the process WITHOUT unwinding Python at all — no finally blocks, no
# atexit, and therefore a leaked /dev/shm segment.  The first owned
# segment installs a SIGTERM guard (only when nobody else claimed the
# signal) that unlinks every live owned segment and then re-raises the
# default SIGTERM so exit semantics stay unchanged.

_OWNED_SEGMENTS: "weakref.WeakSet[SharedSubstrate]" = weakref.WeakSet()
_SIGTERM_GUARD_INSTALLED = False


def _close_owned_segments() -> None:
    """Unlink every live segment *this process* owns.  Fork children
    inherit the registry but must never unlink the parent's segments —
    the owner pid check is what keeps a SIGTERM'd worker from taking
    the substrate away from its siblings."""
    for segment in list(_OWNED_SEGMENTS):
        if segment._owner_pid != os.getpid():
            continue
        try:
            segment.close(unlink=True)
        except Exception:  # noqa: BLE001 — best-effort from a handler
            pass


def _sigterm_guard(signum, frame):  # pragma: no cover — signal path
    _close_owned_segments()
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    os.kill(os.getpid(), signal.SIGTERM)


def _install_sigterm_guard() -> None:
    global _SIGTERM_GUARD_INSTALLED
    if _SIGTERM_GUARD_INSTALLED:
        return
    if threading.current_thread() is not threading.main_thread():
        # signal.signal is main-thread-only; a daemon publishing from
        # a worker thread installs its own drain handler instead.
        return
    try:
        existing = signal.getsignal(signal.SIGTERM)
        if existing not in (signal.SIG_DFL, None):
            # Someone (the serve daemon, a test harness) already owns
            # shutdown; their handler is responsible for cleanup.
            return
        signal.signal(signal.SIGTERM, _sigterm_guard)
        _SIGTERM_GUARD_INSTALLED = True
    except (ValueError, OSError):  # pragma: no cover — exotic hosts
        pass


@dataclass(frozen=True)
class SharedSubstrateHandle:
    """Everything a worker needs to attach: transport, address, key.

    Picklable by design — it rides in each pool worker's start args.
    """

    kind: str  # "shm" | "file"
    name: str  # segment name (shm) or file path (file)
    key: str   # substrate fingerprint, re-checked on attach


def _encode(payload: dict, key: str) -> bytes:
    """Lay the payload out as one self-describing blob:
    ``magic | len(index) | index | pickle | buffer₀ | buffer₁ | …``
    where the index records the key and every section length."""
    buffers: list[pickle.PickleBuffer] = []
    obj = pickle.dumps(
        payload, protocol=5, buffer_callback=buffers.append
    )
    raws = [bytes(b.raw()) for b in buffers]
    index = pickle.dumps(
        {
            "key": key,
            "obj_len": len(obj),
            "buf_lens": [len(raw) for raw in raws],
        }
    )
    return b"".join(
        (_MAGIC, _LEN.pack(len(index)), index, obj, *raws)
    )


def _decode(view: memoryview, key: str | None) -> dict | None:
    """Reverse :func:`_encode` over a (possibly shared) buffer;
    ``None`` on any defect — a miss, never an error."""
    try:
        if bytes(view[: len(_MAGIC)]) != _MAGIC:
            return None
        offset = len(_MAGIC)
        (index_len,) = _LEN.unpack(
            bytes(view[offset:offset + _LEN.size])
        )
        offset += _LEN.size
        index = pickle.loads(bytes(view[offset:offset + index_len]))
        offset += index_len
        if key is not None and index.get("key") != key:
            return None
        obj_len = index["obj_len"]
        obj = bytes(view[offset:offset + obj_len])
        offset += obj_len
        buffers = []
        for buf_len in index["buf_lens"]:
            # Memoryviews straight into the shared mapping: the
            # attach-side zero-copy path.
            buffers.append(view[offset:offset + buf_len])
            offset += buf_len
        return pickle.loads(obj, buffers=buffers)
    except Exception:  # noqa: BLE001 — corrupt segment == miss
        return None


class SharedSubstrate:
    """One published (or attached) substrate segment.

    The *publisher* owns the segment's lifetime: ``close(unlink=True)``
    — also run by the context manager and an ``atexit`` guard —
    removes it from the system.  *Attachers* merely map it; their
    ``close()`` drops the mapping and never unlinks.
    """

    def __init__(
        self,
        handle: SharedSubstrateHandle,
        *,
        owner: bool,
        segment=None,
        mapping=None,
        fileobj=None,
    ) -> None:
        self.handle = handle
        self._owner = owner
        self._owner_pid = os.getpid() if owner else -1
        self._segment = segment
        self._mapping = mapping
        self._fileobj = fileobj
        self._closed = False
        if owner:
            atexit.register(self._atexit_close)
            _OWNED_SEGMENTS.add(self)
            _install_sigterm_guard()

    # -- publishing ----------------------------------------------------

    @classmethod
    def publish(
        cls, payload: dict, key: str, *, prefer_shm: bool = True
    ) -> "SharedSubstrate":
        """Serialize ``payload`` once for the whole machine; returns
        the owning segment (shared memory when available, a read-only
        mmap-backed temp file otherwise)."""
        blob = _encode(payload, key)
        if prefer_shm and _shm is not None:
            try:
                segment = _shm.SharedMemory(create=True, size=len(blob))
                segment.buf[: len(blob)] = blob
                handle = SharedSubstrateHandle(
                    kind="shm", name=segment.name, key=key
                )
                return cls(handle, owner=True, segment=segment)
            except (OSError, ValueError):
                pass  # /dev/shm full or unavailable: fall through
        fd, path = tempfile.mkstemp(
            prefix="repro-substrate-", suffix=".seg"
        )
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        handle = SharedSubstrateHandle(kind="file", name=path, key=key)
        return cls(handle, owner=True)

    # -- attaching -----------------------------------------------------

    @classmethod
    def attach(
        cls, handle: SharedSubstrateHandle
    ) -> "SharedSubstrate | None":
        """Map an existing segment; ``None`` when it is gone or does
        not carry ``handle.key`` (callers fall back to the snapshot
        file or a fresh build)."""
        try:
            if handle.kind == "shm":
                if _shm is None:
                    return None
                segment = _attach_untracked(handle.name)
                return cls(handle, owner=False, segment=segment)
            fileobj = open(handle.name, "rb")
            mapping = mmap.mmap(
                fileobj.fileno(), 0, access=mmap.ACCESS_READ
            )
            return cls(
                handle, owner=False, mapping=mapping, fileobj=fileobj
            )
        except (OSError, ValueError, FileNotFoundError):
            return None

    def payload(self) -> dict | None:
        """Decode the substrate payload (key re-checked); ``None`` on
        any corruption.  The returned object graph may reference the
        shared pages — keep this segment open for as long as the
        payload is in use."""
        if self._closed:
            return None
        if self._segment is not None:
            view = memoryview(self._segment.buf)
        elif self._mapping is not None:
            view = memoryview(self._mapping)
        else:  # pragma: no cover — constructor invariant
            return None
        return _decode(view, self.handle.key)

    # -- lifecycle -----------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self, *, unlink: bool | None = None) -> None:
        """Drop the mapping; the owner also unlinks (removes) the
        segment.  Idempotent — safe from ``finally`` blocks, the
        context manager, and the ``atexit`` guard together."""
        if self._closed:
            return
        self._closed = True
        if unlink is None:
            unlink = self._owner
        if self._segment is not None:
            try:
                self._segment.close()
            except OSError:  # pragma: no cover
                pass
            if unlink:
                try:
                    self._segment.unlink()
                except (OSError, FileNotFoundError):
                    pass
        if self._mapping is not None:
            try:
                self._mapping.close()
            except OSError:  # pragma: no cover
                pass
        if self._fileobj is not None:
            try:
                self._fileobj.close()
            except OSError:  # pragma: no cover
                pass
        if self.handle.kind == "file" and unlink:
            try:
                os.unlink(self.handle.name)
            except OSError:
                pass

    def _atexit_close(self) -> None:
        # SIGINT raises KeyboardInterrupt, which still unwinds through
        # interpreter exit — this guard is what keeps an interrupted
        # corpus run from leaking /dev/shm segments.  (SIGTERM never
        # reaches atexit; that path is the module-level signal guard.)
        if self._owner_pid != os.getpid():
            # A fork child inherited the registration; the segment
            # belongs to the parent.
            return
        self.close(unlink=True)

    def __enter__(self) -> "SharedSubstrate":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def _attach_untracked(name: str):
    """Open an existing segment WITHOUT registering it with the
    resource tracker: the publisher owns the unlink, and a second
    registration (the tracker keeps a set, not a refcount) would make
    it spuriously complain — and double-unlink — at exit."""
    try:
        # Python ≥ 3.13 supports opting out directly.
        return _shm.SharedMemory(name=name, track=False)
    except TypeError:
        pass
    from multiprocessing import resource_tracker

    original = resource_tracker.register

    def _skip_shm(res_name, rtype):
        if rtype != "shared_memory":
            original(res_name, rtype)

    resource_tracker.register = _skip_shm
    try:
        return _shm.SharedMemory(name=name)
    finally:
        resource_tracker.register = original
