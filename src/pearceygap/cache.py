"""Content-addressed cache for assembled kernel blocks, plus the advisory
per-root process lock, which a cache takes when it first touches its root.

Entries are keyed by a SHA-256 over (family, block times, a record of the
family's fixed data such as the contour, node coordinates), so identical
kernel blocks are recognized across runs and across the queries of one run
that share them; the pde study builds its derivative blocks and reads none.
A session writes the blocks it stores to one pack file, which it publishes
when it closes (KernelCache).  Each entry carries a digest over its key and
its values; a pack with an entry or a footer that fails its checks (torn
write, bit rot) is deleted and its blocks are recomputed.  BlockStore keeps
blocks in memory under the same interface, for a study that repeats blocks
within one run with no cache installed.
"""

from __future__ import annotations

import contextlib
import fcntl
import hashlib
import os
import struct
import tempfile

import numpy as np

from .exceptions import ConcurrencyError

__all__ = ["KernelCache", "BlockStore", "CacheLock", "block_key", "default_root"]

# Bump whenever kernel evaluation or the entry or pack layout changes.
_FORMAT = b"pearceygap-cache-13"
ENV_ROOT = "PEARCEYGAP_CACHE"
_DEFAULT_DIRNAME = ".pearceygap-cache"
_DIGEST = 32  # entry and pack layout: see KernelCache
_KEY = 32
_SHAPE = struct.Struct("<QQ")
_HEAD = _DIGEST + _SHAPE.size
_SPAN = struct.Struct("<QQ")
_COUNT = struct.Struct("<Q")
_TRAILER = _COUNT.size + _DIGEST


def default_root(flag_value: str | None = None) -> str:
    """Cache root precedence: explicit flag, environment, project-local."""
    if flag_value:
        return flag_value
    env = os.environ.get(ENV_ROOT, "").strip()
    if env:
        return env
    return _DEFAULT_DIRNAME


def block_key(family: str, t_i: float, t_j: float, record: str, x_i, x_j) -> str:
    """Content address of one kernel block."""
    h = hashlib.sha256()
    h.update(_FORMAT)
    for part in (family, repr(float(t_i)), repr(float(t_j)), record):
        data = part.encode()
        h.update(str(len(data)).encode())
        h.update(data)
    for arr in (x_i, x_j):
        data = np.ascontiguousarray(arr, dtype=float).tobytes()
        h.update(str(len(data)).encode())
        h.update(data)
    return h.hexdigest()


class KernelCache:
    """Directory of packs, one per session that stored a block.

    A session runs from the first lookup or store to close().  Its first
    touch creates and locks the root (CacheLock), so a run that reads no
    block leaves no trace.  Holding the lock, it deletes every *.part file,
    which only a session that died before close() leaves, and every *.pack
    whose footer fails its digest.

    An entry is a 32-byte SHA-256 over (the key's 32 bytes, the rest of the
    entry), the grid's (rows, columns) as little-endian uint64, then its
    values as little-endian float64 in C order.  The session appends the
    entries it stores to <root>/<tmp>.part.  close() appends the footer: the
    sorted 32-byte keys, each key's (offset, length) as little-endian uint64
    pairs, the entry count as uint64 and a SHA-256 over those, then renames
    the file to <root>/<footer digest>.pack and releases the lock.  A session
    that stores nothing writes no file.

    A lookup reads the session's own entries, then binary-searches each
    pack's footer.  An entry whose length disagrees with its header or whose
    digest does not match is counted a miss, and its pack is deleted.
    """

    def __init__(self, root: str):
        self.root = root
        self.hits = 0
        self.misses = 0
        self._lock = None
        self._packs = []
        self._part = None  # the session's .part file, opened at its first store
        self._part_path = None
        self._own = {}  # key bytes -> (offset, length) in the .part file

    def _begin(self) -> None:
        """First touch of a session: lock the root, sweep it, read its packs' footers."""
        if self._lock is not None:
            return
        self._lock = CacheLock(self.root).acquire()
        for name in sorted(os.listdir(self.root)):
            path = os.path.join(self.root, name)
            if name.endswith(".part"):
                _remove(path)  # the lock proves no live session owns it
            elif name.endswith(".pack"):
                pack = _Pack.open(path)
                if pack is None:
                    _remove(path)
                else:
                    self._packs.append(pack)

    def close(self) -> None:
        """Publish the session's pack and release the root."""
        if self._lock is None:
            return
        part, self._part = self._part, None
        try:
            if part is not None:
                with part:
                    keys = sorted(self._own)
                    footer = b"".join(keys + [_SPAN.pack(*self._own[k]) for k in keys])
                    footer += _COUNT.pack(len(keys))
                    digest = hashlib.sha256(footer).digest()
                    part.write(footer + digest)
                os.replace(self._part_path, os.path.join(self.root, digest.hex() + ".pack"))
        finally:
            for pack in self._packs:
                pack.close()
            self._packs, self._own = [], {}
            self._lock.release()
            self._lock = None

    def lookup(self, key: str) -> np.ndarray | None:
        self._begin()
        kb = bytes.fromhex(key)
        span = self._own.get(kb)
        if span is not None:
            self._part.flush()
            grid = _read_entry(self._part.fileno(), kb, *span)
            if grid is not None:
                self.hits += 1
                return grid
            del self._own[kb]  # the store that follows this miss appends it anew
        for pack in list(self._packs):
            span = pack.find(kb)
            if span is None:
                continue
            grid = pack.read(kb, *span)
            if grid is not None:
                self.hits += 1
                return grid
            self._packs.remove(pack)  # its keys drop out for the session
            pack.close()
            _remove(pack.path)
        self.misses += 1
        return None

    def store(self, key: str, grid: np.ndarray) -> None:
        kind = f"{np.ndim(grid)}-D {getattr(grid, 'dtype', type(grid).__name__)}"
        if kind != "2-D float64":
            raise TypeError(f"the block cache stores 2-D float64 grids, not {kind}")
        kb = bytes.fromhex(key)
        head = _SHAPE.pack(*grid.shape)
        data = np.ascontiguousarray(grid, dtype="<f8")
        self._begin()
        if self._part is None:
            fd, self._part_path = tempfile.mkstemp(dir=self.root, suffix=".part")
            self._part = os.fdopen(fd, "wb")
        offset = self._part.tell()
        self._part.writelines((_digest(kb, head, data), head, data))
        self._own[kb] = (offset, _HEAD + data.nbytes)


class BlockStore:
    """In-memory blocks under KernelCache's lookup/store interface, for one
    study run that repeats blocks with no cache installed; it writes nothing.
    A stored grid is kept as a read-only copy, so no caller can change the
    value that later lookups return."""

    def __init__(self):
        self._grids = {}

    def lookup(self, key: str) -> np.ndarray | None:
        return self._grids.get(key)

    def store(self, key: str, grid: np.ndarray) -> None:
        grid = np.array(grid, dtype=float)
        grid.flags.writeable = False
        self._grids[key] = grid


class _Pack:
    """A published pack, as one session reads it.  Its footer stays raw bytes
    and is binary-searched, so opening a pack does no work per entry.  Its file
    is open only from the first entry it reads to close(), so a session holds
    no file for a pack it does not read from."""

    def __init__(self, path: str, footer: bytes, count: int):
        self.path, self.footer = path, footer
        self.keys = np.frombuffer(footer, "S32", count)
        self._fd = None

    @classmethod
    def open(cls, path: str) -> "_Pack | None":
        """The pack at path, or None when its footer fails its digest."""
        fd = os.open(path, os.O_RDONLY)
        try:
            size = os.fstat(fd).st_size
            trailer = os.pread(fd, _TRAILER, max(size - _TRAILER, 0))
            if len(trailer) < _TRAILER:
                return None
            (count,) = _COUNT.unpack_from(trailer)
            length = count * (_KEY + _SPAN.size) + _TRAILER
            footer = os.pread(fd, length, size - length) if length <= size else b""
        finally:
            os.close(fd)
        if (len(footer) == length and hashlib.sha256(
                memoryview(footer)[:-_DIGEST]).digest() == footer[-_DIGEST:]):
            return cls(path, footer, count)
        return None

    def find(self, kb: bytes) -> tuple[int, int] | None:
        """(offset, length) of key kb's entry, or None."""
        i = int(self.keys.searchsorted(kb))
        # i is where kb would go; kb is there only if the raw bytes match
        if i < len(self.keys) and self.footer[_KEY * i:_KEY * (i + 1)] == kb:
            return _SPAN.unpack_from(self.footer, _KEY * len(self.keys) + _SPAN.size * i)
        return None

    def read(self, kb: bytes, offset: int, length: int) -> np.ndarray | None:
        """Key kb's grid from the entry at offset, or None if it fails a check."""
        if self._fd is None:
            self._fd = os.open(self.path, os.O_RDONLY)
        return _read_entry(self._fd, kb, offset, length)

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None


def _digest(kb: bytes, head: bytes, data) -> bytes:
    h = hashlib.sha256(kb)
    h.update(head)
    h.update(data)
    return h.digest()


def _read_entry(fd: int, kb: bytes, offset: int, length: int) -> np.ndarray | None:
    """Key kb's grid from the entry at offset, or None if it fails a check."""
    raw = os.pread(fd, length, offset)
    rows, cols = _SHAPE.unpack_from(raw, _DIGEST) if len(raw) >= _HEAD else (0, 0)
    if (len(raw) == length == _HEAD + 8 * rows * cols
            and _digest(kb, raw[_DIGEST:_HEAD], memoryview(raw)[_HEAD:]) == raw[:_DIGEST]):
        return np.frombuffer(raw, "<f8", offset=_HEAD).astype(float).reshape(rows, cols)
    return None


def _remove(path: str) -> None:
    with contextlib.suppress(OSError):
        os.remove(path)


class CacheLock:
    """Advisory one-process-per-cache-root lock: a non-blocking exclusive
    flock on <root>/lock.  The kernel drops it when the holder's file is
    closed, so a holder that dies leaves no stale lock.  The file stays in
    place: unlinking it on release would let two processes lock two
    different files of the same name."""

    def __init__(self, root: str):
        self.root = root
        self.path = os.path.join(root, "lock")
        self._fd = None

    def acquire(self) -> "CacheLock":
        os.makedirs(self.root, exist_ok=True)
        fd = os.open(self.path, os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError as exc:
            os.close(fd)
            if not isinstance(exc, BlockingIOError):
                raise
            raise ConcurrencyError(
                f"cache root {self.root} is locked by another process"
            ) from None
        self._fd = fd
        return self

    def release(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "CacheLock":
        return self.acquire()

    def __exit__(self, *exc) -> None:
        self.release()
