"""Content-addressed cache for assembled kernel blocks, plus the advisory
per-root process lock, which a cache takes when it first touches its root.

Entries are keyed by a SHA-256 over (family, block times, a record of the
family's fixed data such as the contour, node coordinates), so identical
kernel blocks are recognized across runs and across the many stencil shifts
of the PDE study that share times.
Each entry is one flat file that carries its own checksum (KernelCache); an
entry that fails its checks (torn write, bit rot) is deleted and recomputed.
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

__all__ = ["KernelCache", "CacheLock", "block_key", "default_root"]

# Bump whenever kernel evaluation or the entry layout changes.
_FORMAT = b"pearceygap-cache-9"
ENV_ROOT = "PEARCEYGAP_CACHE"
_DEFAULT_DIRNAME = ".pearceygap-cache"
_DIGEST = 32  # entry layout: see KernelCache
_SHAPE = struct.Struct("<QQ")
_HEAD = _DIGEST + _SHAPE.size


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
    """Directory of <key>.blk files, one per block: a 32-byte SHA-256 of the
    rest, the grid's (rows, columns) as little-endian uint64, then its values
    as little-endian float64 in C order.  An entry whose length disagrees with
    its header or whose digest does not match is deleted and counted a miss.

    The root is created and locked (CacheLock) at the first lookup or store,
    so a run that reads no block leaves no trace; close() releases the lock.
    """

    def __init__(self, root: str):
        self.root = root
        self.hits = 0
        self.misses = 0
        self._lock = None

    def _path(self, key: str) -> str:
        """Path of key's entry; the first call creates and locks the root."""
        if self._lock is None:
            self._lock = CacheLock(self.root).acquire()
        return os.path.join(self.root, key + ".blk")

    def close(self) -> None:
        if self._lock is not None:
            self._lock.release()
            self._lock = None

    def lookup(self, key: str) -> np.ndarray | None:
        path = self._path(key)
        raw = b""
        with contextlib.suppress(OSError), open(path, "rb") as fh:
            raw = fh.read()
        rows, cols = _SHAPE.unpack_from(raw, _DIGEST) if len(raw) >= _HEAD else (0, 0)
        if (len(raw) == _HEAD + 8 * rows * cols
                and hashlib.sha256(memoryview(raw)[_DIGEST:]).digest() == raw[:_DIGEST]):
            self.hits += 1
            return np.frombuffer(raw, "<f8", offset=_HEAD).astype(float).reshape(rows, cols)
        with contextlib.suppress(OSError):
            os.remove(path)  # absent, short, mismatched or corrupt
        self.misses += 1
        return None

    def store(self, key: str, grid: np.ndarray) -> None:
        kind = f"{np.ndim(grid)}-D {getattr(grid, 'dtype', type(grid).__name__)}"
        if kind != "2-D float64":
            raise TypeError(f"the block cache stores 2-D float64 grids, not {kind}")
        head = _SHAPE.pack(*grid.shape)
        data = np.ascontiguousarray(grid, dtype="<f8")
        digest = hashlib.sha256(head)
        digest.update(data)
        path = self._path(key)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".part")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.writelines((digest.digest(), head, data))
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.remove(tmp)
            raise


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
