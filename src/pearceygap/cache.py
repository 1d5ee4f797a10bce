"""Content-addressed cache for assembled kernel blocks, plus the advisory
per-root process lock.

Entries are keyed by a SHA-256 over (family, block times, contour/parameter
record, node coordinates), so identical kernel blocks are recognized across
runs and across the many stencil shifts of the PDE study that share times.
Every payload carries its own checksum; a mismatch (torn write, bit rot) is
treated as a miss and recomputed, never silently reused.
"""

from __future__ import annotations

import fcntl
import hashlib
import os
import tempfile
import zipfile

import numpy as np

from .exceptions import ConcurrencyError

__all__ = ["KernelCache", "CacheLock", "block_key", "default_root"]

# Bump whenever kernel evaluation changes, so stale blocks stop matching.
_FORMAT = b"pearceygap-cache-3"
ENV_ROOT = "PEARCEYGAP_CACHE"
_DEFAULT_DIRNAME = ".pearceygap-cache"


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


def _payload_digest(grid: np.ndarray) -> str:
    h = hashlib.sha256()
    h.update(str(grid.dtype).encode())
    h.update(str(grid.shape).encode())
    h.update(np.ascontiguousarray(grid).tobytes())
    return h.hexdigest()


class KernelCache:
    """Directory of <key>.npz files, each holding one grid and its checksum."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key + ".npz")

    def lookup(self, key: str) -> np.ndarray | None:
        path = self._path(key)
        try:
            with np.load(path, allow_pickle=False) as data:
                grid = np.asarray(data["grid"])
                stored = str(data["digest"])
        except (OSError, KeyError, ValueError, EOFError, zipfile.BadZipFile):
            self.misses += 1
            return None
        if _payload_digest(grid) != stored:
            try:
                os.remove(path)
            except OSError:
                pass
            self.misses += 1
            return None
        self.hits += 1
        return grid

    def store(self, key: str, grid: np.ndarray) -> None:
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".part")
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez(fh, grid=grid, digest=_payload_digest(grid))
            os.replace(tmp, self._path(key))
        except BaseException:
            try:
                os.remove(tmp)
            except OSError:
                pass
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
        fd = os.open(self.path, os.O_CREAT | os.O_RDWR)
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
