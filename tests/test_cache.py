"""Kernel block cache: content addressing, payload integrity, advisory lock."""

import hashlib
import os
import stat
import subprocess
import sys

import numpy as np
import pytest

import pearceygap
from pearceygap import cache as cache_mod
from pearceygap.cache import CacheLock, KernelCache, block_key, default_root
from pearceygap.exceptions import ConcurrencyError
from pearceygap.fredholm import (
    BlockDiscretization,
    GapQuery,
    log_gap_probability,
    set_block_cache,
)
from pearceygap.pearcey_process import PearceyContour


def test_block_key_is_stable_and_discriminating():
    x = np.linspace(-1.0, 6.0, 8)
    y = np.linspace(-1.0, 6.0, 8)
    k1 = block_key("airy", 0.0, 0.5, "rec", x, y)
    assert k1 == block_key("airy", 0.0, 0.5, "rec", x.copy(), y.copy())
    assert len(k1) == 64
    variants = {
        k1,
        block_key("pearcey", 0.0, 0.5, "rec", x, y),
        block_key("airy", 0.1, 0.5, "rec", x, y),
        block_key("airy", 0.0, 0.5, "other-record", x, y),
        block_key("airy", 0.0, 0.5, "rec", x + 1e-9, y),
        block_key("airy", 0.0, 0.5, "rec", x, y[:-1]),
    }
    assert len(variants) == 6


def test_block_key_pinned_digest():
    # update this digest only together with a bump of the cache format
    x = np.linspace(-1.0, 6.0, 8)
    key = block_key("airy", -0.5, 0.5, "rec", x, x)
    assert key == "1355202ffd72d19fd446a01fe67d097cb22fefb276ad2d906e1d79b81f45a3c5"


def test_default_root_precedence(tmp_path, monkeypatch):
    monkeypatch.delenv("PEARCEYGAP_CACHE", raising=False)
    assert default_root() == ".pearceygap-cache"
    monkeypatch.setenv("PEARCEYGAP_CACHE", str(tmp_path / "env"))
    assert default_root() == str(tmp_path / "env")
    assert default_root(str(tmp_path / "flag")) == str(tmp_path / "flag")


def _entry(root, key):
    return os.path.join(str(root), key + ".blk")


def test_store_lookup_roundtrip(tmp_path):
    cache = KernelCache(str(tmp_path))
    grid = np.random.default_rng(7).normal(size=(6, 6))
    key = "a" * 64
    assert cache.lookup(key) is None
    cache.store(key, grid)
    out = cache.lookup(key)
    assert out is not None
    assert np.array_equal(out, grid)
    assert (cache.misses, cache.hits) == (1, 1)
    cache.close()


def test_non_square_roundtrip_is_bit_exact_and_writable(tmp_path):
    cache = KernelCache(str(tmp_path))
    rng = np.random.default_rng(11)
    grid = rng.normal(size=(3, 7)) * 10.0 ** rng.integers(-300, 300, size=(3, 7))
    grid[0, :3] = (-0.0, np.finfo(float).tiny / 4, -np.finfo(float).max)
    key = "f" * 64
    cache.store(key, grid.T)  # a non-contiguous view is stored in C order
    assert os.path.getsize(_entry(tmp_path, key)) == 32 + 16 + 8 * 3 * 7
    out = cache.lookup(key)
    assert out.shape == (7, 3) and out.dtype == np.float64
    assert out.tobytes() == np.ascontiguousarray(grid.T).tobytes()
    assert out.flags.writeable and out.flags.c_contiguous
    out[0, 0] = 1.0  # the caller owns its copy
    assert cache.lookup(key).tobytes() == np.ascontiguousarray(grid.T).tobytes()
    cache.close()


def _truncate_in_payload(path):
    with open(path, "r+b") as fh:
        fh.truncate(os.path.getsize(path) - 5)


def _empty(path):
    open(path, "wb").close()


def _flip_header_shape(path):
    # (5, 5) -> (5, 4) under a digest that matches, so only the length disagrees
    with open(path, "r+b") as fh:
        rest = bytearray(fh.read()[32:])
        rest[8:16] = (4).to_bytes(8, "little")
        fh.seek(0)
        fh.write(hashlib.sha256(rest).digest() + rest)


@pytest.mark.parametrize("damage", [_empty, _truncate_in_payload, _flip_header_shape])
def test_damaged_entry_is_a_miss_and_deleted(tmp_path, damage):
    cache = KernelCache(str(tmp_path))
    key = "b" * 64
    cache.store(key, np.ones((5, 5)))
    path = _entry(tmp_path, key)
    damage(path)
    assert cache.lookup(key) is None
    assert not os.path.exists(path)
    assert (cache.hits, cache.misses) == (0, 1)
    cache.store(key, np.ones((5, 5)))
    assert np.array_equal(cache.lookup(key), np.ones((5, 5)))
    cache.close()


def test_truncated_entry_is_a_miss(tmp_path):
    cache = KernelCache(str(tmp_path))
    key = "b" * 64
    cache.store(key, np.ones((5, 5)))
    with open(_entry(tmp_path, key), "r+b") as fh:
        fh.truncate(40)  # inside the shape header
    assert cache.lookup(key) is None
    cache.store(key, np.ones((5, 5)))
    assert np.array_equal(cache.lookup(key), np.ones((5, 5)))
    cache.close()


def test_checksum_mismatch_deletes_entry(tmp_path):
    cache = KernelCache(str(tmp_path))
    key = "c" * 64
    grid = np.full((4, 4), 0.25)
    cache.store(key, grid)
    path = _entry(tmp_path, key)
    # graft a valid entry with a different payload under the stored key's name
    cache.store("d" * 64, grid + 1.0)
    os.replace(_entry(tmp_path, "d" * 64), path)
    # the digest inside matches its own payload, so tamper with raw bytes too
    with open(path, "r+b") as fh:
        fh.seek(-8, os.SEEK_END)
        fh.write(b"\x00" * 8)
    assert cache.lookup(key) is None
    assert not os.path.exists(path)
    cache.close()


@pytest.mark.parametrize("grid", [np.ones((3, 3), dtype=complex), np.ones(9), [[1.0]]])
def test_store_rejects_what_is_not_a_real_2d_grid(tmp_path, grid):
    cache = KernelCache(str(tmp_path))
    with pytest.raises(TypeError, match="2-D float64"):
        cache.store("e" * 64, grid)
    assert not [n for n in os.listdir(str(tmp_path)) if n != "lock"]
    cache.close()


def test_cache_locks_its_root_at_first_use(tmp_path):
    root = str(tmp_path / "cache")
    cache = KernelCache(root)
    assert not os.path.exists(root)  # opening alone leaves no trace
    assert cache.lookup("e" * 64) is None
    umask = os.umask(0)
    os.umask(umask)
    mode = stat.S_IMODE(os.stat(os.path.join(root, "lock")).st_mode)
    assert mode == 0o644 & ~umask
    with pytest.raises(ConcurrencyError):
        CacheLock(root).acquire()
    cache.close()
    with CacheLock(root):
        pass
    assert os.path.exists(os.path.join(root, "lock"))  # the file stays


def test_lock_conflict_and_release(tmp_path):
    root = str(tmp_path)
    lock = CacheLock(root).acquire()
    with pytest.raises(ConcurrencyError):
        CacheLock(root).acquire()
    lock.release()
    with CacheLock(root):
        pass


def test_stale_lock_is_reclaimed(tmp_path):
    # a holder process that took the lock and exited without releasing it
    root = str(tmp_path)
    holder = (
        "import os, sys; from pearceygap.cache import CacheLock; "
        "CacheLock(sys.argv[1]).acquire(); os._exit(0)"
    )
    src = os.path.dirname(os.path.dirname(pearceygap.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", holder, root], check=True, env=env)
    assert os.path.exists(os.path.join(root, "lock"))
    with CacheLock(root):
        pass


def test_warm_cache_reproduces_cold_value(tmp_path):
    query = GapQuery(family="airy", times=(0.0,), windows=((-1.0, 4.0),), m=24)
    cold = log_gap_probability(query)
    cache = KernelCache(str(tmp_path))
    set_block_cache(cache)
    try:
        first = log_gap_probability(query)
        assert cache.misses > 0
        hits_before = cache.hits
        second = log_gap_probability(query)
    finally:
        set_block_cache(None)
        cache.close()
    assert first == cold
    assert second == first
    assert cache.hits > hits_before


def test_shared_diagonal_block_reads_the_same_warm_as_cold(tmp_path):
    # a diagonal block is the static kernel in closed form, the same in every
    # determinant; when it came from the lambda-rule its size depended on the
    # other window, and this query read 2.36e-14 off its cold log P
    fill = GapQuery(family="airy", times=(-0.5, 0.5), windows=((-1.0, 6.0),) * 2, m=40)
    query = GapQuery(family="airy", times=(-0.5, 0.5), windows=((-1.0, 6.0), (-0.5, 4.0)), m=40)
    cold = log_gap_probability(query)
    cache = KernelCache(str(tmp_path))
    set_block_cache(cache)
    try:
        log_gap_probability(fill)
        hits_before = cache.hits
        warm = log_gap_probability(query)
    finally:
        set_block_cache(None)
        cache.close()
    assert cache.hits > hits_before
    assert warm == cold


def test_cross_time_blocks_read_the_same_warm_as_cold(tmp_path):
    # a cross-time block sizes its lambda-rule from its own times and windows;
    # when one size served the whole grid, the three-time query's first two
    # windows were sized for the third one too, and this query read 3.2e-15
    # off its cold log P
    fill = GapQuery(family="airy", times=(-0.5, 0.5, 1.0),
                    windows=((-1.0, 6.0), (-0.5, 4.0), (-6.0, 2.0)), m=40)
    query = GapQuery(family="airy", times=(-0.5, 0.5), windows=((-1.0, 6.0), (-0.5, 4.0)), m=40)
    cold = log_gap_probability(query)
    cache = KernelCache(str(tmp_path))
    set_block_cache(cache)
    try:
        log_gap_probability(fill)
        hits, misses = cache.hits, cache.misses
        warm = log_gap_probability(query)
    finally:
        set_block_cache(None)
        cache.close()
    assert (cache.hits - hits, cache.misses - misses) == (8, 0)  # 4 blocks at m and 2m
    assert warm == cold


def test_block_of_the_previous_format_is_a_miss(tmp_path, monkeypatch):
    # the airy record is empty, so only the format tells a cross-time block
    # whose Ai(x + lambda) at x + lambda > 10 came from scipy
    # (pearceygap-cache-7) from one summed by the asymptotic series
    query = GapQuery(family="airy", times=(0.2, 0.9), windows=((-0.1, 5.6), (-1.2, 4.7)),
                     m=40, certify=False)
    x = BlockDiscretization.build(query).nodes
    with monkeypatch.context() as patch:
        patch.setattr(cache_mod, "_FORMAT", b"pearceygap-cache-7")
        old_key = block_key("airy", 0.2, 0.9, "", x[0], x[1])
    cache = KernelCache(str(tmp_path))
    cache.store(old_key, np.zeros((40, 40)))
    set_block_cache(cache)
    try:
        value = log_gap_probability(query)
    finally:
        set_block_cache(None)
        cache.close()
    assert (cache.hits, cache.misses) == (0, 4)
    assert value == log_gap_probability(query) < 0.0


def test_warm_cache_two_time_pearcey(tmp_path):
    query = GapQuery(
        family="pearcey",
        times=(3.0, 4.0),
        windows=((-3.0, 3.0), (-3.5, 3.5)),
        m=16,
        certify=False,
    )
    cold = log_gap_probability(query)
    cache = KernelCache(str(tmp_path))
    set_block_cache(cache)
    try:
        first = log_gap_probability(query)
        second = log_gap_probability(query)
    finally:
        set_block_cache(None)
        cache.close()
    assert first == cold
    assert second == first
    assert cache.hits >= 4  # 2x2 block structure replayed from cache


def test_pearcey_block_keys_carry_the_ray_count_of_their_determinant(tmp_path, monkeypatch):
    # A sizes its rays at 48 and B at 64 nodes per ray; A's (4.0, 4.0) block
    # is B's at 48, which B's walk reads on its way to 64, but B's value is
    # computed at 64, under a key that A never wrote
    query_a = GapQuery(family="pearcey", times=(4.0,), windows=((1.5, 4.5),), m=24)
    query_b = GapQuery(family="pearcey", times=(0.5, 4.0),
                       windows=((-6.0, 6.0), (1.5, 4.5)), m=24)
    cold = log_gap_probability(query_b)
    x = BlockDiscretization.build(query_a).nodes[0]
    key = {n: block_key("pearcey", 4.0, 4.0, repr(PearceyContour(nodes_per_ray=n)), x, x)
           for n in (48, 64)}
    cache = KernelCache(str(tmp_path))
    found = {}
    lookup = cache.lookup

    def spy(k):
        grid = lookup(k)
        found.setdefault(k, grid is not None)  # the first lookup only
        return grid

    set_block_cache(cache)
    try:
        log_gap_probability(query_a)
        monkeypatch.setattr(cache, "lookup", spy)
        warm = log_gap_probability(query_b)
        misses = cache.misses
        rerun = log_gap_probability(query_b)
    finally:
        set_block_cache(None)
        cache.close()
    assert (found.get(key[48]), found.get(key[64])) == (True, False)
    assert warm == cold
    assert rerun == cold
    assert cache.misses == misses  # a warm rerun computes no block
