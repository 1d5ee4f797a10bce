"""Kernel block cache: content addressing, payload integrity, advisory lock."""

import os
import subprocess
import sys

import numpy as np
import pytest

import pearceygap
from pearceygap.cache import CacheLock, KernelCache, block_key, default_root
from pearceygap.exceptions import ConcurrencyError
from pearceygap.fredholm import GapQuery, log_gap_probability, set_block_cache


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
    assert key == "2e8a51f9fec31de034b73651c7f7ef7b1416c8ac7006824f4fc565d7054a816c"


def test_default_root_precedence(tmp_path, monkeypatch):
    monkeypatch.delenv("PEARCEYGAP_CACHE", raising=False)
    assert default_root() == ".pearceygap-cache"
    monkeypatch.setenv("PEARCEYGAP_CACHE", str(tmp_path / "env"))
    assert default_root() == str(tmp_path / "env")
    assert default_root(str(tmp_path / "flag")) == str(tmp_path / "flag")


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


def test_truncated_entry_is_a_miss(tmp_path):
    cache = KernelCache(str(tmp_path))
    key = "b" * 64
    cache.store(key, np.ones((5, 5)))
    path = os.path.join(str(tmp_path), key + ".npz")
    with open(path, "r+b") as fh:
        fh.truncate(40)
    assert cache.lookup(key) is None
    cache.store(key, np.ones((5, 5)))
    assert np.array_equal(cache.lookup(key), np.ones((5, 5)))


def test_checksum_mismatch_deletes_entry(tmp_path):
    cache = KernelCache(str(tmp_path))
    key = "c" * 64
    grid = np.full((4, 4), 0.25)
    cache.store(key, grid)
    path = os.path.join(str(tmp_path), key + ".npz")
    # graft a valid npz with a different payload under the stored digest's name
    other = KernelCache(str(tmp_path))
    other.store("d" * 64, grid + 1.0)
    os.replace(os.path.join(str(tmp_path), "d" * 64 + ".npz"), path)
    # the digest inside matches its own payload, so tamper with raw bytes too
    with open(path, "r+b") as fh:
        fh.seek(-8, os.SEEK_END)
        fh.write(b"\x00" * 8)
    assert cache.lookup(key) is None
    assert not os.path.exists(path) or cache.lookup(key) is None


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
    assert first == cold
    assert second == first
    assert cache.hits > hits_before


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
    assert first == cold
    assert second == first
    assert cache.hits >= 4  # 2x2 block structure replayed from cache
