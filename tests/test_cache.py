"""Kernel block cache: content addressing, pack integrity, advisory lock."""

import hashlib
import os
import stat
import subprocess
import sys

import numpy as np
import pytest

import pearceygap
from pearceygap import cache as cache_mod
from pearceygap.cache import BlockStore, CacheLock, KernelCache, block_key, default_root
from pearceygap.exceptions import ConcurrencyError
from pearceygap.fredholm import GapQuery, log_gap_probability, set_block_cache
from pearceygap.pearcey_process import PearceyContour
from pearceygap.specfun import gauss_rule

from oracles import seeded_pearcey_draws


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
    assert key == "34b6300ad82cebd11df4f446b5ef892cacaf8dbce6929839547529120a273230"


def test_default_root_precedence(tmp_path, monkeypatch):
    monkeypatch.delenv("PEARCEYGAP_CACHE", raising=False)
    assert default_root() == ".pearceygap-cache"
    monkeypatch.setenv("PEARCEYGAP_CACHE", str(tmp_path / "env"))
    assert default_root() == str(tmp_path / "env")
    assert default_root(str(tmp_path / "flag")) == str(tmp_path / "flag")


def _pack(root):
    """Path of the one pack in root."""
    (name,) = [n for n in os.listdir(str(root)) if n.endswith(".pack")]
    return os.path.join(str(root), name)


def _names(root):
    """The root's files, each pack as "*.pack" and each part as "*.part"."""
    return sorted(n if n == "lock" else "*" + os.path.splitext(n)[1]
                  for n in os.listdir(str(root)))


def test_store_lookup_roundtrip(tmp_path):
    cache = KernelCache(str(tmp_path))
    grid = np.random.default_rng(7).normal(size=(6, 6))
    key = "a" * 64
    assert cache.lookup(key) is None
    cache.store(key, grid)
    out = cache.lookup(key)  # from the session's own entries
    assert out is not None
    assert np.array_equal(out, grid)
    assert (cache.misses, cache.hits) == (1, 1)
    cache.close()
    assert np.array_equal(cache.lookup(key), grid)  # from the published pack
    assert (cache.misses, cache.hits) == (1, 2)
    cache.close()


def test_non_square_roundtrip_is_bit_exact_and_writable(tmp_path):
    cache = KernelCache(str(tmp_path))
    rng = np.random.default_rng(11)
    grid = rng.normal(size=(3, 7)) * 10.0 ** rng.integers(-300, 300, size=(3, 7))
    grid[0, :3] = (-0.0, np.finfo(float).tiny / 4, -np.finfo(float).max)
    key = "f" * 64
    cache.store(key, grid.T)  # a non-contiguous view is stored in C order
    assert cache.lookup(key).tobytes() == np.ascontiguousarray(grid.T).tobytes()
    cache.close()
    # one entry, then the footer: a key, its (offset, length), the count, a digest
    assert os.path.getsize(_pack(tmp_path)) == (32 + 16 + 8 * 3 * 7) + (32 + 16) + 8 + 32
    out = cache.lookup(key)
    assert out.shape == (7, 3) and out.dtype == np.float64
    assert out.tobytes() == np.ascontiguousarray(grid.T).tobytes()
    assert out.flags.writeable and out.flags.c_contiguous
    out[0, 0] = 1.0  # the caller owns its copy
    assert cache.lookup(key).tobytes() == np.ascontiguousarray(grid.T).tobytes()
    cache.close()


def test_lookup_searches_every_pack(tmp_path):
    # keys that end in zero bytes, which numpy strips from an "S32" scalar,
    # and a key that differs from one of them only in its last byte, in packs
    # from three sessions
    keys = ["ab" + "00" * 31, "00" * 32, "ab" + "00" * 30 + "01"]
    cache = KernelCache(str(tmp_path))
    for k, key in enumerate(keys[:2]):
        cache.store(key, np.full((2, 3), float(k)))
        cache.close()
    cache.store("ff" * 32, np.full((2, 3), 9.0))
    cache.close()
    assert _names(tmp_path) == ["*.pack"] * 3 + ["lock"]
    for k, key in enumerate(keys[:2]):
        assert np.array_equal(cache.lookup(key), np.full((2, 3), float(k)))
    assert cache.lookup(keys[2]) is None
    assert np.array_equal(cache.lookup("ff" * 32), np.full((2, 3), 9.0))
    assert (cache.hits, cache.misses) == (3, 1)
    cache.close()
    # a session that stores nothing writes no file
    assert _names(tmp_path) == ["*.pack"] * 3 + ["lock"]


def test_root_with_more_packs_than_open_files_serves_a_hit(tmp_path):
    # a session opens a pack's file only to read an entry from it, so a
    # process limited to 64 open files reads a root of 80 packs
    root = str(tmp_path)
    keys = [f"{k:064x}" for k in range(80)]
    for k, key in enumerate(keys):
        cache = KernelCache(root)
        cache.store(key, np.full((1, 1), float(k)))
        cache.close()
    assert _names(root) == ["*.pack"] * 80 + ["lock"]
    reader = (
        "import resource, sys; from pearceygap.cache import KernelCache; "
        "_, hard = resource.getrlimit(resource.RLIMIT_NOFILE); "
        "resource.setrlimit(resource.RLIMIT_NOFILE, (64, hard)); "
        "cache = KernelCache(sys.argv[1]); grid = cache.lookup(sys.argv[2]); cache.close(); "
        "sys.exit(0 if grid is not None and grid.tolist() == [[0.0]] else 1)"
    )
    src = os.path.dirname(os.path.dirname(pearceygap.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", reader, root, keys[0]], check=True, env=env)


_KEY = "b" * 64


def _rewrite(path, edit):
    with open(path, "r+b") as fh:
        raw = bytearray(fh.read())
        edit(raw)
        fh.seek(0)
        fh.truncate()
        fh.write(raw)


def _empty(path):
    open(path, "wb").close()


def _truncate_in_payload(path):
    # cuts the entry's last value and the whole footer
    with open(path, "r+b") as fh:
        fh.truncate(32 + 16 + 8 * 25 - 5)


def _flip_header_shape(path):
    # (5, 5) -> (5, 4) under a digest that matches, so only the length disagrees
    def edit(raw):
        raw[40:48] = (4).to_bytes(8, "little")
        raw[:32] = hashlib.sha256(bytes.fromhex(_KEY) + raw[32:48 + 8 * 25]).digest()

    _rewrite(path, edit)


def _flip_value_byte(path):
    def edit(raw):
        raw[48 + 8 * 24] ^= 1

    _rewrite(path, edit)


def _flip_footer_key_byte(path):
    def edit(raw):
        raw[-(32 + 8 + 16 + 32)] ^= 1

    _rewrite(path, edit)


@pytest.mark.parametrize("damage", [_empty, _truncate_in_payload, _flip_header_shape,
                                    _flip_value_byte, _flip_footer_key_byte])
def test_damaged_entry_is_a_miss_and_deleted(tmp_path, damage):
    cache = KernelCache(str(tmp_path))
    grid = np.arange(25.0).reshape(5, 5)
    cache.store(_KEY, grid)
    cache.close()
    path = _pack(tmp_path)
    damage(path)
    assert cache.lookup(_KEY) is None
    assert not os.path.exists(path)
    assert (cache.hits, cache.misses) == (0, 1)
    cache.store(_KEY, grid)
    cache.close()
    assert cache.lookup(_KEY).tobytes() == grid.tobytes()
    assert (cache.hits, cache.misses) == (1, 1)
    cache.close()


def test_truncated_entry_is_a_miss(tmp_path):
    cache = KernelCache(str(tmp_path))
    cache.store(_KEY, np.ones((5, 5)))
    cache.close()
    with open(_pack(tmp_path), "r+b") as fh:
        fh.truncate(40)  # inside the shape header
    assert cache.lookup(_KEY) is None
    assert _names(tmp_path) == ["lock"]
    cache.store(_KEY, np.ones((5, 5)))
    cache.close()
    assert np.array_equal(cache.lookup(_KEY), np.ones((5, 5)))
    cache.close()


def test_checksum_mismatch_deletes_entry(tmp_path):
    cache = KernelCache(str(tmp_path))
    key = "c" * 64
    grid = np.full((4, 4), 0.25)
    cache.store(key, grid)
    cache.store("d" * 64, grid + 1.0)
    cache.close()
    path = _pack(tmp_path)
    with open(path, "r+b") as fh:
        fh.seek(32 + 16 + 8 * 15)  # c's last value
        fh.write(b"\x00" * 8)
    assert cache.lookup(key) is None
    assert not os.path.exists(path)
    assert cache.lookup("d" * 64) is None  # the pack's other keys drop out too
    assert (cache.hits, cache.misses) == (0, 2)
    cache.close()


def test_entry_filed_under_another_key_is_a_miss(tmp_path):
    # b's valid entry in the place the footer gives for a: the digest covers
    # the key, so it is not served as a's block
    a, b = "a" * 64, "b" * 64
    cache = KernelCache(str(tmp_path))
    cache.store(a, np.zeros((4, 4)))
    cache.store(b, np.ones((4, 4)))
    cache.close()
    path = _pack(tmp_path)
    size = 32 + 16 + 8 * 16

    def graft(raw):
        raw[:size] = raw[size:2 * size]

    _rewrite(path, graft)
    assert cache.lookup(a) is None
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
    # the lock file stays, and a session that stores nothing writes no other
    assert os.listdir(root) == ["lock"]


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


def test_session_that_dies_before_close_publishes_no_pack(tmp_path):
    # a process that stored its blocks and exited without close()
    root = str(tmp_path)
    query = GapQuery(family="airy", times=(-0.5, 0.5), windows=((-1.0, 4.0),) * 2, m=20,
                     certify=False)
    holder = (
        "import os, sys; from pearceygap.cache import KernelCache; "
        "from pearceygap.fredholm import GapQuery, log_gap_probability, set_block_cache; "
        "set_block_cache(KernelCache(sys.argv[1])); "
        "log_gap_probability(GapQuery(family='airy', times=(-0.5, 0.5), "
        "windows=((-1.0, 4.0),) * 2, m=20, certify=False)); os._exit(0)"
    )
    src = os.path.dirname(os.path.dirname(pearceygap.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", holder, root], check=True, env=env)
    assert _names(root) == ["*.part", "lock"]
    (stale,) = [n for n in os.listdir(root) if n != "lock"]
    assert os.path.getsize(os.path.join(root, stale)) > 0
    cold = log_gap_probability(query)
    cache = KernelCache(root)
    set_block_cache(cache)
    try:
        assert cache.lookup("e" * 64) is None  # the first touch sweeps the root
        assert _names(root) == ["lock"]
        value = log_gap_probability(query)
    finally:
        set_block_cache(None)
        cache.close()
    assert (cache.hits, cache.misses) == (0, 5)  # 4 blocks recomputed
    assert value == cold
    assert _names(root) == ["*.pack", "lock"]


def test_one_session_writes_one_pack_and_a_second_reads_it_all(tmp_path):
    query = GapQuery(family="pearcey", times=(3.0, 4.0), windows=((-3.0, 3.0), (-3.5, 3.5)),
                     m=16, certify=False)
    cold = log_gap_probability(query)
    values = []
    for session in range(2):
        cache = KernelCache(str(tmp_path))
        set_block_cache(cache)
        try:
            values.append(log_gap_probability(query))
        finally:
            set_block_cache(None)
            cache.close()
        if session == 0:
            stored = cache.misses
            assert stored >= 4
            names = os.listdir(str(tmp_path))
            assert _names(tmp_path) == ["*.pack", "lock"]
    assert (cache.hits, cache.misses) == (stored, 0)
    assert os.listdir(str(tmp_path)) == names
    assert values == [cold, cold]


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
    x = [gauss_rule(query.m, *w).nodes for w in query.windows]
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
    # the seeded sweep's queries, certified at m = 20, in two sessions on one
    # root: the second reads every block the first computed from its pack
    seeded = [GapQuery(family="pearcey", times=times, windows=windows, m=20)
              for times, windows in seeded_pearcey_draws()]
    sessions = []
    for _ in range(2):
        cache = KernelCache(str(tmp_path / "seeded"))
        set_block_cache(cache)
        try:
            sessions.append(([log_gap_probability(q) for q in seeded], cache.hits, cache.misses))
        finally:
            set_block_cache(None)
            cache.close()
    (cold_values, _, cold_misses), (warm_values, warm_hits, warm_misses) = sessions
    assert cold_misses > 0 and (warm_hits, warm_misses) == (cold_misses, 0)
    assert warm_values == cold_values


def test_seeded_airy_sweep_reads_the_same_warm_as_cold(tmp_path):
    # ten one-time and ten two-time certified Airy draws at m = 20: uncached,
    # in a cold session and in a warm one on the same root, bit for bit
    rng = np.random.default_rng(2010)
    queries = []
    for _ in range(10):
        s = rng.uniform(-4.0, 2.0)
        queries.append(GapQuery(family="airy", times=(0.0,), windows=((s, s + 14.0),), m=20))
        t1 = rng.uniform(-1.0, 0.5)
        t2 = rng.uniform(t1 + 0.5, 1.0)
        windows = tuple((rng.uniform(-3.0, 0.0), rng.uniform(2.0, 8.0)) for _ in range(2))
        queries.append(GapQuery(family="airy", times=(t1, t2), windows=windows, m=20))
    uncached = [log_gap_probability(q) for q in queries]
    sessions = []
    for _ in range(2):
        cache = KernelCache(str(tmp_path))
        set_block_cache(cache)
        try:
            sessions.append(([log_gap_probability(q) for q in queries], cache.misses))
        finally:
            set_block_cache(None)
            cache.close()
    (cold, cold_misses), (warm, warm_misses) = sessions
    assert cold_misses > 0 and warm_misses == 0
    assert cold == uncached and warm == uncached


def test_block_store_keeps_read_only_copies():
    store = BlockStore()
    grid = np.arange(6.0).reshape(2, 3)
    assert store.lookup("k") is None
    store.store("k", grid)
    grid[0, 0] = -1.0  # the caller's array is not the stored one
    hit = store.lookup("k")
    assert hit.tolist() == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]] and not hit.flags.writeable


def test_pearcey_block_keys_carry_the_ray_count_of_their_determinant(tmp_path, monkeypatch):
    # A sizes its rays at 48 and B at 64 nodes per ray; A's (4.0, 4.0) block
    # is B's at 48, which B's walk reads on its way to 64, but B's value is
    # computed at 64, under a key that A never wrote
    query_a = GapQuery(family="pearcey", times=(4.0,), windows=((1.5, 4.5),), m=24)
    query_b = GapQuery(family="pearcey", times=(0.5, 4.0),
                       windows=((-6.0, 6.0), (1.5, 4.5)), m=24)
    cold = log_gap_probability(query_b)
    x = gauss_rule(query_a.m, *query_a.windows[0]).nodes
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


def test_cache_record_is_made_once_per_determinant(tmp_path, monkeypatch):
    # every block of a determinant shares its query's record (for Pearcey, a
    # contour repr), so the certified query makes it once at m and once at
    # 2m, not once per block; the keys, so the values, are those of a cold run
    from pearceygap import fredholm

    query = GapQuery(family="pearcey", times=(3.0, 4.0), windows=((-3.0, 3.0), (-3.5, 3.5)),
                     m=10, contour=PearceyContour(radius=4.5, nodes_per_ray=48))
    cold = log_gap_probability(query)
    records = []
    block, record = fredholm._FAMILIES["pearcey"]

    def counted(q):
        records.append(record(q))
        return records[-1]

    monkeypatch.setitem(fredholm._FAMILIES, "pearcey", (block, counted))
    values = []
    for session in range(2):
        cache = KernelCache(str(tmp_path))
        set_block_cache(cache)
        try:
            values.append(log_gap_probability(query))
        finally:
            set_block_cache(None)
            cache.close()
    assert records == [repr(query.contour)] * 4  # two determinants per session
    assert values == [cold, cold]
    assert (cache.hits, cache.misses) == (8, 0)
