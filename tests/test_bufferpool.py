import bisect
import io
import math
import random
import statistics
import tracemalloc
from array import array

import pytest
from hypothesis import example, given, settings, strategies as st

from reference_sim import (
    brute_force_simulate,
    line_by_line_read_trace_csv,
    lru_reads,
    lru_stack_distances,
    on_list,
    plain_base_policy,
    random_trace,
)
from storage_rules import bufferpool, rules
from storage_rules.bufferpool import (
    TRACE_HEADER,
    ConfigError,
    PoolConfig,
    Trace,
    TraceEvent,
    TraceOrderError,
    generate_trace,
    read_trace_csv,
    simulate,
    write_trace_csv,
)

ABA = [TraceEvent(0, "A", "read"), TraceEvent(1, "B", "read"), TraceEvent(2, "A", "read")]


def test_single_frame_thrashes():
    rep = simulate(ABA, PoolConfig(frames=1, base_policy="lru", n_minute_s=0))
    assert rep.logical_accesses == 3
    assert rep.physical_reads == 3
    assert rep.evictions == 2
    assert rep.protected_eviction_fallbacks == 0
    assert rep.hit_ratio == 0.0


def test_two_frames_hold_everything():
    rep = simulate(ABA, PoolConfig(frames=2))
    assert rep.physical_reads == 2
    assert rep.hit_ratio == pytest.approx(1 / 3)
    assert rep.evictions == 0


def test_single_frame_with_lifetime_still_thrashes_without_fallback():
    # A's first load finds no history, so A is unprotected and B evicts
    # it; A's re-read is on the list and gets protection for the future.
    rep = simulate(ABA, PoolConfig(frames=1, n_minute_s=10))
    assert rep.physical_reads == 3
    assert rep.evictions == 2
    assert rep.protected_eviction_fallbacks == 0


def test_protection_forces_fallback():
    # two pages ping-ponging in one frame: every reload is a re-read
    # within N, so the resident page is always protected
    trace = [TraceEvent(t, "AB"[t % 2], "read") for t in range(6)]
    log = []
    rep = simulate(trace, PoolConfig(frames=1, n_minute_s=100), event_log=log)
    assert rep.physical_reads == 6
    assert rep.protected_eviction_fallbacks == 3  # loads at t>=2 evict protected pages
    assert [entry[4] for entry in log] == [False, False, True, True, True]


def test_unordered_trace_rejected():
    nan, inf = math.nan, math.inf
    bad_traces = [
        [TraceEvent(5, "A", "read"), TraceEvent(1, "B", "read")],
        [TraceEvent(nan, "A", "read"), TraceEvent(0, "B", "read")],
        [TraceEvent(0, "A", "read"), TraceEvent(inf, "B", "read")],
        [TraceEvent(-inf, "A", "read"), TraceEvent(0, "B", "read")],
    ]
    for policy in ("lru", "clock2"):
        for bad in bad_traces:
            for cp in (None, 5.0):
                with pytest.raises(TraceOrderError):
                    simulate(bad, PoolConfig(frames=2, base_policy=policy,
                                             checkpoint_interval_s=cp))
    # from 2**53 intervals on, consecutive boundaries k*C are no longer distinct
    for far, cp in (([TraceEvent(0, "A", "write"), TraceEvent(1e25, "B", "write")], 1.0),
                    ([TraceEvent(0, "A", "write"), TraceEvent(1e10, "B", "read")], 1e-300)):
        with pytest.raises(TraceOrderError, match=r"2\*\*53"):
            simulate(far, PoolConfig(frames=2, checkpoint_interval_s=cp))
        assert simulate(far, PoolConfig(frames=2)).logical_accesses == 2


def test_config_validation():
    with pytest.raises(ConfigError):
        PoolConfig(frames=0)
    with pytest.raises(ConfigError):
        PoolConfig(frames=2, base_policy="fifo")
    with pytest.raises(ConfigError):
        PoolConfig(frames=True)
    with pytest.raises(ConfigError):
        PoolConfig(frames=2, n_minute_s=-1)
    for n in (math.nan, math.inf):
        with pytest.raises(ConfigError):
            PoolConfig(frames=2, n_minute_s=n)
    with pytest.raises(ConfigError):
        PoolConfig(frames=2, checkpoint_interval_s=0)


def test_empty_trace():
    rep = simulate([], PoolConfig(frames=4, checkpoint_interval_s=60))
    assert rep.logical_accesses == 0
    assert rep.hit_ratio == 0.0
    assert rep.checkpoint_flushes == 0


def test_write_hit_dirties_once_and_eviction_flushes():
    trace = [TraceEvent(0, "A", "write"), TraceEvent(1, "A", "write"),
             TraceEvent(2, "B", "read")]
    rep = simulate(trace, PoolConfig(frames=1))
    assert rep.contention_flushes == 1  # A written twice but flushed once
    assert rep.evictions == 1


def test_checkpoint_flushes_old_dirt_only():
    # dirty at t=1; the boundary at t=60 only flushes pages dirtied
    # before t=0, the one at t=120 flushes pages dirtied before t=60
    trace = [TraceEvent(1, "A", "write"), TraceEvent(61, "B", "read"),
             TraceEvent(121, "C", "read")]
    rep = simulate(trace, PoolConfig(frames=8, checkpoint_interval_s=60))
    assert rep.checkpoint_flushes == 1
    assert rep.contention_flushes == 0


def test_final_checkpoint_cleans_everything():
    trace = [TraceEvent(1, "A", "write"), TraceEvent(2, "B", "write")]
    with_cp = simulate(trace, PoolConfig(frames=8, checkpoint_interval_s=1000))
    assert with_cp.checkpoint_flushes == 2
    without_cp = simulate(trace, PoolConfig(frames=8, checkpoint_interval_s=None))
    assert without_cp.checkpoint_flushes == 0


@pytest.mark.parametrize("policy", ["lru", "clock2"])
@pytest.mark.parametrize("events,frames,flushes", [
    # (contention, checkpoint) flushes; at C = 10 the boundary at t = 20
    # flushes what was dirtied before t = 10
    ([(1, "A", "w"), (25, "B", "r")], 1, (0, 1)),                 # flushed, then evicted
    ([(1, "A", "w"), (25, "B", "r"), (26, "A", "w")], 2, (0, 2)),  # flushed, then rewritten
    ([(1, "A", "w"), (25, "A", "r")], 1, (0, 1)),                 # flushed, then only read
    ([(1, "A", "w"), (5, "B", "r")], 1, (1, 0)),                  # evicted before any boundary
], ids=["evicted", "rewritten", "read", "no-boundary"])
def test_checkpoint_flush_is_settled_at_the_next_touch(policy, events, frames, flushes):
    trace = [TraceEvent(t, page, {"r": "read", "w": "write"}[op]) for t, page, op in events]
    rep = simulate(trace, PoolConfig(frames, policy, checkpoint_interval_s=10))
    assert rep == brute_force_simulate(trace, frames, policy, 0.0, 10)
    assert (rep.contention_flushes, rep.checkpoint_flushes) == flushes


# SimReport.row() of a 2e4-event trace over 64 frames, per (policy, N, C)
FULL_LENGTH_ROWS = {
    ("lru", 0, None): (20000, 12111, 0.39444999999999997, 12047, 6690, 0, 0),
    ("lru", 0, 1): (20000, 12111, 0.39444999999999997, 12047, 0, 9727, 0),
    ("lru", 0, 300): (20000, 12111, 0.39444999999999997, 12047, 6687, 72, 0),
    ("lru", 120, None): (20000, 11791, 0.41045, 11727, 6649, 0, 0),
    ("lru", 120, 1): (20000, 11791, 0.41045, 11727, 0, 9727, 0),
    ("lru", 120, 300): (20000, 11791, 0.41045, 11727, 6648, 44, 0),
    ("lru", 2000, None): (20000, 12002, 0.39990000000000003, 11938, 6631, 0, 11208),
    ("lru", 2000, 1): (20000, 12002, 0.39990000000000003, 11938, 208, 9519, 11208),
    ("lru", 2000, 300): (20000, 12002, 0.39990000000000003, 11938, 6625, 75, 11208),
    ("clock2", 0, None): (20000, 12375, 0.38125, 12311, 6929, 0, 0),
    ("clock2", 0, 1): (20000, 12375, 0.38125, 12311, 0, 9727, 0),
    ("clock2", 0, 300): (20000, 12375, 0.38125, 12311, 6927, 55, 0),
    ("clock2", 120, None): (20000, 11771, 0.41145, 11707, 6663, 0, 0),
    ("clock2", 120, 1): (20000, 11771, 0.41145, 11707, 0, 9727, 0),
    ("clock2", 120, 300): (20000, 11771, 0.41145, 11707, 6663, 39, 0),
    ("clock2", 2000, None): (20000, 12256, 0.3872, 12192, 6851, 0, 11466),
    ("clock2", 2000, 1): (20000, 12256, 0.3872, 12192, 216, 9511, 11466),
    ("clock2", 2000, 300): (20000, 12256, 0.3872, 12192, 6848, 57, 11466),
}


def test_full_length_reports_are_pinned():
    # whole-trace counts are pinned, so that a change that moves both
    # simulators alike still shows; the oracle must reproduce them too
    trace = generate_trace(7, 20_000, 512, zipf_s=0.8, write_fraction=0.5, ops_per_second=2.0)
    for (policy, n, cp), row in FULL_LENGTH_ROWS.items():
        assert simulate(trace, PoolConfig(64, policy, n, cp)).row() == row, (policy, n, cp)
        assert brute_force_simulate(trace, 64, policy, n, cp).row() == row, (policy, n, cp)


def test_clock2_gives_second_chances():
    # frames=2 hold A,B with ref bits set; loading C clears both and
    # evicts A (slot 0); the next A load evicts B (hand moved past 0)
    trace = [TraceEvent(0, "A", "read"), TraceEvent(1, "B", "read"),
             TraceEvent(2, "C", "read"), TraceEvent(3, "A", "read"),
             TraceEvent(4, "C", "read")]
    rep = simulate(trace, PoolConfig(frames=2, base_policy="clock2"))
    assert rep.physical_reads == 4  # final C access hits
    assert rep.evictions == 2


# --- the synthetic trace generator ----------------------------------------

def test_generate_trace_empty_and_validation():
    assert generate_trace(1, 0, 10) == []
    with pytest.raises(ConfigError):
        generate_trace(1, 10, 0)
    with pytest.raises(ConfigError):
        generate_trace(1, -1, 10)
    with pytest.raises(ConfigError):
        generate_trace(1, 10, 10, zipf_s=-0.5)
    with pytest.raises(ConfigError):
        generate_trace(1, 10, 10, zipf_s=float("nan"))
    with pytest.raises(ConfigError):
        generate_trace(1, 10, 10, write_fraction=1.5)
    with pytest.raises(ConfigError):
        generate_trace(1, 10, 10, ops_per_second=0)
    with pytest.raises(ConfigError):  # the last time, 2 / 1e-320, is inf
        generate_trace(1, 3, 3, ops_per_second=1e-320)
    assert generate_trace(1, 1, 3, ops_per_second=1e-320)[0].time_s == 0.0


def test_generate_trace_deterministic():
    a = generate_trace(987654321, 500, 64, zipf_s=0.8, write_fraction=0.25,
                       ops_per_second=100)
    b = generate_trace(987654321, 500, 64, zipf_s=0.8, write_fraction=0.25,
                       ops_per_second=100)
    assert a == b
    c = generate_trace(987654322, 500, 64, zipf_s=0.8, write_fraction=0.25,
                       ops_per_second=100)
    assert a != c


def scalar_reference_trace(seed, n_ops, n_pages, zipf_s, wf, ops_per_second):
    """The documented recurrence replayed with plain integers and bisect."""
    state = seed
    uniforms = []
    for _ in range(2 * n_ops):
        state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        uniforms.append((state >> 11) / 2.0**53)
    weights = [1.0 / k**zipf_s for k in range(1, n_pages + 1)]
    cdf = []
    running = 0.0
    for w in weights:
        running += w
        cdf.append(running)
    cdf = [c / cdf[-1] for c in cdf]
    expected = []
    for i in range(n_ops):
        rank = min(bisect.bisect_right(cdf, uniforms[2 * i]), n_pages - 1) + 1
        op = "write" if uniforms[2 * i + 1] < wf else "read"
        expected.append(TraceEvent(i / ops_per_second, rank, op))
    return expected


def test_generate_trace_matches_scalar_reference():
    seed, n_ops, n_pages, zipf_s, wf = 42, 50, 7, 1.3, 0.4
    got = generate_trace(seed, n_ops, n_pages, zipf_s, wf, ops_per_second=10.0)
    assert got == scalar_reference_trace(seed, n_ops, n_pages, zipf_s, wf, 10.0)


GEN_OPS = bufferpool._GEN_OPS  # ops per generator chunk


def test_generate_trace_matches_scalar_reference_across_chunks():
    # two chunk jumps and a ragged tail
    seed, n_ops, n_pages, zipf_s, wf = 42, 2 * GEN_OPS + 7, 7, 1.3, 0.4
    got = generate_trace(seed, n_ops, n_pages, zipf_s, wf, ops_per_second=10.0)
    assert got == scalar_reference_trace(seed, n_ops, n_pages, zipf_s, wf, 10.0)


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 2**64 - 1),
       m=st.sampled_from([1, GEN_OPS - 1, GEN_OPS, GEN_OPS + 1, 2 * GEN_OPS + 7]),
       extra=st.sampled_from([1, 5, GEN_OPS]),
       n_pages=st.integers(1, 600),
       zipf_s=st.sampled_from([0.0, 0.8, 1.3]),
       wf=st.sampled_from([0.0, 0.25, 1.0]),
       ops_per_second=st.sampled_from([0.5, 1.0, 20.0]))
def test_generate_trace_prefix_is_the_shorter_trace(seed, m, extra, n_pages, zipf_s, wf,
                                                    ops_per_second):
    # chunk boundaries fall at different events of the two traces
    args = (n_pages, zipf_s, wf, ops_per_second)
    full = generate_trace(seed, m + extra, *args)[:m]
    part = generate_trace(seed, m, *args)
    assert (full.times, full.ids, full.is_write) == (part.times, part.ids, part.is_write)


def test_generate_trace_peak_memory_is_about_its_columns():
    # the columns take 13 B/event; a chunk's numpy temporaries add a constant
    generate_trace(1, 10, 10)  # numpy imported outside the traced call
    n_ops = 200_000
    tracemalloc.start()
    trace = generate_trace(1, n_ops, 4096, 0.8, 0.25, 20.0)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert len(trace) == n_ops
    assert peak < 40 * n_ops, peak / n_ops


def test_read_trace_csv_peak_memory_is_bounded_by_its_block():
    # only one block's fields are held at a time, not the file's
    buf = io.StringIO()
    write_trace_csv(generate_trace(1, 200_000, 4096, 0.8, 0.25, 20.0), buf)
    fh = io.StringIO(buf.getvalue())
    del buf
    tracemalloc.start()
    trace = read_trace_csv(fh)
    held, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert len(trace) == 200_000
    assert peak - held < 4e6, peak - held


def test_generate_trace_times_are_uniformly_spaced():
    trace = generate_trace(7, 100, 4, ops_per_second=50)
    assert [ev.time_s for ev in trace] == [i / 50 for i in range(100)]


def test_uniform_zipf_frequencies_within_three_sigma():
    n_ops, n_pages = 30_000, 10
    trace = generate_trace(20260809, n_ops, n_pages, zipf_s=0.0)
    counts = {k: 0 for k in range(1, n_pages + 1)}
    for ev in trace:
        counts[ev.page_id] += 1
    expected = n_ops / n_pages
    sigma = math.sqrt(n_ops * (1 / n_pages) * (1 - 1 / n_pages))
    for page, count in counts.items():
        assert abs(count - expected) <= 3 * sigma, (page, count)


def test_zipf_skew_orders_frequencies():
    trace = generate_trace(5, 20_000, 8, zipf_s=1.2)
    counts = {k: 0 for k in range(1, 9)}
    for ev in trace:
        counts[ev.page_id] += 1
    assert counts[1] > counts[2] > counts[3]
    assert counts[1] > 3 * counts[8]


def test_write_fraction_edges():
    all_reads = generate_trace(9, 200, 4, write_fraction=0.0)
    assert all(ev.op == "read" for ev in all_reads)
    all_writes = generate_trace(9, 200, 4, write_fraction=1.0)
    assert all(ev.op == "write" for ev in all_writes)


# --- agreement with the naive reference ------------------------------------

def test_full_size_pool_sees_only_cold_misses():
    rng = random.Random(1)
    for policy in ("lru", "clock2"):
        for _ in range(20):
            trace = random_trace(rng, max_events=150, max_pages=10)
            distinct = len({ev.page_id for ev in trace})
            config = PoolConfig(frames=12, base_policy=policy, n_minute_s=3.0)
            rep = simulate(trace, config)
            assert rep.physical_reads == distinct
            assert rep.evictions == 0


def test_n_zero_equals_plain_base_policy_smoke():
    rng = random.Random(2)
    for policy in ("lru", "clock2"):
        for _ in range(30):
            trace = random_trace(rng)
            frames = rng.randint(1, 8)
            cp = rng.choice([None, 7.0, 31.0])
            got = simulate(trace, PoolConfig(frames=frames, base_policy=policy,
                                             n_minute_s=0.0,
                                             checkpoint_interval_s=cp))
            want = plain_base_policy(trace, frames, policy, cp)
            assert got == want


def test_n_zero_equals_plain_base_policy_at_full_length():
    # 1e5 events over 5000 s; at C = 1 s a 64-frame pool evicts or re-writes
    # most dirty frames one to eight intervals after their first write
    trace = generate_trace(1, 100_000, 1024, zipf_s=0.8, write_fraction=0.25,
                           ops_per_second=20.0)
    for policy in ("lru", "clock2"):
        for cp in (None, 300.0, 1.0):
            got = simulate(trace, PoolConfig(64, policy, 0.0, cp))
            assert got == plain_base_policy(trace, 64, policy, cp), (policy, cp)
    # Clock2 from a few frames to a quarter of 4096 Zipf pages; stack
    # distances cover LRU at these sizes
    trace = generate_trace(3, 100_000, 4096, zipf_s=0.8, write_fraction=0.25,
                           ops_per_second=20.0)
    for frames in (7, 512, 1024):
        for cp in (None, 300.0):
            got = simulate(trace, PoolConfig(frames, "clock2", 0.0, cp))
            assert got == plain_base_policy(trace, frames, "clock2", cp), (frames, cp)


def test_n_zero_lru_equals_stack_distances_at_full_length():
    # 1e5 Zipf events over 4096 pages: pools from one frame to more than
    # the pages ever touched
    trace = generate_trace(3, 100_000, 4096, zipf_s=0.8, write_fraction=0.25,
                           ops_per_second=20.0)
    counts, cold = lru_stack_distances(trace)
    for frames in (1, 7, 64, 512, 1024, 5000):
        got = simulate(trace, PoolConfig(frames, "lru", 0.0, None))
        want = lru_reads(counts, cold, frames)
        assert (got.physical_reads, got.evictions, got.hit_ratio) == want, frames


def test_protected_pools_match_brute_force_at_full_length():
    # 1e5 events over 1024 Zipf pages and 64 frames: N = 20 s makes about
    # a fifth of evictions fallbacks, N = 266.7 s and 2000 s over 90%
    trace = generate_trace(3, 100_000, 1024, zipf_s=0.8, write_fraction=0.25,
                           ops_per_second=20.0)
    for policy in ("lru", "clock2"):
        for n in (20.0, 266.7, 2000.0):
            got = simulate(trace, PoolConfig(64, policy, n, 300.0))
            assert got == brute_force_simulate(trace, 64, policy, n, 300.0), (policy, n)
    # a large pool that N = 1e6 keeps mostly protected: the Clock2 hand
    # skips long protected stretches and wraps (794 of 6296 evictions
    # are fallbacks)
    trace = generate_trace(5, 20_000, 8192, zipf_s=0.8, write_fraction=0.25,
                           ops_per_second=20.0)
    got = simulate(trace, PoolConfig(2048, "clock2", 1e6))
    assert (got.evictions, got.protected_eviction_fallbacks) == (6296, 794)
    assert got == brute_force_simulate(trace, 2048, "clock2", 1e6)


def _far_below_zero(trace):
    # the same trace moved to times from -1e308 up to at most 0 (a
    # random_trace spans at most 1000 s), where t - N overflows to -inf
    # for N = 1e308 at the early events only, below about -7.97e307
    return [TraceEvent(-1e308 + t * 1e305, page, op) for t, page, op in trace]


def test_list_membership_by_last_touch_equals_the_eager_prune():
    # the oracle's membership rule against the naive reading: at every
    # event drop the entries older than t - N, then look.  The far
    # negative traces with a huge N make t - N overflow to -inf, where a
    # page never touched must still be off the list.
    rng = random.Random(4)
    overflowed_first_touches = 0
    for _ in range(60):
        trace = random_trace(rng)
        for moved, lifetimes in ((trace, (0.0, 0.5, 2.0, 10.0, 100.0)),
                                 (_far_below_zero(trace), (1e305, 1e308, 1.7e308))):
            for n in lifetimes:
                pruned, last_touch = {}, {}
                for t, page, _ in moved:
                    pruned = {p: touched for p, touched in pruned.items() if touched >= t - n}
                    assert (page in pruned) == on_list(last_touch, page, t, n), (n, t, page)
                    overflowed_first_touches += t - n == -math.inf and page not in pruned
                    pruned[page] = last_touch[page] = t
    assert overflowed_first_touches > 0


def test_matches_brute_force_smoke():
    rng = random.Random(3)
    for policy in ("lru", "clock2"):
        for _ in range(40):
            trace = random_trace(rng)
            frames = rng.randint(1, 8)
            n = rng.choice([0.0, 0.5, 2.0, 10.0, 100.0])
            cp = rng.choice([None, 5.0, 17.0])
            got = simulate(trace, PoolConfig(frames=frames, base_policy=policy,
                                             n_minute_s=n, checkpoint_interval_s=cp))
            want = brute_force_simulate(trace, frames, policy, n, cp)
            assert got == want, (policy, frames, n, cp)
            assert got.physical_reads <= got.logical_accesses


def test_far_negative_times_and_huge_n_match_brute_force():
    # t - N overflows to -inf: a page loaded for the first time is not on
    # the list, so it is not protected and forces no fallback
    first_loads = [TraceEvent(-1e308, "A", "read"), TraceEvent(-1e308, "B", "read")]
    for policy in ("lru", "clock2"):
        got = simulate(first_loads, PoolConfig(1, policy, 1e308))
        assert got.protected_eviction_fallbacks == 0, policy
        assert got == brute_force_simulate(first_loads, 1, policy, 1e308), policy
    rng = random.Random(5)
    for _ in range(40):
        trace = _far_below_zero(random_trace(rng))
        buf = io.StringIO()
        write_trace_csv(trace, buf)
        as_columns = read_trace_csv(io.StringIO(buf.getvalue()))  # a Trace
        frames = rng.randint(1, 8)
        n = rng.choice([1e305, 1e308, 1.7e308])
        for policy in ("lru", "clock2"):
            for cp in (None, 5.0):
                config = PoolConfig(frames, policy, n, cp)
                want = brute_force_simulate(trace, frames, policy, n, cp)
                assert simulate(trace, config) == want, (policy, frames, n, cp)
                assert simulate(as_columns, config) == want, (policy, frames, n, cp)


_CP = 5.0


# 1 and "1" are distinct pages; a zero step repeats the previous time and
# the longest step crosses 20 checkpoint boundaries
@settings(deadline=None)
@given(steps=st.lists(st.tuples(
           st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=20 * _CP)),
           st.one_of(st.integers(1, 4), st.integers(1, 4).map(str)),
           st.sampled_from(["read", "write"])), max_size=60),
       frames=st.integers(1, 4),
       n=st.sampled_from([0.0, 3.0, 2 * _CP, 1000.0]))
def test_mixed_page_ids_and_gaps_match_brute_force(steps, frames, n):
    trace = []
    t = 0.0
    for step, page, op in steps:
        t += step
        trace.append(TraceEvent(t, page, op))
    for policy in ("lru", "clock2"):
        for cp in (None, _CP):
            got = simulate(trace, PoolConfig(frames=frames, base_policy=policy,
                                             n_minute_s=n, checkpoint_interval_s=cp))
            assert got == brute_force_simulate(trace, frames, policy, n, cp), (policy, cp)


# Each event sits on a boundary k*C or one float to either side of it,
# where floor(t/C) and k*C <= t may disagree; k starts below zero.  The
# examples write one page twice, the second time where floor(t/C) is one
# above (t = 1 - 2**-53) or one below (t = 7/3) the last boundary <= t.
@settings(deadline=None)
@example(cp=1 / 3, k0=1, steps=[(0, 0, 1, "write"), (2, -1, 1, "write")], frames=1, n=0.0)
@example(cp=1 / 3, k0=2, steps=[(3, 1, 1, "write"), (2, 0, 1, "write")], frames=1, n=0.0)
@given(cp=st.sampled_from([0.1, 0.3, 1 / 3, 7.0]),
       k0=st.integers(-3, 2),
       steps=st.lists(st.tuples(st.one_of(st.integers(0, 2), st.integers(0, 40)),
                                st.sampled_from([-1, 0, 1]),
                                st.integers(1, 3),
                                st.sampled_from(["read", "write"])), max_size=50),
       frames=st.integers(1, 4),
       n=st.sampled_from([0.0, 1.0, 1000.0]))
def test_times_at_checkpoint_boundaries_match_brute_force(cp, k0, steps, frames, n):
    trace = []
    k = k0
    for dk, side, page, op in steps:
        k += dk
        t = math.nextafter(k * cp, side * math.inf) if side else k * cp
        trace.append(TraceEvent(max(t, trace[-1].time_s) if trace else t, page, op))
    for policy in ("lru", "clock2"):
        got = simulate(trace, PoolConfig(frames=frames, base_policy=policy,
                                         n_minute_s=n, checkpoint_interval_s=cp))
        assert got == brute_force_simulate(trace, frames, policy, n, cp), policy


# Page A is dirtied at d and next touched, by a read, a write or an
# eviction, at fl(d + j*C) or one float to either side, for j around one
# interval and around the 8 intervals past which a flush is taken as
# settled without computing the boundary.  d lies on a boundary or off
# one and may be negative, so the first boundary may not have passed; a
# dirty page P written before d leaves a cutoff set at d (one frame) or
# stays dirty beside A (two frames).  The example fails if dirt two
# intervals old is taken as flushed.
@settings(deadline=None)
@example(cp=0.1, k=12, d_side=-1, j=1, t_side=-1, touch="read", prior=2, frames=1, n_share=0.0)
@given(cp=st.sampled_from([0.1, 1 / 3, 7.0]),
       k=st.integers(-10, 12),
       d_side=st.sampled_from([-1, 0, 1, 0.5]),
       j=st.sampled_from([1, 2, 3, 7, 8, 9]),
       t_side=st.sampled_from([-1, 0, 1]),
       touch=st.sampled_from(["read", "write", "evict"]),
       prior=st.sampled_from([None, 1, 2, 9]),
       frames=st.integers(1, 2),
       n_share=st.sampled_from([0.0, 2.0]))
def test_next_touch_around_the_settling_margin_matches_brute_force(
        cp, k, d_side, j, t_side, touch, prior, frames, n_share):
    if d_side == 0.5:
        d = (k + 0.5) * cp
    else:
        d = math.nextafter(k * cp, d_side * math.inf) if d_side else k * cp
    t = d + j * cp
    t = math.nextafter(t, t_side * math.inf) if t_side else t
    trace = [] if prior is None else [TraceEvent(d - prior * cp, "P", "write")]
    trace.append(TraceEvent(d, "A", "write"))
    if touch == "evict":
        trace.append(TraceEvent(t, "B", "read"))
    else:
        trace.append(TraceEvent(t, "A", touch))
    trace.append(TraceEvent(t, "A", "write"))
    n = n_share * j * cp
    for policy in ("lru", "clock2"):
        got = simulate(trace, PoolConfig(frames, policy, n, cp))
        assert got == brute_force_simulate(trace, frames, policy, n, cp), policy


# Events on or one float beside the last 40 boundaries below 2**53
# intervals, where adjacent floats are up to two intervals apart, but
# never at or past C * 2**53, the first time rejected.  The oracle reaches
# them by skipping the boundaries where nothing is dirty.  The example
# fails if dirt two intervals old is taken as flushed.
@settings(deadline=None)
@example(cp=1 / 3, k0=-1, steps=[(0, -1, 1, "write"), (0, 0, 1, "write")], frames=1, n=0.0)
@given(cp=st.sampled_from([0.1, 1 / 3, 7.0]),
       k0=st.integers(-40, -1),
       steps=st.lists(st.tuples(st.integers(0, 10),
                                st.sampled_from([-1, 0, 1]),
                                st.integers(1, 3),
                                st.sampled_from(["read", "write"])), min_size=1, max_size=30),
       frames=st.integers(1, 3),
       n=st.sampled_from([0.0, 5.0]))
def test_times_just_below_2_pow_53_intervals_match_brute_force(cp, k0, steps, frames, n):
    last = math.nextafter(cp * 2**53, 0)
    trace = []
    k = 2**53 + k0
    for dk, side, page, op in steps:
        k += dk
        t = math.nextafter(k * cp, side * math.inf) if side else k * cp
        t = min(max(t, trace[-1].time_s) if trace else t, last)
        trace.append(TraceEvent(t, page, op))
    for policy in ("lru", "clock2"):
        got = simulate(trace, PoolConfig(frames, policy, n, cp))
        assert got == brute_force_simulate(trace, frames, policy, n, cp), policy


# The far event comes first, or after one before the first boundary
@pytest.mark.parametrize("cp", [0.1, 1 / 3, 1.0, 7.0, 1e-300])
def test_2_pow_53_intervals_is_the_first_time_rejected(cp):
    last = math.nextafter(cp * 2**53, 0)
    for t, n_before in ((last, 0), (last, 1), (cp * 2**53, 0), (cp * 2**53, 1)):
        trace = [TraceEvent(cp / 2, "A", "read")][:n_before] + [TraceEvent(t, "B", "write")]
        config = PoolConfig(frames=1, checkpoint_interval_s=cp)
        if t == last:
            assert simulate(trace, config) == brute_force_simulate(trace, 1, "lru", 0.0, cp)
        else:
            with pytest.raises(TraceOrderError, match=r"2\*\*53"):
                simulate(trace, config)


# A page stays dirty across the whole gap: the oracle jumps to the
# boundary that flushes it and then past the rest, however far the next
# event is.
@pytest.mark.parametrize("cp", [0.1, 1 / 3, 1.0, 7.0, 1e-300])
def test_dirt_left_across_a_far_gap_matches_brute_force(cp):
    for t in (1e7 * cp, math.nextafter(cp * 2**53, 0)):
        trace = [TraceEvent(cp / 2, "A", "write"), TraceEvent(t, "B", "write")]
        for policy in ("lru", "clock2"):
            got = simulate(trace, PoolConfig(1, policy, checkpoint_interval_s=cp))
            assert got == brute_force_simulate(trace, 1, policy, 0.0, cp), (policy, t)
            assert got == plain_base_policy(trace, 1, policy, cp), (policy, t)
            assert (got.contention_flushes, got.checkpoint_flushes) == (0, 2)


# N is a tenth or half of the trace's span (some frames protected, some
# protections lapsing while the LRU scan holds their pages parked) or
# beyond it (every re-read protected, most evictions fallbacks); with
# 50-200 events and up to 16 frames more than 2 * frames protections
# often queue up, so the queue's compaction runs.  The first example reloads a
# slot unprotected while its earlier protected load is still queued to
# lapse; in the second, two fallbacks leave three protections queued for
# one frame, and only the last must survive the compaction to lapse at 14.
# In the third, reloads at one time queue the same protection for a frame
# more than once, and only one of them may lapse it.
@settings(deadline=None)
@example(steps=[(0.0, 1, "read"), (1.0, 2, "read"), (1.0, 1, "read"), (1.0, 3, "read"),
                (8.0, 1, "read"), (1.0, 2, "read"), (1.0, 1, "read"), (1.0, 2, "read")],
         frames=1, n_share=0.5)
@example(steps=[(0.0, 1, "read"), (1.0, 2, "read"), (1.0, 1, "read"), (1.0, 2, "read"),
                (1.0, 1, "read"), (11.0, 3, "read"), (5.0, 3, "read")],
         frames=1, n_share=0.5)
@example(steps=[(0.0, 1, "read"), (1.0, 2, "write"), (0.0, 3, "read"), (0.0, 1, "read"),
                (0.0, 2, "read"), (0.0, 3, "write"), (0.0, 1, "read"), (0.0, 2, "read"),
                (8.0, 4, "read"), (0.0, 1, "write"), (0.5, 2, "read"), (8.0, 3, "read")],
         frames=2, n_share=0.5)
@given(steps=st.lists(st.tuples(st.sampled_from([0.0, 0.5, 1.0, 8.0]),
                                st.integers(1, 24),
                                st.sampled_from(["read", "write"])), min_size=50, max_size=200),
       frames=st.integers(1, 16),
       n_share=st.sampled_from([0.1, 0.5, 2.0]))
def test_partly_and_fully_protected_pools_match_brute_force(steps, frames, n_share):
    trace = []
    t = 0.0
    for step, page, op in steps:
        t += step
        trace.append(TraceEvent(t, page, op))
    n = n_share * t
    for policy in ("lru", "clock2"):
        for cp in (None, 7.0):
            log = []
            got = simulate(trace, PoolConfig(frames=frames, base_policy=policy,
                                             n_minute_s=n, checkpoint_interval_s=cp),
                           event_log=log)
            assert got == brute_force_simulate(trace, frames, policy, n, cp), (policy, cp)
            for _, when, page, protected_until, was_fallback in log:
                assert was_fallback or protected_until <= when, (policy, when, page)


# A Trace keys the pool by dense ids, a list of events by the labels
# themselves: both must give the same run, eviction log and CSV.  The
# Trace comes from a CSV of the steps (str labels) and from the generator
# (int labels).
@settings(deadline=None, max_examples=60)
@given(steps=st.lists(st.tuples(st.sampled_from([0.0, 0.5, 1.0, 8.0]),
                                st.integers(1, 12),
                                st.sampled_from(["read", "write"])), max_size=120),
       seed=st.integers(0, 2**64 - 1),
       frames=st.integers(1, 8),
       n=st.sampled_from([0.5, 3.0, 50.0]))
def test_trace_and_its_event_list_give_the_same_run(steps, seed, frames, n):
    events, t = [], 0.0
    for step, page, op in steps:
        t += step
        events.append(TraceEvent(t, page, op))
    buf = io.StringIO()
    write_trace_csv(events, buf)
    from_csv = read_trace_csv(io.StringIO(buf.getvalue()))
    generated = generate_trace(seed, len(steps), 12, zipf_s=0.8, write_fraction=0.4,
                               ops_per_second=2.0)
    for trace in (from_csv, generated):
        as_list = list(trace)
        assert trace == as_list
        csv_of = []
        for source in (trace, as_list):
            buf = io.StringIO()
            write_trace_csv(source, buf)
            csv_of.append(buf.getvalue())
        assert csv_of[0] == csv_of[1]
        for policy in ("lru", "clock2"):
            for cp in (None, 4.0):
                config = PoolConfig(frames=frames, base_policy=policy, n_minute_s=n,
                                    checkpoint_interval_s=cp)
                log, list_log = [], []
                assert simulate(trace, config, log) == simulate(as_list, config, list_log)
                assert log == list_log, (policy, cp)


def test_auxiliary_state_stays_bounded_when_every_frame_is_protected():
    # every load re-reads a page within N, so protections pile up behind
    # the fallback evictions; only the last one per frame may be kept.  In
    # the second trace every event comes at one time, so the reloads of a
    # frame queue one (protected_until, slot) entry again and again.
    traces = [(lambda: ((float(k), k % 3, "read") for k in range(5000)), 1e9, 4995),
              (lambda: ((0.0, k % 3, "read") for k in range(20000)), 1.0, 19995)]
    for events, n, fallbacks in traces:
        for policy in ("lru", "clock2"):
            tracemalloc.start()
            rep = simulate(events(), PoolConfig(frames=2, base_policy=policy, n_minute_s=n))
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert rep.protected_eviction_fallbacks == fallbacks
            assert peak < 64 * 1024, (policy, n, peak)


def test_dirty_frame_state_stays_bounded_when_no_boundary_is_reached():
    # every load dirties its frame and C outlasts the trace, so no boundary
    # ever sets a cutoff; the dirty-frame state must stay per frame, not
    # grow with the writes
    for policy in ("lru", "clock2"):
        tracemalloc.start()
        rep = simulate(((float(k), k % 3, "write") for k in range(5000)),
                       PoolConfig(frames=2, base_policy=policy, checkpoint_interval_s=1e9))
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert (rep.physical_reads, rep.contention_flushes, rep.checkpoint_flushes) == (5000, 4998, 2)
        assert peak < 64 * 1024, (policy, peak)


def test_single_frame_misses_everything_iff_no_consecutive_repeats():
    rng = random.Random(6)
    for _ in range(40):
        trace = random_trace(rng, max_events=60, max_pages=4)
        rep = simulate(trace, PoolConfig(frames=1, n_minute_s=rng.choice([0.0, 5.0])))
        repeats = any(a.page_id == b.page_id for a, b in zip(trace, trace[1:]))
        assert (rep.physical_reads == rep.logical_accesses) == (not repeats)


def test_protected_frames_only_evicted_via_fallback():
    rng = random.Random(4)
    for policy in ("lru", "clock2"):
        for _ in range(30):
            trace = random_trace(rng, max_pages=6)
            log = []
            simulate(trace, PoolConfig(frames=3, base_policy=policy, n_minute_s=4.0),
                     event_log=log)
            for kind, t, page, protected_until, was_fallback in log:
                assert kind == "evict"
                if protected_until > t:
                    assert was_fallback, (policy, t, page)


def test_every_dirtied_page_is_flushed_at_least_once():
    rng = random.Random(5)
    for _ in range(30):
        trace = random_trace(rng, write_prob=0.6)
        dirtied = len({ev.page_id for ev in trace if ev.op == "write"})
        rep = simulate(trace, PoolConfig(frames=4, n_minute_s=2.0,
                                         checkpoint_interval_s=13.0))
        assert rep.contention_flushes + rep.checkpoint_flushes >= dirtied


def test_simulate_is_deterministic():
    trace = generate_trace(11, 2000, 50, zipf_s=0.9, write_fraction=0.3,
                           ops_per_second=40)
    config = PoolConfig(frames=16, base_policy="clock2", n_minute_s=5.0,
                        checkpoint_interval_s=9.0)
    assert simulate(trace, config) == simulate(trace, config)


# --- serialization ----------------------------------------------------------

def test_trace_csv_round_trip_replays_identically():
    trace = generate_trace(21, 300, 20, zipf_s=0.5, write_fraction=0.4,
                           ops_per_second=3)
    buf = io.StringIO()
    write_trace_csv(trace, buf)
    text = buf.getvalue()
    assert text.startswith("time,page,op\n")
    assert text.endswith("\n")
    again = read_trace_csv(io.StringIO(text))
    # page ids come back as strings; the replay must not care
    config = PoolConfig(frames=8, n_minute_s=10.0, checkpoint_interval_s=25.0)
    assert simulate(again, config) == simulate(trace, config)


# Labels are all ints or all strs: the CSV cannot tell 5 from "5".  Any op
# but "write" is a read, for simulate and for write_trace_csv alike.
_CSV_LABEL_TEXT = st.text(st.characters(blacklist_characters=",\n\r"), max_size=5)


@settings(deadline=None, max_examples=80)
@given(steps=st.lists(st.tuples(st.sampled_from([0.0, 0.1, 1.0, 7.3, 40.0]),
                                st.integers(0, 7),
                                st.one_of(st.sampled_from(["read", "write", "READ", "w"]),
                                          st.text(max_size=5))), max_size=80),
       labels=st.one_of(st.lists(st.integers(), min_size=8, max_size=8, unique=True),
                        st.lists(_CSV_LABEL_TEXT, min_size=8, max_size=8, unique=True)),
       frames=st.integers(1, 6),
       bad=st.tuples(_CSV_LABEL_TEXT, st.sampled_from(",\n\r"),
                     _CSV_LABEL_TEXT).map("".join))
def test_trace_csv_round_trip_keeps_any_label_and_op(steps, labels, frames, bad):
    events, t = [], 0.0
    for step, k, op in steps:
        t += step
        events.append(TraceEvent(t, labels[k], op))
    buf = io.StringIO()
    write_trace_csv(events, buf)
    again = read_trace_csv(io.StringIO(buf.getvalue()))
    for policy in ("lru", "clock2"):
        for n in (0.0, 20.0):
            config = PoolConfig(frames=frames, base_policy=policy, n_minute_s=n,
                                checkpoint_interval_s=30.0)
            assert simulate(again, config) == simulate(events, config), (policy, n)
    rewritten = io.StringIO()
    write_trace_csv(again, rewritten)
    assert rewritten.getvalue() == buf.getvalue()
    # a label that would split its row is refused, from a list and from a Trace
    for source in (events + [TraceEvent(t, bad, "read")],
                   Trace(array("d", [0.0]), array("i", [0]), [bad], b"\x01")):
        with pytest.raises(ValueError) as err:
            write_trace_csv(source, io.StringIO())
        assert str(err.value) == f"page label {bad!r} contains ',' or a line break"


def test_write_trace_csv_formats_only_the_pages_that_occur():
    # a label table of 2**40 pages: formatting each one would never finish
    trace = Trace(array("d", [0.0, 0.5, 2.0]), array("q", [7, 2**40 - 1, 7]),
                  range(1, 2**40 + 1), b"\x00\x01\x00")
    buf = io.StringIO()
    write_trace_csv(trace, buf)
    assert buf.getvalue() == f"time,page,op\n0.0,8,r\n0.5,{2**40},w\n2.0,8,r\n"


def test_read_trace_csv_errors():
    with pytest.raises(ValueError, match="must start"):
        read_trace_csv(io.StringIO("when,page,op\n"))
    with pytest.raises(ValueError, match="3 fields"):
        read_trace_csv(io.StringIO("time,page,op\n1,2\n"))
    with pytest.raises(ValueError, match="bad time"):
        read_trace_csv(io.StringIO("time,page,op\nxx,2,r\n"))
    with pytest.raises(ValueError, match="op"):
        read_trace_csv(io.StringIO("time,page,op\n1,2,z\n"))


def test_read_trace_csv_rejects_lines_whose_fields_regroup_into_events():
    # taken as one stream of fields, each of these regroups into whole
    # time,page,op events; line by line they are malformed
    for lines, got in ((["1,A,r,X,5,P,w"], 7), (["5,r", "w,6,B,r"], 2),
                       (["1,A,r,X,5,P,w", "7", "w"], 7)):
        for copies in (1, 50_000):  # a short block and a long one
            text = "time,page,op\n" + "0,A,r\n" * copies + "\n".join(lines) + "\n"
            with pytest.raises(ValueError) as err:
                read_trace_csv(io.StringIO(text))
            bad = next(k for k, line in enumerate(lines) if line.count(",") != 2)
            assert str(err.value) == f"line {copies + 2 + bad}: expected 3 fields, got {got}"


def test_trace_reads_as_a_sequence_of_events():
    events = [TraceEvent(0.0, 3, "read"), TraceEvent(0.5, 1, "write"), TraceEvent(2.0, 3, "write")]
    trace = Trace(array("d", [0.0, 0.5, 2.0]), array("i", [0, 1, 0]), [3, 1], b"\x00\x01\x01")
    assert len(trace) == 3 and list(trace) == events and trace == events
    assert trace[1] == events[1] and trace[-1] == events[-1]
    assert isinstance(trace[1:], Trace) and trace[1:] == events[1:] and trace[::2] == events[::2]
    assert trace != events[:2] and trace != events[:2] + [TraceEvent(2.0, 3, "read")]
    assert [page for _, page, _ in trace] == [3, 1, 3]
    assert generate_trace(1, 0, 10) == [] and read_trace_csv(io.StringIO("time,page,op\n")) == []
    assert (generate_trace(1, 3, 2) == 5) is False  # not a sequence: NotImplemented


def test_read_trace_csv_pages_are_strings():
    text = "time,page,op\n" + "0,7,r\n1,007,w\n" * 100_000  # a block split at once
    for trace in (read_trace_csv(io.StringIO(text)),
                  read_trace_csv(io.StringIO("time,page,op\n0,7,r\n1,007,w\n\n"))):
        assert trace[0] == (0.0, "7", "read") and trace[1] == (1.0, "007", "write")
        assert {type(page) for _, page, _ in trace} == {str}
        assert len(trace.labels) == 2


def _in_file(tmp_path, text):
    """A file of `text`, opened for reading as the CLI opens a trace."""
    path = tmp_path / "edge.csv"
    path.write_bytes(text.encode())
    return open(path, encoding="utf-8")


def _read(fh_of, text, reader=read_trace_csv):
    """The events `reader` finds in `text`, or its error message."""
    with fh_of(text) as fh:
        try:
            return reader(fh)
        except ValueError as err:
            return str(err)


# Each case is placed so that the reader's first block ends `at`
# characters into it; the lines before it are plain, so only the case can
# send its block down the line-by-line path.
@pytest.mark.parametrize("case", [
    "1,A\n",          # malformed: two fields
    "5,B,w\r\n",      # CRLF line ending
    "\n \t\n",        # blank lines
    "3,C,x\n",        # bad op
    "y,D,r\n",        # bad time
])
@pytest.mark.parametrize("opened", ["stringio", "file"])
def test_read_trace_csv_block_edges_match_line_by_line(case, opened, tmp_path):
    fh_of = io.StringIO if opened == "stringio" else lambda text: _in_file(tmp_path, text)
    head, tail = TRACE_HEADER + "\n", "9,Z,r\n"
    want = _read(fh_of, head + case + tail, line_by_line_read_trace_csv)
    assert _read(fh_of, head + case + tail) == want
    for at in sorted({0, len(case) // 2, len(case) - 1, len(case)}):
        # plain lines of 32 characters, the last one padded to fill the block
        n, rest = divmod(bufferpool._READ_CHARS - at, 32)
        pad = "0," + "A" * (27 + rest) + ",r\n"
        text = head + ("0," + "A" * 27 + ",r\n") * (n - 1) + pad + case + tail
        assert text.index(case, len(text) - 20) == len(head) + bufferpool._READ_CHARS - at
        got = _read(fh_of, text)
        if isinstance(want, str):  # the case is on line n + 2
            assert got == want.replace("line 2:", f"line {n + 2}:", 1), at
        else:
            assert not isinstance(got, str), (at, got)
            assert len(got) == n + len(want), at
            assert got[n - 1] == (0.0, pad[2:-3], "read") and got[n:] == want, at


def test_report_csv_shape():
    rep = simulate(ABA, PoolConfig(frames=1))
    lines = rep.csv().splitlines()
    assert lines[0] == ("logical,physical,hit_ratio,evictions,"
                        "contention_flushes,checkpoint_flushes,fallbacks")
    assert lines[1] == "3,3,0,2,0,0,0"


def test_recommended_n():
    dell = bufferpool.recommended_n(rules.TechnologyParams(128, 64),
                                    rules.EconomicParams(2000, 15))
    assert dell == pytest.approx(266.67, abs=0.01)
    assert bufferpool.recommended_n(rules.TechnologyParams(1, 1),
                                    rules.EconomicParams(1, 1)) == 1.0
    seq = bufferpool.recommended_n(rules.TechnologyParams(rules.BINARY_MB, 5 * 2**20),
                                   rules.EconomicParams(2000, 15))
    assert seq == pytest.approx(26.67, abs=0.01)


def _victim_idle_ages(trace, log):
    """Each eviction's time less the victim's last touch; trace times are distinct."""
    last_touch, ages, k = {}, [], 0
    for t, page, _ in trace:
        while k < len(log) and log[k][1] == t:
            ages.append(t - last_touch[log[k][2]])
            k += 1
        last_touch[page] = t
    assert k == len(log)
    return ages


def test_five_minute_rule_on_a_zipf_trace():
    # scripts/nminute_sweep.py's default trace, not tuned; the economic pool
    # for the 1997 prices lies between 1024 and 4096 frames
    trace = generate_trace(20260809, 200_000, 16384, 0.8, 0.25, 20)
    n_be = bufferpool.recommended_n(rules.TechnologyParams(128, 64),
                                    rules.EconomicParams(2000, 15))

    def run(policy, frames, n, log=None):
        return simulate(trace, PoolConfig(frames, policy, n, 300), event_log=log)

    # Below it, protecting for N = break-even raises the hit ratio with no
    # fallback (LRU 0.37146 -> 0.404695, Clock2 0.360135 -> 0.406175), and
    # N = 2000 starves the pool: most evictions are fallbacks.
    for policy, reads, starved in [("lru", (125708, 119061), (89407, 119901)),
                                   ("clock2", (127973, 118765), (91427, 121875))]:
        at_0, at_be, at_2000 = (run(policy, 1024, n) for n in (0, n_be, 2000))
        assert (at_0.physical_reads, at_be.physical_reads) == reads, policy
        assert at_0.protected_eviction_fallbacks == at_be.protected_eviction_fallbacks == 0
        assert (at_2000.protected_eviction_fallbacks, at_2000.evictions) == starved, policy
    # Above it, LRU already evicts only pages idle longer than N = break-even,
    # so N changes nothing.  Clock2 only approximates recency: there N moves
    # its counters (78510 -> 78479 reads).
    at_0 = run("lru", 4096, 0)
    assert run("lru", 4096, n_be) == at_0
    assert (at_0.physical_reads, at_0.evictions) == (76370, 72274)
    # At N = 0 the median victim has been idle for less than N = break-even
    # on the small pool and for more on the large one.
    for frames, median_age, below in [(1024, 70.2, True), (4096, 395.7, False)]:
        log = []
        run("lru", frames, 0, log)
        age = statistics.median(_victim_idle_ages(trace, log))
        assert (round(age, 1), age < n_be) == (median_age, below), frames
