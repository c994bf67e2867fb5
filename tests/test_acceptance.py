"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.
"""
import contextlib
import io
import math
import random
import time

import pytest

from reference_sim import brute_force_simulate, plain_base_policy, random_trace
from storage_rules import bufferpool, indexing, rules, sorting
from storage_rules.bufferpool import PoolConfig, generate_trace, simulate
from storage_rules.indexing import IndexParams, PageCostModel
from storage_rules.rules import EconomicParams, TechnologyParams

KB = 1024


@contextlib.contextmanager
def criterion(num, text):
    try:
        yield
    except Exception:
        print(f"criterion {num:2d} FAIL  {text}")
        raise
    print(f"criterion {num:2d} PASS  {text}")


def test_criterion_01_break_even_1997():
    with criterion(1, "1997 parameters give a 266.7 s break-even interval"):
        result = rules.break_even_interval(TechnologyParams(128, 64),
                                           EconomicParams(2000, 15))
        assert abs(result.interval_s - 266.7) <= 1.0


def test_criterion_02_break_even_1986():
    with criterion(2, "1986 parameters give a 170.7 s break-even interval"):
        result = rules.break_even_interval(TechnologyParams(512, 30),
                                           EconomicParams(20000, 2000))
        assert abs(result.interval_s - 170.7) <= 1.0


def test_criterion_03_sequential_rule():
    with criterion(3, "64 KB sequential rule: 26.7 s read-once, 53.3 s write+read"):
        ep = EconomicParams(2000, 15)
        # 64 KB transfers at 5 MB/s; the transfer size cancels
        assert abs(rules.sequential_break_even(5 * 2**20, ep, "read_once") - 26.7) <= 2.0
        assert abs(rules.sequential_break_even(5 * 2**20, ep, "write_then_read") - 53.3) <= 2.0


def test_criterion_04_table6_reproduction():
    with criterion(4, "index tabulation (20 B, 0.7 fill, 10 ms, 10 MB/s) reproduces"):
        params = IndexParams(entry_bytes=20, fill_factor=0.7)
        model = PageCostModel(latency_s=0.01, bandwidth_bps=1e7)
        pages_kb = [2, 4, 8, 16, 32, 64, 128]
        published_cost_ms = [10.2, 10.4, 10.8, 11.6, 13.2, 16.4, 22.8]
        published_utility = [6.1, 7.1, 8.1, 9.1, 10.1, 11.1, 12.1]
        published_bc = [0.60, 0.68, 0.75, 0.78, 0.76, 0.68, 0.53]
        for kb, cost, util, bc in zip(pages_kb, published_cost_ms,
                                      published_utility, published_bc):
            ev = indexing.evaluate_page(kb * KB, params, model)
            assert abs(ev.access_cost_s * 1e3 - cost) <= 0.4
            assert abs(ev.utility - util) <= 0.15
            assert abs(ev.benefit_cost - bc) <= 0.02
        best, _ = indexing.optimal_page_size([kb * KB for kb in pages_kb],
                                             params, model)
        assert best == 16 * KB


def test_criterion_05_figure7_golden_grid():
    with criterion(5, "benefit/cost grid rows (16 B entries) reproduce to 0.002"):
        params = IndexParams(entry_bytes=16, fill_factor=0.7)
        sizes = [kb * KB for kb in (2, 4, 8, 32, 64, 128)]
        at_10 = [indexing.benefit_cost(s, params, PageCostModel(0.01, 1e7))
                 for s in sizes]
        for got, want in zip(at_10, [0.6355, 0.7191, 0.7843, 0.7898, 0.6938, 0.5403]):
            assert abs(got - want) <= 0.002
        at_40 = [indexing.benefit_cost(s, params, PageCostModel(0.01, 4e7))
                 for s in sizes]
        for got, want in zip(at_40, [0.645, 0.741, 0.832, 0.969, 0.987, 0.94]):
            assert abs(got - want) <= 0.002
        at_5 = {s: indexing.benefit_cost(s, params, PageCostModel(0.01, 5e6))
                for s in (64 * KB, 128 * KB)}
        assert abs(at_5[64 * KB] - 0.497) <= 0.002
        assert abs(at_5[128 * KB] - 0.345) <= 0.002
        # the published 3 MB/s and 1 MB/s rows imply 11-12 ms latencies and
        # are excluded from the golden comparison
        best, _ = indexing.optimal_page_size(sizes, params, PageCostModel(0.01, 4e7))
        assert best == 64 * KB


def test_criterion_06_table8_reproduction():
    with criterion(6, "device metrics trio reproduces (tape $/TBscan at the "
                      "formula value 21.2, vs the published 296)"):
        from storage_rules import devices, metrics
        disk = metrics.metric_report(devices.preset("table8_disk"))
        assert abs(disk.kaps - 98) <= 2
        assert abs(disk.maps - 4.76) <= 0.1
        assert disk.scan_s == pytest.approx(1800)
        assert 1.9e-7 <= disk.dollars_per_kaps <= 2.3e-7
        assert abs(disk.dollars_per_tbscan - 4.23) <= 0.05
        ram = metrics.metric_report(devices.preset("table8_ram"))
        assert abs(ram.dollars_per_tbscan - 0.317) <= 0.01
        assert abs(ram.kaps - 5e5) / 5e5 <= 0.05
        tape = metrics.metric_report(devices.preset("table8_tape_robot"))
        assert abs(tape.kaps - 0.0333) <= 0.0005
        assert abs(tape.scan_s / 3600 - 27.3) <= 0.2
        # expected discrepancy: the published tabulation prints 296 $ for the
        # tape $/TBscan, ~14x the rent-formula value; the formula is asserted
        assert abs(tape.dollars_per_tbscan - 21.2) <= 0.5
        assert tape.dollars_per_tbscan < 296 / 10


def test_criterion_07_sort_planner():
    with criterion(7, "sort planner: inverse round-trip, thousand-run plan, "
                      "100 TB under 5 GB"):
        rng = random.Random(97)
        for _ in range(1000):
            file_bytes = 10 ** rng.uniform(0, 15)
            buffer_bytes = 10 ** rng.uniform(0, 7)
            memory = sorting.two_pass_memory(file_bytes, buffer_bytes)
            back = sorting.max_two_pass_file(memory, buffer_bytes)
            assert abs(back - file_bytes) / file_bytes < 1e-9
        plan = sorting.run_merge_plan(1e11, 1e8, 1e5)
        assert (plan.run_count, plan.fan_in, plan.passes) == (1000, 1000, 2)
        assert sorting.two_pass_memory(1e14, 8192) <= 5e9


def test_criterion_08_buffer_simulator_suite():
    with criterion(8, "buffer simulator: base-policy degeneration, cold misses, "
                      "brute-force equivalence, protection audit, determinism, "
                      "1e6 events < 5 s"):
        # (a) N=0 equals the pure base policy, 200 randomized traces
        rng = random.Random(881)
        for i in range(200):
            policy = "lru" if i % 2 == 0 else "clock2"
            trace = random_trace(rng, max_events=120, max_pages=10)
            frames = rng.randint(1, 8)
            cp = rng.choice([None, 11.0])
            got = simulate(trace, PoolConfig(frames=frames, base_policy=policy,
                                             n_minute_s=0.0,
                                             checkpoint_interval_s=cp))
            assert got == plain_base_policy(trace, frames, policy, cp)

        # (b) full-size pool: physical reads = distinct pages
        for i in range(20):
            trace = random_trace(rng, max_events=150, max_pages=10)
            rep = simulate(trace, PoolConfig(frames=10, base_policy="clock2",
                                             n_minute_s=5.0))
            assert rep.physical_reads == len({ev.page_id for ev in trace})

        # (c) exact equivalence with the brute-force reference, 500 traces
        for i in range(500):
            policy = "lru" if i % 2 == 0 else "clock2"
            trace = random_trace(rng, max_events=200, max_pages=12)
            frames = rng.randint(1, 8)
            n = rng.choice([0.0, 1.0, 3.0, 10.0, 50.0])
            cp = rng.choice([None, 4.0, 13.0])
            got = simulate(trace, PoolConfig(frames=frames, base_policy=policy,
                                             n_minute_s=n,
                                             checkpoint_interval_s=cp))
            want = brute_force_simulate(trace, frames, policy, n, cp)
            assert got == want, (i, policy, frames, n, cp)

        # (d) protected frames are only evicted through the fallback path
        for i in range(50):
            policy = "lru" if i % 2 == 0 else "clock2"
            trace = random_trace(rng, max_pages=6)
            log = []
            simulate(trace, PoolConfig(frames=3, base_policy=policy,
                                       n_minute_s=6.0), event_log=log)
            for _, t, _, protected_until, was_fallback in log:
                assert was_fallback or protected_until <= t

        # (e) determinism: byte-identical CSV reports for identical inputs
        def run_once():
            trace = generate_trace(31337, 20_000, 2048, zipf_s=0.9,
                                   write_fraction=0.3, ops_per_second=20.0)
            rep = simulate(trace, PoolConfig(frames=256, base_policy="lru",
                                             n_minute_s=60.0,
                                             checkpoint_interval_s=120.0))
            buf = io.StringIO()
            bufferpool.write_trace_csv(trace, buf)
            return rep.csv(), buf.getvalue()
        assert run_once() == run_once()

        # timing: one million events in under five seconds
        big = generate_trace(12345, 1_000_000, 16384, zipf_s=0.8,
                             write_fraction=0.25, ops_per_second=20.0)
        config = PoolConfig(frames=1024, base_policy="lru", n_minute_s=120.0,
                            checkpoint_interval_s=300.0)
        start = time.perf_counter()
        rep = simulate(big, config)
        elapsed = time.perf_counter() - start
        assert rep.logical_accesses == 1_000_000
        assert 0.2 < rep.hit_ratio < 0.6
        assert elapsed < 5.0, f"1e6-event simulation took {elapsed:.2f} s"


def test_criterion_09_benefit_cost_unimodality():
    with criterion(9, "benefit/cost is unimodal over a 1 KB..1 MB ladder "
                      "for 500 random parameter tuples"):
        rng = random.Random(512)
        ladder = [2.0**k for k in range(10, 21)]
        for _ in range(500):
            params = IndexParams(entry_bytes=rng.uniform(4, 256),
                                 fill_factor=rng.uniform(0.3, 1.0))
            model = PageCostModel(latency_s=10 ** rng.uniform(-4, -0.7),
                                  bandwidth_bps=10 ** rng.uniform(5, 9))
            values = [indexing.benefit_cost(s, params, model) for s in ladder]
            diffs = [b - a for a, b in zip(values, values[1:]) if b != a]
            flips = sum(1 for a, b in zip(diffs, diffs[1:]) if (a > 0) != (b > 0))
            assert flips <= 1, (params, model)


def test_criterion_10_page_size_series_limit():
    with criterion(10, "interval series decreases strictly to the sequential "
                       "asymptote (gap < 1% at 64 MB pages)"):
        ep = EconomicParams(2000, 15)
        bandwidth = 10 * 2**20
        sizes = [2.0**k for k in range(9, 27)]  # 512 B .. 64 MB
        series = rules.reference_interval_vs_page_size(0.01, bandwidth, ep, sizes)
        limit = rules.sequential_break_even(bandwidth, ep)
        previous = math.inf
        for _, interval in series:
            assert interval < previous
            assert interval > limit
            previous = interval
        final = series[-1][1]
        assert (final - limit) / limit < 0.01
