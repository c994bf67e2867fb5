import math

import pytest
from hypothesis import given, strategies as st

from storage_rules import indexing
from storage_rules.indexing import IndexParams, PageCostModel

KB = 1024
REFERENCE_MODEL = PageCostModel(latency_s=0.01, bandwidth_bps=1e7)
ENTRY16 = IndexParams(entry_bytes=16, fill_factor=0.7)
ENTRY20 = IndexParams(entry_bytes=20, fill_factor=0.7)


def test_entries_per_page():
    assert indexing.entries_per_page(2048, ENTRY16) == pytest.approx(89.6)
    assert indexing.entries_per_page(1024, IndexParams(1024, 1.0)) == 1.0
    # real-valued, not floored; the published 270 for 8 KB runs ~5% low
    assert indexing.entries_per_page(8192, ENTRY20) == pytest.approx(286.72)


def test_page_utility():
    assert indexing.page_utility(1) == 0.0
    assert indexing.page_utility(270) == pytest.approx(8.08, abs=0.01)
    assert indexing.page_utility(89.6) == pytest.approx(6.48543, abs=1e-5)
    with pytest.raises(ValueError, match="entries"):
        indexing.page_utility(0.5)


def test_index_height():
    assert indexing.index_height(300, 300) == pytest.approx(1.0)
    assert indexing.index_height(1e9, 286.7) == pytest.approx(3.662, abs=0.002)
    assert indexing.index_height(1, 50) == 0.0
    with pytest.raises(ValueError, match="fan-out"):
        indexing.index_height(1e9, 1.0)
    with pytest.raises(ValueError, match="n_items"):
        indexing.index_height(0, 50)


def test_access_cost():
    assert indexing.access_cost(8192, REFERENCE_MODEL) == pytest.approx(0.0108192)
    assert indexing.access_cost(131072, REFERENCE_MODEL) == pytest.approx(0.0231072)
    assert indexing.access_cost(1e7, PageCostModel(1e-12, 1e7)) == pytest.approx(1.0)


def test_benefit_cost_reference_cells():
    assert indexing.benefit_cost(2048, ENTRY16, REFERENCE_MODEL) == pytest.approx(
        0.6355, abs=0.0002)
    fast = PageCostModel(latency_s=0.01, bandwidth_bps=4e7)
    assert indexing.benefit_cost(32768, ENTRY16, fast) == pytest.approx(0.969, abs=0.001)
    exactly_one = IndexParams(entry_bytes=1024, fill_factor=1.0)
    assert indexing.benefit_cost(1024, exactly_one, REFERENCE_MODEL) == 0.0


def test_optimal_page_size_reference_searches():
    sizes_all = [k * KB for k in (2, 4, 8, 16, 32, 64, 128)]
    best, ev = indexing.optimal_page_size(sizes_all, ENTRY20, REFERENCE_MODEL)
    assert best == 16 * KB
    assert ev.benefit_cost == pytest.approx(0.787, abs=0.001)

    sizes_grid = [k * KB for k in (2, 4, 8, 32, 64, 128)]
    fast = PageCostModel(latency_s=0.01, bandwidth_bps=4e7)
    best, ev = indexing.optimal_page_size(sizes_grid, ENTRY16, fast)
    assert best == 64 * KB
    assert ev.benefit_cost == pytest.approx(0.987, abs=0.001)

    best, _ = indexing.optimal_page_size([8192], ENTRY20, REFERENCE_MODEL)
    assert best == 8192


def test_optimal_page_size_tie_prefers_smaller():
    # force a tie with two copies of the same size
    best, _ = indexing.optimal_page_size([8192, 8192], ENTRY20, REFERENCE_MODEL)
    assert best == 8192
    with pytest.raises(ValueError):
        indexing.optimal_page_size([], ENTRY20, REFERENCE_MODEL)


ladder = [2.0**k for k in range(10, 21)]  # 1 KB .. 1 MB


@given(entry=st.floats(min_value=4, max_value=256),
       fill=st.floats(min_value=0.3, max_value=1.0),
       latency=st.floats(min_value=1e-4, max_value=0.2),
       bandwidth=st.floats(min_value=1e5, max_value=1e9))
def test_utility_and_cost_strictly_increase(entry, fill, latency, bandwidth):
    params = IndexParams(entry_bytes=entry, fill_factor=fill)
    model = PageCostModel(latency, bandwidth)
    evals = [indexing.evaluate_page(s, params, model) for s in ladder]
    for a, b in zip(evals, evals[1:]):
        assert b.utility > a.utility
        assert b.access_cost_s > a.access_cost_s


def _sign_changes(diffs):
    signs = [d for d in diffs if d != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))


@given(entry=st.floats(min_value=4, max_value=256),
       fill=st.floats(min_value=0.3, max_value=1.0),
       latency=st.floats(min_value=1e-4, max_value=0.2),
       bandwidth=st.floats(min_value=1e5, max_value=1e9))
def test_benefit_cost_is_unimodal_over_the_ladder(entry, fill, latency, bandwidth):
    params = IndexParams(entry_bytes=entry, fill_factor=fill)
    model = PageCostModel(latency, bandwidth)
    values = [indexing.benefit_cost(s, params, model) for s in ladder]
    diffs = [b - a for a, b in zip(values, values[1:])]
    assert _sign_changes(diffs) <= 1


@given(fill=st.floats(min_value=0.05, max_value=0.5),
       page=st.sampled_from(ladder))
def test_doubling_fill_adds_one_utility_level(fill, page):
    low = indexing.evaluate_page(page, IndexParams(8, fill), REFERENCE_MODEL)
    high = indexing.evaluate_page(page, IndexParams(8, 2 * fill), REFERENCE_MODEL)
    assert high.utility - low.utility == pytest.approx(1.0, abs=1e-9)


@given(k_exp=st.integers(min_value=-6, max_value=6),
       entry=st.floats(min_value=4, max_value=64),
       page=st.sampled_from(ladder))
def test_entries_depend_only_on_page_entry_ratio(k_exp, entry, page):
    k = 2.0**k_exp
    base = indexing.entries_per_page(page, IndexParams(entry, 0.7))
    scaled = indexing.entries_per_page(page * k, IndexParams(entry * k, 0.7))
    assert scaled == base


def test_argmax_unchanged_by_cost_unit():
    sizes = [k * KB for k in (2, 4, 8, 16, 32, 64, 128)]
    per_ms = [indexing.benefit_cost(s, ENTRY20, REFERENCE_MODEL) for s in sizes]
    per_s = [indexing.page_utility(indexing.entries_per_page(s, ENTRY20))
             / indexing.access_cost(s, REFERENCE_MODEL) for s in sizes]
    assert per_ms.index(max(per_ms)) == per_s.index(max(per_s))


def test_param_validation():
    with pytest.raises(ValueError):
        IndexParams(0)
    with pytest.raises(ValueError):
        IndexParams(16, fill_factor=0.0)
    with pytest.raises(ValueError):
        IndexParams(16, fill_factor=1.2)
    with pytest.raises(ValueError, match="n_items"):
        IndexParams(16, n_items=0)
    with pytest.raises(ValueError):
        PageCostModel(0, 1e7)
    with pytest.raises(ValueError, match="PageCostModel fields"):
        PageCostModel(0.01, 0)
    with pytest.raises(ValueError):
        indexing.entries_per_page(0, ENTRY20)
    for page in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            indexing.entries_per_page(page, ENTRY20)
        with pytest.raises(ValueError, match="finite"):
            indexing.access_cost(page, REFERENCE_MODEL)


def test_table6_columns_match_published_values():
    pages_kb = [2, 4, 8, 16, 32, 64, 128]
    published_cost_ms = [10.2, 10.4, 10.8, 11.6, 13.2, 16.4, 22.8]
    published_utility = [6.1, 7.1, 8.1, 9.1, 10.1, 11.1, 12.1]
    published_bc = [0.60, 0.68, 0.75, 0.78, 0.76, 0.68, 0.53]
    for kb, cost, util, bc in zip(pages_kb, published_cost_ms,
                                  published_utility, published_bc):
        ev = indexing.evaluate_page(kb * KB, ENTRY20, REFERENCE_MODEL)
        assert ev.access_cost_s * 1e3 == pytest.approx(cost, abs=0.4)
        assert ev.utility == pytest.approx(util, abs=0.15)
        assert ev.benefit_cost == pytest.approx(bc, abs=0.02)
        assert math.isclose(ev.benefit_cost,
                            ev.utility / (ev.access_cost_s * 1e3), rel_tol=1e-12)
