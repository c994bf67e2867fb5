import math

import pytest
from hypothesis import given, strategies as st

from storage_rules import rules
from storage_rules.rules import EconomicParams, SequentialParams, TechnologyParams

DELL_TP = TechnologyParams(128, 64)
DELL_EP = EconomicParams(2000, 15)

finite = st.floats(min_value=1e-3, max_value=1e12, allow_nan=False,
                   allow_infinity=False)


def test_technology_ratio():
    assert rules.technology_ratio(DELL_TP) == pytest.approx(2.0)
    assert rules.technology_ratio(TechnologyParams(512, 30)) == pytest.approx(17.0667, abs=0.01)
    assert rules.technology_ratio(TechnologyParams(1, 1)) == 1.0


def test_economic_ratio():
    assert rules.economic_ratio(DELL_EP) == pytest.approx(133.33, abs=0.01)
    assert rules.economic_ratio(EconomicParams(20000, 2000)) == 10.0
    assert rules.economic_ratio(EconomicParams(1, 1)) == 1.0


def test_break_even_interval_1997_and_1986():
    result = rules.break_even_interval(DELL_TP, DELL_EP)
    assert result.interval_s == pytest.approx(266.67, abs=0.01)
    assert result.interval_s == result.technology_ratio * result.economic_ratio
    old = rules.break_even_interval(TechnologyParams(512, 30), EconomicParams(20000, 2000))
    assert old.interval_s == pytest.approx(170.67, abs=0.01)
    unit = rules.break_even_interval(TechnologyParams(1, 1), EconomicParams(1, 1))
    assert unit.interval_s == 1.0


def test_derive_sequential_params():
    tp = rules.derive_sequential_params(SequentialParams(65536, 5 * 2**20))
    assert tp.pages_per_mb == 16.0
    assert tp.accesses_per_sec == 80.0
    tp = rules.derive_sequential_params(SequentialParams(2**20, 2**20))
    assert (tp.pages_per_mb, tp.accesses_per_sec) == (1.0, 1.0)
    tp = rules.derive_sequential_params(SequentialParams(8192, 10 * 2**20))
    assert (tp.pages_per_mb, tp.accesses_per_sec) == (128.0, 1280.0)


def test_sequential_break_even():
    sp = SequentialParams(65536, 5 * 2**20)
    once = rules.sequential_break_even(sp, DELL_EP, "read_once")
    assert once == pytest.approx(26.67, abs=0.01)
    twice = rules.sequential_break_even(sp, DELL_EP, "write_then_read")
    assert twice == pytest.approx(53.33, abs=0.01)
    # with economic ratio 1 the interval is the technology ratio itself
    tp = rules.derive_sequential_params(sp)
    assert rules.sequential_break_even(sp, EconomicParams(7, 7)) == pytest.approx(
        rules.technology_ratio(tp))


def test_sequential_break_even_rejects_bad_passes():
    with pytest.raises(ValueError, match="passes"):
        rules.sequential_break_even(SequentialParams(1, 1), DELL_EP, "thrice")


def test_params_reject_non_finite_fields():
    # inf / inf and inf * 0 turn into NaN ratios downstream
    for bad in (math.inf, math.nan):
        for make in (lambda x: TechnologyParams(x, 64), lambda x: EconomicParams(2000, x),
                     lambda x: SequentialParams(65536, x)):
            with pytest.raises(ValueError, match="finite"):
                make(bad)


def test_asymptotic_sequential_interval():
    assert rules.asymptotic_sequential_interval(5 * 2**20, DELL_EP) == pytest.approx(
        26.67, abs=0.01)
    assert rules.asymptotic_sequential_interval(2**20, EconomicParams(1, 1)) == 1.0
    assert rules.asymptotic_sequential_interval(10 * 2**20, DELL_EP) == pytest.approx(
        13.33, abs=0.01)


def test_apply_raid():
    adj_none = rules.raid_adjustment("none")
    assert rules.apply_raid(DELL_TP, adj_none, 0.7) == DELL_TP
    raid5 = rules.apply_raid(DELL_TP, rules.raid_adjustment("raid5"), 1.0)
    assert raid5.accesses_per_sec == pytest.approx(16.0)
    assert raid5.pages_per_mb == DELL_TP.pages_per_mb
    raid1 = rules.apply_raid(DELL_TP, rules.raid_adjustment("raid1"), 1.0)
    assert raid1.accesses_per_sec == pytest.approx(32.0)
    # all-read mirroring slightly speeds things up
    reads = rules.apply_raid(DELL_TP, rules.raid_adjustment("raid1"), 0.0)
    assert reads.accesses_per_sec == pytest.approx(64 / 0.9)
    with pytest.raises(ValueError, match="write_fraction"):
        rules.apply_raid(DELL_TP, rules.raid_adjustment("raid5"), 1.5)
    with pytest.raises(ValueError, match="level"):
        rules.raid_adjustment("raid6")


def test_reference_interval_vs_page_size_zero_latency_hits_asymptote():
    bw = 10 * 2**20
    ((_, interval),) = rules.reference_interval_vs_page_size(0.0, bw, DELL_EP, [8192])
    assert interval == pytest.approx(rules.asymptotic_sequential_interval(bw, DELL_EP))


def test_reference_interval_example_point():
    ((size, interval),) = rules.reference_interval_vs_page_size(
        0.01, 10 * 2**20, DELL_EP, [8192])
    assert size == 8192
    assert interval == pytest.approx(184.0, abs=0.05)


def test_reference_interval_series_order_is_input_order():
    series = rules.reference_interval_vs_page_size(0.01, 2**20, DELL_EP, [4096, 1024])
    assert [s for s, _ in series] == [4096, 1024]


@given(latency=st.floats(min_value=1e-5, max_value=1.0),
       bw_exp=st.integers(min_value=18, max_value=30),
       price=finite, ram_price=finite)
def test_series_decreases_toward_asymptote_with_exact_gap(latency, bw_exp, price, ram_price):
    ep = EconomicParams(price, ram_price)
    bandwidth = float(2**bw_exp)
    sizes = [2.0**k for k in range(9, 27)]
    series = rules.reference_interval_vs_page_size(latency, bandwidth, ep, sizes)
    limit = rules.asymptotic_sequential_interval(bandwidth, ep)
    econ = rules.economic_ratio(ep)
    previous = math.inf
    for size, interval in series:
        assert interval < previous
        assert interval > limit
        gap = econ * 2**20 * latency / size
        # subtraction cancels when the gap is tiny next to the interval,
        # so allow a few ulps of the interval on top of the relative term
        assert abs((interval - limit) - gap) <= 1e-9 * gap + 1e-12 * interval
        previous = interval


@given(pages=finite, accesses=finite, price=finite, ram_price=finite,
       k_exp=st.integers(min_value=-20, max_value=20))
def test_break_even_separability_exact_for_power_of_two_scales(
        pages, accesses, price, ram_price, k_exp):
    k = 2.0**k_exp
    base = rules.break_even_interval(TechnologyParams(pages, accesses),
                                     EconomicParams(price, ram_price))
    assert base.interval_s > 0
    scaled_price = rules.break_even_interval(TechnologyParams(pages, accesses),
                                             EconomicParams(price * k, ram_price))
    assert scaled_price.interval_s == base.interval_s * k
    scaled_rate = rules.break_even_interval(TechnologyParams(pages, accesses * k),
                                            EconomicParams(price, ram_price))
    assert scaled_rate.interval_s == base.interval_s / k


@given(transfer=finite, bandwidth=finite, price=finite, ram_price=finite)
def test_write_then_read_is_exactly_double(transfer, bandwidth, price, ram_price):
    sp = SequentialParams(transfer, bandwidth)
    ep = EconomicParams(price, ram_price)
    assert (rules.sequential_break_even(sp, ep, "write_then_read")
            == 2.0 * rules.sequential_break_even(sp, ep, "read_once"))


def test_param_validation():
    with pytest.raises(ValueError):
        TechnologyParams(0, 64)
    with pytest.raises(ValueError):
        EconomicParams(2000, 0)
    with pytest.raises(ValueError):
        SequentialParams(-1, 5)
    with pytest.raises(ValueError):
        rules.reference_interval_vs_page_size(0.01, 1e7, DELL_EP, [])
    with pytest.raises(ValueError, match="latency_s"):
        rules.reference_interval_vs_page_size(-0.01, 1e7, DELL_EP, [8192])
    with pytest.raises(ValueError, match="page size"):
        rules.reference_interval_vs_page_size(0.01, 1e7, DELL_EP, [8192, 0])
    # built directly, the record checks what raid_adjustment would
    with pytest.raises(ValueError, match="level"):
        rules.RaidAdjustment("raid6", 1.0, 1.0)
    for mults in ((0.0, 1.0), (1.0, -2.0)):
        with pytest.raises(ValueError, match="multipliers"):
            rules.RaidAdjustment("raid1", *mults)
