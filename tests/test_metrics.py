import math

import pytest
from hypothesis import given, strategies as st

from storage_rules import devices, metrics
from storage_rules.metrics import RentModel

RAM = devices.preset("table8_ram")
DISK = devices.preset("table8_disk")
TAPE = devices.preset("table8_tape_robot")


def test_kaps():
    assert metrics.kaps(DISK) == pytest.approx(98.04, abs=0.01)
    assert metrics.kaps(TAPE) == pytest.approx(0.03333, abs=0.0001)
    slow = devices.DiskSpec("slow", 1, 1e9, 1.0, 1e12, 1)
    assert metrics.kaps(slow) == pytest.approx(1.0, rel=1e-6)


def test_maps():
    assert metrics.maps(DISK) == pytest.approx(4.76, abs=0.01)
    assert metrics.maps(TAPE) == pytest.approx(0.0331, abs=0.0001)
    # the published round number is 500
    assert metrics.maps(RAM) == pytest.approx(500, rel=0.05)


def test_scan_seconds():
    assert metrics.scan_seconds(DISK) == pytest.approx(1800)
    assert metrics.scan_seconds(TAPE) == pytest.approx(98420)
    assert metrics.scan_seconds(TAPE) / 3600 == pytest.approx(27.3, abs=0.1)
    assert metrics.scan_seconds(RAM) == pytest.approx(2.0)


def test_dollar_rate():
    assert metrics.dollar_rate(2000) == pytest.approx(2.114e-5, rel=1e-3)
    assert metrics.dollar_rate(94_608_000) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        metrics.dollar_rate(0)
    with pytest.raises(ValueError):
        metrics.dollar_rate(-5)
    with pytest.raises(ValueError, match="overflows"):
        metrics.dollar_rate(2000, RentModel(1e-306))


def test_dollars_per_tbscan():
    assert metrics.dollars_per_tbscan(DISK) == pytest.approx(4.23, abs=0.01)
    assert metrics.dollars_per_tbscan(RAM) == pytest.approx(0.317, abs=0.001)
    # 29 mounts to stream a terabyte off 35 GB tapes
    expected = metrics.dollar_rate(10000) * (1e12 / 5e6 + 29 * 30)
    assert metrics.dollars_per_tbscan(TAPE) == pytest.approx(expected)
    assert metrics.dollars_per_tbscan(TAPE) == pytest.approx(21.2, abs=0.1)


def test_metric_report_disk_column():
    rep = metrics.metric_report(DISK)
    assert rep.device == "table8_disk"
    assert rep.kaps == pytest.approx(98.0, abs=0.1)
    assert rep.maps == pytest.approx(4.76, abs=0.01)
    assert rep.scan_s == pytest.approx(1800)
    assert rep.dollars_per_kaps == pytest.approx(2.16e-7, rel=0.01)
    assert rep.dollars_per_maps == pytest.approx(4.4e-6, rel=0.01)
    assert rep.dollars_per_tbscan == pytest.approx(4.23, abs=0.01)


def test_metric_report_ram_dollar_per_kaps():
    rep = metrics.metric_report(RAM)
    assert rep.dollars_per_kaps == pytest.approx(3.3e-10, rel=0.02)


def test_table8_reports_cover_the_trio():
    names = [r.device for r in metrics.table8_reports()]
    assert names == ["table8_ram", "table8_disk", "table8_tape_robot"]


def test_rent_model_validation():
    for period in (0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            RentModel(depreciation_s=period)


device_specs = st.builds(
    lambda price, cap, lat, bw: devices.DiskSpec("d", price, cap, lat, bw,
                                                 min(1.0 / lat, 100.0)),
    st.floats(min_value=1, max_value=1e6),
    st.floats(min_value=1e6, max_value=1e15),
    st.floats(min_value=1e-4, max_value=10),
    st.floats(min_value=1e3, max_value=1e12),
)


@given(device_specs)
def test_kaps_never_below_maps(dev):
    assert metrics.kaps(dev) >= metrics.maps(dev)


@given(device_specs)
def test_rate_identities_and_depreciation_halving(dev):
    rep = metrics.metric_report(dev)
    rate = metrics.dollar_rate(dev.price_dollars)
    assert rep.dollars_per_kaps * rep.kaps == pytest.approx(rate, rel=1e-12)
    assert rep.dollars_per_maps * rep.maps == pytest.approx(rate, rel=1e-12)
    doubled = metrics.metric_report(dev, RentModel(2.0 * float(metrics.THREE_YEARS_S)))
    assert doubled.dollars_per_kaps == rep.dollars_per_kaps / 2
    assert doubled.dollars_per_maps == rep.dollars_per_maps / 2
    assert doubled.dollars_per_tbscan == rep.dollars_per_tbscan / 2


@given(st.floats(min_value=1e6, max_value=1e15))
def test_scan_linear_in_capacity(capacity):
    small = devices.DiskSpec("s", 1, capacity, 0.01, 1e7, 64)
    big = devices.DiskSpec("b", 1, 2 * capacity, 0.01, 1e7, 64)
    assert metrics.scan_seconds(big) == 2 * metrics.scan_seconds(small)
