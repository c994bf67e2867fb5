"""Device throughput/price metrics: Kaps, Maps, scan time, and rent forms.

Kaps and Maps are the kilobyte and megabyte random accesses per second a
device sustains (latency plus transfer; a tape robot pays a full mount
per access).  Scan is the time to stream the whole device.  Dividing the
device rent (price depreciated over three years) by each rate gives
$/Kaps and $/Maps; $/TBscan is the rent accrued while streaming one
terabyte.

Everything here is decimal SI: KB = 1000 bytes, MB = 1e6, TB = 1e12.
"""
from __future__ import annotations

import math
from collections import namedtuple

from .devices import DeviceSpec, RamSpec, TapeRobotSpec

THREE_YEARS_S = 3 * 365 * 86400  # 94,608,000 s

KB = 1e3
MB = 1e6
TB = 1e12


class RentModel(namedtuple("RentModel", "depreciation_s", defaults=(float(THREE_YEARS_S),))):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 0 < self.depreciation_s < math.inf:  # also false for NaN
            raise ValueError(f"depreciation_s must be finite and > 0, got {self.depreciation_s}")
        return self


MetricReport = namedtuple("MetricReport", "device kaps maps scan_s dollars_per_kaps "
                                          "dollars_per_maps dollars_per_tbscan")


def access_rate(device: DeviceSpec, nbytes: float) -> float:
    """Random accesses per second of nbytes each: latency (a tape mount) plus transfer."""
    latency = device.mount_time_s if isinstance(device, TapeRobotSpec) else device.latency_s
    return 1.0 / (latency + nbytes / device.bandwidth_bps)


def kaps(device: DeviceSpec) -> float:
    """Kilobyte accesses per second."""
    return access_rate(device, KB)


def maps(device: DeviceSpec) -> float:
    """Megabyte accesses per second."""
    return access_rate(device, MB)


def scan_seconds(device: DeviceSpec) -> float:
    """Time to sequentially read or write everything the device holds.

    A tape robot mounts every tape once and streams each in full.
    """
    if isinstance(device, TapeRobotSpec):
        return device.tape_count * (device.tape_capacity_bytes / device.bandwidth_bps
                                    + device.mount_time_s)
    if isinstance(device, RamSpec):
        return device.unit_capacity_bytes / device.bandwidth_bps
    return device.capacity_bytes / device.bandwidth_bps


def dollar_rate(price_dollars: float, rent: RentModel = RentModel()) -> float:
    """Device rent in dollars per second of its depreciation life."""
    if not price_dollars > 0:
        raise ValueError("price_dollars must be > 0")
    rate = price_dollars / rent.depreciation_s
    if rate == math.inf:
        raise ValueError(f"the rent of {price_dollars} $ over {rent.depreciation_s} s overflows")
    return rate


def dollars_per_tbscan(device: DeviceSpec, rent: RentModel = RentModel()) -> float:
    """Rent accrued while streaming one terabyte through the device."""
    stream_s = TB / device.bandwidth_bps
    if isinstance(device, TapeRobotSpec):
        mounts = TB / device.tape_capacity_bytes  # inf for a tape too small to count
        stream_s += (math.ceil(mounts) if mounts < math.inf else mounts) * device.mount_time_s
    return dollar_rate(device.price_dollars, rent) * stream_s


def metric_report(device: DeviceSpec, rent: RentModel = RentModel()) -> MetricReport:
    rate = dollar_rate(device.price_dollars, rent)
    k, m = kaps(device), maps(device)
    return MetricReport(
        device=device.name,
        kaps=k,
        maps=m,
        scan_s=scan_seconds(device),
        dollars_per_kaps=rate / k,
        dollars_per_maps=rate / m,
        dollars_per_tbscan=dollars_per_tbscan(device, rent),
    )


def table8_reports(rent: RentModel = RentModel()) -> list[MetricReport]:
    """Metric reports for the high-performance RAM/disk/tape-robot trio."""
    from .devices import preset

    return [metric_report(preset(name), rent)
            for name in ("table8_ram", "table8_disk", "table8_tape_robot")]
