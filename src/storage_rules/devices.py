"""Storage device descriptions, 1997-era reference presets, and device files.

Conventions: capacities and bandwidths are decimal SI (1 GB = 1e9 bytes,
1 MB/s = 1e6 B/s) -- the reference devices' published scan times (9 GB at
5 MB/s = 30 minutes) only come out under decimal units.  Prices fold
cabinet/controller amortization into a single number.

A device is one record of its kind (RamSpec, DiskSpec, TapeRobotSpec):
its first field is the name, its class attribute ``kind`` the device-file
kind.  Records are namedtuples that validate their fields when built:
immutable, so safe to share across threads, and preset lookups return
the shared instances rather than copies.  Being tuples, they unpack and
index, and they compare equal to any tuple with equal fields, a record
of another type included.
"""
from __future__ import annotations

import math
import re
from collections import namedtuple


class UnknownPresetError(ValueError):
    """Raised when a preset name is not in the catalog."""


class DeviceFileError(ValueError):
    """Raised for malformed device files; the message names the offending line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")


def _check_fields(obj, *names: str) -> None:
    """Require each named field finite and > 0, a bandwidth that moves 1 MB
    in finite time, and a full scan (scan_seconds) that ends."""
    for name in names:
        value = getattr(obj, name)
        if not 0 < value < math.inf:  # also false for NaN
            raise ValueError(f"{type(obj).__name__}.{name} must be finite and > 0, got {value!r}")
    if 1e6 / obj.bandwidth_bps == math.inf:
        raise ValueError(f"{type(obj).__name__}.bandwidth_bps {obj.bandwidth_bps!r} is too "
                         f"small to transfer 1 MB in finite time")
    if scan_seconds(obj) == math.inf:
        raise ValueError(f"{type(obj).__name__} would take an infinite time to scan in full")


# price_per_mb in $/MB; bandwidth_bps in bytes/s
class RamSpec(namedtuple("RamSpec", "name price_per_mb unit_capacity_bytes latency_s "
                                    "bandwidth_bps")):
    __slots__ = ()
    kind = "ram"

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        # price_dollars last: it underflows to 0 when both factors are tiny
        _check_fields(self, "price_per_mb", "unit_capacity_bytes",
                      "latency_s", "bandwidth_bps", "price_dollars")
        return self

    @property
    def price_dollars(self) -> float:
        """Total unit price: $/MB times capacity in decimal megabytes."""
        return self.price_per_mb * self.unit_capacity_bytes / 1e6


# price_dollars: drive + amortized cabinet/controller; latency_s: average
# seek + rotation; bandwidth_bps: sequential, bytes/s; accesses_per_sec:
# rated random accesses/s at the rated page size
class DiskSpec(namedtuple("DiskSpec", "name price_dollars capacity_bytes latency_s "
                                      "bandwidth_bps accesses_per_sec")):
    __slots__ = ()
    kind = "disk"

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        _check_fields(self, "price_dollars", "capacity_bytes",
                      "latency_s", "bandwidth_bps", "accesses_per_sec")
        if self.accesses_per_sec > 1.0 / self.latency_s:
            raise ValueError(
                f"DiskSpec.accesses_per_sec ({self.accesses_per_sec}) exceeds "
                f"1/latency_s ({1.0 / self.latency_s:.6g})")
        return self


# mount_time_s: full rewind/unmount/pick/mount/position cycle
class TapeRobotSpec(namedtuple("TapeRobotSpec", "name price_dollars tape_count "
                                                "tape_capacity_bytes mount_time_s bandwidth_bps")):
    __slots__ = ()
    kind = "tape_robot"

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        _check_fields(self, "price_dollars", "tape_count",
                      "tape_capacity_bytes", "mount_time_s", "bandwidth_bps")
        return self

    @property
    def total_capacity_bytes(self) -> float:
        return self.tape_count * self.tape_capacity_bytes


DeviceSpec = RamSpec | DiskSpec | TapeRobotSpec


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


# kind -> record class: the device-file `kind` key
_FIELDS_BY_KIND: dict[str, type] = {cls.kind: cls for cls in (RamSpec, DiskSpec, TapeRobotSpec)}
# record fields a device file must give as whole numbers
_INTEGER_KEYS = frozenset({"tape_count"})


# 1997 benchmark-system presets.  Each system pairs a disk with the RAM
# pricing quoted for the same machine; the <name>_ram companion carries
# the RAM side.  Where a system's disclosure only quotes prices, the
# physical profile (10 ms, 10 MB/s, 64 a/s at 8 KB pages, 1 GB RAM
# modules at 0.1 us / 500 MB/s) is the common 1997 server profile of the
# fully-specified Dell system.
_DELL_DISK = dict(capacity_bytes=9e9, latency_s=0.01, bandwidth_bps=10e6,
                  accesses_per_sec=64)
_RAM_MODULE = dict(unit_capacity_bytes=1e9, latency_s=0.1e-6, bandwidth_bps=500e6)

_PRESETS: dict[str, DeviceSpec] = {dev.name: dev for dev in [
    DiskSpec("dell_tpcc_1997", price_dollars=2000, **_DELL_DISK),
    RamSpec("dell_tpcc_1997_ram", price_per_mb=15, **_RAM_MODULE),
    DiskSpec("sun_oracle_1997", price_dollars=1690, capacity_bytes=4e9,
             latency_s=0.01, bandwidth_bps=10e6, accesses_per_sec=64),
    RamSpec("sun_oracle_1997_ram", price_per_mb=13, **_RAM_MODULE),
    DiskSpec("mainframe_1997", price_dollars=12000, **_DELL_DISK),
    RamSpec("mainframe_1997_ram", price_per_mb=130, **_RAM_MODULE),
    DiskSpec("compaq_tpcc_1997", price_dollars=3129, **_DELL_DISK),
    RamSpec("compaq_tpcc_1997_ram", price_per_mb=47, **_RAM_MODULE),
    # DLT autoloader, quoted twice at different prices; both are kept.
    TapeRobotSpec("table4_dlt_robot", price_dollars=9000, tape_count=14,
                  tape_capacity_bytes=35e9, mount_time_s=30, bandwidth_bps=5e6),
    # High-performance device trio used by the metrics tabulation.
    RamSpec("table8_ram", price_per_mb=15, **_RAM_MODULE),
    DiskSpec("table8_disk", price_dollars=2000, capacity_bytes=9e9,
             latency_s=0.01, bandwidth_bps=5e6, accesses_per_sec=64),
    TapeRobotSpec("table8_tape_robot", price_dollars=10000, tape_count=14,
                  tape_capacity_bytes=35e9, mount_time_s=30, bandwidth_bps=5e6),
]}


def preset_names() -> list[str]:
    return list(_PRESETS)


def preset(name: str) -> DeviceSpec:
    """Look up a published device preset by name.

    Benchmark-system names (dell_tpcc_1997, ...) resolve to the system's
    disk; the paired RAM pricing lives under <name>_ram (see
    ram_companion).
    """
    try:
        return _PRESETS[name]
    except KeyError:
        raise UnknownPresetError(
            f"unknown preset {name!r}; valid presets: {', '.join(_PRESETS)}") from None


def ram_companion(name: str) -> RamSpec | None:
    """RAM module priced with the named benchmark system, if there is one."""
    return _PRESETS.get(f"{name}_ram")


# --- device file grammar -------------------------------------------------
#
#   # comment
#   [device]
#   name = fast_disk
#   kind = disk
#   price_dollars = 2000
#   capacity_bytes = 9e9
#   ...
#
# Blocks start with `[device]`; keys are the field names of the kind's
# record.  Numbers accept scientific notation.

_KEY_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(.+?)\s*$")


def _build_device(block: dict[str, str], start_line: int) -> DeviceSpec:
    name = block.pop("name", None)
    kind = block.pop("kind", None)
    if name is None:
        raise DeviceFileError("device block is missing 'name'", start_line)
    if kind not in _FIELDS_BY_KIND:
        raise DeviceFileError(
            f"device {name!r} has missing or unknown kind {kind!r} "
            f"(expected one of {', '.join(_FIELDS_BY_KIND)})", start_line)
    spec_cls = _FIELDS_BY_KIND[kind]
    expected = spec_cls._fields[1:]
    values: dict[str, float | int] = {}
    for key, raw in block.items():
        if key not in expected:
            raise DeviceFileError(
                f"device {name!r}: unknown key {key!r} for kind {kind!r}", start_line)
        try:
            num = float(raw)
        except ValueError:
            raise DeviceFileError(
                f"device {name!r}: {key} = {raw!r} is not a number", start_line) from None
        if key in _INTEGER_KEYS:
            if not num.is_integer():  # also false for NaN and infinities
                raise DeviceFileError(f"device {name!r}: {spec_cls.__name__}.{key} must be "
                                      f"an integer, got {raw!r}", start_line)
            values[key] = int(num)
        else:
            values[key] = num
    missing = sorted(set(expected) - set(values))
    if missing:
        raise DeviceFileError(
            f"device {name!r}: missing keys {', '.join(missing)}", start_line)
    try:
        return spec_cls(name, **values)
    except ValueError as err:
        raise DeviceFileError(f"device {name!r}: {err}", start_line) from None


def parse_device_file(text: str) -> list[DeviceSpec]:
    devices: list[DeviceSpec] = []
    block: dict[str, str] | None = None
    block_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "[device]":
            if block is not None:
                devices.append(_build_device(block, block_line))
            block, block_line = {}, lineno
            continue
        if line.startswith("["):
            raise DeviceFileError(f"unknown section {line!r}", lineno)
        m = _KEY_RE.match(line)
        if m is None:
            raise DeviceFileError(f"expected 'key = value', got {raw.strip()!r}", lineno)
        if block is None:
            raise DeviceFileError("key/value pair outside a [device] block", lineno)
        if m.group(1) in block:
            raise DeviceFileError(f"duplicate key {m.group(1)!r}", lineno)
        block[m.group(1)] = m.group(2)
    if block is not None:
        devices.append(_build_device(block, block_line))
    return devices


def load_device_file(path) -> list[DeviceSpec]:
    """Parse a device file into validated device records."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_device_file(fh.read())

