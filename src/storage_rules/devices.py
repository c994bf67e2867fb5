"""Storage device descriptions, 1997-era reference presets, and device files.

Conventions: capacities and bandwidths are decimal SI (1 GB = 1e9 bytes,
1 MB/s = 1e6 B/s) -- the reference devices' published scan times (9 GB at
5 MB/s = 30 minutes) only come out under decimal units.  Prices fold
cabinet/controller amortization into a single number.

All spec objects are frozen dataclasses: safe to share across threads,
and preset lookups return the shared instances rather than copies.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, fields


class UnknownPresetError(ValueError):
    """Raised when a preset name is not in the catalog."""


class DeviceFileError(ValueError):
    """Raised for malformed device files; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


def _require_positive(obj, *names: str) -> None:
    for name in names:
        value = getattr(obj, name)
        if not value > 0:
            raise ValueError(f"{type(obj).__name__}.{name} must be > 0, got {value!r}")


@dataclass(frozen=True)
class RamSpec:
    price_per_mb: float        # $/MB
    unit_capacity_bytes: float
    latency_s: float
    bandwidth_bps: float       # bytes/s

    def __post_init__(self):
        _require_positive(self, "price_per_mb", "unit_capacity_bytes",
                          "latency_s", "bandwidth_bps")

    @property
    def price_dollars(self) -> float:
        """Total unit price: $/MB times capacity in decimal megabytes."""
        return self.price_per_mb * self.unit_capacity_bytes / 1e6


@dataclass(frozen=True)
class DiskSpec:
    price_dollars: float       # drive + amortized cabinet/controller
    capacity_bytes: float
    latency_s: float           # average seek + rotation
    bandwidth_bps: float       # sequential, bytes/s
    accesses_per_sec: float    # rated random accesses/s at the rated page size

    def __post_init__(self):
        _require_positive(self, "price_dollars", "capacity_bytes",
                          "latency_s", "bandwidth_bps", "accesses_per_sec")
        if self.accesses_per_sec > 1.0 / self.latency_s:
            raise ValueError(
                f"DiskSpec.accesses_per_sec ({self.accesses_per_sec}) exceeds "
                f"1/latency_s ({1.0 / self.latency_s:.6g})")


@dataclass(frozen=True)
class TapeRobotSpec:
    price_dollars: float
    tape_count: int
    tape_capacity_bytes: float
    mount_time_s: float        # full rewind/unmount/pick/mount/position cycle
    bandwidth_bps: float

    def __post_init__(self):
        _require_positive(self, "price_dollars", "tape_count",
                          "tape_capacity_bytes", "mount_time_s", "bandwidth_bps")

    @property
    def total_capacity_bytes(self) -> float:
        return self.tape_count * self.tape_capacity_bytes


Payload = RamSpec | DiskSpec | TapeRobotSpec

# kind -> payload class: the device-file `kind` key and DeviceSpec.kind
_FIELDS_BY_KIND: dict[str, type] = {"ram": RamSpec, "disk": DiskSpec,
                                    "tape_robot": TapeRobotSpec}
_KIND_FOR_PAYLOAD = {cls: kind for kind, cls in _FIELDS_BY_KIND.items()}


@dataclass(frozen=True)
class DeviceSpec:
    name: str
    kind: str                  # ram | disk | tape_robot
    spec: Payload

    def __post_init__(self):
        expected = _KIND_FOR_PAYLOAD.get(type(self.spec))
        if expected is None:
            raise ValueError(f"unsupported payload type {type(self.spec).__name__}")
        if self.kind != expected:
            raise ValueError(f"kind {self.kind!r} does not match payload {expected!r}")

    @property
    def price_dollars(self) -> float:
        return self.spec.price_dollars


def _ram(name: str, **kw) -> DeviceSpec:
    return DeviceSpec(name, "ram", RamSpec(**kw))


def _disk(name: str, **kw) -> DeviceSpec:
    return DeviceSpec(name, "disk", DiskSpec(**kw))


def _robot(name: str, **kw) -> DeviceSpec:
    return DeviceSpec(name, "tape_robot", TapeRobotSpec(**kw))


# 1997 benchmark-system presets.  Each system pairs a disk with the RAM
# pricing quoted for the same machine; the <name>_ram companion carries
# the RAM side.  Where a system's disclosure only quotes prices, the
# physical profile (10 ms, 10 MB/s, 64 a/s at 8 KB pages, 1 GB RAM
# modules at 0.1 us / 500 MB/s) is the common 1997 server profile of the
# fully-specified Dell system.
_DELL_DISK = dict(capacity_bytes=9e9, latency_s=0.01, bandwidth_bps=10e6,
                  accesses_per_sec=64)
_RAM_MODULE = dict(unit_capacity_bytes=1e9, latency_s=0.1e-6, bandwidth_bps=500e6)

_PRESETS: dict[str, DeviceSpec] = {}
for _dev in [
    _disk("dell_tpcc_1997", price_dollars=2000, **_DELL_DISK),
    _ram("dell_tpcc_1997_ram", price_per_mb=15, **_RAM_MODULE),
    _disk("sun_oracle_1997", price_dollars=1690, capacity_bytes=4e9,
          latency_s=0.01, bandwidth_bps=10e6, accesses_per_sec=64),
    _ram("sun_oracle_1997_ram", price_per_mb=13, **_RAM_MODULE),
    _disk("mainframe_1997", price_dollars=12000, **_DELL_DISK),
    _ram("mainframe_1997_ram", price_per_mb=130, **_RAM_MODULE),
    _disk("compaq_tpcc_1997", price_dollars=3129, **_DELL_DISK),
    _ram("compaq_tpcc_1997_ram", price_per_mb=47, **_RAM_MODULE),
    # DLT autoloader, quoted twice at different prices; both are kept.
    _robot("table4_dlt_robot", price_dollars=9000, tape_count=14,
           tape_capacity_bytes=35e9, mount_time_s=30, bandwidth_bps=5e6),
    # High-performance device trio used by the metrics tabulation.
    _ram("table8_ram", price_per_mb=15, **_RAM_MODULE),
    _disk("table8_disk", price_dollars=2000, capacity_bytes=9e9,
          latency_s=0.01, bandwidth_bps=5e6, accesses_per_sec=64),
    _robot("table8_tape_robot", price_dollars=10000, tape_count=14,
           tape_capacity_bytes=35e9, mount_time_s=30, bandwidth_bps=5e6),
]:
    _PRESETS[_dev.name] = _dev


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
    companion = _PRESETS.get(f"{name}_ram")
    return companion.spec if companion is not None else None


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
# spec dataclass.  Numbers accept scientific notation.

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
    expected = {f.name: f for f in fields(spec_cls)}
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
        if expected[key].type in ("int", int):
            if num != int(num):
                raise ValueError(f"{spec_cls.__name__}.{key} must be an integer, got {raw!r}")
            values[key] = int(num)
        else:
            values[key] = num
    missing = sorted(set(expected) - set(values))
    if missing:
        raise DeviceFileError(
            f"device {name!r}: missing keys {', '.join(missing)}", start_line)
    return DeviceSpec(name, kind, spec_cls(**values))


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
    """Parse a device file into validated DeviceSpec values."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_device_file(fh.read())


def serialize_devices(devices: list[DeviceSpec]) -> str:
    """Render devices back into the device-file grammar.

    Floats use repr, so parse -> serialize -> parse is an exact round
    trip.
    """
    chunks = []
    for dev in devices:
        lines = ["[device]", f"name = {dev.name}", f"kind = {dev.kind}"]
        for f in fields(dev.spec):
            lines.append(f"{f.name} = {getattr(dev.spec, f.name)!r}")
        chunks.append("\n".join(lines))
    return "\n\n".join(chunks) + ("\n" if chunks else "")
