import pytest
from hypothesis import given, strategies as st

from storage_rules import devices


def test_all_presets_valid():
    names = devices.preset_names()
    assert len(names) >= 8
    for name in names:
        dev = devices.preset(name)
        assert dev.name == name
        assert dev.kind in ("ram", "disk", "tape_robot")


def test_dell_preset_pairs_disk_and_ram_pricing():
    dev = devices.preset("dell_tpcc_1997")
    assert dev.kind == "disk"
    assert dev.price_dollars == 2000
    assert dev.capacity_bytes == 9e9
    assert dev.latency_s == 0.01
    assert dev.bandwidth_bps == 10e6
    assert dev.accesses_per_sec == 64
    ram = devices.ram_companion("dell_tpcc_1997")
    assert ram is not None and ram.price_per_mb == 15


def test_benchmark_system_prices():
    assert devices.preset("sun_oracle_1997").price_dollars == 1690
    assert devices.preset("sun_oracle_1997").capacity_bytes == 4e9
    assert devices.ram_companion("sun_oracle_1997").price_per_mb == 13
    assert devices.preset("mainframe_1997").price_dollars == 12000
    assert devices.ram_companion("mainframe_1997").price_per_mb == 130
    assert devices.preset("compaq_tpcc_1997").price_dollars == 3129
    assert devices.ram_companion("compaq_tpcc_1997").price_per_mb == 47


def test_tape_robot_presets():
    t8 = devices.preset("table8_tape_robot")
    assert t8.price_dollars == 10000
    assert t8.tape_count == 14
    assert t8.tape_capacity_bytes == 35e9
    assert t8.total_capacity_bytes == 490e9
    assert t8.mount_time_s == 30
    assert t8.bandwidth_bps == 5e6
    t4 = devices.preset("table4_dlt_robot")
    assert t4.price_dollars == 9000  # quoted lower than the metrics-table price


def test_table8_ram_and_disk():
    ram = devices.preset("table8_ram")
    assert ram.unit_capacity_bytes == 1e9
    assert ram.price_dollars == 15000
    assert ram.latency_s == 0.1e-6
    assert ram.bandwidth_bps == 500e6
    disk = devices.preset("table8_disk")
    assert (disk.price_dollars, disk.capacity_bytes, disk.bandwidth_bps) == (2000, 9e9, 5e6)


def test_unknown_preset_lists_names():
    with pytest.raises(devices.UnknownPresetError, match="no_such_device"):
        devices.preset("no_such_device")
    with pytest.raises(devices.UnknownPresetError, match="dell_tpcc_1997"):
        devices.preset("no_such_device")


def test_spec_invariants():
    with pytest.raises(ValueError, match="latency_s"):
        devices.DiskSpec("x", 2000, 9e9, 0, 1e7, 64)
    with pytest.raises(ValueError, match="accesses_per_sec"):
        devices.DiskSpec("x", 2000, 9e9, 0.02, 1e7, 64)  # 64 > 1/0.02
    with pytest.raises(ValueError, match="price_per_mb"):
        devices.RamSpec("x", 0, 1e9, 1e-7, 5e8)
    with pytest.raises(ValueError, match="tape_count"):
        devices.TapeRobotSpec("x", 9000, 0, 35e9, 30, 5e6)


DISK_BLOCK = """\
# one plain disk
[device]
name = plain_disk
kind = disk
price_dollars = 2000
capacity_bytes = 9e9
latency_s = 0.01
bandwidth_bps = 1e7
accesses_per_sec = 64
"""


def test_parse_single_disk_block():
    (dev,) = devices.parse_device_file(DISK_BLOCK)
    assert dev.name == "plain_disk"
    assert dev.kind == "disk"
    assert dev == devices.DiskSpec("plain_disk", 2000, 9e9, 0.01, 1e7, 64)


def test_parse_empty_file():
    assert devices.parse_device_file("") == []
    assert devices.parse_device_file("# only a comment\n\n") == []


def test_parse_invariant_violation_names_field():
    bad = DISK_BLOCK.replace("latency_s = 0.01", "latency_s = 0")
    with pytest.raises(ValueError, match="latency_s"):
        devices.parse_device_file(bad)


@pytest.mark.parametrize("text, fragment", [
    ("price = 1\n", "outside a"),
    ("[device]\nname fast\n", "key = value"),
    ("[device]\nname = d\nkind = floppy\n", "kind"),
    ("[device]\nkind = disk\nprice_dollars = 1\n", "missing 'name'"),
    ("[device]\nname = d\nkind = ram\nprice_dollars = 1\n",
     "unknown key 'price_dollars' for kind 'ram'"),
    ("[device]\nname = d\nkind = disk\nprice_dollars = abc\n", "not a number"),
    ("[device]\nname = d\nkind = disk\nprice_dollars = 1\n", "missing keys"),
    ("[device]\nname = d\nname = e\nkind = disk\n", "duplicate"),
    ("[weird]\n", "unknown section"),
])
def test_parse_errors_carry_line_numbers(text, fragment):
    with pytest.raises(devices.DeviceFileError, match=fragment) as err:
        devices.parse_device_file(text)
    assert "line" in str(err.value)


def test_load_device_file(tmp_path):
    path = tmp_path / "catalog.txt"
    path.write_text(DISK_BLOCK, encoding="utf-8")
    (dev,) = devices.load_device_file(path)
    assert dev.price_dollars == 2000


def serialize_devices(catalog) -> str:
    """Render devices back into the device-file grammar.

    Floats use repr, so parse -> serialize -> parse is an exact round
    trip.
    """
    chunks = []
    for dev in catalog:
        lines = ["[device]", f"name = {dev.name}", f"kind = {dev.kind}"]
        for key, value in dev._asdict().items():
            if key != "name":
                lines.append(f"{key} = {value!r}")
        chunks.append("\n".join(lines))
    return "\n\n".join(chunks) + ("\n" if chunks else "")


positive = st.floats(min_value=1e-6, max_value=1e15, allow_nan=False,
                     allow_infinity=False)


@given(price=positive, capacity=positive, latency=positive, bandwidth=positive,
       count=st.integers(min_value=1, max_value=1000))
def test_serialize_parse_round_trip(price, capacity, latency, bandwidth, count):
    catalog = [
        devices.RamSpec("r0", price, capacity, latency, bandwidth),
        devices.DiskSpec("d0", price, capacity, latency, bandwidth, 1.0 / latency),
        devices.TapeRobotSpec("t0", price, count, capacity, latency, bandwidth),
    ]
    again = devices.parse_device_file(serialize_devices(catalog))
    assert [(dev.kind, dev) for dev in again] == [(dev.kind, dev) for dev in catalog]


def test_preset_round_trip_through_device_file():
    catalog = [devices.preset(name) for name in devices.preset_names()]
    again = devices.parse_device_file(serialize_devices(catalog))
    assert [(dev.kind, dev) for dev in again] == [(dev.kind, dev) for dev in catalog]
