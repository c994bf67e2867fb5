import contextlib
import hashlib
import io
import os
import resource
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

from storage_rules import bufferpool, devices
from storage_rules.cli import main


def run(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def csv_rows(text):
    lines = text.strip("\n").split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def source_env():
    """The environment of a fresh interpreter that imports this source tree."""
    src = os.path.dirname(os.path.dirname(bufferpool.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def run_cold(*argv, address_space=None):
    """Run ``python <argv>`` in a fresh interpreter that imports this source tree.

    address_space caps the child's virtual memory in bytes, so that a
    huge allocation fails at once even where the host overcommits.
    """
    limit = None
    if address_space is not None:
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))
    return subprocess.run([sys.executable, *argv], env=source_env(), capture_output=True,
                          text=True, timeout=30, preexec_fn=limit)


def test_breakeven_dell_preset():
    code, out = run("breakeven", "--device", "dell_tpcc_1997", "--format", "csv")
    assert code == 0
    header, ((tech, econ, interval),) = csv_rows(out)
    assert header == ["technology_ratio", "economic_ratio", "interval_s"]
    assert float(tech) == pytest.approx(2.0)
    assert float(econ) == pytest.approx(133.333, abs=0.001)
    assert float(interval) == pytest.approx(266.667, abs=0.001)
    # the table's summary line, in the form perfbench's cli-analytic check parses
    code, out = run("breakeven", "--device", "dell_tpcc_1997")
    summary = [line for line in out.splitlines() if line.startswith("break-even")]
    assert code == 0 and len(summary) == 1
    assert summary[0].split(":", 1)[1].split()[0] == "266.667"


def test_breakeven_explicit_unit_inputs():
    code, out = run("breakeven", "--pages-per-mb", "1", "--accesses-per-sec", "1",
                    "--device-price", "1", "--ram-price", "1", "--format", "csv")
    assert code == 0
    _, ((_, _, interval),) = csv_rows(out)
    assert float(interval) == 1.0


@pytest.mark.parametrize("price, summary", [
    ("60", "break-even: 60 s (60.0 seconds)"),
    ("7199", "break-even: 7199 s (120.0 minutes)"),
    ("36000", "break-even: 36000 s (10.0 hours)"),
    ("172800", "break-even: 172800 s (2.0 days)"),
    ("86399913600", "break-even: 8.63999e+10 s (999999.0 days)"),
    ("86400000000", "break-even: 8.64e+10 s (1e+06 days)"),
    ("1e300", "break-even: 1e+300 s (1.15741e+295 days)"),
])
def test_breakeven_summary_picks_its_unit(price, summary):
    code, out = run("breakeven", "--pages-per-mb", "1", "--accesses-per-sec", "1",
                    "--device-price", price, "--ram-price", "1")
    assert code == 0 and out.splitlines()[-1] == summary


def test_breakeven_tape_notes_published_two_months():
    code, out = run("breakeven", "--device", "table8_tape_robot",
                    "--page-bytes", "8192")
    assert code == 0
    assert "2.56014e+06" in out
    assert "note:" in out and "two months" in out


def test_breakeven_sun_uses_companion_ram_price():
    code, out = run("breakeven", "--device", "sun_oracle_1997", "--format", "csv")
    assert code == 0
    _, ((_, econ, interval),) = csv_rows(out)
    assert float(econ) == pytest.approx(1690 / 13)
    assert float(interval) == pytest.approx(260.0, abs=0.01)


def test_breakeven_raid5_quadruples_write_interval():
    base = float(csv_rows(run("breakeven", "--device", "dell_tpcc_1997",
                              "--format", "csv")[1])[1][0][2])
    raided = float(csv_rows(run("breakeven", "--device", "dell_tpcc_1997",
                                "--raid", "5", "--write-fraction", "1.0",
                                "--format", "csv")[1])[1][0][2])
    assert raided == pytest.approx(4 * base, rel=1e-5)  # both sides 6-sig-digit CSV


@pytest.mark.parametrize("flag", ["--write-fraction=0.5", "--write-fraction=7",
                                  "--raid-read-mult=-1", "--raid-write-mult=2"])
@pytest.mark.parametrize("raid", [[], ["--raid", "none"]], ids=["default", "stated"])
def test_raid_flags_without_a_raid_level_exit_2(capsys, raid, flag):
    assert run("breakeven", "--device", "dell_tpcc_1997", *raid, flag) == (2, "")
    assert capsys.readouterr().err == ("error: --write-fraction, --raid-read-mult and "
                                       "--raid-write-mult apply to --raid 1 or 5\n")
    # with a level, an unstated --write-fraction still means all reads
    assert (run("breakeven", "--device", "dell_tpcc_1997", "--raid", "5")
            == run("breakeven", "--device", "dell_tpcc_1997", "--raid", "5",
                   "--write-fraction", "0"))


def test_breakeven_flag_errors_exit_2():
    assert run("breakeven")[0] == 2  # neither device nor explicit params
    assert run("breakeven", "--device", "no_such_device")[0] == 2
    assert run("breakeven", "--device", "table8_ram")[0] == 2
    assert main(["breakeven", "--raid", "7"]) == 2  # argparse rejects the choice


def test_breakeven_from_device_file(tmp_path):
    path = tmp_path / "mine.device"
    path.write_text(
        "[device]\nname = d\nkind = disk\nprice_dollars = 2000\n"
        "capacity_bytes = 9e9\nlatency_s = 0.01\nbandwidth_bps = 1e7\n"
        "accesses_per_sec = 64\n", encoding="utf-8")
    code, out = run("breakeven", "--device", str(path), "--format", "csv")
    assert code == 0
    assert float(csv_rows(out)[1][0][2]) == pytest.approx(266.667, abs=0.001)


def test_breakeven_malformed_device_file_exits_3(tmp_path):
    path = tmp_path / "broken.device"
    path.write_text("[device]\nname = d\nkind = disk\n", encoding="utf-8")
    assert run("breakeven", "--device", str(path))[0] == 3
    assert run("metrics", "--device", str(path)) == (3, "")
    assert run("breakeven", "--device", str(tmp_path)) == (3, "")  # a directory


# Valid fields of each device kind, as a device file spells them.
DEVICE_FIELDS = {
    "ram": {"price_per_mb": "15", "unit_capacity_bytes": "1e9", "latency_s": "1e-7",
            "bandwidth_bps": "5e8"},
    "disk": {"price_dollars": "2000", "capacity_bytes": "9e9", "latency_s": "0.01",
             "bandwidth_bps": "1e7", "accesses_per_sec": "64"},
    "tape_robot": {"price_dollars": "9000", "tape_count": "14", "tape_capacity_bytes": "35e9",
                   "mount_time_s": "30", "bandwidth_bps": "5e6"},
}


def device_block(name, kind, **changes):
    """A [device] block of the kind's valid fields, with changes applied."""
    fields = {**DEVICE_FIELDS[kind], **changes}
    return "".join([f"[device]\nname = {name}\nkind = {kind}\n",
                    *(f"{key} = {value}\n" for key, value in fields.items())])


@pytest.mark.parametrize("kind, changes", [
    ("ram", {"latency_s": "inf"}),
    ("ram", {"price_per_mb": "1e-300", "unit_capacity_bytes": "1e-300"}),  # price 0.0
    ("tape_robot", {"mount_time_s": "inf"}),
    ("tape_robot", {"tape_count": "inf"}),
    ("tape_robot", {"tape_count": "1e400"}),
    ("tape_robot", {"tape_count": "2.5"}),
    ("tape_robot", {"tape_count": "nan"}),
    ("disk", {"price_dollars": "inf"}),
    ("disk", {"bandwidth_bps": "1e-310"}),  # 1 MB would take an infinite time
    ("disk", {"bandwidth_bps": "1e-300"}),  # 9e9 bytes would take an infinite time
    ("tape_robot", {"bandwidth_bps": "1e-300"}),
])
def test_bad_device_values_exit_3_at_the_block_line(tmp_path, capsys, kind, changes):
    path = tmp_path / "bad.device"
    path.write_text("# one device\n" + device_block("x", kind, **changes), encoding="utf-8")
    for command in ("metrics", "breakeven"):
        assert run(command, "--device", str(path)) == (3, "")
        (err,) = capsys.readouterr().err.splitlines()
        assert err.startswith(f"error: {path}: line 2: device 'x': "), err


def test_metrics_of_tapes_too_small_to_count_scans_a_terabyte_in_infinite_time(tmp_path):
    # a terabyte takes 1e312 tapes, a count that no int conversion survives
    path = tmp_path / "dust.device"
    path.write_text(device_block("t", "tape_robot", tape_capacity_bytes="1e-300"),
                    encoding="utf-8")
    code, out = run("metrics", "--device", str(path), "--format", "csv")
    assert code == 0
    header, (row,) = csv_rows(out)
    assert dict(zip(header, row))["dollars_per_tbscan"] == "inf"


def test_device_file_with_two_devices_needs_a_name(tmp_path, capsys):
    path = tmp_path / "two.device"
    path.write_text(device_block("a", "disk") + device_block("b", "disk"), encoding="utf-8")
    assert run("breakeven", "--device", str(path)) == (2, "")
    assert capsys.readouterr().err == (f"error: {path} holds 2 devices (a, b); "
                                       "pick one with --device-name\n")
    code, out = run("breakeven", "--device", str(path), "--device-name", "b", "--format", "csv")
    assert code == 0
    assert float(csv_rows(out)[1][0][2]) == pytest.approx(266.667, abs=0.001)
    assert run("breakeven", "--device", str(path), "--device-name", "c") == (2, "")
    assert capsys.readouterr().err == f"error: no device named 'c' in {path}\n"


def test_device_file_with_only_a_comment_exits_3(tmp_path, capsys):
    path = tmp_path / "empty.device"
    path.write_text("# nothing here\n", encoding="utf-8")
    assert run("metrics", "--device", str(path)) == (3, "")
    assert capsys.readouterr().err == f"error: {path}: device file is empty\n"


@pytest.mark.parametrize("kind", sorted(DEVICE_FIELDS))
def test_renaming_a_file_device_changes_only_its_name(tmp_path, kind):
    # a preset's name gives a file device none of the preset's pricing
    path = tmp_path / "one.device"
    outputs = set()
    for name in ["plain", *devices.preset_names()]:
        path.write_text(device_block(name, kind), encoding="utf-8")
        code, out = run("metrics", "--device", str(path), "--format", "csv")
        _, ((device, *cells),) = csv_rows(out)
        assert (code, device) == (0, name)
        outputs.add((run("breakeven", "--device", str(path), "--format", "csv"), tuple(cells)))
    assert len(outputs) == 1
    (((code, out), _),) = outputs
    assert code == (2 if kind == "ram" else 0)
    if kind == "disk":  # 2000 $ over 64 accesses/s at 15 $/MB
        assert csv_rows(out)[1][0][2] == "266.667"


@pytest.mark.parametrize("argv", [
    ["breakeven", "--pages-per-mb", "128", "--accesses-per-sec", "64",
     "--device-price", "2000"],
    ["breakeven", "--device", "dell_tpcc_1997"],
    ["metrics", "--table8"],
    ["metrics", "--device", "table8_disk"],
])
def test_device_name_without_a_device_file_exits_2(capsys, argv):
    assert run(*argv, "--device-name", "x") == (2, "")
    assert capsys.readouterr().err == "error: --device-name picks a device from a --device file\n"


def test_metrics_table8_with_a_device_exits_2(capsys):
    for device in ("table8_disk", "no_such_thing"):
        assert run("metrics", "--table8", "--device", device) == (2, "")
        assert capsys.readouterr().err == ("error: --table8 reports its own three devices; "
                                           "--device picks one instead\n")


# 1e-310 and 3e-311 leave each rent per second finite but overflow the cells built on it
@pytest.mark.parametrize("years", ["inf", "nan", "1e400", "1e-320", "1e-310", "3e-311",
                                   "0", "-1"])
def test_metrics_years_not_finite_or_overflowing_the_rent_exits_2(capsys, years):
    for argv in (["--table8"], ["--device", "table8_disk"]):
        assert run("metrics", *argv, "--years", years) == (2, "")
        assert capsys.readouterr().err.startswith("error: --years ")
    # a period short enough for huge rents, but finite ones, is accepted
    code, out = run("metrics", "--table8", "--years", "1e-305", "--format", "csv")
    assert code == 0 and "inf" not in out


def test_seqrule_point_values():
    code, out = run("seqrule", "--transfer-bytes", "65536",
                    "--bandwidth-bps", str(5 * 2**20), "--format", "csv")
    assert code == 0
    header, ((_, _, passes, interval),) = csv_rows(out)
    assert header == ["transfer_bytes", "bandwidth_bps", "passes", "interval_s"]
    assert passes == "read_once"
    assert float(interval) == pytest.approx(26.667, abs=0.001)
    _, out = run("seqrule", "--transfer-bytes", "65536",
                 "--bandwidth-bps", str(5 * 2**20),
                 "--passes", "write_then_read", "--format", "csv")
    assert float(csv_rows(out)[1][0][3]) == pytest.approx(53.333, abs=0.001)


def test_seqrule_curve_and_asymptote():
    code, out = run("seqrule", "--curve", "--bandwidth-bps", str(10 * 2**20),
                    "--page-sizes", "8192,65536", "--format", "csv")
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["page_bytes", "interval_s"]
    assert float(rows[0][1]) == pytest.approx(184.0, abs=0.05)
    code, out = run("seqrule", "--asymptote", "--bandwidth-bps", str(10 * 2**20),
                    "--format", "csv")
    assert float(csv_rows(out)[1][0][1]) == pytest.approx(13.333, abs=0.001)
    # the transfer size cancels: a point prints the asymptote's interval
    for bandwidth in (str(10 * 2**20), "1e7"):
        for passes in ("read_once", "write_then_read"):
            point, asymptote = (run("seqrule", *mode, "--bandwidth-bps", bandwidth,
                                    "--passes", passes, "--format", "csv")
                                for mode in (["--transfer-bytes", "100000"], ["--asymptote"]))
            assert point[0] == asymptote[0] == 0
            assert csv_rows(point[1])[1][0][-1] == csv_rows(asymptote[1])[1][0][-1]
    code, out = run("seqrule", "--curve", "--bandwidth-bps", str(10 * 2**20))
    assert "note:" in out and "asymptote" in out
    # each would keep the size-doubling loop from ever passing --page-max
    for bad in ("--page-min=0", "--page-min=-1", "--page-min=nan", "--page-max=inf"):
        assert run("seqrule", "--curve", "--bandwidth-bps", "1e7", bad) == (2, "")


# Each interval here overflows or underflows, or rests on an input that is not finite.
@pytest.mark.parametrize("argv", [
    ["seqrule", "--asymptote", "--bandwidth-bps", "inf"],
    ["seqrule", "--asymptote", "--bandwidth-bps", "1e-320"],
    ["seqrule", "--curve", "--bandwidth-bps", "inf", "--page-sizes", "8192"],
    ["seqrule", "--curve", "--bandwidth-bps", "1e7", "--latency-s", "inf"],
    ["seqrule", "--curve", "--bandwidth-bps", "1e7", "--page-sizes", "1e-320"],
    ["seqrule", "--transfer-bytes", "65536", "--bandwidth-bps", "1e-302", "--device-price", "1",
     "--ram-price", "1", "--passes", "write_then_read"],
    ["breakeven", "--pages-per-mb", "1e300", "--accesses-per-sec", "1e-10",
     "--device-price", "1e10", "--ram-price", "1"],
    ["breakeven", "--device", "table8_tape_robot", "--page-bytes", "1e-300"],
])
def test_intervals_that_are_not_finite_and_positive_exit_2(capsys, argv):
    assert run(*argv) == (2, "")
    (err,) = capsys.readouterr().err.splitlines()
    assert err.startswith("error: ")


# Each names two modes of one command, or a --passes the curve does not model.
@pytest.mark.parametrize("argv, message", [
    (["seqrule", "--asymptote", "--curve", "--transfer-bytes", "5", "--bandwidth-bps", "5242880"],
     "argument --curve: not allowed with argument --asymptote"),
    (["seqrule", "--transfer-bytes", "5", "--asymptote", "--bandwidth-bps", "5242880"],
     "argument --asymptote: not allowed with argument --transfer-bytes"),
    (["sortplan", "--max-file", "--memory-bytes", "1e8", "--file-bytes", "5"],
     "argument --file-bytes: not allowed with argument --max-file"),
    (["indexsize", "--candidates", "4096,8192", "--page-bytes", "5"],
     "argument --page-bytes: not allowed with argument --candidates"),
    (["indexsize", "--table6", "--figure7"],
     "argument --figure7: not allowed with argument --table6"),
    (["seqrule", "--curve", "--bandwidth-bps", "5242880", "--passes", "write_then_read"],
     "--curve models a single read, not --passes write_then_read"),
], ids=["seqrule-three", "seqrule-two", "sortplan", "indexsize-sizes", "indexsize-tables",
        "seqrule-curve-passes"])
def test_two_modes_of_one_command_exit_2(capsys, argv, message):
    assert run(*argv) == (2, "")
    assert capsys.readouterr().err.splitlines()[-1].endswith("error: " + message)


def test_sortplan_plan_and_inverse():
    code, out = run("sortplan", "--file-bytes", "1e11", "--memory-bytes", "1e8",
                    "--buffer-bytes", "1e5", "--format", "csv")
    assert code == 0
    header, (row,) = csv_rows(out)
    assert header[-4:] == ["passes", "run_count", "fan_in", "feasible"]
    assert row[-4:] == ["2", "1000", "1000", "yes"]
    code, out = run("sortplan", "--file-bytes", "1e12", "--memory-bytes", "1e6",
                    "--buffer-bytes", "1e5", "--format", "csv")
    assert csv_rows(out)[1][0][-1] == "no"
    code, out = run("sortplan", "--max-file", "--memory-bytes", "5e9", "--format", "csv")
    assert float(csv_rows(out)[1][0][2]) == pytest.approx(3.39e14, rel=0.01)
    assert run("sortplan")[0] == 2
    # a fan-in of 1e12 / 1e-300 overflows to inf, which int() cannot take
    assert run("sortplan", "--file-bytes", "1e11", "--memory-bytes", "1e12",
               "--buffer-bytes", "1e-300") == (2, "")


def test_sortplan_infeasible_line_uses_the_given_constants():
    argv = ["sortplan", "--file-bytes", "1e12", "--memory-bytes", "1e6",
            "--c-buf", "100", "--c-sqrt", "100"]
    code, out = run(*argv, "--format", "csv")
    header, (row,) = csv_rows(out)
    memory = dict(zip(header, row))["two_pass_memory_bytes"]
    assert (code, memory) == (0, "9.05179e+09")
    code, out = run(*argv)
    assert out.splitlines()[-1].endswith(f"; a two-pass sort wants about {memory} bytes of memory")


def test_indexsize_table6_csv():
    code, out = run("indexsize", "--table6", "--format", "csv")
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["page_kb", "entries_per_page", "utility",
                      "access_cost_ms", "benefit_cost"]
    assert len(rows) == 7
    ratios = [float(r[4]) for r in rows]
    assert rows[ratios.index(max(ratios))][0] == "16"


def test_indexsize_figure7_csv():
    code, out = run("indexsize", "--figure7", "--format", "csv")
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["grid", "series", "page_kb", "benefit_cost"]
    cells = {(r[0], r[1], r[2]): float(r[3]) for r in rows}
    assert len(rows) == (4 + 5) * 6
    kbs = ["2", "4", "8", "32", "64", "128"]
    entry16 = [cells[("entry_size", "16B", kb)] for kb in kbs]
    assert entry16 == pytest.approx([0.6355, 0.7191, 0.7843, 0.7898, 0.6938, 0.5403],
                                    abs=0.0002)
    fast = [cells[("disk_speed", "40MB/s", kb)] for kb in kbs]
    assert fast == pytest.approx([0.645, 0.741, 0.832, 0.969, 0.987, 0.94], abs=0.001)
    assert cells[("disk_speed", "5MB/s", "64")] == pytest.approx(0.497, abs=0.001)
    assert cells[("disk_speed", "5MB/s", "128")] == pytest.approx(0.345, abs=0.001)


def test_indexsize_point_and_candidates():
    code, out = run("indexsize", "--page-bytes", "8192", "--entry-bytes", "20",
                    "--n-items", "1000000000", "--format", "csv")
    assert code == 0
    header, (row,) = csv_rows(out)
    assert header[-1] == "height"
    assert float(row[-1]) == pytest.approx(3.66, abs=0.01)
    code, out = run("indexsize", "--candidates",
                    ",".join(str(k * 1024) for k in (2, 4, 8, 16, 32, 64, 128)),
                    "--entry-bytes", "20", "--format", "csv")
    header, rows = csv_rows(out)
    optimal = [r for r in rows if r[-1] == "yes"]
    assert len(optimal) == 1 and optimal[0][0] == "16384"
    assert run("indexsize")[0] == 2


def test_indexsize_overflowing_fanout_and_cost_exit_2():
    # entries per page and access cost both overflow to inf: their ratio is inf / inf
    for pages in (["--page-bytes=1e12"], ["--candidates", "1e12"]):
        assert run("indexsize", *pages, "--entry-bytes=1e-300",
                   "--bandwidth-bps=1e-300", "--format", "csv") == (2, "")


def test_metrics_table8_csv():
    code, out = run("metrics", "--table8", "--format", "csv")
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["metric", "table8_ram", "table8_disk", "table8_tape_robot"]
    table = {r[0]: [float(x) for x in r[1:]] for r in rows}
    assert table["kaps"][1] == pytest.approx(98.0, abs=0.1)
    assert table["maps"][1] == pytest.approx(4.76, abs=0.01)
    assert table["scan_s"] == pytest.approx([2, 1800, 98420])
    assert table["dollars_per_tbscan"][0] == pytest.approx(0.317, abs=0.001)
    assert table["dollars_per_tbscan"][1] == pytest.approx(4.23, abs=0.01)
    assert table["dollars_per_tbscan"][2] == pytest.approx(21.23, abs=0.05)


def test_metrics_table8_table_mode_flags_tape_discrepancy():
    code, out = run("metrics", "--table8")
    assert code == 0
    assert "note:" in out and "296" in out


def test_metrics_single_device():
    code, out = run("metrics", "--device", "table8_disk", "--format", "csv")
    assert code == 0
    header, (row,) = csv_rows(out)
    assert header[0] == "device" and row[0] == "table8_disk"
    assert run("metrics")[0] == 2


def test_presets_listing():
    code, out = run("presets", "--format", "csv")
    assert code == 0
    header, rows = csv_rows(out)
    assert header[0] == "name"
    names = {r[0] for r in rows}
    assert {"dell_tpcc_1997", "table8_ram", "table8_disk",
            "table8_tape_robot", "table4_dlt_robot"} <= names


def test_gen_trace_and_simulate_round_trip(tmp_path):
    trace_path = tmp_path / "trace.csv"
    code, _ = run("gen-trace", "--seed", "3", "--ops", "500", "--pages", "40",
                  "--zipf-s", "0.8", "--write-fraction", "0.3",
                  "--ops-per-second", "25", "--out", str(trace_path))
    assert code == 0
    code, out = run("simulate", "--trace", str(trace_path), "--frames", "16",
                    "--policy", "clock2", "--n-seconds", "4",
                    "--checkpoint", "5", "--format", "csv")
    assert code == 0
    header, (row,) = csv_rows(out)
    assert header == ["logical", "physical", "hit_ratio", "evictions",
                      "contention_flushes", "checkpoint_flushes", "fallbacks"]
    assert row[0] == "500"
    with open(trace_path, encoding="utf-8") as fh:
        trace = bufferpool.read_trace_csv(fh)
    config = bufferpool.PoolConfig(frames=16, base_policy="clock2", n_minute_s=4,
                                   checkpoint_interval_s=5)
    assert out == bufferpool.simulate(trace, config).csv()


def test_gen_trace_stdout_is_byte_stable():
    argv = ["gen-trace", "--seed", "5", "--ops", "50", "--pages", "6"]
    assert run(*argv) == run(*argv)
    # seven generator chunks; with uniform pages the CDF is exact, so the digest is fixed
    code, out = run("gen-trace", "--seed", "1", "--ops", "100000", "--pages", "4096",
                    "--write-fraction", "0.25")
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (
        0, "982956746392a585ebd8f869e56ac8b568aebc6204a84a929eaef6272485c606")


@pytest.mark.parametrize("argv, lines_read", [
    (["metrics", "--table8"], 0),
    # about 3 MB, far more than a pipe holds, so the writer meets the closed end
    (["gen-trace", "--seed", "1", "--ops", "200000", "--pages", "64"], 1),
])
def test_a_reader_closing_the_pipe_early_ends_the_command_quietly(argv, lines_read):
    with subprocess.Popen([sys.executable, "-m", "storage_rules.cli", *argv], env=source_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        for _ in range(lines_read):
            proc.stdout.readline()
        proc.stdout.close()
        assert (proc.wait(timeout=30), proc.stderr.read()) == (1, b"")


def test_gen_trace_rejects_nan_zipf_exit_2():
    assert run("gen-trace", "--seed", "1", "--ops", "5", "--pages", "10",
               "--zipf-s", "nan") == (2, "")


def test_gen_trace_sizes_it_cannot_represent_exit_2():
    # 2 / 1e-320 overflows to an infinite time
    assert run("gen-trace", "--seed", "1", "--ops", "3", "--pages", "3",
               "--ops-per-second", "1e-320") == (2, "")
    # the times column alone would take 7.3 TiB
    proc = run_cold("-m", "storage_rules.cli", "gen-trace", "--seed", "1",
                    "--ops", "1000000000000", "--pages", "3", address_space=1 << 30)
    assert proc.returncode == 2 and proc.stdout == "", proc.stderr
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1, proc.stderr


def test_gen_trace_unwritable_out_exits_2(tmp_path, capsys):
    for out in (tmp_path / "missing" / "t.csv", tmp_path):
        assert run("gen-trace", "--seed", "1", "--ops", "5", "--pages", "3",
                   "--out", str(out)) == (2, "")
    assert capsys.readouterr().err.count("error: cannot write --out") == 2


def test_simulate_three_event_example(tmp_path):
    trace_path = tmp_path / "aba.csv"
    trace_path.write_text("time,page,op\n0,A,r\n1,B,r\n2,A,r\n", encoding="utf-8")
    code, out = run("simulate", "--trace", str(trace_path), "--frames", "1",
                    "--format", "csv")
    assert code == 0
    _, (row,) = csv_rows(out)
    assert row == ["3", "3", "0", "2", "0", "0", "0"]


def test_simulate_frames_far_beyond_the_trace(tmp_path):
    # per-slot state grows as the pool fills, so the pool size costs nothing
    trace_path = tmp_path / "one.csv"
    trace_path.write_text("time,page,op\n0,A,r\n", encoding="utf-8")
    proc = run_cold("-m", "storage_rules.cli", "simulate", "--trace", str(trace_path),
                    "--frames", "1000000000000", "--format", "csv", address_space=1 << 30)
    assert proc.returncode == 0, proc.stderr
    assert csv_rows(proc.stdout)[1] == [["1", "1", "0", "0", "0", "0", "0"]]


def test_simulate_wrap_heavy_clock2_row(tmp_path):
    # the hand passes long protected stretches, and 794 of 6296 evictions fall back
    trace_path = tmp_path / "big.csv"
    assert run("gen-trace", "--seed", "5", "--ops", "20000", "--pages", "8192",
               "--zipf-s", "0.8", "--write-fraction", "0.25", "--ops-per-second", "20",
               "--out", str(trace_path)) == (0, "")
    code, out = run("simulate", "--trace", str(trace_path), "--frames", "2048",
                    "--policy", "clock2", "--n-seconds", "1e6", "--checkpoint", "300",
                    "--format", "csv")
    assert (code, out.splitlines()[-1]) == (0, "20000,8344,0.5828,6296,1998,1152,794")


def test_simulate_all_resident_write_heavy_trace_is_the_same_for_both_policies(tmp_path):
    # every page stays resident, so only the checkpoints flush
    trace_path = tmp_path / "cw.csv"
    assert run("gen-trace", "--seed", "1", "--ops", "20000", "--pages", "512",
               "--write-fraction", "0.9", "--ops-per-second", "0.5",
               "--out", str(trace_path)) == (0, "")
    lru, clock2 = (run("simulate", "--trace", str(trace_path), "--frames", "512",
                       "--policy", policy, "--checkpoint", "1", "--format", "csv")
                   for policy in ("lru", "clock2"))
    assert lru == clock2
    assert lru[0] == 0 and csv_rows(lru[1])[1][0][3] == "0"  # no evictions


def test_simulate_input_errors_exit_3(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("time,page,op\n5,A,r\n1,B,r\n", encoding="utf-8")
    assert run("simulate", "--trace", str(bad), "--frames", "2")[0] == 3
    garbled = tmp_path / "garbled.csv"
    garbled.write_text("nope\n", encoding="utf-8")
    assert run("simulate", "--trace", str(garbled), "--frames", "2")[0] == 3
    assert run("simulate", "--trace", str(tmp_path / "missing.csv"),
               "--frames", "2")[0] == 3
    endless = tmp_path / "inf.csv"
    endless.write_text("time,page,op\n0,A,w\ninf,B,r\n", encoding="utf-8")
    assert run("simulate", "--trace", str(endless), "--frames", "2",
               "--checkpoint", "5")[0] == 3
    assert run("simulate", "--trace", str(tmp_path), "--frames", "2")[0] == 3
    # from 2**53 intervals on, boundaries k*C stop being distinct floats;
    # the subprocess time limit turns a hang into a failure
    far = tmp_path / "far.csv"
    for body, cp in (("0,A,w\n1e25,B,w\n1e25,C,r\n", "1"), ("0,A,w\n1e10,B,r\n", "1e-300")):
        far.write_text("time,page,op\n" + body, encoding="utf-8")
        proc = run_cold("-m", "storage_rules.cli", "simulate", "--trace", str(far),
                        "--frames", "2", "--checkpoint", cp)
        assert proc.returncode == 3 and proc.stderr.startswith("error:"), proc.stderr


@pytest.mark.parametrize("body,bad_line", [
    (b"0,A,r\n1,\xffB,r\n2,C,r\n", 3),                 # a bad byte in line 3
    (b"0,A,r,x\n1,\xffB,r\n", 3),                     # after a malformed line 2
    (b"0,A,r\n" * 200_000 + b"1,\xffB,r\n", 200_002),  # past the first 1 MiB block
    (b"0,A,r\n1,B\xe2\x82", 3),                        # a sequence cut off at EOF
], ids=["line3", "after-malformed-line", "past-block-edge", "truncated-at-eof"])
def test_simulate_invalid_utf8_names_a_line_not_a_position(tmp_path, capsys, body, bad_line):
    path = tmp_path / "t.csv"
    path.write_bytes(b"time,page,op\n" + body)
    assert run("simulate", "--trace", str(path), "--frames", "2") == (3, "")
    (err,) = capsys.readouterr().err.replace(str(path), "").splitlines()
    assert err.startswith("error:") and "not UTF-8" in err and "position" not in err
    named = int(err.split(" line ")[1].split()[0])
    assert named <= bad_line  # the first line of the block being decoded
    if bad_line > 200_000:
        assert named > 2


@pytest.mark.parametrize("body,named", [
    (b"0,A,r\n1,\xffB,r\n", "line 3 is"),                      # met by the header read
    (b"0,A,r\n" * 2000 + b"1,\xffB,r\n", "line 2 or later:"),  # past the first 8 KiB
], ids=["line3", "past-8-KiB"])
def test_simulate_invalid_utf8_read_with_the_header_names_its_line(tmp_path, capsys, body, named):
    path = tmp_path / "t.csv"
    path.write_bytes(b"time,page,op\n" + body)
    assert run("simulate", "--trace", str(path), "--frames", "2") == (3, "")
    assert capsys.readouterr().err == f"error: {path}: {named} not UTF-8 (invalid start byte)\n"


def test_simulate_config_errors_exit_2(tmp_path):
    trace_path = tmp_path / "t.csv"
    trace_path.write_text("time,page,op\n0,A,r\n", encoding="utf-8")
    assert run("simulate", "--trace", str(trace_path), "--frames", "0")[0] == 2
    assert main(["simulate", "--trace", str(trace_path)]) == 2  # --frames required
    assert run("simulate", "--trace", str(trace_path), "--frames", "2",
               "--n-seconds", "nan")[0] == 2


def test_simulate_skips_idle_checkpoint_boundaries(tmp_path):
    # 1e12 boundaries lie in the gap; stepping through them one by one
    # would run for hours, so a subprocess time limit turns a hang into a failure
    trace_path = tmp_path / "gap.csv"
    trace_path.write_text("time,page,op\n0,A,w\n1e12,B,r\n", encoding="utf-8")
    proc = run_cold("-m", "storage_rules.cli", "simulate", "--trace", str(trace_path),
                    "--frames", "2", "--checkpoint", "1", "--format", "csv")
    assert proc.returncode == 0, proc.stderr
    assert csv_rows(proc.stdout)[1] == [["2", "2", "0", "0", "0", "1", "0"]]


def test_csv_outputs_are_byte_stable():
    for argv in (["indexsize", "--table6", "--format", "csv"],
                 ["metrics", "--table8", "--format", "csv"],
                 ["breakeven", "--device", "dell_tpcc_1997", "--format", "csv"],
                 ["presets", "--format", "csv"]):
        assert run(*argv) == run(*argv)


def test_unknown_subcommand_exits_2():
    assert main(["frobnicate"]) == 2


# The analytic commands scripts/reproduce_tables.py and perfbench run, with
# the note each table must keep (None: the table has no note).
RENDERED_COMMANDS = [
    (["presets"], None),
    (["breakeven", "--device", "dell_tpcc_1997"], None),
    (["breakeven", "--device", "table8_tape_robot", "--page-bytes", "8192"], "two months"),
    (["seqrule", "--transfer-bytes", "65536", "--bandwidth-bps", str(5 * 2**20)], None),
    (["seqrule", "--curve", "--bandwidth-bps", str(10 * 2**20)], "about 40 s"),
    (["sortplan", "--file-bytes", "1e14"], None),
    (["sortplan", "--file-bytes", "1e11", "--memory-bytes", "1e8"], None),
    (["indexsize", "--table6"], "entries/page about 5%"),
    (["indexsize", "--figure7"], "11-12 ms"),
    (["metrics", "--table8"], "296 $"),
]


@pytest.mark.parametrize("argv,note", RENDERED_COMMANDS)
def test_table_prints_the_csv_cells_then_the_trailer(argv, note):
    code, table = run(*argv)
    assert code == 0
    csv_lines = run(*argv, "--format", "csv")[1].splitlines()
    lines = table.splitlines()
    assert lines[0].split() == csv_lines[0].split(",")
    assert len(lines) >= len(csv_lines)
    for line, csv_line in zip(lines[1:], csv_lines[1:]):
        assert line.split() == [cell for cell in csv_line.split(",") if cell]
    notes = [line for line in lines[len(csv_lines):] if line.startswith("note:")]
    if note is None:
        assert notes == []
    else:
        assert len(notes) == 1 and note in notes[0]


def test_analytic_commands_do_not_import_numpy():
    proc = run_cold("-c", "import sys, storage_rules.cli; "
                          "print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _modules_loaded_by(code):
    """The storage_rules.* modules a fresh interpreter holds after running code."""
    proc = run_cold("-c", f"import sys\n{code}\nprint(' '.join(sorted("
                          "m for m in sys.modules if m.startswith('storage_rules.'))))")
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_importing_the_cli_loads_no_sibling_module():
    assert _modules_loaded_by("import storage_rules.cli") == {"storage_rules.cli"}


# The analytic commands perfbench's cli-analytic workload runs (and the
# --page-bytes branch of breakeven), with the modules each one needs.
@pytest.mark.parametrize("argv, modules", [
    (["presets"], {"devices"}),
    (["breakeven", "--device", "dell_tpcc_1997"], {"rules", "devices"}),
    (["breakeven", "--device", "dell_tpcc_1997", "--page-bytes", "8192"],
     {"rules", "devices", "metrics"}),
    (["seqrule", "--curve", "--bandwidth-bps", str(10 * 2**20)], {"rules"}),
    (["sortplan", "--file-bytes", "1e11", "--memory-bytes", "1e8"], {"sorting"}),
    (["indexsize", "--figure7"], {"indexing"}),
    (["metrics", "--table8"], {"metrics", "devices"}),
], ids=["presets", "breakeven", "breakeven-page-bytes", "seqrule", "sortplan", "indexsize",
        "metrics"])
def test_analytic_command_loads_only_its_modules(argv, modules):
    loaded = _modules_loaded_by(
        "import io; from storage_rules.cli import main\n"
        f"assert main({argv!r}, out=io.StringIO()) == 0")
    assert "storage_rules.bufferpool" not in loaded
    assert loaded == {"storage_rules.cli"} | {f"storage_rules.{m}" for m in modules}


def test_simulate_does_not_import_numpy(tmp_path):
    trace_path = tmp_path / "aba.csv"
    trace_path.write_text("time,page,op\n0,A,r\n1,B,w\n2,A,r\n", encoding="utf-8")
    proc = run_cold("-c", "import io, sys; from storage_rules.cli import main; "
                          f"code = main(['simulate', '--trace', {str(trace_path)!r}, "
                          "'--frames', '1', '--format', 'csv'], out=io.StringIO()); "
                          "print(code, 'numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 False"


def test_simulate_loads_neither_rules_nor_typing(tmp_path):
    trace_path = tmp_path / "aba.csv"
    trace_path.write_text("time,page,op\n0,A,r\n1,B,w\n2,A,r\n", encoding="utf-8")
    # -S: no site hooks, which may load typing themselves
    proc = run_cold("-S", "-c", "import io, sys; from storage_rules.cli import main; "
                                f"code = main(['simulate', '--trace', {str(trace_path)!r}, "
                                "'--frames', '1', '--format', 'csv'], out=io.StringIO()); "
                                "print(code, 'storage_rules.rules' in sys.modules, "
                                "'typing' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 False False"


def test_no_command_loads_dataclasses_or_inspect(tmp_path):
    trace_path = tmp_path / "aba.csv"
    trace_path.write_text("time,page,op\n0,A,r\n1,B,w\n2,A,r\n", encoding="utf-8")
    commands = [
        ["presets"],
        ["breakeven", "--device", "dell_tpcc_1997"],
        ["breakeven", "--device", "dell_tpcc_1997", "--page-bytes", "8192"],
        ["seqrule", "--curve", "--bandwidth-bps", str(10 * 2**20)],
        ["sortplan", "--file-bytes", "1e11", "--memory-bytes", "1e8"],
        ["indexsize", "--figure7"],
        ["metrics", "--table8"],
        ["simulate", "--trace", str(trace_path), "--frames", "1", "--format", "csv"],
    ]
    # -S: no site hooks, which may load either module themselves
    proc = run_cold("-S", "-c", "import io, sys; from storage_rules.cli import main\n"
                                f"for argv in {commands!r}:\n"
                                "    assert main(argv, out=io.StringIO()) == 0, argv\n"
                                "print('dataclasses' in sys.modules, 'inspect' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False False"


# Numeric flags of the analytic commands, one mode per entry.
ANALYTIC_FLAGS = [
    (["breakeven", "--device", "dell_tpcc_1997"], ["--page-bytes", "--ram-price"]),
    (["breakeven", "--raid", "5"],
     ["--pages-per-mb", "--accesses-per-sec", "--device-price", "--ram-price",
      "--write-fraction", "--raid-read-mult", "--raid-write-mult"]),
    (["seqrule"], ["--transfer-bytes", "--bandwidth-bps", "--device-price", "--ram-price"]),
    (["seqrule", "--asymptote"], ["--bandwidth-bps", "--device-price", "--ram-price"]),
    (["seqrule", "--curve"],
     ["--bandwidth-bps", "--latency-s", "--page-min", "--page-max", "--ram-price"]),
    (["sortplan"], ["--file-bytes", "--buffer-bytes", "--memory-bytes", "--c-buf",
                    "--c-sqrt", "--one-pass-threshold"]),
    (["sortplan", "--max-file"], ["--memory-bytes", "--buffer-bytes", "--c-buf", "--c-sqrt"]),
    (["indexsize"], ["--page-bytes", "--entry-bytes", "--fill", "--latency-s",
                     "--bandwidth-bps"]),
    (["metrics", "--device", "table8_disk"], ["--years"]),
]
NUMBERS = ["nan", "inf", "-inf", "0", "-1", "1e400", "1e-300", "1e-310", "0.5", "2", "8192",
           "1e7", "1e12"]


@settings(deadline=None, max_examples=300)
@given(mode=st.sampled_from(ANALYTIC_FLAGS), data=st.data())
def test_analytic_flags_exit_0_or_2_and_never_print_nan(mode, data):
    argv, flags = mode
    for flag in flags:
        value = data.draw(st.one_of(st.none(), st.sampled_from(NUMBERS)), label=flag)
        if value is not None:
            argv = argv + [f"{flag}={value}"]  # "=": argparse reads "-inf" as an option
    code, out = run(*argv, "--format", "csv")
    assert code in (0, 2)
    assert "nan" not in [cell for line in out.splitlines()[1:] for cell in line.split(",")]


@settings(deadline=None, max_examples=300)
@given(kind=st.sampled_from(sorted(DEVICE_FIELDS)), data=st.data())
def test_device_file_values_exit_0_or_3_and_never_print_nan(kind, data):
    changes = {key: data.draw(st.sampled_from(NUMBERS), label=key)
               for key in DEVICE_FIELDS[kind]}
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "drawn.device")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# one device\n" + device_block("x", kind, **changes))
        with contextlib.redirect_stderr(err):
            code, out = run("metrics", "--device", path, "--format", "csv")
    if code == 0:
        assert err.getvalue() == ""
        assert "nan" not in [cell for line in out.splitlines()[1:] for cell in line.split(",")]
    else:
        assert (code, out) == (3, "")
        (line,) = err.getvalue().splitlines()
        assert line.startswith(f"error: {path}: line 2: device 'x': "), line


@pytest.mark.parametrize("sizes, message", [
    ("x,1", "bad size list 'x,1'; expected comma-separated numbers"),
    (",", "size list is empty"),
])
def test_seqrule_bad_page_sizes_exit_2(capsys, sizes, message):
    assert run("seqrule", "--curve", "--bandwidth-bps", "1e7", "--page-sizes", sizes) == (2, "")
    assert capsys.readouterr().err == f"error: {message}\n"


_TIMES = ["0", "1", "-1", "2.5", "1e25", "nan", "inf", "x", ""]
_OPS = ["r", "w", " w", "R", ""]
_TRACE_LINE = st.one_of(
    st.tuples(st.sampled_from(_TIMES), st.sampled_from(["A", "1", ""]),
              st.sampled_from(_OPS)).map(",".join),
    st.lists(st.sampled_from(_TIMES + _OPS), max_size=4).map(",".join))


@settings(deadline=None, max_examples=200)
@example(header=bufferpool.TRACE_HEADER, lines=["1e25,A,r"], tail=b"", checkpoint="1e-300")
@given(header=st.sampled_from([bufferpool.TRACE_HEADER, "time,page", ""]),
       lines=st.lists(_TRACE_LINE, max_size=6),
       tail=st.binary(max_size=8),
       checkpoint=st.sampled_from(["0", "1", "1e-300"]))
def test_malformed_trace_csv_exits_0_or_3(header, lines, tail, checkpoint):
    text = "\n".join([header, *lines]).encode() + tail  # tail may not be UTF-8
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        with open(path, "wb") as fh:
            fh.write(text)
        code, _ = run("simulate", "--trace", path, "--frames", "2",
                      "--n-seconds", "5", "--checkpoint", checkpoint)
    assert code in (0, 3)
