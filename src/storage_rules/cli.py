"""Command-line front end: break-even rules, sort plans, page sizing,
device metrics, and the buffer-pool simulator.

Exit codes: 0 success, 2 argument/config errors, 3 input-data errors
(malformed or unreadable device or trace files).  Each command computes
one result, ``(header, rows, trailer)``, and ``_render`` prints it
either as CSV or as a table.  ``--format csv`` output is byte-stable:
fixed column order, 6-significant-digit floats, ``\\n`` line endings
(trace files keep full-precision times so replays are exact).  The
table shows the same header and rows in right-aligned columns, followed
by the trailer: summary lines and the ``note:`` lines that point out
known discrepancies against the published 1997 tabulations, which are
never silently altered.
"""
from __future__ import annotations

import argparse
import math
import os
import sys

# Each command imports the modules it runs, where it runs them, so a cold
# start loads argparse, this file and only those modules.

RATED_PAGE_BYTES = 8192  # page size behind the catalog's accesses_per_sec ratings
DEFAULT_RAM_PRICE = 15.0  # $/MB, the 1997 reference RAM pricing

TABLE6_PAGE_KB = [2, 4, 8, 16, 32, 64, 128]
FIGURE7_PAGE_KB = [2, 4, 8, 32, 64, 128]
FIGURE7_ENTRY_BYTES = [16, 32, 64, 128]
FIGURE7_SPEEDS_MBPS = [40, 10, 5, 3, 1]


def sig6(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


def _render(result, fmt: str, out) -> None:
    """Print a command's (header, rows, trailer) as CSV or as a table.

    CSV is the header and one comma-joined line per row; the trailer is
    table-only.  The table right-aligns every cell in a column as wide
    as its widest cell, so splitting a line on whitespace gives back the
    CSV cells, minus empty ones.
    """
    header, rows, trailer = result
    if fmt == "csv":
        out.write(header + "\n")
        for row in rows:
            out.write(",".join(sig6(cell) for cell in row) + "\n")
        return
    lines = [header.split(",")] + [[sig6(cell) for cell in row] for row in rows]
    widths = [max(map(len, column)) for column in zip(*lines)]
    for cells in lines:
        out.write("  ".join(c.rjust(w) for c, w in zip(cells, widths)).rstrip() + "\n")
    for line in trailer:
        out.write(line + "\n")


def _humanize_seconds(seconds: float) -> str:
    if seconds >= 2 * 86400:
        days = seconds / 86400
        # .1f would print every digit of a huge count, most of them float noise
        return f"{sig6(days) if days >= 1e6 else format(days, '.1f')} days"
    if seconds >= 2 * 3600:
        return f"{seconds / 3600:.1f} hours"
    if seconds >= 120:
        return f"{seconds / 60:.1f} minutes"
    return f"{seconds:.1f} seconds"


def _break_even_line(seconds: float) -> str:
    return f"break-even: {sig6(seconds)} s ({_humanize_seconds(seconds)})"


class _CliDataError(Exception):
    """Input-data problem (exit 3)."""


def _no_device_name(device_name: str | None) -> None:
    """Reject --device-name where no device file is read."""
    if device_name is not None:
        raise ValueError("--device-name picks a device from a --device file")


def _load_device(spec_arg: str, device_name: str | None) -> devices.DeviceSpec:
    """Resolve --device: a preset name, or a device file path."""
    from . import devices

    try:
        dev = devices.preset(spec_arg)
    except devices.UnknownPresetError:
        if not os.path.exists(spec_arg):
            raise  # a ValueError: exit 2
    else:
        _no_device_name(device_name)
        return dev
    try:
        catalog = devices.load_device_file(spec_arg)
    except ValueError as err:  # DeviceFileError included
        raise _CliDataError(f"{spec_arg}: {err}") from None
    except OSError as err:
        raise _CliDataError(f"cannot read device file {spec_arg}: {err.strerror}") from None
    if not catalog:
        raise _CliDataError(f"{spec_arg}: device file is empty")
    if device_name is None:
        if len(catalog) > 1:
            names = ", ".join(d.name for d in catalog)
            raise ValueError(
                f"{spec_arg} holds {len(catalog)} devices ({names}); pick one with --device-name")
        return catalog[0]
    for dev in catalog:
        if dev.name == device_name:
            return dev
    raise ValueError(f"no device named {device_name!r} in {spec_arg}")


# --- breakeven -------------------------------------------------------------

def _breakeven_params(args) -> tuple[rules.TechnologyParams, rules.EconomicParams, str | None]:
    from . import rules

    if args.device is not None:
        dev = _load_device(args.device, args.device_name)
        page = args.page_bytes
        if page is not None and not 0 < page < math.inf:
            raise ValueError("--page-bytes must be finite and > 0")
        if dev.kind == "ram":
            raise ValueError("RAM is the cache side of the trade; "
                             "--device must name a disk or tape_robot")
        if dev.kind == "disk" and page is None:
            tp = rules.TechnologyParams(rules.BINARY_MB / RATED_PAGE_BYTES,
                                        dev.accesses_per_sec)
        else:
            from . import metrics

            page = RATED_PAGE_BYTES if page is None else page
            tp = rules.TechnologyParams(rules.BINARY_MB / page, metrics.access_rate(dev, page))
        ram_price = args.ram_price
        if ram_price is None:
            from . import devices

            # only a preset is a benchmark system; a file device's name is a label
            is_preset = args.device in devices.preset_names()
            companion = devices.ram_companion(dev.name) if is_preset else None
            ram_price = companion.price_per_mb if companion else DEFAULT_RAM_PRICE
        return tp, rules.EconomicParams(dev.price_dollars, ram_price), dev.kind
    _no_device_name(args.device_name)
    missing = [flag for flag, val in (("--pages-per-mb", args.pages_per_mb),
                                      ("--accesses-per-sec", args.accesses_per_sec),
                                      ("--device-price", args.device_price))
               if val is None]
    if missing:
        raise ValueError(f"need --device or explicit {', '.join(missing)}")
    tp = rules.TechnologyParams(args.pages_per_mb, args.accesses_per_sec)
    ep = rules.EconomicParams(args.device_price,
                              DEFAULT_RAM_PRICE if args.ram_price is None else args.ram_price)
    return tp, ep, None


def _cmd_breakeven(args):
    from . import rules

    raid_flags = (args.write_fraction, args.raid_read_mult, args.raid_write_mult)
    if args.raid == "none" and raid_flags != (None, None, None):
        raise ValueError("--write-fraction, --raid-read-mult and --raid-write-mult "
                         "apply to --raid 1 or 5")
    tp, ep, kind = _breakeven_params(args)
    if args.raid != "none":
        tp = rules.apply_raid(tp, f"raid{args.raid}", args.write_fraction or 0.0,
                              args.raid_read_mult, args.raid_write_mult)
    result = rules.break_even_interval(tp, ep)
    trailer = [_break_even_line(result.interval_s)]
    if kind == "tape_robot":
        trailer.append("note: the published rule of thumb rounds the 8 KB tape-block "
                       "interval up to about two months; the formula value is shown.")
    return ("technology_ratio,economic_ratio,interval_s",
            [(result.technology_ratio, result.economic_ratio, result.interval_s)], trailer)


# --- seqrule ---------------------------------------------------------------

def _cmd_seqrule(args):
    from . import rules

    ep = rules.EconomicParams(args.device_price, args.ram_price)
    if args.curve:
        if args.passes != "read_once":
            raise ValueError("--curve models a single read, not --passes write_then_read")
        if args.page_sizes:
            sizes = _parse_size_list(args.page_sizes)
        else:
            if not (0 < args.page_min < math.inf and args.page_max < math.inf):
                raise ValueError("--page-min must be finite and > 0, --page-max finite")
            sizes = []
            size = args.page_min
            while size <= args.page_max:
                sizes.append(size)
                size *= 2
        series = rules.reference_interval_vs_page_size(
            args.latency_s, args.bandwidth_bps, ep, sizes)
        limit = rules.sequential_break_even(args.bandwidth_bps, ep)
        return ("page_bytes,interval_s", series,
                [f"asymptote: {sig6(limit)} s",
                 "note: the published curve labels the 1997 disk asymptote "
                 "about 40 s; the formula gives the value above for these "
                 "parameters."])
    if args.asymptote:
        interval = rules.sequential_break_even(args.bandwidth_bps, ep, args.passes)
        return "bandwidth_bps,interval_s", [(args.bandwidth_bps, interval)], []
    if not 0 < args.transfer_bytes < math.inf:  # it cancels, but the row prints it
        raise ValueError("--transfer-bytes must be finite and > 0")
    interval = rules.sequential_break_even(args.bandwidth_bps, ep, args.passes)
    return ("transfer_bytes,bandwidth_bps,passes,interval_s",
            [(args.transfer_bytes, args.bandwidth_bps, args.passes, interval)],
            [_break_even_line(interval)])


# --- sortplan --------------------------------------------------------------

def _cmd_sortplan(args):
    from . import sorting

    buffer_bytes = args.buffer_bytes
    c_buf = sorting.DEFAULT_C_BUF if args.c_buf is None else args.c_buf
    c_sqrt = sorting.DEFAULT_C_SQRT if args.c_sqrt is None else args.c_sqrt
    threshold = (sorting.DEFAULT_ONE_PASS_THRESHOLD if args.one_pass_threshold is None
                 else args.one_pass_threshold)
    if args.max_file:
        if args.memory_bytes is None:
            raise ValueError("--max-file needs --memory-bytes")
        largest = sorting.max_two_pass_file(args.memory_bytes, buffer_bytes, c_buf, c_sqrt)
        return ("memory_bytes,buffer_bytes,max_file_bytes",
                [(args.memory_bytes, buffer_bytes, largest)], [])
    memory_needed = sorting.two_pass_memory(args.file_bytes, buffer_bytes, c_buf, c_sqrt)
    recommended = sorting.choose_pass_count(args.file_bytes, threshold)
    if args.memory_bytes is None:
        return ("file_bytes,buffer_bytes,two_pass_memory_bytes,recommended_passes",
                [(args.file_bytes, buffer_bytes, memory_needed, recommended)], [])
    try:
        plan = sorting.run_merge_plan(args.file_bytes, args.memory_bytes, buffer_bytes)
        plan_cells, trailer = (plan.passes, plan.run_count, plan.fan_in, True), []
    except sorting.PlanError as err:
        plan_cells = (2, err.run_count, err.fan_in, False)
        trailer = [f"infeasible: {err}; a two-pass sort wants about "
                   f"{memory_needed:.6g} bytes of memory"]
    return ("file_bytes,buffer_bytes,memory_bytes,two_pass_memory_bytes,"
            "passes,run_count,fan_in,feasible",
            [(args.file_bytes, buffer_bytes, args.memory_bytes, memory_needed, *plan_cells)],
            trailer)


# --- indexsize -------------------------------------------------------------

def _cmd_indexsize(args):
    from . import indexing

    if args.table6:
        params = indexing.IndexParams(entry_bytes=20, fill_factor=0.7)
        model = indexing.PageCostModel(latency_s=0.01, bandwidth_bps=1e7)
        sizes = [kb * 1024 for kb in TABLE6_PAGE_KB]
        best_size, _ = indexing.optimal_page_size(sizes, params, model)
        evals = [indexing.evaluate_page(size, params, model) for size in sizes]
        return ("page_kb,entries_per_page,utility,access_cost_ms,benefit_cost",
                [(ev.page_bytes // 1024, ev.entries_per_page, ev.utility,
                  ev.access_cost_s * 1e3, ev.benefit_cost) for ev in evals],
                [f"optimal page size: {best_size // 1024} KB",
                 "note: the published tabulation lists entries/page about 5% "
                 "lower (68, 135, 270, ...); the per-entry overhead it assumes "
                 "is not stated."])
    if args.figure7:
        disk, entry16 = indexing.PageCostModel(0.01, 1e7), indexing.IndexParams(entry_bytes=16)
        series = ([("entry_size", f"{entry}B", indexing.IndexParams(entry_bytes=entry), disk)
                   for entry in FIGURE7_ENTRY_BYTES]
                  + [("disk_speed", f"{mbps}MB/s", entry16, indexing.PageCostModel(0.01, mbps * 1e6))
                     for mbps in FIGURE7_SPEEDS_MBPS])
        rows = [(grid, name, kb, indexing.benefit_cost(kb * 1024, params, model))
                for grid, name, params, model in series for kb in FIGURE7_PAGE_KB]
        return ("grid,series,page_kb,benefit_cost", rows,
                ["note: the published 3 MB/s and 1 MB/s rows imply 11-12 ms "
                 "latencies and do not match a fixed 10 ms model; rows above "
                 "use the 10 ms formula."])
    params = indexing.IndexParams(entry_bytes=args.entry_bytes,
                                  fill_factor=args.fill,
                                  n_items=args.n_items)
    model = indexing.PageCostModel(args.latency_s, args.bandwidth_bps)
    if args.candidates is not None:
        sizes = _parse_size_list(args.candidates)
        best_size, _ = indexing.optimal_page_size(sizes, params, model)
        evals = [indexing.evaluate_page(s, params, model) for s in sizes]
        return ("page_bytes,entries_per_page,utility,access_cost_ms,benefit_cost,optimal",
                [(ev.page_bytes, ev.entries_per_page, ev.utility,
                  ev.access_cost_s * 1e3, ev.benefit_cost,
                  ev.page_bytes == best_size) for ev in evals],
                [f"optimal page size: {sig6(best_size)} bytes"])
    ev = indexing.evaluate_page(args.page_bytes, params, model)
    header = "page_bytes,entries_per_page,utility,access_cost_ms,benefit_cost"
    row = [ev.page_bytes, ev.entries_per_page, ev.utility,
           ev.access_cost_s * 1e3, ev.benefit_cost]
    if args.n_items is not None:
        header += ",height"
        row.append(indexing.index_height(args.n_items, ev.entries_per_page))
    return header, [row], []


# --- metrics ---------------------------------------------------------------

_METRIC_FIELDS = ["kaps", "maps", "scan_s", "dollars_per_kaps",
                  "dollars_per_maps", "dollars_per_tbscan"]
_TAPE_TBSCAN_NOTE = ("note: the published tape $/TBscan is 296 $, about 14x the "
                     "rent-formula value shown; no stated parameters reproduce it.")


def _cmd_metrics(args):
    from . import metrics

    if args.table8:
        if args.device is not None:
            raise ValueError("--table8 reports its own three devices; --device picks one instead")
        _no_device_name(args.device_name)
    elif args.device is None:
        raise ValueError("need --device or --table8")
    else:
        dev = _load_device(args.device, args.device_name)
    try:  # a period that is not finite, or so short that a rent overflows
        rent = metrics.RentModel(depreciation_s=args.years * 365 * 86400)
        reports = metrics.table8_reports(rent) if args.table8 else [metrics.metric_report(dev, rent)]
    except ValueError as err:
        raise ValueError(f"--years {args.years}: {err}") from None
    if args.table8:
        rows = [[field] + [getattr(r, field) for r in reports] for field in _METRIC_FIELDS]
        return "metric," + ",".join(r.device for r in reports), rows, [_TAPE_TBSCAN_NOTE]
    return ("device," + ",".join(_METRIC_FIELDS),
            [[r.device] + [getattr(r, f) for f in _METRIC_FIELDS] for r in reports],
            [_TAPE_TBSCAN_NOTE] if dev.kind == "tape_robot" else [])


# --- presets ---------------------------------------------------------------

_PRESET_COLS = ["name", "kind", "price_dollars", "price_per_mb", "capacity_bytes",
                "latency_s", "bandwidth_bps", "accesses_per_sec", "tape_count",
                "tape_capacity_bytes", "mount_time_s"]


def _preset_row(dev: devices.DeviceSpec) -> list:
    get = lambda attr: getattr(dev, attr, "")
    capacity = {"ram": lambda: dev.unit_capacity_bytes,
                "disk": lambda: dev.capacity_bytes,
                "tape_robot": lambda: dev.total_capacity_bytes}[dev.kind]()
    return [dev.name, dev.kind, dev.price_dollars, get("price_per_mb"), capacity,
            get("latency_s"), get("bandwidth_bps"), get("accesses_per_sec"),
            get("tape_count"), get("tape_capacity_bytes"), get("mount_time_s")]


def _cmd_presets(args):
    from . import devices

    rows = [_preset_row(devices.preset(name)) for name in devices.preset_names()]
    return ",".join(_PRESET_COLS), rows, []


# --- gen-trace / simulate --------------------------------------------------

def _gen_trace(args, out) -> None:
    """Stream the trace CSV; the one command that bypasses _render."""
    from . import bufferpool

    trace = bufferpool.generate_trace(args.seed, args.ops, args.pages, args.zipf_s,
                                      args.write_fraction, args.ops_per_second)
    if args.out is None:
        bufferpool.write_trace_csv(trace, out)
    else:
        try:
            fh = open(args.out, "w", encoding="utf-8", newline="")
        except OSError as err:
            raise ValueError(f"cannot write --out {args.out}: {err.strerror}") from None
        with fh:
            bufferpool.write_trace_csv(trace, fh)


def _cmd_simulate(args):
    from . import bufferpool

    try:
        with open(args.trace, "r", encoding="utf-8") as fh:
            trace = bufferpool.read_trace_csv(fh)
    except OSError as err:
        raise _CliDataError(f"cannot read trace file {args.trace}: {err.strerror}") from None
    except ValueError as err:
        raise _CliDataError(f"{args.trace}: {err}") from None
    config = bufferpool.PoolConfig(
        frames=args.frames,
        base_policy=args.policy,
        n_minute_s=args.n_seconds,
        checkpoint_interval_s=args.checkpoint if args.checkpoint else None)
    try:
        report = bufferpool.simulate(trace, config)
    except bufferpool.TraceOrderError as err:
        raise _CliDataError(f"{args.trace}: {err}") from None
    return bufferpool.REPORT_HEADER, [report.row()], []


# --- parser ----------------------------------------------------------------

def _parse_size_list(text: str) -> list[float]:
    try:
        sizes = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"bad size list {text!r}; expected comma-separated numbers")
    if not sizes:
        raise ValueError("size list is empty")
    return sizes


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("table", "csv"), default="table")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="storage-rules",
        description="Storage-economics rules of thumb and a buffer-pool simulator.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("presets", help="list the built-in device presets")
    _add_format(p)
    p.set_defaults(func=_cmd_presets)

    p = sub.add_parser("breakeven", help="break-even caching interval (RAM vs device)")
    p.add_argument("--device", help="preset name or device file")
    p.add_argument("--device-name", help="device to pick from a multi-device file")
    p.add_argument("--page-bytes", type=float,
                   help="page size; switches disks from the rated accesses/s to "
                        "the latency+transfer model (tape default 8192)")
    p.add_argument("--pages-per-mb", type=float)
    p.add_argument("--accesses-per-sec", type=float)
    p.add_argument("--device-price", type=float)
    p.add_argument("--ram-price", type=float,
                   help="$/MB of RAM (default: a preset's benchmark-system RAM "
                        "price; 15 otherwise, and for any device file)")
    p.add_argument("--raid", choices=("none", "1", "5"), default="none")
    p.add_argument("--write-fraction", type=float, help="needs --raid 1 or 5; default 0")
    p.add_argument("--raid-read-mult", type=float)
    p.add_argument("--raid-write-mult", type=float)
    _add_format(p)
    p.set_defaults(func=_cmd_breakeven)

    p = sub.add_parser("seqrule", help="sequential-access break-even rules")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--transfer-bytes", type=float)
    mode.add_argument("--asymptote", action="store_true",
                      help="large-transfer limit instead of a point value")
    mode.add_argument("--curve", action="store_true",
                      help="interval vs page size series")
    p.add_argument("--bandwidth-bps", type=float, required=True)
    p.add_argument("--passes", choices=("read_once", "write_then_read"),
                   default="read_once")
    p.add_argument("--device-price", type=float, default=2000.0)
    p.add_argument("--ram-price", type=float, default=DEFAULT_RAM_PRICE)
    p.add_argument("--latency-s", type=float, default=0.01)
    p.add_argument("--page-min", type=float, default=2048)
    p.add_argument("--page-max", type=float, default=64 * 2**20)
    p.add_argument("--page-sizes", help="comma-separated page sizes for --curve")
    _add_format(p)
    p.set_defaults(func=_cmd_seqrule)

    p = sub.add_parser("sortplan", help="one-pass/two-pass sort memory planning")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--file-bytes", type=float)
    mode.add_argument("--max-file", action="store_true",
                      help="largest two-pass file for --memory-bytes")
    p.add_argument("--buffer-bytes", type=float, default=8192)
    p.add_argument("--memory-bytes", type=float)
    # None: _cmd_sortplan applies sorting's defaults, so the parser needs no sorting
    p.add_argument("--c-buf", type=float)
    p.add_argument("--c-sqrt", type=float)
    p.add_argument("--one-pass-threshold", type=float)
    _add_format(p)
    p.set_defaults(func=_cmd_sortplan)

    p = sub.add_parser("indexsize", help="index page utility, cost, and optimum")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--table6", action="store_true",
                      help="reference tabulation: 20 B entries, 0.7 fill, 10 ms, 10 MB/s")
    mode.add_argument("--figure7", action="store_true",
                      help="benefit/cost grids over entry sizes and disk speeds")
    mode.add_argument("--page-bytes", type=float)
    mode.add_argument("--candidates", help="comma-separated page sizes to search")
    p.add_argument("--entry-bytes", type=float, default=20)
    p.add_argument("--fill", type=float, default=0.7)
    p.add_argument("--latency-s", type=float, default=0.01)
    p.add_argument("--bandwidth-bps", type=float, default=1e7)
    p.add_argument("--n-items", type=int)
    _add_format(p)
    p.set_defaults(func=_cmd_indexsize)

    p = sub.add_parser("metrics", help="Kaps/Maps/Scan and rent-normalized metrics")
    p.add_argument("--table8", action="store_true",
                   help="the RAM/disk/tape-robot reference trio")
    p.add_argument("--device", help="preset name or device file")
    p.add_argument("--device-name")
    p.add_argument("--years", type=float, default=3.0,
                   help="depreciation period (365-day years)")
    _add_format(p)
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("gen-trace", help="deterministic synthetic access trace")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--ops", type=int, required=True)
    p.add_argument("--pages", type=int, required=True)
    p.add_argument("--zipf-s", type=float, default=0.0)
    p.add_argument("--write-fraction", type=float, default=0.0)
    p.add_argument("--ops-per-second", type=float, default=1.0)
    p.add_argument("--out", help="write here instead of stdout")

    p = sub.add_parser("simulate", help="run the buffer-pool simulator on a trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--frames", type=int, required=True)
    p.add_argument("--policy", choices=("lru", "clock2"), default="lru")
    p.add_argument("--n-seconds", type=float, default=0.0,
                   help="protection lifetime N granted to re-read listed pages")
    p.add_argument("--checkpoint", type=float, default=0.0,
                   help="checkpoint interval in seconds (0 disables)")
    _add_format(p)
    p.set_defaults(func=_cmd_simulate)

    return parser


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.command == "gen-trace":
            _gen_trace(args, out)
        else:
            _render(args.func(args), args.format, out)
        return 0
    except _CliDataError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    # bad arguments, ConfigError included; OverflowError: a float result too large for an int
    except (ValueError, OverflowError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout early, as `| head` does
        # point stdout at devnull so the flush at exit cannot fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    entry()
