"""Storage-economics rules of thumb and a trace-driven buffer-pool simulator.

Break-even caching intervals for RAM vs disk/tape, sequential-access
rules, two-pass sort memory planning, optimal index page sizing,
Kaps/Maps/Scan device metrics, and an N-second-lifetime buffer-pool
simulator, with a CLI that reproduces the reference tables and figure
grids as text or CSV.
"""
from .bufferpool import (
    ConfigError,
    PoolConfig,
    SimReport,
    TraceEvent,
    TraceOrderError,
    generate_trace,
    read_trace_csv,
    recommended_n,
    simulate,
    write_trace_csv,
)
from .devices import (
    DeviceFileError,
    DeviceSpec,
    DiskSpec,
    RamSpec,
    TapeRobotSpec,
    UnknownPresetError,
    load_device_file,
    parse_device_file,
    preset,
    preset_names,
    ram_companion,
    serialize_devices,
)
from .indexing import (
    IndexParams,
    PageCostModel,
    PageEvaluation,
    access_cost,
    benefit_cost,
    entries_per_page,
    evaluate_grid,
    evaluate_page,
    index_height,
    optimal_page_size,
    page_utility,
)
from .metrics import (
    MetricReport,
    RentModel,
    dollar_rate,
    dollars_per_tbscan,
    kaps,
    maps,
    metric_report,
    scan_seconds,
    table8_reports,
)
from .rules import (
    BreakEvenResult,
    EconomicParams,
    RaidAdjustment,
    SequentialParams,
    TechnologyParams,
    apply_raid,
    asymptotic_sequential_interval,
    break_even_interval,
    derive_sequential_params,
    economic_ratio,
    raid_adjustment,
    reference_interval_vs_page_size,
    sequential_break_even,
    technology_ratio,
)
from .sorting import (
    PlanError,
    SortPlan,
    choose_pass_count,
    max_two_pass_file,
    run_merge_plan,
    two_pass_memory,
)

__version__ = "0.1.0"
