import math
import random

import pytest
from hypothesis import given, strategies as st

from storage_rules import sorting


def test_two_pass_memory_zero_file():
    assert sorting.two_pass_memory(0, 100_000) == 600_000


def test_two_pass_memory_100gb_example():
    # 6*1e5 + 3*sqrt(1e5 * 1e11) = 6e5 + 3e8
    assert sorting.two_pass_memory(1e11, 1e5) == pytest.approx(3.006e8)


def test_two_pass_memory_100tb_with_8k_buffers_fits_5gb():
    need = sorting.two_pass_memory(1e14, 8192)
    assert need == pytest.approx(2.7153e9, rel=1e-4)
    assert need <= 5e9


def test_two_pass_memory_validation():
    with pytest.raises(ValueError):
        sorting.two_pass_memory(1e9, 0)
    with pytest.raises(ValueError):
        sorting.two_pass_memory(-1, 8192)
    with pytest.raises(ValueError):
        sorting.two_pass_memory(1e9, 8192, c_buf=0)
    # a NaN or inf size or constant gives NaN or inf memory (inf * sqrt(0) is NaN)
    for args in ((math.nan, 8192), (math.inf, 8192), (1e9, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            sorting.two_pass_memory(*args)
    with pytest.raises(ValueError, match="finite"):
        sorting.two_pass_memory(0, 8192, c_sqrt=math.inf)


@given(file_bytes=st.floats(min_value=0, max_value=1e18),
       buffer_bytes=st.floats(min_value=1, max_value=1e9),
       factor=st.floats(min_value=1.001, max_value=100))
def test_two_pass_memory_monotone(file_bytes, buffer_bytes, factor):
    base = sorting.two_pass_memory(file_bytes, buffer_bytes)
    assert sorting.two_pass_memory(file_bytes * factor, buffer_bytes) >= base
    assert sorting.two_pass_memory(file_bytes, buffer_bytes * factor) > base


@given(file_bytes=st.floats(min_value=1, max_value=1e18),
       buffer_bytes=st.floats(min_value=1, max_value=1e9))
def test_inverse_round_trip(file_bytes, buffer_bytes):
    memory = sorting.two_pass_memory(file_bytes, buffer_bytes)
    back = sorting.max_two_pass_file(memory, buffer_bytes)
    assert back == pytest.approx(file_bytes, rel=1e-9)


def test_max_two_pass_file_against_bisection_oracle():
    # independent check: bisect the largest file whose two-pass memory
    # fits the budget, using only the forward formula
    memory, buffer = 5e9, 8192.0
    lo, hi = 0.0, 1e20
    for _ in range(200):
        mid = (lo + hi) / 2
        if sorting.two_pass_memory(mid, buffer) <= memory:
            lo = mid
        else:
            hi = mid
    answer = sorting.max_two_pass_file(memory, buffer)
    assert answer == pytest.approx(lo, rel=1e-9)
    assert answer == pytest.approx(3.39e14, rel=1e-2)


def test_max_two_pass_file_boundary_error():
    with pytest.raises(ValueError, match="insufficient memory"):
        sorting.max_two_pass_file(6 * 8192, 8192)
    with pytest.raises(ValueError, match="insufficient memory"):
        sorting.max_two_pass_file(100, 8192)
    for memory in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            sorting.max_two_pass_file(memory, 8192)
    # the square overflows to inf instead of raising OverflowError
    assert sorting.max_two_pass_file(1e300, 8192) == math.inf


def test_run_merge_plan_thousand_runs():
    plan = sorting.run_merge_plan(1e11, 1e8, 1e5)
    assert plan.passes == 2
    assert plan.run_count == 1000
    assert plan.fan_in == 1000


def test_run_merge_plan_one_pass():
    plan = sorting.run_merge_plan(5e7, 1e8, 1e5)
    assert plan.passes == 1
    assert plan.run_count == 1
    assert plan.fan_in == 1000


def test_run_merge_plan_infeasible_carries_required_memory():
    with pytest.raises(sorting.PlanError, match="more than two passes") as err:
        sorting.run_merge_plan(1e12, 1e6, 1e5)
    assert err.value.run_count == 1_000_000
    assert err.value.fan_in == 10


def test_run_merge_plan_validation():
    with pytest.raises(ValueError, match="memory_bytes"):
        sorting.run_merge_plan(1e9, 50, 100)
    for buffer in (0, -1, math.nan, math.inf):
        with pytest.raises(ValueError, match="buffer_bytes"):
            sorting.run_merge_plan(1e9, 1e6, buffer)
    for args in ((1e9, math.nan, 100), (1e9, math.inf, 100), (math.nan, 1e6, 100)):
        with pytest.raises(ValueError, match="finite"):
            sorting.run_merge_plan(*args)


def _brute_force_two_pass_feasible(file_bytes: int, memory: int, buffer: int) -> bool:
    # search run lengths directly: pass one cuts runs of at most the
    # memory size, pass two merges at most floor(memory/buffer) of them
    if file_bytes <= memory:
        return True
    fan_in = memory // buffer
    return any(-(-file_bytes // run_len) <= fan_in
               for run_len in range(1, memory + 1))


def test_plan_matches_brute_force_and_continuous_bounds():
    rng = random.Random(20260809)
    for _ in range(300):
        buffer = rng.randint(1, 20)
        memory = rng.randint(buffer, 400)
        file_bytes = rng.randint(0, 3000)
        feasible_bf = _brute_force_two_pass_feasible(file_bytes, memory, buffer)
        try:
            plan = sorting.run_merge_plan(file_bytes, memory, buffer)
            feasible = True
        except sorting.PlanError:
            feasible = False
            plan = None
        assert feasible == feasible_bf, (file_bytes, memory, buffer)
        if plan is not None and plan.passes == 2:
            assert plan.run_count <= plan.fan_in
        # continuous two-pass bound with c_buf=0, c_sqrt=1 brackets feasibility
        threshold = math.sqrt(file_bytes * buffer)
        if file_bytes > memory and memory < threshold:
            assert not feasible
        if memory >= threshold + 2 * buffer:
            assert feasible


def test_choose_pass_count():
    assert sorting.choose_pass_count(1e9) == 1
    assert sorting.choose_pass_count(1e14) == 2
    assert sorting.choose_pass_count(5e9) == 1  # threshold is inclusive
    assert sorting.choose_pass_count(5e9 + 1) == 2
    assert sorting.choose_pass_count(1e12, one_pass_threshold_bytes=2e12) == 1
    with pytest.raises(ValueError):
        sorting.choose_pass_count(1e9, one_pass_threshold_bytes=0)
