"""Tests for selection (nth_element/partial_sort/inplace_merge),
mutation (replace/remove/unique/rotate) and heap checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import pstl
from repro.errors import ConfigurationError
from repro.types import FLOAT64


class TestNthElement:
    def test_median(self, run_ctx):
        data = np.random.default_rng(0).permutation(101).astype(np.float64)
        arr = run_ctx.array_from(data, FLOAT64)
        r = pstl.nth_element(run_ctx, arr, 50)
        assert r.value == 50.0
        assert np.all(arr.data[:50] <= 50.0)
        assert np.all(arr.data[51:] >= 50.0)

    def test_bounds(self, run_ctx):
        arr = run_ctx.allocate(4, FLOAT64)
        with pytest.raises(ConfigurationError):
            pstl.nth_element(run_ctx, arr, 4)

    def test_cheaper_than_sort(self, model_ctx):
        arr = model_ctx.allocate(1 << 26, FLOAT64)
        t_nth = pstl.nth_element(model_ctx, arr, 1 << 25).seconds
        t_sort = pstl.sort(model_ctx, arr).seconds
        assert t_nth < t_sort


class TestPartialSort:
    def test_front_sorted(self, run_ctx):
        data = np.random.default_rng(1).permutation(50).astype(np.float64)
        arr = run_ctx.array_from(data, FLOAT64)
        pstl.partial_sort(run_ctx, arr, 10)
        assert arr.data[:10].tolist() == list(map(float, range(10)))
        assert sorted(arr.data.tolist()) == list(map(float, range(50)))

    def test_copy_variant(self, run_ctx):
        data = np.random.default_rng(2).permutation(64).astype(np.float64)
        src = run_ctx.array_from(data, FLOAT64)
        dst = run_ctx.allocate(8, FLOAT64)
        pstl.partial_sort_copy(run_ctx, src, dst)
        assert dst.data.tolist() == list(map(float, range(8)))

    def test_copy_dst_larger_rejected(self, run_ctx):
        src = run_ctx.allocate(4, FLOAT64)
        dst = run_ctx.allocate(8, FLOAT64)
        with pytest.raises(ConfigurationError):
            pstl.partial_sort_copy(run_ctx, src, dst)

    def test_small_k_cheaper_than_sort(self, model_ctx):
        arr = model_ctx.allocate(1 << 26, FLOAT64)
        t_partial = pstl.partial_sort(model_ctx, arr, 1 << 10).seconds
        t_sort = pstl.sort(model_ctx, arr).seconds
        assert t_partial < t_sort


class TestInplaceMerge:
    def test_merges_halves(self, run_ctx):
        arr = run_ctx.array_from(np.array([1.0, 4.0, 7.0, 2.0, 3.0, 9.0]), FLOAT64)
        pstl.inplace_merge(run_ctx, arr, 3)
        assert arr.data.tolist() == [1, 2, 3, 4, 7, 9]

    def test_middle_validated(self, run_ctx):
        arr = run_ctx.allocate(4, FLOAT64)
        for middle in (-1, 5):
            with pytest.raises(ConfigurationError):
                pstl.inplace_merge(run_ctx, arr, middle)

    @pytest.mark.parametrize("middle", [0, 4])
    def test_empty_half_accepted(self, run_ctx, middle):
        """Like std::inplace_merge, either half may be empty."""
        arr = run_ctx.array_from(np.array([1.0, 2.0, 5.0, 8.0]), FLOAT64)
        pstl.inplace_merge(run_ctx, arr, middle)
        assert arr.data.tolist() == [1, 2, 5, 8]

    @pytest.mark.parametrize("mode", ["run", "model"])
    def test_case_runs_at_one_element(self, model_ctx, mode):
        """The case's ``middle = max(1, n // 2)`` is n itself at n = 1."""
        from repro.suite.cases import get_case
        from repro.suite.wrappers import measure_case

        ctx = model_ctx.with_(mode=mode)
        assert measure_case(get_case("inplace_merge"), ctx, 1) > 0.0


class TestReplaceRemoveUnique:
    def test_replace(self, run_ctx):
        arr = run_ctx.array_from(np.array([1.0, 5.0, 1.0]), FLOAT64)
        pstl.replace(run_ctx, arr, 1.0, 2.0)
        assert arr.data.tolist() == [2, 5, 2]

    def test_replace_if(self, run_ctx):
        arr = run_ctx.array_from(np.arange(6, dtype=np.float64), FLOAT64)
        pstl.replace_if(run_ctx, arr, pstl.less_than(3.0), -1.0)
        assert arr.data.tolist() == [-1, -1, -1, 3, 4, 5]

    def test_replace_copy(self, run_ctx):
        src = run_ctx.array_from(np.array([1.0, 2.0, 1.0]), FLOAT64)
        dst = run_ctx.allocate(3, FLOAT64)
        pstl.replace_copy(run_ctx, src, dst, 1.0, 7.0)
        assert dst.data.tolist() == [7, 2, 7]
        assert src.data.tolist() == [1, 2, 1]  # source untouched

    def test_remove_if(self, run_ctx):
        arr = run_ctx.array_from(np.arange(8, dtype=np.float64), FLOAT64)
        r = pstl.remove_if(run_ctx, arr, pstl.less_than(4.0))
        assert r.value == 4
        assert arr.data[:4].tolist() == [4, 5, 6, 7]

    def test_remove_copy(self, run_ctx):
        src = run_ctx.array_from(np.array([1.0, 0.0, 2.0, 0.0]), FLOAT64)
        dst = run_ctx.allocate(4, FLOAT64)
        r = pstl.remove_copy(run_ctx, src, dst, 0.0)
        assert r.value == 2
        assert dst.data[:2].tolist() == [1, 2]

    def test_unique(self, run_ctx):
        arr = run_ctx.array_from(np.array([1.0, 1.0, 2.0, 3.0, 3.0, 3.0]), FLOAT64)
        r = pstl.unique(run_ctx, arr)
        assert r.value == 3
        assert arr.data[:3].tolist() == [1, 2, 3]

    def test_unique_nonconsecutive_kept(self, run_ctx):
        arr = run_ctx.array_from(np.array([1.0, 2.0, 1.0]), FLOAT64)
        assert pstl.unique(run_ctx, arr).value == 3

    def test_unique_copy(self, run_ctx):
        src = run_ctx.array_from(np.array([5.0, 5.0, 6.0]), FLOAT64)
        dst = run_ctx.allocate(3, FLOAT64)
        assert pstl.unique_copy(run_ctx, src, dst).value == 2
        assert dst.data[:2].tolist() == [5, 6]


class TestRotate:
    def test_rotate(self, run_ctx):
        arr = run_ctx.array_from(np.arange(5, dtype=np.float64), FLOAT64)
        pstl.rotate(run_ctx, arr, 2)
        assert arr.data.tolist() == [2, 3, 4, 0, 1]

    def test_rotate_zero_noop(self, run_ctx):
        arr = run_ctx.array_from(np.arange(4, dtype=np.float64), FLOAT64)
        pstl.rotate(run_ctx, arr, 0)
        assert arr.data.tolist() == [0, 1, 2, 3]

    def test_rotate_copy(self, run_ctx):
        src = run_ctx.array_from(np.arange(4, dtype=np.float64), FLOAT64)
        dst = run_ctx.allocate(4, FLOAT64)
        pstl.rotate_copy(run_ctx, src, dst, 1)
        assert dst.data.tolist() == [1, 2, 3, 0]

    def test_middle_validated(self, run_ctx):
        arr = run_ctx.allocate(4, FLOAT64)
        with pytest.raises(ConfigurationError):
            pstl.rotate(run_ctx, arr, 5)


class TestHeap:
    def test_valid_heap(self, run_ctx):
        arr = run_ctx.array_from(np.array([9.0, 7.0, 8.0, 1.0, 6.0]), FLOAT64)
        assert pstl.is_heap(run_ctx, arr).value is True
        assert pstl.is_heap_until(run_ctx, arr).value == 5

    def test_violation_position(self, run_ctx):
        arr = run_ctx.array_from(np.array([9.0, 7.0, 8.0, 10.0]), FLOAT64)
        assert pstl.is_heap(run_ctx, arr).value is False
        assert pstl.is_heap_until(run_ctx, arr).value == 3

    def test_singleton_is_heap(self, run_ctx):
        arr = run_ctx.array_from(np.array([1.0]), FLOAT64)
        assert pstl.is_heap(run_ctx, arr).value is True

    def test_sorted_descending_is_heap(self, run_ctx):
        arr = run_ctx.array_from(np.arange(16, 0, -1, dtype=np.float64), FLOAT64)
        assert pstl.is_heap(run_ctx, arr).value is True


@settings(max_examples=25)
@given(
    data=st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=1, max_size=100),
    frac=st.floats(0.0, 1.0),
)
def test_nth_element_matches_sorted(data, frac):
    """Property: nth_element returns sorted(data)[nth]."""
    from repro.backends import get_backend
    from repro.execution.context import ExecutionContext
    from repro.machines import get_machine

    ctx = ExecutionContext(
        get_machine("A"), get_backend("gcc-tbb"), threads=4, mode="run"
    )
    nth = min(len(data) - 1, int(frac * len(data)))
    arr = ctx.array_from(np.array(data), FLOAT64)
    assert pstl.nth_element(ctx, arr, nth).value == sorted(data)[nth]


@settings(max_examples=25)
@given(data=st.lists(st.integers(0, 4), min_size=1, max_size=80))
def test_unique_matches_itertools_groupby(data):
    """Property: unique equals collapsing consecutive runs."""
    from itertools import groupby

    from repro.backends import get_backend
    from repro.execution.context import ExecutionContext
    from repro.machines import get_machine

    ctx = ExecutionContext(
        get_machine("A"), get_backend("gcc-tbb"), threads=4, mode="run"
    )
    arr = ctx.array_from(np.array(data, dtype=float), FLOAT64)
    expected = [float(k) for k, _ in groupby(data)]
    r = pstl.unique(ctx, arr)
    assert r.value == len(expected)
    assert arr.data[: r.value].tolist() == expected
