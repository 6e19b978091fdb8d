"""Allocation plans and exact parameter accounting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mole.allocation import (
    AllocationPlan,
    ModelDims,
    parse_alloc_spec,
    per_layer_param_slope,
    plan_from_shape,
    trainable_param_count,
    validate,
)
from mole.model import DIMS_PRESETS

LLAMA = DIMS_PRESETS["llama2-7b"]
PAPER_GROUPS = {"triangle": (8, 6, 4, 2), "inverted_triangle": (2, 4, 6, 8),
                "hourglass": (8, 2, 2, 8), "rectangle": (5, 5, 5, 5)}


def brute_force_count(counts, dims: ModelDims) -> int:
    """Oracle: per-expert, per-matrix explicit summation."""
    total = 0
    for n in counts:
        for _, din, dout in dims.adapted_matrices:
            for _ in range(n):
                total += din * dims.rank + dims.rank * dout
            total += din * n
    return total


class TestPlanFromShape:
    def test_inverted_over_32_layers(self):
        plan = plan_from_shape("inverted_triangle", (2, 4, 6, 8), 32)
        assert plan.counts == (2,) * 8 + (4,) * 8 + (6,) * 8 + (8,) * 8
        assert plan.total_experts == 160

    def test_rectangle_four_layers(self):
        plan = plan_from_shape("rectangle", (5, 5, 5, 5), 4)
        assert plan.counts == (5, 5, 5, 5)

    def test_hourglass_eight_layers(self):
        plan = plan_from_shape("hourglass", (8, 2, 2, 8), 8)
        assert plan.counts == (8, 8, 2, 2, 2, 2, 8, 8)

    def test_indivisible_layer_count_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            plan_from_shape("rectangle", (2, 2, 2, 2), 6)

    def test_shape_pattern_mismatch_rejected(self):
        with pytest.raises(ValueError, match="pattern"):
            plan_from_shape("triangle", (2, 4, 6, 8), 4)

    def test_group_below_k_rejected(self):
        with pytest.raises(ValueError, match="top-K"):
            plan_from_shape("inverted_triangle", (1, 4, 6, 8), 4, k=2)


class TestParamCount:
    @pytest.mark.parametrize("shape,groups", sorted(PAPER_GROUPS.items()))
    def test_reference_dims_exact_count(self, shape, groups):
        plan = plan_from_shape(shape, groups, 32)
        assert trainable_param_count(plan, LLAMA) == 105_635_840

    def test_all_reference_shapes_share_expert_total(self):
        totals = {plan_from_shape(s, g, 32).total_experts for s, g in PAPER_GROUPS.items()}
        assert totals == {160}

    def test_zero_plan_counts_zero(self):
        assert trainable_param_count(AllocationPlan((0, 0)), ModelDims(2, 4, 8, 1)) == 0

    def test_small_case_matches_brute_force_oracle(self):
        dims = ModelDims(num_layers=2, d_model=4, d_ffn=8, rank=1)
        plan = AllocationPlan((1, 2))
        assert trainable_param_count(plan, dims) == brute_force_count((1, 2), dims) == 300

    @given(st.lists(st.integers(0, 9), min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_linear_in_counts(self, counts):
        dims = ModelDims(num_layers=len(counts), d_model=6, d_ffn=10, rank=2)
        plan = AllocationPlan(tuple(counts))
        slope = per_layer_param_slope(dims)
        assert trainable_param_count(plan, dims) == slope * sum(counts)
        assert trainable_param_count(plan, dims) == brute_force_count(counts, dims)


class TestValidate:
    def test_ok(self):
        assert validate(AllocationPlan((2, 4)), ModelDims(2, 8, 16, 2)) == []

    def test_count_below_k(self):
        violations = validate(AllocationPlan((1, 4)), ModelDims(2, 8, 16, 2))
        assert violations == ["layer 0: expert count 1 < top-K 2"]

    def test_length_mismatch_is_single_violation(self):
        violations = validate(AllocationPlan((2, 2, 2)), ModelDims(4, 8, 16, 2))
        assert len(violations) == 1 and "4" in violations[0]

    def test_all_violations_reported(self):
        violations = validate(AllocationPlan((1, 1, 4)), ModelDims(2, 8, 16, 2))
        assert len(violations) == 3  # length + two low counts


class TestParseAllocSpec:
    def test_counts_form(self):
        assert parse_alloc_spec("counts=1,1,3,3", 4).counts == (1, 1, 3, 3)

    def test_shape_colon_code(self):
        assert parse_alloc_spec("inverted:2468", 32).counts[:9] == (2,) * 8 + (4,)

    def test_shape_key_value_form(self):
        plan = parse_alloc_spec("shape=hourglass group=8228", 4)
        assert plan.counts == (8, 2, 2, 8)

    def test_comma_groups(self):
        assert parse_alloc_spec("rect:12,12,12,12", 4).counts == (12,) * 4

    def test_counts_length_checked(self):
        with pytest.raises(ValueError, match="4 layers"):
            parse_alloc_spec("counts=1,2", 4)

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_alloc_spec("wedge-8", 4)
