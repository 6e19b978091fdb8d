"""Analysis metrics: redundancy, router utilization, OP/PD, report emission."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golden_tables import DOMAINS, EXPECTED, TABLES, matrix_rows
from mole.adapters import LoraExpert
from mole.allocation import AllocationPlan
from mole.analysis import (
    AccuracyMatrix,
    build_report,
    dumps_report,
    emit_report,
    mean_pairwise_distance,
    overall_performance,
    performance_drop,
    redundancy,
    redundancy_report,
    router_stats,
)
from mole.model import AdamW, AdaptedModel, ToyTransformerConfig, length_batches, train_step
from mole.tasks import generate_task
from mole.tensor import Rng


def small_model(counts=(2, 2), k=2, seed=3, **overrides):
    base = dict(num_layers=len(counts), d_model=16, d_ffn=24, num_heads=2,
                vocab_size=256, max_seq_len=16,
                allocation=AllocationPlan(tuple(counts), k=k), rank=2,
                dropout=0.0, seed=seed)
    base.update(overrides)
    return AdaptedModel.build(ToyTransformerConfig(**base))


def set_expert(expert: LoraExpert, out_factor, in_factor):
    expert.out_factor.data[:] = np.asarray(out_factor)
    expert.in_factor.data[:] = np.asarray(in_factor)


class TestContinualMetrics:
    @pytest.mark.parametrize("code", sorted(TABLES))
    def test_overall_performance_oracle(self, code):
        # independent oracle: plain mean of the last row
        matrix = AccuracyMatrix.from_rows(matrix_rows(code), DOMAINS)
        expected = sum(TABLES[code][-1]) / 5.0
        assert overall_performance(matrix) * 100 == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("code", sorted(TABLES))
    def test_performance_drop_oracle(self, code):
        # independent oracle: explicit double loop over stage deltas
        matrix = AccuracyMatrix.from_rows(matrix_rows(code), DOMAINS)
        rows = TABLES[code]
        total = sum(rows[k][i] - rows[k - 1][i]
                    for k in range(1, 5) for i in range(k))
        assert performance_drop(matrix) * 100 == pytest.approx(total / 10.0, abs=1e-9)

    def test_constant_matrix(self):
        matrix = AccuracyMatrix.from_rows([[0.4] * 3] * 3)
        assert overall_performance(matrix) == pytest.approx(0.4, abs=1e-15)

    def test_identical_rows_no_drop(self):
        matrix = AccuracyMatrix.from_rows([[0.3, 0.8, 0.5]] * 3)
        assert performance_drop(matrix) == 0.0

    def test_monotone_columns_nonnegative_drop(self):
        rows = [[0.1, 0.2, 0.3], [0.2, 0.2, 0.4], [0.5, 0.6, 0.4]]
        assert performance_drop(AccuracyMatrix.from_rows(rows)) >= 0.0

    def test_single_domain_rejected_for_drop(self):
        with pytest.raises(ValueError, match="at least 2"):
            performance_drop(AccuracyMatrix.from_rows([[0.5]]))

    def test_lower_triangular_matrix_suffices_for_both(self):
        rows = [[0.9, None, None], [0.7, 0.95, None], [0.6, 0.8, 0.99]]
        matrix = AccuracyMatrix.from_rows(rows)
        assert overall_performance(matrix) == pytest.approx((0.6 + 0.8 + 0.99) / 3)
        assert np.isfinite(performance_drop(matrix))

    def test_incomplete_final_row_rejected(self):
        matrix = AccuracyMatrix.from_rows([[0.9, None], [None, 0.8]])
        with pytest.raises(ValueError, match="incomplete"):
            overall_performance(matrix)

    def test_percent_ingestion_warns_and_scales(self):
        with pytest.warns(UserWarning, match="percent"):
            matrix = AccuracyMatrix.from_rows([[95.0, 80.0], [90.0, 85.0]])
        assert matrix.values.max() <= 1.0
        assert overall_performance(matrix) == pytest.approx(0.875)

    def test_csv_round_trip(self, tmp_path):
        matrix = AccuracyMatrix.from_rows(
            [[0.9, None, None], [0.7, 0.95, None], [0.6, 0.8, 0.99]],
            domains=("a", "b", "c"))
        path = tmp_path / "matrix.csv"
        matrix.to_csv(path)
        again = AccuracyMatrix.from_csv(path)
        assert again.domains == ("a", "b", "c")
        np.testing.assert_array_equal(np.isfinite(again.values), np.isfinite(matrix.values))
        np.testing.assert_allclose(again.values[np.isfinite(again.values)],
                                   matrix.values[np.isfinite(matrix.values)])


class TestRedundancy:
    def test_identical_experts_zero(self):
        model = small_model(counts=(3, 2))
        for block in model.blocks:
            for layer in block.adapted.values():
                for e in layer.experts:
                    set_expert(e, np.ones(e.out_factor.shape), np.ones(e.in_factor.shape))
        report = redundancy(model, 0)
        assert report.value == 0.0
        assert all(v == 0.0 for v in report.per_matrix.values())

    def test_hand_computed_two_expert_case(self):
        # effective updates [[1,0],[0,0]] and [[0,0],[0,1]] -> distance sqrt(2)
        a = LoraExpert.from_factors([[1.0], [0.0]], [[1.0, 0.0]])
        b = LoraExpert.from_factors([[0.0], [1.0]], [[0.0, 1.0]])
        from mole.adapters import AdaptedLinear, Router
        layer = AdaptedLinear(np.zeros((2, 2)), [a, b], Router(2, 2, 1))
        assert mean_pairwise_distance(layer) == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_three_experts_mean_over_three_pairs(self):
        model = small_model(counts=(3,), k=2, seed=5)
        rng = Rng(6)
        layer = model.blocks[0].adapted["q"]
        for i, e in enumerate(layer.experts):
            set_expert(e, rng.child("a", i).normal(e.out_factor.shape),
                       rng.child("b", i).normal(e.in_factor.shape))
        deltas = [e.effective_delta() for e in layer.experts]
        expected = np.mean([np.linalg.norm(deltas[i] - deltas[j])
                            for i, j in itertools.combinations(range(3), 2)])
        assert mean_pairwise_distance(layer) == pytest.approx(expected, abs=1e-12)

    def test_relabeling_invariance_and_scaling(self):
        model = small_model(counts=(3,), k=2, seed=7)
        layer = model.blocks[0].adapted["v"]
        rng = Rng(8)
        for i, e in enumerate(layer.experts):
            set_expert(e, rng.child("a", i).normal(e.out_factor.shape),
                       rng.child("b", i).normal(e.in_factor.shape))
        base = mean_pairwise_distance(layer)
        layer.experts[:] = [layer.experts[2], layer.experts[0], layer.experts[1]]
        assert mean_pairwise_distance(layer) == pytest.approx(base, abs=1e-12)
        for e in layer.experts:
            e.out_factor.data *= 3.0
        assert mean_pairwise_distance(layer) == pytest.approx(3.0 * base, rel=1e-12)

    def test_insufficient_experts_reported_absent(self):
        model = small_model(counts=(1, 2), k=1)
        report = redundancy(model, 0)
        assert report.value is None
        assert all(v is None for v in report.per_matrix.values())
        assert redundancy(model, 1).value is not None

    def test_headline_uses_attention_tags_only(self):
        model = small_model(counts=(2,), k=2)
        block = model.blocks[0]
        for tag in ("q", "k", "v", "o"):
            for val, e in zip((1.0, 2.0), block.adapted[tag].experts):
                set_expert(e, np.full(e.out_factor.shape, val),
                           np.full(e.in_factor.shape, val))
        for tag in ("gate", "up", "down"):
            for e in block.adapted[tag].experts:
                set_expert(e, np.full(e.out_factor.shape, 9.0),
                           np.full(e.in_factor.shape, 9.0))
        report = redundancy(model, 0)
        assert report.value == pytest.approx(report.per_matrix["q"], abs=1e-12)
        assert report.per_matrix["gate"] == 0.0  # identical MLP experts, excluded anyway

    def test_fresh_model_all_zero(self):
        model = small_model(counts=(2, 3), k=2)
        for entry in redundancy_report(model):
            assert entry.value == 0.0


class TestRouterStats:
    def test_all_experts_selected_when_k_equals_n(self):
        model = small_model(counts=(2, 2), k=2)
        task = generate_task("modular_add", 12, seed=4)
        stats = router_stats(model, task.train)
        total_tokens = sum(len(ex.prompt) for ex in task.train)
        for entry in stats:
            assert entry.tokens == total_tokens
            assert entry.selection_counts == [total_tokens, total_tokens]
            for w in entry.mean_selected_weight:
                assert 0.0 < w < 1.0

    def test_counts_sum_to_tokens_times_k(self):
        model = small_model(counts=(3, 3), k=2, seed=11)
        task = generate_task("copy", 10, seed=12)
        for entry in router_stats(model, task.train):
            assert sum(entry.selection_counts) == entry.tokens * 2

    def test_symmetric_router_weights_near_half(self):
        # fresh experts, K=2 of N=2: fusion weights hover around 0.5 by symmetry
        model = small_model(counts=(2, 2), k=2, seed=13)
        task = generate_task("parity", 20, seed=14)
        for entry in router_stats(model, task.train):
            weights = entry.mean_selected_weight
            assert abs(sum(weights) - 1.0) < 1e-9
            assert all(0.35 < w < 0.65 for w in weights)

    def test_manual_trace_three_tokens(self):
        model = small_model(counts=(2,), k=1, seed=15)
        from mole.tasks import Example
        examples = [Example(prompt=(1, 2, 3), label=5)]
        stats = router_stats(model, examples)
        q_entry = next(e for e in stats if e.tag == "q" and e.layer == 0)
        # trace the same three tokens through the router by hand
        result = model.forward(np.array([[1, 2, 3]]))
        gate = result.gates[(0, "q")]
        expected_counts = np.bincount(gate.selected.reshape(-1), minlength=2)
        assert q_entry.selection_counts == expected_counts.tolist()
        assert q_entry.tokens == 3
        selected_weights = [w for w in q_entry.mean_selected_weight if w is not None]
        assert all(w == pytest.approx(1.0, abs=1e-12) for w in selected_weights)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            router_stats(small_model(), [])

    def test_graph_free_counts_match_the_recording_forward(self):
        # router_stats forwards without a graph; its tallies are those of the
        # recording forward's gates, bucket by bucket
        model = small_model(counts=(2, 4), k=2, seed=16)
        for name, p in model.trainable_parameters().items():
            p.data[:] = Rng(17).child(name).normal(p.shape, std=0.3)
        examples = (generate_task("modular_add", 10, seed=18).train
                    + generate_task("copy", 10, seed=18).train)
        counts, sums = {}, {}
        for _, ids in length_batches(examples):
            for key, gate in model.forward(ids).gates.items():
                n = gate.probs.shape[1]
                counts[key] = counts.get(key, 0) + np.bincount(
                    gate.selected.reshape(-1), minlength=n)
                bucket = np.zeros(n)
                np.add.at(bucket, gate.selected.reshape(-1), gate.weights.reshape(-1))
                sums[key] = sums.get(key, 0.0) + bucket
        stats = router_stats(model, examples)
        assert len(stats) == len(counts) == 2 * 7
        for entry in stats:
            key = (entry.layer, entry.tag)
            assert entry.selection_counts == counts[key].tolist()
            np.testing.assert_allclose(entry.weight_sums, sums[key], rtol=1e-12)


    def test_counts_do_not_touch_the_head(self):
        # router_stats reads gates only, so it runs the trunk and stops
        # before the final norm and head: an infinite head changes nothing
        model = small_model(counts=(2, 4), k=2, seed=19)
        for name, p in model.trainable_parameters().items():
            p.data[:] = Rng(20).child(name).normal(p.shape, std=0.3)
        examples = generate_task("copy", 10, seed=21).train
        before = router_stats(model, examples)
        model.head.data[:] = np.inf
        with np.errstate(invalid="raise"):
            after = router_stats(model, examples)
        assert [(u.tokens, u.selection_counts, u.weight_sums) for u in after] == \
            [(u.tokens, u.selection_counts, u.weight_sums) for u in before]


class TestEmitReport:
    def test_redundancy_csv_has_one_row_per_layer(self, tmp_path):
        model = small_model(counts=(2, 2))
        report = build_report(model=model)
        path = tmp_path / "report.csv"
        emit_report(report, "csv", path)
        lines = path.read_text().splitlines()
        header_idx = next(i for i, ln in enumerate(lines) if ln.startswith("layer,"))
        data = [ln for ln in lines[header_idx + 1:] if ln and not ln.startswith("layer")]
        assert len(data) == 2

    def test_json_round_trip_byte_identical(self, tmp_path):
        model = small_model(counts=(2, 2))
        matrix = AccuracyMatrix.from_rows([[0.9, None], [0.8, 0.95]])
        report = build_report(model=model, matrix=matrix)
        path = tmp_path / "report.json"
        emit_report(report, "json", path)
        text = path.read_text()
        assert dumps_report(json.loads(text)) == text

    def test_metrics_section_reproduces_reference_scores(self):
        matrix = AccuracyMatrix.from_rows(matrix_rows("lora"), DOMAINS)
        report = build_report(matrix=matrix)
        metrics = report["metrics"]
        assert metrics["overall_performance"] * 100 == pytest.approx(78.67, abs=0.01)
        assert metrics["performance_drop"] * 100 == pytest.approx(-2.17, abs=0.01)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_failed_write_keeps_earlier_report(self, tmp_path, fmt):
        path = tmp_path / f"report.{fmt}"
        report = build_report(model=small_model(counts=(2, 2)))
        emit_report(report, fmt, path)
        earlier = path.read_bytes()
        # the last section cannot be written: json fails to encode it, csv
        # fails on it after the earlier sections are written
        report["metrics"] = {"overall_performance": object(), "performance_drop": 0.0}
        with pytest.raises(TypeError):
            emit_report(report, fmt, path)
        assert path.read_bytes() == earlier
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_failed_matrix_write_keeps_earlier_csv(self, tmp_path):
        path = tmp_path / "matrix.csv"
        matrix = AccuracyMatrix.from_rows([[0.9, None], [0.8, 0.95]])
        matrix.to_csv(path)
        earlier = path.read_bytes()
        # a cell that is no number fails the write after the header row
        matrix.values = np.array([[0.5, None], [0.6, 0.7]], dtype=object)
        with pytest.raises(TypeError):
            matrix.to_csv(path)
        assert path.read_bytes() == earlier
        assert [p.name for p in tmp_path.iterdir()] == ["matrix.csv"]

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            emit_report({}, "yaml", tmp_path / "x")


@given(st.integers(0, 10 ** 6))
@settings(max_examples=30, deadline=None)
def test_drop_zero_when_all_rows_equal(seed):
    rng = Rng(seed)
    row = rng.random((4,)).tolist()
    matrix = AccuracyMatrix.from_rows([row] * 4)
    assert performance_drop(matrix) == 0.0
