"""Acceptance suite: every release criterion, each at its stated tolerance.

A summary table with one pass/fail line per criterion prints at the end of the
pytest run (see conftest). Known data caveat: the 8228 performance-drop
summary value cannot be reproduced from its own detailed table (the formula
gives -3.961 against a published -3.92); that sub-case is asserted at the
stated +/-0.01 tolerance regardless and is expected to fail.
"""

import itertools
import time

import numpy as np
import pytest

from conftest import note
from golden_tables import DOMAINS, EXPECTED, TABLES, matrix_rows
from mole.allocation import AllocationPlan, plan_from_shape, trainable_param_count
from mole.analysis import (
    AccuracyMatrix,
    mean_pairwise_distance,
    overall_performance,
    performance_drop,
    redundancy_report,
)
from mole.checkpoint import (
    CorruptHeaderError,
    ShapeMismatchError,
    TruncatedBlobError,
    load,
    save,
)
from mole.cli import main as cli_main
from mole.model import DIMS_PRESETS, AdaptedModel, ToyTransformerConfig
from mole.tensor import Rng, Tensor, cross_entropy, grad_check, take_rows
from test_adapters import brute_force_top_k, make_router, softmax_np, top1_balance_loss
from test_analysis import set_expert
from test_model import checked_parameters

PAPER_PLANS = {"8642": "triangle", "2468": "inverted_triangle",
               "8228": "hourglass", "5555": "rectangle"}


# -- 1. parameter accounting ---------------------------------------------------


@pytest.mark.criterion(1, "parameter accounting")
def test_parameter_accounting_exact():
    started = time.perf_counter()
    dims = DIMS_PRESETS["llama2-7b"]
    for code, shape in sorted(PAPER_PLANS.items()):
        plan = plan_from_shape(shape, tuple(int(c) for c in code), 32)
        assert trainable_param_count(plan, dims) == 105_635_840, code
    elapsed = time.perf_counter() - started
    note(1, f"four allocations counted in {elapsed * 1000:.1f} ms")
    assert elapsed < 1.0


# -- 2. golden continual-learning scores ----------------------------------------


@pytest.mark.criterion(2, "overall-performance/performance-drop golden values")
@pytest.mark.parametrize("code", sorted(TABLES))
@pytest.mark.parametrize("metric", ["op", "pd"])
def test_golden_scores(code, metric):
    started = time.perf_counter()
    matrix = AccuracyMatrix.from_rows(matrix_rows(code), DOMAINS)
    expected_op, expected_pd = EXPECTED[code]
    if metric == "op":
        assert overall_performance(matrix) * 100 == pytest.approx(expected_op, abs=0.01)
    else:
        # 8228 fails here: its own table yields -3.961, the summary says -3.92
        assert performance_drop(matrix) * 100 == pytest.approx(expected_pd, abs=0.01)
    assert time.perf_counter() - started < 1.0


# -- 3. zero-init identity over every allocation shape ---------------------------


@pytest.mark.criterion(3, "zero-init identity for all shapes")
@pytest.mark.parametrize("code,shape", sorted(PAPER_PLANS.items()))
def test_zero_init_identity_all_shapes(code, shape):
    plan = plan_from_shape(shape, tuple(int(c) for c in code), 4)
    config = ToyTransformerConfig(allocation=plan, seed=17)
    model = AdaptedModel.build(config)
    ids = Rng(18).integers(0, config.vocab_size, size=(2, 9))
    adapted = model.forward(ids).logits.data
    base = model.base_forward(ids).data
    np.testing.assert_allclose(adapted, base, rtol=1e-12, atol=1e-14)


# -- 4. gradient oracle -----------------------------------------------------------


@pytest.mark.criterion(4, "gradient oracle vs central differences")
def test_gradient_oracle_small_model():
    started = time.perf_counter()
    config = ToyTransformerConfig(num_layers=1, d_model=8, d_ffn=12, num_heads=2,
                                  vocab_size=16, max_seq_len=8,
                                  allocation=AllocationPlan((3,), k=2), rank=2,
                                  alpha=4.0, dropout=0.05, lambda_aux=0.01, seed=23)
    model = AdaptedModel.build(config)
    shake = Rng(24).child("shake")
    for name, p in model.trainable_parameters().items():
        p.data[:] = shake.child(name).normal(p.shape, std=0.3)
    ids = np.array([[3, 7, 1, 12]])
    labels = np.array([5])

    def loss():
        result = model.forward(ids, rng=Rng(25).child("drop"))
        ce = cross_entropy(take_rows(result.logits.reshape(-1, 16), np.array([3])), labels)
        return ce + result.aux_loss * config.lambda_aux

    result = grad_check(loss, checked_parameters(model), step=1e-5, tolerance=1e-5)
    elapsed = time.perf_counter() - started
    note(4, f"max relative error {result.max_rel_error:.2e} in {elapsed:.1f} s")
    assert result.passed, result.summary()
    assert set(result.per_param) == set(model.trainable_parameters())
    for name, p in model.named_parameters().items():
        if not p.requires_grad:
            assert p.grad is None, f"frozen {name} accumulated a gradient"
    assert elapsed < 30.0


# -- 5. routing invariants ---------------------------------------------------------


@pytest.mark.criterion(5, "routing invariants and brute-force oracle")
def test_routing_invariants_and_oracle():
    rng = Rng(29)
    trials = 0
    for n in (2, 3, 4):
        for k in (1, 2):
            router = make_router(n, k, seed=100 * n + k, in_dim=5)
            shifted = make_router(n, k, seed=100 * n + k, in_dim=5)
            shifted.weight.data += 3.75  # uniform logit shift
            x = rng.normal((1000 // 6 + 1, 5), std=1.5)
            gate = router.gate(Tensor(x))  # one call per router, a row per trial
            np.testing.assert_array_equal(shifted.gate(Tensor(x)).selected, gate.selected)
            for t in range(len(x)):
                selected = tuple(gate.selected[t].tolist())
                assert len(selected) == k
                assert len(set(selected)) == k
                assert abs(gate.weights[t].sum() - 1.0) <= 1e-12
                probs = softmax_np(x[t] @ router.weight.data)
                idx, weights = brute_force_top_k(probs, k)
                assert selected == idx
                np.testing.assert_allclose(gate.weights[t], weights, atol=1e-12)
                trials += 1
    note(5, f"{trials} randomized routing trials against the subset-enumeration oracle")
    assert trials >= 1000


# -- 6. load-balance behavior --------------------------------------------------------


@pytest.mark.criterion(6, "load-balance loss behavior")
def test_load_balance_uniform_and_minimum():
    assert top1_balance_loss([0, 1] * 2, [[0.5, 0.5]] * 4) == pytest.approx(1.0, abs=1e-9)

    for tokens in (2, 4):  # uniform assignment exists when N divides T
        losses = {assignment: top1_balance_loss(assignment, np.eye(2)[list(assignment)])
                  for assignment in itertools.product(range(2), repeat=tokens)}
        balanced = tuple(i % 2 for i in range(tokens))
        assert losses[balanced] == pytest.approx(1.0, abs=1e-9)
        for assignment, value in losses.items():
            counts = np.bincount(assignment, minlength=2)
            if counts[0] != counts[1]:
                assert value > losses[balanced] + 1e-9
    for tokens in (1, 3):  # odd token counts: loss still bounded below by 1
        for assignment in itertools.product(range(2), repeat=tokens):
            assert top1_balance_loss(assignment, np.eye(2)[list(assignment)]) >= 1.0 - 1e-9


# -- 7. desk-scale training ------------------------------------------------------------


TRAIN_MATRIX = [("copy", "counts=2,2,2,2", "rectangle"),
                ("copy", "counts=1,1,3,3", "inverted"),
                ("modular_add", "counts=2,2,2,2", "rectangle"),
                ("modular_add", "counts=1,1,3,3", "inverted")]


@pytest.fixture(scope="module")
def training_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("desk_runs")
    results = {}
    for task, alloc, tag in TRAIN_MATRIX:
        out = base / f"{task}_{tag}"
        started = time.perf_counter()
        # the default data_size: 200 copy examples, all 49 modular_add sums
        code = cli_main(["train", "--dataset", task,
                         "--alloc", alloc, "--k", "1", "--steps", "500",
                         "--target-acc", "0.95", "--seed", "12",
                         "--out", str(out)])
        elapsed = time.perf_counter() - started
        run_dir = next(out.iterdir())
        results[(task, tag)] = {"exit": code, "dir": run_dir, "seconds": elapsed}
    return results


@pytest.mark.criterion(7, "desk-scale training reaches 95% within budget")
@pytest.mark.parametrize("task,alloc,tag", TRAIN_MATRIX)
def test_training_reaches_target(training_runs, task, alloc, tag):
    import json
    run = training_runs[(task, tag)]
    assert run["exit"] == 0
    summary = json.loads((run["dir"] / "summary.json").read_text())
    note(7, f"{task:12s} {tag:9s} train={summary['train_accuracy']:.3f} "
            f"eval={summary['eval_accuracy']:.3f} steps={summary['steps_taken']} "
            f"({run['seconds']:.0f}s)")
    assert summary["train_accuracy"] >= 0.95
    assert summary["steps_taken"] <= 500
    assert run["seconds"] < 300.0


@pytest.mark.criterion(7, "desk-scale training reaches 95% within budget")
def test_training_reproducible_byte_for_byte(training_runs, tmp_path):
    task, alloc, tag = TRAIN_MATRIX[2]
    code = cli_main(["train", "--dataset", task,
                     "--alloc", alloc, "--k", "1", "--steps", "500",
                     "--target-acc", "0.95", "--seed", "12",
                     "--out", str(tmp_path / "repeat")])
    assert code == 0
    repeat_dir = next((tmp_path / "repeat").iterdir())
    original = training_runs[(task, tag)]["dir"]
    for artifact in ("metrics.csv", "model.ckpt"):
        assert (repeat_dir / artifact).read_bytes() == (original / artifact).read_bytes()


# -- 8. redundancy metric ----------------------------------------------------------------


@pytest.mark.criterion(8, "redundancy metric properties")
def test_redundancy_properties():
    config = ToyTransformerConfig(num_layers=4, d_model=16, d_ffn=24, num_heads=2,
                                  vocab_size=32, max_seq_len=8,
                                  allocation=AllocationPlan((3, 3, 3, 3), k=2),
                                  rank=2, seed=31)
    model = AdaptedModel.build(config)

    # identical experts -> exactly zero
    layer = model.blocks[0].adapted["q"]
    for e in layer.experts:
        set_expert(e, np.ones(e.out_factor.shape), np.ones(e.in_factor.shape))
    assert mean_pairwise_distance(layer) == 0.0

    # hand case: effective updates [[1,0],[0,0]] vs [[0,0],[0,1]] -> sqrt(2)
    from mole.adapters import AdaptedLinear, Router
    pair = AdaptedLinear(np.zeros((2, 2)), np.eye(2), np.eye(2), Router(2, 2, 1),
                         alpha=1.0, dropout_rate=0.0)
    assert mean_pairwise_distance(pair) == pytest.approx(np.sqrt(2.0), abs=1e-12)

    # three experts: mean over exactly the three pairs, vs a double-loop oracle
    rng = Rng(32)
    layer = model.blocks[1].adapted["v"]
    for i, e in enumerate(layer.experts):
        set_expert(e, rng.child("a", i).normal(e.out_factor.shape),
                   rng.child("b", i).normal(e.in_factor.shape))
    deltas = [e.effective_delta() for e in layer.experts]
    oracle = np.mean([np.linalg.norm(deltas[i] - deltas[j])
                      for i in range(3) for j in range(i + 1, 3)])
    assert mean_pairwise_distance(layer) == pytest.approx(oracle, abs=1e-12)

    # the per-layer series is emitted for inspection, not asserted as a trend
    sprinkle = Rng(33)
    for j, block in enumerate(model.blocks):
        for tag, adapted in block.adapted.items():
            for i, e in enumerate(adapted.experts):
                scale = 0.1 * (j + 1)
                set_expert(e, sprinkle.child(j, tag, i, "a").normal(e.out_factor.shape,
                                                                    std=scale),
                           sprinkle.child(j, tag, i, "b").normal(e.in_factor.shape,
                                                                 std=scale))
    series = [(entry.layer, round(entry.value, 4)) for entry in redundancy_report(model)]
    note(8, f"per-layer redundancy series: {series}")


# -- 9. continual harness ---------------------------------------------------------------


@pytest.mark.criterion(9, "continual harness: matrix, metrics, null test")
def test_continual_five_domains(tmp_path):
    code = cli_main(["continual", "--domains", "5", "--domain-size", "150",
                     "--steps", "300", "--target-acc", "0.98", "--k", "1",
                     "--alloc", "counts=1,1,3,3", "--seed", "41",
                     "--out", str(tmp_path / "c5")])
    assert code == 0
    run_dir = next((tmp_path / "c5").iterdir())
    matrix = AccuracyMatrix.from_csv(run_dir / "matrix.csv")
    assert matrix.num_domains == 5
    for k in range(5):
        assert np.isfinite(matrix.values[k, : k + 1]).all()
        assert not np.isfinite(matrix.values[k, k + 1:]).any()
    op = overall_performance(matrix)
    pd = performance_drop(matrix)
    assert np.isfinite(op) and np.isfinite(pd)
    note(9, f"5-domain run: overall={op:.3f} drop={pd:.3f}")


@pytest.mark.criterion(9, "continual harness: matrix, metrics, null test")
def test_continual_identical_domains_no_drop(tmp_path):
    code = cli_main(["continual", "--domains", "2", "--domain-size", "60",
                     "--steps", "250", "--target-acc", "0.98", "--k", "1",
                     "--alloc", "counts=2,2,2,2", "--eval-split", "train",
                     "--identical-domains", "--seed", "7",
                     "--out", str(tmp_path / "c2")])
    assert code == 0
    run_dir = next((tmp_path / "c2").iterdir())
    matrix = AccuracyMatrix.from_csv(run_dir / "matrix.csv")
    pd = performance_drop(matrix)
    note(9, f"identical-domain null test: drop={pd:.4f}")
    assert abs(pd) < 0.01  # within one percentage point


# -- 10. checkpoint round trip ------------------------------------------------------------


@pytest.mark.criterion(10, "checkpoint round trip and corruption handling")
def test_checkpoint_round_trip_and_errors(tmp_path):
    config = ToyTransformerConfig(num_layers=2, d_model=16, d_ffn=24, num_heads=2,
                                  vocab_size=64, max_seq_len=8,
                                  allocation=AllocationPlan((2, 2), k=2), rank=2,
                                  seed=47)
    model = AdaptedModel.build(config)
    jitter = Rng(48)
    for name, p in model.trainable_parameters().items():
        p.data[:] = jitter.child(name).normal(p.shape, std=0.1)
    path = tmp_path / "model.ckpt"
    save(model, path)
    restored = load(path)
    ids = [9, 4, 33]
    np.testing.assert_array_equal(restored.forward(ids).logits.data,
                                  model.forward(ids).logits.data)

    raw = path.read_bytes()
    truncated = tmp_path / "truncated.ckpt"
    truncated.write_bytes(raw[:-64])
    with pytest.raises(TruncatedBlobError):
        load(truncated)

    mangled = tmp_path / "mangled.ckpt"
    mangled.write_bytes(b"NOTMAGIC" + raw[8:])
    with pytest.raises(CorruptHeaderError):
        load(mangled)

    wrong = ToyTransformerConfig(num_layers=2, d_model=16, d_ffn=32, num_heads=2,
                                 vocab_size=64, max_seq_len=8,
                                 allocation=AllocationPlan((2, 2), k=2), rank=2,
                                 seed=47)
    with pytest.raises(ShapeMismatchError, match="layer0"):
        load(path, config=wrong)
