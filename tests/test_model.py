"""Model tests: determinism, zero-init identity, a loop-oracle forward,
training behavior, and the frozen-base contract."""

import dataclasses
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mole.adapters import balance_loss_tensor
from mole.allocation import AllocationPlan, parse_alloc_spec, trainable_param_count
from mole.checkpoint import load
from mole.cli import main
from mole.model import (
    AdamW,
    AdaptedModel,
    RunConfig,
    ToyTransformerConfig,
    TrainingDiverged,
    evaluate,
    fit,
    length_batches,
    train_step,
)
from mole.tasks import Example, encode, generate_task
from mole.tensor import NonFiniteError, Rng, Tensor, cross_entropy, grad_check, take_rows


def tiny_config(**overrides):
    base = dict(num_layers=2, d_model=16, d_ffn=24, num_heads=2, vocab_size=256,
                max_seq_len=16, allocation=AllocationPlan((2, 2), k=2), rank=2,
                alpha=4.0, dropout=0.0, lambda_aux=0.01, seed=5)
    base.update(overrides)
    return ToyTransformerConfig(**base)


def checked_parameters(model: AdaptedModel) -> dict[str, Tensor]:
    """What a gradient check sweeps: the stacked tensors the optimizer
    updates, plus the frozen base, which must get no gradient."""
    frozen = {name: p for name, p in model.named_parameters().items() if not p.requires_grad}
    return {**frozen, **model.trainable_parameters()}


def randomize_adapters(model: AdaptedModel, seed: int, std: float = 0.2) -> None:
    rng = Rng(seed).child("randomize")
    for name, p in model.trainable_parameters().items():
        p.data[:] = rng.child(name).normal(p.shape, std=std)


# -- independent reference implementation (explicit loops, no autodiff) -------


def ref_softmax(v):
    e = np.exp(v - v.max())
    return e / e.sum()


def ref_layer_norm(x, gain, bias, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    c = x - mu
    var = (c * c).mean(axis=-1, keepdims=True)
    return c / np.sqrt(var + eps) * gain + bias


def ref_adapted(layer, X):
    """Per-token, per-expert loops over one adapted linear map."""
    out = np.zeros((X.shape[0], layer.out_dim))
    k = layer.router.k
    for t in range(X.shape[0]):
        x = X[t]
        probs = ref_softmax(x @ layer.router.weight.data)
        best = max(itertools.combinations(range(len(probs)), k),
                   key=lambda s: (sum(probs[i] for i in s), [-i for i in s]))
        total = sum(probs[i] for i in best)
        y = layer.frozen.data @ x
        for i in best:
            e = layer.experts[i]
            y = y + (probs[i] / total) * layer.scale * (
                e.out_factor.data @ (e.in_factor.data @ x))
        out[t] = y
    return out


def ref_forward(model: AdaptedModel, ids):
    """Loop-based forward for a single sequence; mirrors the block algebra."""
    cfg = model.config
    seq = len(ids)
    x = model.tok_emb.data[np.asarray(ids)] + model.pos_emb.data[:seq]
    for block in model.blocks:
        u = ref_layer_norm(x, block.ln1_gain.data, block.ln1_bias.data)
        q = ref_adapted(block.adapted["q"], u)
        kk = ref_adapted(block.adapted["k"], u)
        v = ref_adapted(block.adapted["v"], u)
        hd = block.head_dim
        ctx = np.zeros_like(q)
        for h in range(block.num_heads):
            sl = slice(h * hd, (h + 1) * hd)
            scores = q[:, sl] @ kk[:, sl].T / np.sqrt(hd)
            for t in range(seq):
                attn = ref_softmax(scores[t, : t + 1])
                ctx[t, sl] = attn @ v[: t + 1, sl]
        o = ref_adapted(block.adapted["o"], ctx)
        x = x + o
        u2 = ref_layer_norm(x, block.ln2_gain.data, block.ln2_bias.data)
        g = ref_adapted(block.adapted["gate"], u2)
        up = ref_adapted(block.adapted["up"], u2)
        act = g / (1.0 + np.exp(-g)) * up
        x = x + ref_adapted(block.adapted["down"], act)
    x = ref_layer_norm(x, model.final_gain.data, model.final_bias.data)
    return x @ model.head.data.T


class TestBuild:
    def test_same_seed_same_logits(self):
        ids = [3, 1, 4, 1, 5]
        a = AdaptedModel.build(tiny_config()).forward(ids).logits.data
        b = AdaptedModel.build(tiny_config()).forward(ids).logits.data
        np.testing.assert_array_equal(a, b)

    def test_different_seed_differs(self):
        ids = [3, 1, 4]
        a = AdaptedModel.build(tiny_config(seed=5)).forward(ids).logits.data
        b = AdaptedModel.build(tiny_config(seed=6)).forward(ids).logits.data
        assert not np.array_equal(a, b)

    def test_zero_init_identity(self):
        model = AdaptedModel.build(tiny_config())
        ids = [7, 2, 9, 9]
        adapted = model.forward(ids).logits.data
        base = model.base_forward(ids).data
        np.testing.assert_allclose(adapted, base, rtol=1e-12, atol=1e-12)

    def test_per_layer_expert_counts(self):
        model = AdaptedModel.build(tiny_config(allocation=AllocationPlan((1, 2), k=1)))
        for tag in ("q", "down"):
            assert len(model.blocks[0].adapted[tag].experts) == 1
            assert len(model.blocks[1].adapted[tag].experts) == 2

    def test_invalid_allocation_rejected(self):
        with pytest.raises(ValueError, match="layer 0"):
            tiny_config(allocation=AllocationPlan((1, 2), k=2))

    def test_config_dict_round_trip_covers_every_field(self):
        changed = ToyTransformerConfig(
            num_layers=3, d_model=24, d_ffn=40, num_heads=3, vocab_size=128,
            max_seq_len=32, allocation=AllocationPlan((1, 2, 3), k=1), rank=4,
            alpha=8.0, dropout=0.1, lambda_aux=0.02, seed=9, precision="f32")
        default = ToyTransformerConfig(seed=0)
        for f in dataclasses.fields(ToyTransformerConfig):
            assert getattr(changed, f.name) != getattr(default, f.name), f.name
        stored = json.loads(json.dumps(changed.to_dict()))  # as a checkpoint header keeps it
        assert ToyTransformerConfig.from_dict(stored) == changed

    def test_trainable_set_matches_accounting(self):
        cfg = tiny_config(allocation=AllocationPlan((2, 3), k=2))
        model = AdaptedModel.build(cfg)
        expected = trainable_param_count(cfg.allocation, cfg.dims())
        assert model.trainable_param_total() == expected
        # three tensors per matrix: its router and its two stacked factor arrays
        params = model.trainable_parameters()
        assert len(params) == 3 * 7 * cfg.num_layers
        for j, block in enumerate(model.blocks):
            for tag, layer in block.adapted.items():
                n, in_dim, out_dim = layer.router.num_experts, layer.in_dim, layer.out_dim
                assert params[f"layer{j}.{tag}.router"] is layer.router.weight
                assert params[f"layer{j}.{tag}.out_factors"].shape == (out_dim, n * cfg.rank)
                assert params[f"layer{j}.{tag}.in_factors"].shape == (n * cfg.rank, in_dim)

    def test_expert_views_taken_after_the_optimizer_see_its_step(self):
        model = AdaptedModel.build(tiny_config(dropout=0.05))
        layer = model.blocks[1].adapted["up"]
        before = layer.experts[1]
        opt = AdamW(model.trainable_parameters(), lr=1e-2)
        after = layer.experts[1]
        task = generate_task("modular_add", 10, seed=24)
        train_step(model, task.train[:4], opt, Rng(25))
        rows = slice(layer.rank, 2 * layer.rank)
        assert np.any(after.in_factor.data)       # the in-factors start at zero
        assert np.shares_memory(after.in_factor.data, opt.flat)
        np.testing.assert_array_equal(after.in_factor.data, layer.in_factors.data[rows])
        np.testing.assert_array_equal(after.out_factor.data, layer.out_factors.data[:, rows])
        # a view taken before AdamW packed the storage reads the old arrays
        assert not np.shares_memory(before.in_factor.data, opt.flat)
        np.testing.assert_array_equal(before.in_factor.data, 0.0)


class TestForward:
    def test_matches_loop_oracle(self):
        cfg = tiny_config(allocation=AllocationPlan((3, 3), k=2), seed=9)
        model = AdaptedModel.build(cfg)
        randomize_adapters(model, 10)
        ids = [5, 11, 23, 42]
        ours = model.forward(ids).logits.data
        reference = ref_forward(model, ids)
        np.testing.assert_allclose(ours, reference, atol=1e-10)

    def test_aux_loss_finite_on_single_token(self):
        model = AdaptedModel.build(tiny_config())
        result = model.forward([3])
        assert np.isfinite(result.aux_loss.data)
        assert result.logits.shape == (1, 256)

    def test_expert_relabeling_symmetry(self):
        cfg = tiny_config(allocation=AllocationPlan((3, 3), k=2), seed=12)
        model = AdaptedModel.build(cfg)
        randomize_adapters(model, 13)
        ids = [9, 4, 17]
        before = model.forward(ids).logits.data.copy()
        perm = [2, 0, 1]
        for block in model.blocks:
            for tag, layer in block.adapted.items():
                deltas = [e.effective_delta() for e in layer.experts]
                # expert i's rank rows, in the new order: row blocks of the
                # in-factors, column blocks of the out-factors
                rows = np.concatenate([np.arange(i * cfg.rank, (i + 1) * cfg.rank) for i in perm])
                layer.in_factors.data[:] = layer.in_factors.data[rows]
                layer.out_factors.data[:] = layer.out_factors.data[:, rows]
                layer.router.weight.data[:] = layer.router.weight.data[:, perm]
                for e, i in zip(layer.experts, perm):
                    np.testing.assert_array_equal(e.effective_delta(), deltas[i])
        after = model.forward(ids).logits.data
        np.testing.assert_allclose(after, before, rtol=1e-12, atol=1e-12)

    def test_oversize_sequence_rejected(self):
        model = AdaptedModel.build(tiny_config(max_seq_len=4))
        with pytest.raises(ValueError, match="max_seq_len"):
            model.forward([1, 2, 3, 4, 5])

    def test_out_of_vocab_rejected(self):
        model = AdaptedModel.build(tiny_config(vocab_size=64))
        with pytest.raises(ValueError, match="vocab"):
            model.forward([99])

    def test_gates_cover_every_router(self):
        model = AdaptedModel.build(tiny_config())
        result = model.forward([1, 2])
        assert len(result.gates) == 2 * 7

    def test_aux_loss_is_mean_over_routers(self):
        # routers with 2 and with 3 experts weigh the same in the mean
        model = AdaptedModel.build(tiny_config(allocation=AllocationPlan((2, 3), k=1), seed=14))
        randomize_adapters(model, 15)
        result = model.forward([[4, 9, 1, 30], [7, 7, 2, 11]])
        per_router = [balance_loss_tensor([gate]).item() for gate in result.gates.values()]
        assert result.aux_loss.item() == pytest.approx(np.mean(per_router), abs=1e-12)


class TestTraining:
    @staticmethod
    def batch_from(task, size):
        return task.train[:size]

    def test_loss_strictly_decreases_on_single_example(self):
        cfg = tiny_config(lambda_aux=0.0, dropout=0.0)
        model = AdaptedModel.build(cfg)
        example = Example(prompt=encode("ab="), label=ord("a"))
        opt = AdamW(model.trainable_parameters(), lr=3e-3, weight_decay=0.0)
        rng = Rng(21)
        losses = [train_step(model, [example], opt, rng).cross_entropy
                  for _ in range(50)]
        assert all(b < a for a, b in zip(losses, losses[1:]))
        assert losses[-1] < losses[0] * 0.6

    def test_frozen_base_unchanged_after_100_steps(self):
        cfg = tiny_config(dropout=0.05)
        model = AdaptedModel.build(cfg)
        frozen = {n: p for n, p in model.named_parameters().items() if not p.requires_grad}
        digest_before = {n: hashlib.sha256(p.data.tobytes()).hexdigest()
                         for n, p in frozen.items()}
        task = generate_task("modular_add", 30, seed=22)
        opt = AdamW(model.trainable_parameters(), lr=1e-2)
        rng = Rng(23)
        for _ in range(100):
            train_step(model, self.batch_from(task, 8), opt, rng)
        for name, p in frozen.items():
            assert hashlib.sha256(p.data.tobytes()).hexdigest() == digest_before[name], name

    def test_zero_lr_leaves_parameters_unchanged(self):
        model = AdaptedModel.build(tiny_config())
        before = {n: p.data.copy() for n, p in model.trainable_parameters().items()}
        opt = AdamW(model.trainable_parameters(), lr=0.0)
        task = generate_task("modular_add", 10, seed=24)
        train_step(model, self.batch_from(task, 4), opt, Rng(25))
        for name, p in model.trainable_parameters().items():
            np.testing.assert_array_equal(p.data, before[name], err_msg=name)
        assert np.any(opt.m) and np.any(opt.v)  # moments did move

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_aborts_with_diagnostic(self):
        model = AdaptedModel.build(tiny_config())
        model.blocks[0].adapted["q"].experts[0].out_factor.data[:] = 1e308
        model.blocks[0].adapted["q"].experts[0].in_factor.data[:] = 1e308
        opt = AdamW(model.trainable_parameters(), lr=1e-3)
        example = Example(prompt=encode("ab="), label=ord("a"))
        before = model.blocks[1].adapted["v"].experts[0].in_factor.data.copy()
        with pytest.raises(TrainingDiverged, match="non-finite"):
            train_step(model, [example], opt, Rng(26))
        np.testing.assert_array_equal(
            model.blocks[1].adapted["v"].experts[0].in_factor.data, before)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_cross_entropy_named(self):
        # an infinite frozen head passes every softmax but makes the logits NaN
        model = AdaptedModel.build(tiny_config())
        model.head.data[:] = np.inf
        opt = AdamW(model.trainable_parameters(), lr=1e-3)
        before = {n: p.data.copy() for n, p in model.trainable_parameters().items()}
        example = Example(prompt=encode("ab="), label=ord("a"))
        with pytest.raises(TrainingDiverged, match="cross-entropy is non-finite"):
            train_step(model, [example], opt, Rng(26))
        assert model.step == 0
        for name, p in model.trainable_parameters().items():
            np.testing.assert_array_equal(p.data, before[name], err_msg=name)

    def test_mixed_length_batch_weighs_groups_by_share(self):
        # at dropout 0, a step over two prompt lengths reports the n_g/B-weighted
        # sums of what the same step reports on each length's sub-batch
        batch = [Example(prompt=encode(p), label=ord(p[0]))
                 for p in ("ab=", "abcd=", "ba=", "bcde=", "cd=")]

        def stats(examples):
            model = AdaptedModel.build(tiny_config())
            randomize_adapters(model, 27)
            opt = AdamW(model.trainable_parameters(), lr=3e-4)
            return train_step(model, examples, opt, Rng(28))

        whole, short, long = stats(batch), stats(batch[0::2]), stats(batch[1::2])
        for name in ("total_loss", "cross_entropy", "aux_loss"):
            expected = 3 / 5 * getattr(short, name) + 2 / 5 * getattr(long, name)
            assert getattr(whole, name) == pytest.approx(expected, abs=1e-12), name

    def test_step_cross_entropy_is_the_full_forwards_answer_row(self):
        # the step runs the last block on answer rows only; at dropout 0 its
        # cross-entropy is the full forward's at the answer positions
        model = AdaptedModel.build(tiny_config(dropout=0.0, lambda_aux=0.0))
        randomize_adapters(model, 29)
        batch = [Example(prompt=encode(p), label=ord(p[1]))
                 for p in ("ab=", "abcd=", "ba=", "bcde=", "cd=")]
        expected = 0.0
        for group, ids in length_batches(batch):
            answers = model.forward(ids).logits.data[:, -1:, :]
            labels = np.array([[ex.label] for ex in group])
            expected += len(group) / len(batch) * cross_entropy(Tensor(answers), labels).item()
        stats = train_step(model, batch, AdamW(model.trainable_parameters(), lr=3e-4), Rng(30))
        assert stats.cross_entropy == pytest.approx(expected, abs=1e-12)
        assert stats.total_loss == pytest.approx(expected, abs=1e-12)

    def test_empty_batch_rejected(self):
        model = AdaptedModel.build(tiny_config())
        with pytest.raises(ValueError, match="empty"):
            train_step(model, [], AdamW(model.trainable_parameters(), lr=3e-4), Rng(0))


# Trains through the library alone, in a fresh interpreter that never imports
# mole.cli, and writes the logged rows and the trained parameters.
_FIT_SCRIPT = """
import io, sys
import numpy as np
from mole import (AdaptedModel, RunConfig, ToyTransformerConfig, fit, generate_task,
                  parse_alloc_spec)
alloc, out = sys.argv[1], sys.argv[2]
run = RunConfig(steps=4, metrics_every=1)
model = AdaptedModel.build(ToyTransformerConfig(allocation=parse_alloc_spec(alloc, 4), seed=1))
log = io.StringIO()
fit(model, generate_task("copy", 40, seed=model.config.seed), run, log)
assert "mole.cli" not in sys.modules
np.savez(out, rows=log.getvalue(),
         **{name: p.data for name, p in model.trainable_parameters().items()})
"""


class TestFit:
    @pytest.mark.parametrize("alloc", ["counts=2,2,2,2", "inverted:2468"])
    def test_fit_without_the_cli_writes_mole_trains_rows_and_weights(self, tmp_path, alloc):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        out = tmp_path / "fit.npz"
        result = subprocess.run([sys.executable, "-c", _FIT_SCRIPT, alloc, str(out)],
                                env=env, capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        assert main(["train", "--dataset", "copy", "--seed", "1", "--steps", "4",
                     "--data-size", "40", "--metrics-every", "1", "--alloc", alloc,
                     "--out", str(tmp_path / "runs")]) == 0
        run_dir = next((tmp_path / "runs").iterdir())
        library = np.load(out)
        rows = (run_dir / "metrics.csv").read_text().split("\n", 1)[1]
        assert str(library["rows"]) == rows
        params = load(run_dir / "model.ckpt").trainable_parameters()
        assert set(params) == set(library.files) - {"rows"}
        for name, p in params.items():
            assert p.data.tobytes() == library[name].tobytes(), name

    @pytest.mark.parametrize("config, key, value", [
        (RunConfig, "batch_size", 0), (RunConfig, "metrics_every", 0),
        (RunConfig, "steps", -1), (RunConfig, "epochs", -1),
        (RunConfig, "lr", -1e-3), (RunConfig, "weight_decay", -0.01),
        (RunConfig, "lr_decay", 1.5), (RunConfig, "lr_decay", -0.5),
        (RunConfig, "target_acc", 1.5), (RunConfig, "target_acc", -0.1),
        # num_heads 0 would divide by zero and -1 divides d_model: both are
        # named before the divisibility check
        (ToyTransformerConfig, "num_heads", 0), (ToyTransformerConfig, "num_heads", -1),
        (ToyTransformerConfig, "vocab_size", 0), (ToyTransformerConfig, "max_seq_len", 0),
        (ToyTransformerConfig, "lambda_aux", -0.01),
        # nan and infinity pass every range check, so they are named apart
        (RunConfig, "lr", float("nan")), (RunConfig, "weight_decay", float("inf")),
        (RunConfig, "target_acc", float("nan")), (RunConfig, "target_acc", float("inf")),
        (ToyTransformerConfig, "alpha", float("inf")),
        (ToyTransformerConfig, "dropout", float("nan")),
        (ToyTransformerConfig, "lambda_aux", float("inf"))])
    def test_configs_reject_out_of_range_values(self, config, key, value):
        seed = {"seed": 0} if config is ToyTransformerConfig else {}
        with pytest.raises(ValueError, match=key):
            config(**seed, **{key: value})

    def test_model_config_needs_a_seed(self):
        with pytest.raises(TypeError, match="seed"):
            ToyTransformerConfig()

    def test_target_accuracy_stops_the_run_at_the_first_row_that_reaches_it(self):
        task = generate_task("modular_add", 49, seed=3)
        model = AdaptedModel.build(tiny_config(vocab_size=64))
        run = RunConfig(steps=6, batch_size=8, metrics_every=2, target_acc=0.0)
        log = io.StringIO()
        train_acc, eval_acc = fit(model, task, run, log)
        assert model.step == 2
        assert log.getvalue().count("\n") == 1
        assert log.getvalue().split(",")[-2:] == [repr(train_acc), repr(eval_acc) + "\n"]


class ReferenceAdamW:
    """The per-array AdamW loop the packed optimizer replaces: the oracle."""

    def __init__(self, params, lr, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.01):
        self.params, self.lr, self.betas, self.eps = params, lr, betas, eps
        self.weight_decay, self.t = weight_decay, 0
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}

    def step(self):
        b1, b2 = self.betas
        self.t += 1
        for name, p in self.params.items():
            grad = p.grad if p.grad is not None else np.zeros_like(p.data)
            self.m[name] = b1 * self.m[name] + (1 - b1) * grad
            self.v[name] = b2 * self.v[name] + (1 - b2) * grad * grad
            m_hat = self.m[name] / (1 - b1 ** self.t)
            v_hat = self.v[name] / (1 - b2 ** self.t)
            p.data -= self.lr * (m_hat / (np.sqrt(v_hat) + self.eps)
                                 + self.weight_decay * p.data)


class TestAdamW:
    @staticmethod
    def params(dtype):
        rng = Rng(90)
        return {name: Tensor(rng.child(name).normal(shape, dtype=dtype), requires_grad=True)
                for name, shape in (("a", (3, 4)), ("b", (5,)), ("none", (2, 2)), ("c", (4, 1)))}

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_packed_step_matches_the_per_array_loop_bitwise(self, dtype):
        ref_params, params = self.params(dtype), self.params(dtype)
        ref = ReferenceAdamW(ref_params, lr=3e-2, weight_decay=0.1)
        opt = AdamW(params, lr=3e-2, weight_decay=0.1)
        for name, p in params.items():
            assert p.data.dtype == dtype and np.shares_memory(p.data, opt.flat), name
        for step in range(3):
            for name in params:
                if name != "none":   # this one never gets a gradient
                    grad = Rng(91).child(step, name).normal(params[name].shape, dtype=dtype)
                    ref_params[name].grad, params[name].grad = grad.copy(), grad.copy()
            ref.step()
            opt.step()
            for name, p in params.items():
                np.testing.assert_array_equal(p.data, ref_params[name].data, err_msg=name)
                assert p.grad is None, name
            for flat, moments in ((opt.m, ref.m), (opt.v, ref.v)):
                np.testing.assert_array_equal(
                    flat, np.concatenate([moments[name].reshape(-1) for name in params]))

    def test_frozen_parameter_rejected(self):
        with pytest.raises(ValueError, match="frozen"):
            AdamW({"w": Tensor(np.zeros(3))}, lr=3e-4)


class TestGraphSize:
    @staticmethod
    def ops_per_step(alloc: str, k: int, monkeypatch) -> int:
        """Tensors with a backward reachable from the loss of one training
        step at the default dims, on a 25-example copy batch."""
        counts = []
        backward = Tensor.backward

        def counted(root):
            seen, todo, ops = {id(root)}, [root], 0
            while todo:
                node = todo.pop()
                ops += node._backward is not None
                for parent in node._parents:
                    if id(parent) not in seen:
                        seen.add(id(parent))
                        todo.append(parent)
            counts.append(ops)
            backward(root)

        monkeypatch.setattr(Tensor, "backward", counted)
        model = AdaptedModel(ToyTransformerConfig(allocation=parse_alloc_spec(alloc, 4, k=k),
                                                  seed=1))
        batch = generate_task("copy", 32, seed=1).train[:25]
        train_step(model, batch, AdamW(model.trainable_parameters(), lr=3e-4), Rng(2))
        return counts[0]

    def test_ops_per_step_small_and_independent_of_allocation(self, monkeypatch):
        ops = {(alloc, k): self.ops_per_step(alloc, k, monkeypatch)
               for alloc in ("counts=2,2,2,2", "inverted:2468", "counts=8,8,8,8")
               for k in (1, 2)}
        assert len(set(ops.values())) == 1, ops
        assert max(ops.values()) <= 173, ops


class TestGradients:
    def test_full_model_grad_check_small(self):
        cfg = ToyTransformerConfig(num_layers=1, d_model=8, d_ffn=12, num_heads=2,
                                   vocab_size=16, max_seq_len=8,
                                   allocation=AllocationPlan((2,), k=1), rank=1,
                                   alpha=2.0, dropout=0.1, lambda_aux=0.01, seed=31)
        model = AdaptedModel.build(cfg)
        randomize_adapters(model, 32)
        ids = np.array([[3, 7, 1]])
        labels = np.array([5])

        def f():
            result = model.forward(ids, rng=Rng(33).child("drop"))
            ce = cross_entropy(take_rows(result.logits.reshape(-1, 16), np.array([2])), labels)
            return ce + result.aux_loss * cfg.lambda_aux

        result = grad_check(f, checked_parameters(model), step=1e-5, tolerance=1e-5)
        assert result.passed, result.summary()
        assert set(result.frozen_params) >= {"tok_emb", "head"}
        assert set(result.per_param) == set(model.trainable_parameters())

    def test_two_length_batch_grad_check(self):
        """train_step's gradients on a batch of two prompt lengths, with
        dropout drawn for both forwards from one step stream, against central
        differences of its reported loss. AdamW at lr 0 leaves the parameters
        as they are, and resetting the step count repeats the dropout masks."""
        cfg = ToyTransformerConfig(num_layers=1, d_model=4, d_ffn=6, num_heads=2,
                                   vocab_size=16, max_seq_len=8,
                                   allocation=AllocationPlan((3,), k=2), rank=1,
                                   alpha=2.0, dropout=0.05, lambda_aux=0.01, seed=34)
        model = AdaptedModel.build(cfg)
        randomize_adapters(model, 35, std=0.3)
        batch = [Example(prompt=[3, 7, 1, 12], label=5), Example(prompt=[2, 9], label=4),
                 Example(prompt=[6, 1, 11, 0], label=9)]

        class Capturing(AdamW):
            """Keeps each step's gradients by name before the step releases them."""

            def step(self, lr=None):
                self.grads = {name: p.grad for name, p in self.params.items()}
                super().step(lr)

        opt = Capturing(model.trainable_parameters(), lr=0.0)

        def f():
            model.step = 0
            loss = train_step(model, batch, opt, Rng(36)).total_loss
            for name, grad in opt.grads.items():
                opt.params[name].grad = grad
            return Tensor(loss)

        result = grad_check(f, checked_parameters(model), step=1e-5, tolerance=1e-5)
        assert result.passed, result.summary()
        assert set(result.frozen_params) >= {"tok_emb", "head"}
        assert set(result.per_param) == set(model.trainable_parameters())


class DegenerateModel:
    """Stub producing fixed logits, for evaluate() contract tests."""

    def __init__(self, logits_fn, vocab=256):
        self.logits_fn = logits_fn
        self.vocab = vocab

    def forward(self, ids, record=True, last_row=False):
        logits = np.stack([self.logits_fn(row) for row in ids])
        rows = 1 if last_row else ids.shape[1]
        full = np.zeros((ids.shape[0], rows, self.vocab))
        full[:, -1, :] = logits
        return type("R", (), {"logits": Tensor(full)})()


class TestEvaluate:
    def test_constant_predictor_on_constant_labels(self):
        always_a = DegenerateModel(lambda row: np.eye(256)[ord("a")])
        examples = [Example(prompt=encode(f"{chr(98 + i)}="), label=ord("a"),
                            choices=encode("ab")) for i in range(5)]
        assert evaluate(always_a, examples) == 1.0

    def test_random_logits_near_chance_on_balanced_choices(self):
        rng = Rng(41)
        stub = DegenerateModel(lambda row: rng.normal((256,)))
        choices = encode("abcd")
        examples = [Example(prompt=(i % 64, ord("=")), label=choices[i % 4],
                            choices=choices) for i in range(400)]
        acc = evaluate(stub, examples)
        assert abs(acc - 0.25) < 0.1

    def test_empty_dataset_rejected(self):
        model = AdaptedModel.build(tiny_config())
        with pytest.raises(ValueError, match="non-empty"):
            evaluate(model, [])

    def test_untrained_domain_stays_at_chance(self):
        # disjoint alphabets: skill on one domain says nothing about the next
        from mole.tasks import generate_domain_sequence

        domains = generate_domain_sequence(2, 80, seed=51)
        model = AdaptedModel.build(tiny_config(seed=52))
        assert evaluate(model, domains[1].all_examples) < 0.35  # chance is 1/8
        task = domains[0]
        opt = AdamW(model.trainable_parameters(), lr=5e-3)
        rng = Rng(53)
        for step in range(30):
            train_step(model, task.train[(step * 8) % 56:][:8] or task.train[:8],
                       opt, rng)
        assert evaluate(model, domains[1].all_examples) < 0.35

    def test_trained_eval_reproducible(self):
        def trained_accuracy():
            cfg = tiny_config(seed=42)
            model = AdaptedModel.build(cfg)
            task = generate_task("modular_add", 20, seed=43)
            opt = AdamW(model.trainable_parameters(), lr=5e-3)
            rng = Rng(44)
            for _ in range(20):
                train_step(model, task.train[:8], opt, rng)
            return evaluate(model, task.eval)

        assert trained_accuracy() == trained_accuracy()


def mixed_length_corpus(per_kind: int, seed: int):
    """Examples of four prompt lengths: modular_add 4, copy 7, parity 9, and
    keyed_lookup (9) with its first two tokens repeated in front (11)."""
    examples = [ex for kind in ("modular_add", "copy", "parity")
                for ex in generate_task(kind, per_kind, seed=seed).all_examples]
    return examples + [Example(prompt=ex.prompt[:2] + ex.prompt, label=ex.label,
                               choices=ex.choices)
                       for ex in generate_task("keyed_lookup", per_kind, seed=seed).all_examples]


class TestInference:
    @staticmethod
    def inverted_model(seed: int) -> AdaptedModel:
        model = AdaptedModel(ToyTransformerConfig(
            allocation=parse_alloc_spec("inverted:2468", 4, k=2), seed=seed))
        randomize_adapters(model, seed + 1, std=0.1)
        return model

    def test_evaluate_equals_argmax_of_the_recording_forward(self):
        model = self.inverted_model(60)
        examples = mixed_length_corpus(12, seed=61)
        assert len({len(ex.prompt) for ex in examples}) == 4
        correct = 0
        for group, ids in length_batches(examples):
            full = model.forward(ids).logits.data[:, -1, :]
            answers = model.forward(ids, record=False, last_row=True).logits.data
            assert answers.shape == (len(group), 1, 256)
            np.testing.assert_allclose(answers[:, -1, :], full, rtol=0, atol=1e-12)
            for row, ex in zip(full, group):
                choices = np.array(ex.choices, dtype=np.intp)
                correct += int(choices[np.argmax(row[choices])] == ex.label)
        assert 0 < correct < len(examples)
        assert evaluate(model, examples) == correct / len(examples)

    @pytest.mark.parametrize("corpus", ["copy-25", "mixed-length"])
    @pytest.mark.parametrize("alloc", ["counts=2,2,2,2", "inverted:2468"])
    def test_graph_free_last_row_logits_equal_the_recorded_ones(self, alloc, corpus):
        """At the CLI dims the last block's 25-row products take OpenBLAS's
        small-matrix path, which the toy-size layer tests never reach."""
        model = AdaptedModel(ToyTransformerConfig(
            allocation=parse_alloc_spec(alloc, 4, k=2), seed=66))
        randomize_adapters(model, 67, std=0.1)
        examples = generate_task("copy", 32, seed=68).train[:25] if corpus == "copy-25" \
            else mixed_length_corpus(12, seed=69)
        groups = list(length_batches(examples))
        assert len(groups) == (1 if corpus == "copy-25" else 4)
        for _, ids in groups:
            recorded = model.forward(ids, last_row=True).logits.data
            np.testing.assert_array_equal(
                model.forward(ids, record=False, last_row=True).logits.data, recorded)

    @pytest.mark.parametrize("last_row", [False, True])
    def test_inference_forward_records_no_graph(self, last_row):
        model = self.inverted_model(62)
        result = model.forward([[3, 9, 14, 2], [7, 1, 1, 30]], record=False, last_row=last_row)
        assert result.logits._parents == () and not result.logits.requires_grad
        assert result.aux_loss._parents == () and not result.aux_loss.requires_grad
        assert all(gate.probs._parents == () for gate in result.gates.values())
        result.aux_loss.backward()
        assert all(p.grad is None for p in model.trainable_parameters().values())

    def test_inference_forward_builds_no_balance_loss(self, monkeypatch):
        import mole.model

        def refuse(gates):
            raise AssertionError("a graph-free forward built a balance loss")

        model = self.inverted_model(64)
        monkeypatch.setattr(mole.model, "balance_loss_tensor", refuse)
        for last_row in (False, True):
            result = model.forward([[3, 9, 14, 2], [7, 1, 1, 30]], record=False,
                                   last_row=last_row)
            assert result.aux_loss.shape == () and result.aux_loss.item() == 0.0
            assert len(result.gates) == 4 * 7
        with pytest.raises(AssertionError, match="balance loss"):
            model.forward([[3, 9, 14, 2]])

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("record", [True, False])
    def test_non_finite_router_named_by_layer_and_tag(self, record):
        model = self.inverted_model(65)
        model.blocks[2].adapted["up"].router.weight.data[0, 1] = np.nan
        with pytest.raises(NonFiniteError, match=r"^router \(layer 2, up\): softmax"):
            model.forward([[3, 9, 14, 2]], record=record)

    def test_evaluate_memory_does_not_grow_with_a_graph(self):
        # the recording forward peaked at about 500 MB here, the graph-free one
        # at about 80 MB
        import tracemalloc

        model = self.inverted_model(63)
        examples = generate_task("keyed_lookup", 600, seed=64).all_examples
        assert len(examples) == 600
        tracemalloc.start()
        try:
            evaluate(model, examples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 150e6, f"evaluate peaked at {peak / 1e6:.0f} MB"
