"""Desk-scale frozen decoder transformer with routed low-rank adapters.

The base network (embeddings, attention, MLP, norms, unembedding) is built
once from the seed and never trained. Every one of the seven linear matrices
per layer (q, k, v, o, gate, up, down) is wrapped in an
:class:`~mole.adapters.AdaptedLinear`, so the trainable set is exactly the
expert factors and router weights. Blocks are pre-layer-norm with learned
(frozen) positional embeddings; the MLP is a gated silu unit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .adapters import (
    ADAPTED_TAGS,
    AdaptedLinear,
    GateBatch,
    LoraExpert,
    Router,
    balance_loss_tensor,
)
from .allocation import AllocationPlan, ModelDims, validate
from .tensor import (NonFiniteError, Rng, Tensor, cross_entropy, layer_norm, matmul, rows_at,
                     silu, softmax, take_rows)

LN_EPS = 1e-5
_NEG_INF = -1e30

PRECISIONS = {"f64": np.float64, "f32": np.float32}


class TrainingDiverged(RuntimeError):
    """Raised when a training step produces a non-finite loss."""


@dataclass
class ToyTransformerConfig:
    """Everything needed to build the toy model, seed included."""

    num_layers: int = 4
    d_model: int = 64
    d_ffn: int = 172
    num_heads: int = 4
    vocab_size: int = 256
    max_seq_len: int = 64
    allocation: AllocationPlan | None = None
    rank: int = 8
    alpha: float = 16.0
    dropout: float = 0.05
    lambda_aux: float = 0.01
    seed: int = 0
    precision: str = "f64"

    def __post_init__(self):
        if self.allocation is None:
            self.allocation = AllocationPlan((2,) * self.num_layers, k=2)
        if self.d_model % self.num_heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by {self.num_heads} heads")
        if self.precision not in PRECISIONS:
            raise ValueError(f"precision must be one of {sorted(PRECISIONS)}")
        problems = validate(self.allocation, self.dims())
        if problems:
            raise ValueError("invalid configuration: " + "; ".join(problems))

    def dims(self) -> ModelDims:
        return ModelDims(num_layers=self.num_layers, d_model=self.d_model,
                         d_ffn=self.d_ffn, rank=self.rank)

    @property
    def dtype(self):
        return PRECISIONS[self.precision]

    def to_dict(self) -> dict:
        raw = {f.name: getattr(self, f.name) for f in fields(self)}
        raw["allocation"] = {"counts": list(self.allocation.counts), "k": self.allocation.k}
        return raw

    @classmethod
    def from_dict(cls, raw: dict) -> "ToyTransformerConfig":
        raw = dict(raw)
        alloc = raw.pop("allocation")
        return cls(allocation=AllocationPlan(tuple(alloc["counts"]), k=alloc["k"]), **raw)


@dataclass
class ForwardResult:
    """Logits plus the balance loss and per-router gate records."""

    logits: Tensor
    aux_loss: Tensor
    gates: dict[tuple[int, str], GateBatch] = field(default_factory=dict)


class Block:
    """One pre-layer-norm decoder block; all seven linear maps are adapted."""

    def __init__(self, config: ToyTransformerConfig, layer_index: int, rng: Rng):
        d = config.d_model
        dtype = config.dtype
        n = config.allocation.counts[layer_index]
        k = config.allocation.k
        self.layer_index = layer_index
        self.num_heads = config.num_heads
        self.head_dim = d // config.num_heads
        self.ln1_gain = Tensor(np.ones(d, dtype=dtype))
        self.ln1_bias = Tensor(np.zeros(d, dtype=dtype))
        self.ln2_gain = Tensor(np.ones(d, dtype=dtype))
        self.ln2_bias = Tensor(np.zeros(d, dtype=dtype))
        shapes = {tag: (i, o) for tag, i, o in config.dims().adapted_matrices}
        self.adapted: dict[str, AdaptedLinear] = {}
        for tag in ADAPTED_TAGS:
            in_dim, out_dim = shapes[tag]
            w0 = rng.child("w0", tag).normal((out_dim, in_dim),
                                             std=1.0 / np.sqrt(in_dim), dtype=dtype)
            experts = [LoraExpert(in_dim, out_dim, config.rank, alpha=config.alpha,
                                  dropout_rate=config.dropout,
                                  rng=rng.child("expert", tag, i), dtype=dtype)
                       for i in range(n)]
            router = Router(in_dim, n, k, layer_index=layer_index, tag=tag,
                            rng=rng.child("router", tag), dtype=dtype)
            self.adapted[tag] = AdaptedLinear(w0, experts, router)

    def _apply(self, tag: str, x: Tensor, train: bool, rng: Rng | None,
               adapters_on: bool, gates: dict) -> Tensor:
        layer = self.adapted[tag]
        if not adapters_on:
            return matmul(x, layer.frozen.transpose())
        out, gate = layer.forward(x, train=train, rng=rng)
        gates[(self.layer_index, tag)] = gate
        return out

    def forward(self, x: Tensor, mask: np.ndarray, train: bool, rng: Rng | None,
                adapters_on: bool, gates: dict) -> Tensor:
        batch, seq, d = x.shape
        u = layer_norm(x, self.ln1_gain, self.ln1_bias, LN_EPS).reshape(batch * seq, d)
        q = self._apply("q", u, train, rng, adapters_on, gates)
        k = self._apply("k", u, train, rng, adapters_on, gates)
        v = self._apply("v", u, train, rng, adapters_on, gates)

        def heads(t: Tensor) -> Tensor:
            return t.reshape(batch, seq, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

        qh, kh, vh = heads(q), heads(k), heads(v)
        scores = matmul(qh, kh.transpose(0, 1, 3, 2)) * (1.0 / np.sqrt(self.head_dim))
        try:
            attn = softmax(scores + Tensor(mask), axis=-1)
        except NonFiniteError as err:
            raise NonFiniteError(f"attention (layer {self.layer_index}): {err}") from err
        ctx = matmul(attn, vh).transpose(0, 2, 1, 3).reshape(batch * seq, d)
        o = self._apply("o", ctx, train, rng, adapters_on, gates)
        x = x + o.reshape(batch, seq, d)

        u2 = layer_norm(x, self.ln2_gain, self.ln2_bias, LN_EPS).reshape(batch * seq, d)
        g = self._apply("gate", u2, train, rng, adapters_on, gates)
        up = self._apply("up", u2, train, rng, adapters_on, gates)
        h = silu(g) * up
        down = self._apply("down", h, train, rng, adapters_on, gates)
        return x + down.reshape(batch, seq, d)

    def named_parameters(self, prefix: str) -> dict[str, Tensor]:
        params = {
            f"{prefix}.ln1.gain": self.ln1_gain, f"{prefix}.ln1.bias": self.ln1_bias,
            f"{prefix}.ln2.gain": self.ln2_gain, f"{prefix}.ln2.bias": self.ln2_bias,
        }
        for tag in ADAPTED_TAGS:
            params.update(self.adapted[tag].named_parameters(f"{prefix}.{tag}."))
        return params


class AdaptedModel:
    """Frozen toy transformer plus trainable routed adapters."""

    def __init__(self, config: ToyTransformerConfig):
        self.config = config
        self.step = 0
        dtype = config.dtype
        rng = Rng(config.seed).child("model")
        self.tok_emb = Tensor(rng.child("tok_emb").normal(
            (config.vocab_size, config.d_model), dtype=dtype))
        self.pos_emb = Tensor(rng.child("pos_emb").normal(
            (config.max_seq_len, config.d_model), dtype=dtype))
        self.blocks = [Block(config, j, rng.child("layer", j))
                       for j in range(config.num_layers)]
        self.final_gain = Tensor(np.ones(config.d_model, dtype=dtype))
        self.final_bias = Tensor(np.zeros(config.d_model, dtype=dtype))
        self.head = Tensor(rng.child("head").normal(
            (config.vocab_size, config.d_model), std=1.0 / np.sqrt(config.d_model),
            dtype=dtype))

    @classmethod
    def build(cls, config: ToyTransformerConfig) -> "AdaptedModel":
        return cls(config)

    # -- parameters --------------------------------------------------------

    def named_parameters(self) -> dict[str, Tensor]:
        params = {"tok_emb": self.tok_emb, "pos_emb": self.pos_emb}
        for j, block in enumerate(self.blocks):
            params.update(block.named_parameters(f"layer{j}"))
        params["final_ln.gain"] = self.final_gain
        params["final_ln.bias"] = self.final_bias
        params["head"] = self.head
        return params

    def trainable_parameters(self) -> dict[str, Tensor]:
        return {name: p for name, p in self.named_parameters().items() if p.requires_grad}

    def trainable_param_total(self) -> int:
        return sum(p.size for p in self.trainable_parameters().values())

    # -- forward -----------------------------------------------------------

    def _check_tokens(self, token_ids) -> tuple[np.ndarray, bool]:
        ids = np.asarray(token_ids)
        squeeze = ids.ndim == 1
        if squeeze:
            ids = ids[None, :]
        if ids.ndim != 2 or ids.shape[1] < 1:
            raise ValueError(f"token ids must be (seq,) or (batch, seq), got {ids.shape}")
        if ids.shape[1] > self.config.max_seq_len:
            raise ValueError(
                f"sequence length {ids.shape[1]} exceeds max_seq_len {self.config.max_seq_len}")
        if ids.min() < 0 or ids.max() >= self.config.vocab_size:
            raise ValueError(f"token ids out of range for vocab {self.config.vocab_size}")
        return ids.astype(np.intp), squeeze

    def forward(self, token_ids, train_mode: bool = False, rng: Rng | None = None,
                adapters_on: bool = True) -> ForwardResult:
        """Causal next-token logits plus the mean balance loss over routers.

        `rng` is only needed for dropout in train mode. A train-mode forward
        consumes it: the adapted matrices draw their dropout masks from it in
        a fixed order, so pass a fresh stream per forward. Logits keep the
        input's batch arrangement: (seq, vocab) for a flat sequence,
        (batch, seq, vocab) for a batch.
        """
        ids, squeeze = self._check_tokens(token_ids)
        batch, seq = ids.shape
        if train_mode and self.config.dropout > 0 and rng is None:
            raise ValueError("train-mode forward with dropout needs an rng")
        x = take_rows(self.tok_emb, ids) + take_rows(self.pos_emb, np.arange(seq))
        mask = np.triu(np.full((seq, seq), _NEG_INF, dtype=self.config.dtype), k=1)
        gates: dict[tuple[int, str], GateBatch] = {}
        for block in self.blocks:
            x = block.forward(x, mask, train_mode, rng, adapters_on, gates)
        x = layer_norm(x, self.final_gain, self.final_bias, LN_EPS)
        flat = x.reshape(batch * seq, self.config.d_model)
        logits = matmul(flat, self.head.transpose()).reshape(batch, seq, self.config.vocab_size)
        # the mean over routers: scale-stable across allocations
        aux = balance_loss_tensor(list(gates.values())) if adapters_on \
            else Tensor(np.zeros((), dtype=self.config.dtype))
        if squeeze:
            logits = logits.reshape(seq, self.config.vocab_size)
        return ForwardResult(logits=logits, aux_loss=aux, gates=gates)

    def base_forward(self, token_ids) -> Tensor:
        """Logits of the frozen base alone, adapters bypassed."""
        return self.forward(token_ids, adapters_on=False).logits


# -- training ----------------------------------------------------------------


class AdamW:
    """Decoupled-weight-decay Adam over the model's trainable parameters."""

    def __init__(self, params: dict[str, Tensor], lr: float = 3e-4,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.01):
        self.params = dict(params)
        for name, p in self.params.items():
            if not p.requires_grad:
                raise ValueError(f"optimizer given frozen parameter {name}")
        self.lr = lr
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in self.params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def step(self, lr: float | None = None) -> None:
        lr = self.lr if lr is None else lr
        b1, b2 = self.betas
        self.t += 1
        for name, p in self.params.items():
            grad = p.grad if p.grad is not None else np.zeros_like(p.data)
            self.m[name] = b1 * self.m[name] + (1 - b1) * grad
            self.v[name] = b2 * self.v[name] + (1 - b2) * grad * grad
            m_hat = self.m[name] / (1 - b1 ** self.t)
            v_hat = self.v[name] / (1 - b2 ** self.t)
            p.data -= lr * (m_hat / (np.sqrt(v_hat) + self.eps)
                            + self.weight_decay * p.data)


@dataclass
class StepStats:
    total_loss: float
    cross_entropy: float
    aux_loss: float


def _batch_arrays(batch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if not batch:
        raise ValueError("training batch is empty")
    lengths = {len(ex.prompt) for ex in batch}
    if len(lengths) != 1:
        raise ValueError(f"batch mixes prompt lengths {sorted(lengths)}")
    ids = np.array([ex.prompt for ex in batch], dtype=np.intp)
    labels = np.array([ex.label for ex in batch], dtype=np.intp)
    positions = np.full(len(batch), ids.shape[1] - 1, dtype=np.intp)
    return ids, labels, positions


def train_step(model: AdaptedModel, batch, optimizer: AdamW, rng: Rng,
               lr: float | None = None) -> StepStats:
    """One optimization step on a batch of examples.

    The loss is answer-position cross-entropy plus lambda_aux times the mean
    balance loss. A non-finite loss aborts the step (parameters untouched).
    """
    ids, labels, positions = _batch_arrays(batch)
    step_rng = rng.child("step", model.step)
    try:
        result = model.forward(ids, train_mode=True, rng=step_rng)
    except NonFiniteError as err:
        raise TrainingDiverged(f"non-finite values at step {model.step}: {err}") from err
    answer_logits = rows_at(result.logits, positions)
    ce = cross_entropy(answer_logits, labels)
    total = ce + result.aux_loss * model.config.lambda_aux
    if not np.isfinite(total.data):
        # softmax rejects non-finite router probabilities, so the balance
        # loss is finite here and only the cross-entropy can have diverged
        raise TrainingDiverged(
            f"non-finite loss at step {model.step}: cross-entropy is non-finite")
    optimizer.zero_grad()
    total.backward()
    optimizer.step(lr=lr)
    model.step += 1
    return StepStats(total_loss=float(total.data), cross_entropy=float(ce.data),
                     aux_loss=float(result.aux_loss.data))


def length_batches(examples):
    """Yield (examples of one prompt length, their token ids), shortest first."""
    by_length: dict[int, list] = {}
    for ex in examples:
        by_length.setdefault(len(ex.prompt), []).append(ex)
    for _, group in sorted(by_length.items()):
        yield group, np.array([ex.prompt for ex in group], dtype=np.intp)


def evaluate(model: AdaptedModel, examples) -> float:
    """Accuracy of the highest-logit choice at each example's answer position."""
    examples = list(examples)
    if not examples:
        raise ValueError("evaluate needs a non-empty dataset")
    correct = 0
    for group, ids in length_batches(examples):
        logits = model.forward(ids).logits.data[:, -1, :]
        for row, ex in zip(logits, group):
            if ex.choices:
                choice_ids = np.array(ex.choices, dtype=np.intp)
                predicted = int(choice_ids[np.argmax(row[choice_ids])])
            else:
                predicted = int(np.argmax(row))
            correct += int(predicted == ex.label)
    return correct / len(examples)
