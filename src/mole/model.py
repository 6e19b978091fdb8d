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
    EXPERT_INIT_STD,
    AdaptedLinear,
    GateBatch,
    Router,
    balance_loss_tensor,
)
from .allocation import AllocationPlan, ModelDims, validate
from .tensor import (NonFiniteError, Rng, Tensor, cross_entropy, layer_norm, matmul, silu,
                     softmax, take_rows)

LN_EPS = 1e-5
_NEG_INF = -1e30

PRECISIONS = {"f64": np.float64, "f32": np.float32}


class TrainingDiverged(RuntimeError):
    """Raised when a training step produces a non-finite loss."""


def _require_finite(config, *keys: str) -> None:
    """Reject a nan or infinite setting by name: it would pass every range check."""
    for key in keys:
        if not np.isfinite(getattr(config, key)):
            raise ValueError(f"{key} must be finite, got {getattr(config, key)}")


@dataclass
class ToyTransformerConfig:
    """Everything needed to build the toy model, with the run's one seed, which has no default."""

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
    seed: int = field(kw_only=True)
    precision: str = "f64"

    def __post_init__(self):
        _require_finite(self, "alpha", "dropout", "lambda_aux")
        for key, low in (("num_heads", 1), ("vocab_size", 1), ("max_seq_len", 1),
                         ("lambda_aux", 0)):
            if getattr(self, key) < low:
                raise ValueError(f"{key} must be at least {low}, got {getattr(self, key)}")
        if self.allocation is None:
            self.allocation = AllocationPlan.default(self.num_layers)
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


# parameter-accounting dims: a 7B-class decoder, and the toy transformer at its defaults
DIMS_PRESETS = {"llama2-7b": ModelDims(num_layers=32, d_model=4096, d_ffn=11008, rank=8),
                "toy-default": ToyTransformerConfig(seed=0).dims()}


@dataclass
class ForwardResult:
    """Logits plus the balance loss and per-router gate records."""

    logits: Tensor
    aux_loss: Tensor
    gates: dict[tuple[int, str], GateBatch] = field(default_factory=dict)


class Block:
    """One pre-layer-norm decoder block; all seven linear maps are adapted."""

    def __init__(self, config: ToyTransformerConfig, layer_index: int, rng: Rng,
                 draw_adapters: bool = True):
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
            # expert i's out-factor, column block i, comes from its own stream
            out_factors = np.concatenate([rng.child("expert", tag, i).normal(
                (out_dim, config.rank), std=EXPERT_INIT_STD, dtype=dtype) for i in range(n)], 1) \
                if draw_adapters else np.zeros((out_dim, n * config.rank), dtype=dtype)
            in_factors = np.zeros((n * config.rank, in_dim), dtype=dtype)
            router = Router(in_dim, n, k, rng=rng.child("router", tag) if draw_adapters else None,
                            dtype=dtype)
            self.adapted[tag] = AdaptedLinear(w0, out_factors, in_factors, router,
                                              alpha=config.alpha, dropout_rate=config.dropout)

    def forward(self, x: Tensor, mask: np.ndarray, apply,
                last: np.ndarray | None = None) -> Tensor:
        """The block on the residual rows x (batch * seq, d), returning rows.

        `mask` is the (seq, seq) causal mask, and `apply(block, tag, rows)`
        runs one of the block's adapted matrices (:meth:`AdaptedModel.trunk`).
        With `last`, the rows of each sequence's last position, only those
        rows go on from the query, so the result is (batch, d); k and v still
        see every row. Attention and the MLP are helpers, so a forward that
        records nothing frees their intermediates as soon as each returns."""
        residual = x if last is None else take_rows(x, last)
        x = residual + apply(self, "o", self._attention(x, mask, last, apply))
        return x + self._mlp(x, apply)

    def _attention(self, x: Tensor, mask: np.ndarray, last: np.ndarray | None,
                   apply) -> Tensor:
        """The o-projection's input: causal multi-head attention over the
        rows of x (batch * seq, d), queried from every row or from `last`."""
        seq, d = mask.shape[0], x.shape[1]
        batch = x.shape[0] // seq
        u = layer_norm(x, self.ln1_gain, self.ln1_bias, LN_EPS)
        queries, rows = (u, seq) if last is None else (take_rows(u, last), 1)

        def heads(t: Tensor, n: int) -> Tensor:
            return t.reshape(batch, n, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

        qh = heads(apply(self, "q", queries), rows)
        kh, vh = heads(apply(self, "k", u), seq), heads(apply(self, "v", u), seq)
        scores = matmul(qh, kh.transpose(0, 1, 3, 2)) * (1.0 / np.sqrt(self.head_dim))
        try:
            attn = softmax(scores + Tensor(mask[seq - rows:]), axis=-1)
        except NonFiniteError as err:
            raise NonFiniteError(f"attention (layer {self.layer_index}): {err}") from err
        return matmul(attn, vh).transpose(0, 2, 1, 3).reshape(batch * rows, d)

    def _mlp(self, x: Tensor, apply) -> Tensor:
        """The gated silu unit on the normalised rows of x."""
        u = layer_norm(x, self.ln2_gain, self.ln2_bias, LN_EPS)
        return apply(self, "down", silu(apply(self, "gate", u)) * apply(self, "up", u))

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

    def __init__(self, config: ToyTransformerConfig, draw_adapters: bool = True):
        """Build the model the config's seed draws. With `draw_adapters`
        false the router weights and expert out-factors start at zero instead
        of their seeded draws (a load overwrites them)."""
        self.config = config
        self.step = 0
        dtype = config.dtype
        rng = Rng(config.seed).child("model")
        self.tok_emb = Tensor(rng.child("tok_emb").normal(
            (config.vocab_size, config.d_model), dtype=dtype))
        self.pos_emb = Tensor(rng.child("pos_emb").normal(
            (config.max_seq_len, config.d_model), dtype=dtype))
        self.blocks = [Block(config, j, rng.child("layer", j), draw_adapters)
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
        """Every parameter by name, each expert's factors as views
        (`expert{i}.out_factor`): the trainable entries are what a checkpoint stores."""
        params = {"tok_emb": self.tok_emb, "pos_emb": self.pos_emb}
        for j, block in enumerate(self.blocks):
            params.update(block.named_parameters(f"layer{j}"))
        params["final_ln.gain"] = self.final_gain
        params["final_ln.bias"] = self.final_bias
        params["head"] = self.head
        return params

    def trainable_parameters(self) -> dict[str, Tensor]:
        """What `AdamW` updates: each matrix's router, `out_factors` and `in_factors`."""
        return {name: p for j, block in enumerate(self.blocks) for tag in ADAPTED_TAGS
                for name, p in block.adapted[tag].trainable_parameters(f"layer{j}.{tag}.").items()}

    def trainable_param_total(self) -> int:
        return sum(p.size for p in self.trainable_parameters().values())

    # -- forward -----------------------------------------------------------

    def _check_tokens(self, token_ids) -> np.ndarray:
        ids = np.asarray(token_ids)
        if ids.ndim == 1:
            ids = ids[None, :]
        if ids.ndim != 2 or ids.shape[1] < 1:
            raise ValueError(f"token ids must be (seq,) or (batch, seq), got {ids.shape}")
        if ids.shape[1] > self.config.max_seq_len:
            raise ValueError(
                f"sequence length {ids.shape[1]} exceeds max_seq_len {self.config.max_seq_len}")
        if ids.min() < 0 or ids.max() >= self.config.vocab_size:
            raise ValueError(f"token ids out of range for vocab {self.config.vocab_size}")
        return ids.astype(np.intp)

    def trunk(self, token_ids, rng: Rng | None = None, adapters_on: bool = True,
              record: bool = True, last_row: bool = False
              ) -> tuple[Tensor, dict[tuple[int, str], GateBatch]]:
        """The embeddings and every block, without the final norm and head:
        the residual rows (batch * rows, d), rows being the sequence length
        or, with `last_row`, 1, and each adapted matrix's gate, keyed by
        (layer, tag). The switches are :meth:`forward`'s; they reach the
        blocks through one hook, `apply(block, tag, rows)`, which runs that
        adapted matrix (its frozen product alone with the adapters off),
        keeps its gate, and names the layer and tag of a router whose softmax
        meets a non-finite logit."""
        ids = self._check_tokens(token_ids)
        batch, seq = ids.shape
        x = take_rows(self.tok_emb, ids.reshape(-1)) \
            + take_rows(self.pos_emb, np.tile(np.arange(seq), batch))
        mask = np.triu(np.full((seq, seq), _NEG_INF, dtype=self.config.dtype), k=1)
        gates: dict[tuple[int, str], GateBatch] = {}

        def apply(block: Block, tag: str, rows: Tensor) -> Tensor:
            layer = block.adapted[tag]
            if not adapters_on:
                return matmul(rows, layer.frozen.transpose())
            try:
                out, gates[(block.layer_index, tag)] = layer.forward(rows, rng, record)
            except NonFiniteError as err:
                raise NonFiniteError(f"router (layer {block.layer_index}, {tag}): {err}") from err
            return out

        last = np.arange(seq - 1, batch * seq, seq) if last_row else None
        for block in self.blocks:
            x = block.forward(x, mask, apply, last if block is self.blocks[-1] else None)
        return x, gates

    def forward(self, token_ids, rng: Rng | None = None, adapters_on: bool = True,
                record: bool = True, last_row: bool = False) -> ForwardResult:
        """Causal next-token logits plus the mean balance loss over routers.

        An `rng` turns dropout on, and the forward consumes it: the adapted
        matrices draw their dropout masks from it in a fixed order. Without
        one the forward is deterministic. The rows :meth:`trunk` returns go
        through the final norm and the head; only the logits take the input's
        shape: (seq, vocab) for a flat sequence, else (batch, seq, vocab).

        With `record` false (inference) no autodiff graph is recorded: only
        router weights and expert factors require grad, and the routers and
        stacked expert products (:func:`~mole.adapters.stacked_lora`) then
        read their data, so each op's intermediates are freed as the forward
        moves on and the logits equal the recording forward's bit for bit.
        No balance loss is built there: `aux_loss` is the zero scalar, as
        with the adapters off. With `last_row` (inference and :func:`train_step`) the last block
        runs its q, o and MLP, and the final norm and head run, on each
        sequence's last position only, so the seq axis of the logits has
        length 1 and that block's five query-side routers gate only those
        rows; k and v still see every position.
        """
        x, gates = self.trunk(token_ids, rng, adapters_on, record, last_row)
        x = layer_norm(x, self.final_gain, self.final_bias, LN_EPS)
        logits = matmul(x, self.head.transpose()).reshape(
            *np.shape(token_ids)[:-1], -1, self.config.vocab_size)
        # the mean over routers: scale-stable across allocations
        aux = balance_loss_tensor(list(gates.values())) if adapters_on and record \
            else Tensor(np.zeros((), dtype=self.config.dtype))
        return ForwardResult(logits=logits, aux_loss=aux, gates=gates)

    def base_forward(self, token_ids) -> Tensor:
        """Logits of the frozen base alone, adapters bypassed."""
        return self.forward(token_ids, adapters_on=False).logits


# -- training ----------------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """The settings `fit`'s loop reads, with `mole train`'s defaults; the seed is the model's."""

    steps: int = 500
    epochs: int | None = None
    batch_size: int = 25
    lr: float = 3e-3
    lr_decay: float = 0.9
    weight_decay: float = 0.01
    target_acc: float | None = None
    metrics_every: int = 25

    def __post_init__(self):
        _require_finite(self, "lr", "weight_decay")
        for key, low in (("batch_size", 1), ("metrics_every", 1), ("steps", 0),
                         ("epochs", 0), ("lr", 0), ("weight_decay", 0)):
            value = getattr(self, key)
            if value is not None and value < low:
                raise ValueError(f"{key} must be at least {low}, got {value}")
        for key in ("lr_decay", "target_acc"):  # nan fails the comparison too
            value = getattr(self, key)
            if value is not None and not 0.0 <= value <= 1.0:
                raise ValueError(f"{key} must be in [0, 1], got {value}")


class AdamW:
    """Decoupled-weight-decay Adam over the model's trainable parameters.

    `m` and `v` are flat vectors over the parameters in dict order. A step
    gathers the gradients once (zeros for a parameter without one), then the
    parameters, into vectors it already holds, updates with whole-vector
    operations, writes each parameter's block back into its `data` in place,
    and releases the gradients: every `grad` is None afterwards. Each element
    sees the same expressions, in the same order and roundings, as a
    per-array loop. A parameter whose `data` is a view of another array (an
    expert's factors) is refused: its owner's array is the one to update.
    """

    def __init__(self, params: dict[str, Tensor], lr: float,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = RunConfig.weight_decay):
        self.params = dict(params)
        for name, p in self.params.items():
            if not p.requires_grad:
                raise ValueError(f"optimizer given frozen parameter {name}")
            if p.data.base is not None:
                raise ValueError(f"optimizer given a view of another array: {name}")
        self.lr = lr
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = np.concatenate([np.zeros(p.size, p.dtype) for p in self.params.values()])
        self.v = np.zeros_like(self.m)
        self._grad = np.empty_like(self.m)      # the gathered gradient, then the parameters
        self._scratch = np.empty_like(self.m)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def step(self, lr: float | None = None) -> None:
        lr = self.lr if lr is None else lr
        b1, b2 = self.betas
        self.t += 1
        grad, s = self._grad, self._scratch
        params = self.params.values()
        np.concatenate([np.zeros(p.size, dtype=grad.dtype) if p.grad is None
                        else p.grad.reshape(-1) for p in params], out=grad)
        self.zero_grad()
        # m = b1 * m + (1 - b1) * grad
        self.m *= b1
        np.multiply(grad, 1 - b1, out=s)
        self.m += s
        # v = b2 * v + (1 - b2) * grad * grad
        self.v *= b2
        np.multiply(grad, 1 - b2, out=s)
        s *= grad
        self.v += s
        # p -= lr * (m_hat / (sqrt(v_hat) + eps) + weight_decay * p)
        np.divide(self.m, 1 - b1 ** self.t, out=s)
        np.divide(self.v, 1 - b2 ** self.t, out=grad)
        np.sqrt(grad, out=grad)
        grad += self.eps
        s /= grad
        np.concatenate([p.data.reshape(-1) for p in params], out=grad)
        grad *= self.weight_decay
        s += grad
        s *= lr
        start = 0
        for p in params:
            p.data -= s[start:start + p.size].reshape(p.shape)
            start += p.size


@dataclass
class StepStats:
    total_loss: float
    cross_entropy: float
    aux_loss: float


def train_step(model: AdaptedModel, batch, optimizer: AdamW, rng: Rng,
               lr: float | None = None) -> StepStats:
    """One optimization step on a batch of B examples, one forward per prompt
    length (:func:`length_batches`), each drawing dropout from the step's rng.

    The loss reads only each example's answer position, so the forwards run
    with `last_row`: the last block's q, o and MLP, the final norm and the
    head see the n_g answer rows of a group, not all its n_g * T rows. So the
    last block's five query-side routers balance over the n_g answer tokens;
    every other router balances over all n_g * T. A group adds n_g/B times
    its cross-entropy plus lambda_aux times its mean balance loss, so the
    cross-entropy is the mean over all B examples. A non-finite loss aborts
    the step before any update; the optimizer's step releases the gradients.
    """
    if not batch:
        raise ValueError("training batch is empty")
    step_rng = rng.child("step", model.step)
    total, ce, aux = None, 0.0, 0.0
    for group, ids in length_batches(batch):
        try:
            result = model.forward(ids, rng=step_rng, last_row=True)
        except NonFiniteError as err:
            raise TrainingDiverged(f"non-finite values at step {model.step}: {err}") from err
        group_ce = cross_entropy(result.logits,
                                 np.array([[ex.label] for ex in group], dtype=np.intp))
        share = len(group) / len(batch)
        loss = (group_ce + result.aux_loss * model.config.lambda_aux) * share
        total = loss if total is None else total + loss
        ce += share * float(group_ce.data)
        aux += share * float(result.aux_loss.data)
    if not np.isfinite(total.data):
        # softmax rejects non-finite router probabilities and the config a
        # non-finite lambda_aux, so only the cross-entropy can have diverged
        raise TrainingDiverged(
            f"non-finite loss at step {model.step}: cross-entropy is non-finite")
    optimizer.zero_grad()
    total.backward()
    optimizer.step(lr=lr)
    model.step += 1
    return StepStats(total_loss=float(total.data), cross_entropy=ce, aux_loss=aux)


# The most rows (prompts x prompt length) a forward of `evaluate` or `router_stats`
# carries: its temporaries keep one size whatever the corpus, which malloc reuses.
INFERENCE_ROWS = 384


def length_batches(examples, max_rows: int | None = None):
    """Yield (examples of one prompt length, their token ids), shortest first; with
    `max_rows`, in blocks of at most that many rows (at least one prompt a block)."""
    by_length: dict[int, list] = {}
    for ex in examples:
        by_length.setdefault(len(ex.prompt), []).append(ex)
    for length, group in sorted(by_length.items()):
        size = len(group) if max_rows is None else max(1, max_rows // length)
        for start in range(0, len(group), size):
            block = group[start:start + size]
            yield block, np.array([ex.prompt for ex in block], dtype=np.intp)


def evaluate(model: AdaptedModel, examples) -> float:
    """Accuracy of the highest-logit choice at each example's answer position.

    Forwards of at most INFERENCE_ROWS rows of one prompt length, recording no
    graph and carrying only the answer rows through the last block (`record=False,
    last_row=True`). This is exact: its logits differ from one full forward's
    only by BLAS rounding on the smaller shapes, a few 1e-15.
    """
    examples = list(examples)
    if not examples:
        raise ValueError("evaluate needs a non-empty dataset")
    correct = 0
    for group, ids in length_batches(examples, INFERENCE_ROWS):
        logits = model.forward(ids, record=False, last_row=True).logits.data[:, -1, :]
        for row, ex in zip(logits, group):
            candidates = np.array(ex.choices or range(len(row)), dtype=np.intp)
            correct += int(candidates[np.argmax(row[candidates])] == ex.label)
    return correct / len(examples)


METRICS_HEADER = "step,lr,total_loss,cross_entropy,aux_loss,train_accuracy,eval_accuracy"


def _accuracies(model: AdaptedModel, task) -> tuple[float, float]:
    train_acc = evaluate(model, task.train)
    if task.eval is task.train:     # a JSONL file is both splits: evaluate it once
        return train_acc, train_acc
    return train_acc, evaluate(model, task.eval) if task.eval else float("nan")


def fit(model: AdaptedModel, task, run: RunConfig, log=None, tag="") -> tuple[float, float]:
    """Train `model` on `task.train` as `mole train` does and return the
    (train, eval) accuracies of its final weights, measured if no row was
    logged. Batches and dropout come from `model.config.seed`'s streams keyed
    by `tag`. Every `run.metrics_every` steps and at the last, a METRICS_HEADER
    row goes to the text stream `log`, flushed at once; the run stops early
    once a logged train accuracy reaches `run.target_acc`."""
    batch_size = min(run.batch_size, len(task.train))
    steps = run.steps
    if run.epochs is not None:
        steps = run.epochs * -(-len(task.train) // batch_size)
    opt = AdamW(model.trainable_parameters(), lr=run.lr, weight_decay=run.weight_decay)
    rng = Rng(model.config.seed).child("train", tag)
    order = Rng(model.config.seed).child("batches", tag)
    accuracies = None
    for step in range(steps):
        frac = step / max(1, steps - 1)
        lr = run.lr * (1.0 - run.lr_decay * frac)
        picks = order.integers(0, len(task.train), size=batch_size)
        stats = train_step(model, [task.train[i] for i in picks], opt, rng, lr=lr)
        if (step + 1) % run.metrics_every == 0 or step == steps - 1:
            train_acc, eval_acc = accuracies = _accuracies(model, task)
            if log is not None:
                log.write(",".join([
                    str(step + 1), repr(lr), repr(stats.total_loss),
                    repr(stats.cross_entropy), repr(stats.aux_loss),
                    repr(train_acc), repr(eval_acc)]) + "\n")
                log.flush()
            if run.target_acc is not None and train_acc >= run.target_acc:
                break
    return accuracies or _accuracies(model, task)
