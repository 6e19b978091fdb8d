"""LoRA experts, top-K routers, and the routed adapted linear layer.

An adapted linear layer keeps its dense weight frozen and adds a gated sum of
low-rank expert updates on top. Its N experts are two trainable arrays,
out-factors (out, N * rank) and in-factors (N * rank, in): expert i is
column block i of one and row block i of the other, and a
:class:`LoraExpert` views them. The out-factors start Gaussian and the
in-factors at exactly zero, so a fresh layer computes the frozen product
unchanged. A per-layer router picks the K most probable experts per token
and fuses their outputs with renormalized softmax weights. A switch-style
load-balancing loss keeps expert workloads equitable.

An adapted matrix runs as one stacked expert product (:func:`stacked_lora`): x
times the stacked in-factors, each token's blocks at its selected experts
gathered into a weighted gated product, one product with the stacked
out-factors, and the frozen product: N * rank * (in + out) per token,
whatever K. Dropout masks each (token, selection slot) on its own, so two
identical experts still see different masks; a token's K slots are then K rows
of the in-product, K * N * rank * in per token. Training, gradient checks and
inference run this one path, which differs only in its slot count and mask; a
recorded forward is one graph node whose hand-written backward is the same
products transposed and also differentiates the top-K renormalisation. So an
adapted matrix records three graph nodes whatever N is: its router's logits,
their softmax, and the stacked op. An expert no token selected gets exact-zero
factor gradients.

Every entry point takes a token batch, and a single token is a one-row batch:
``router.gate(Tensor(x[None]))``, ``layer.forward(Tensor(x[None]))``. One
reduction, :meth:`GateBatch.tally`, counts a gate's selections for the
balance loss (:func:`balance_loss_tensor`) and for
:func:`~mole.analysis.router_stats`. A router does not know its layer or
matrix; the model's forward hook names them on a failure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Rng, Tensor, _make, dropout_positions, matmul, softmax

ADAPTED_TAGS = ("q", "k", "v", "o", "gate", "down", "up")

ROUTER_INIT_STD = 0.02
EXPERT_INIT_STD = 0.02


@dataclass
class GateBatch:
    """One router's decisions for a token batch.

    `selected` (tokens, K) lists the chosen expert indices in ascending order
    and `weights` (tokens, K) their probabilities renormalised to sum to one;
    `probs` is the dense (tokens, num_experts) softmax. Only `probs` is in the
    autodiff graph: `weights` is a plain array, and :func:`stacked_lora` sends
    its gradient through the renormalisation to `probs`. A single token's
    decision is row 0 of a one-row batch.
    """

    selected: np.ndarray
    weights: np.ndarray
    probs: Tensor

    def tally(self) -> tuple[np.ndarray, np.ndarray]:
        """Each expert's selection count and summed renormalised weight (f64)."""
        picks, n = self.selected.reshape(-1), self.probs.shape[1]
        return (np.bincount(picks, minlength=n),
                np.bincount(picks, weights=self.weights.reshape(-1), minlength=n))


class LoraExpert:
    """Expert i of an adapted matrix, as tensors over numpy views of its
    blocks: `out_factor` (out_dim x rank) and `in_factor` (rank x in_dim).

    A write through them changes the matrix; gradients reach the stacked
    arrays, not the views. A view taken before `AdamW(...)` repacks the
    storage still reads the old arrays: it is stale.
    """

    def __init__(self, layer: "AdaptedLinear", index: int):
        block = slice(index * layer.rank, (index + 1) * layer.rank)
        self.out_factor = Tensor(layer.out_factors.data[:, block], requires_grad=True)
        self.in_factor = Tensor(layer.in_factors.data[block], requires_grad=True)

    def effective_delta(self) -> np.ndarray:
        """The dense (out_dim, in_dim) update this expert encodes, unscaled."""
        return self.out_factor.data @ self.in_factor.data


class Router:
    """Top-K gate for one adapted matrix.

    Holds a trainable (in_dim x num_experts) weight; a token's logits are
    x @ weight. Selection takes the K largest probabilities, breaking ties
    toward the lower expert index, and fusion weights renormalize the selected
    probabilities to sum to one. Selection is invariant under a uniform shift
    of the logits.
    """

    def __init__(self, in_dim: int, num_experts: int, k: int, *, rng: Rng | None = None,
                 dtype=np.float64):
        if k < 1 or k > num_experts:
            raise ValueError(f"top-K must satisfy 1 <= K <= {num_experts}, got K={k}")
        self.in_dim = in_dim
        self.num_experts = num_experts
        self.k = k
        init = rng.normal((in_dim, num_experts), std=ROUTER_INIT_STD, dtype=dtype) \
            if rng is not None else np.zeros((in_dim, num_experts), dtype=dtype)
        self.weight = Tensor(init, requires_grad=True)

    def gate(self, x: Tensor, record: bool = True) -> "GateBatch":
        """Gate a batch of tokens x (tokens, in_dim); see :class:`GateBatch`.

        The logits and their softmax `probs` are the gate's graph nodes.
        `weights`, the selected probabilities renormalised to sum to one, is a
        plain array; :func:`stacked_lora` differentiates it. With `record`
        false the logits use the weight's data, so nothing is recorded.
        """
        logits = matmul(x, self.weight if record else self.weight.data)  # (tokens, N)
        probs = softmax(logits, axis=-1)
        # Stable argsort on -p: ties resolve to the lower expert index.
        order = np.argsort(-probs.data, axis=-1, kind="stable")
        selected = np.sort(order[:, : self.k], axis=-1)
        kept = probs.data[np.arange(len(selected))[:, None], selected]
        return GateBatch(selected, kept / kept.sum(axis=-1, keepdims=True), probs)


def balance_loss_tensor(gates: list[GateBatch]) -> Tensor:
    """Switch-style balance loss: the mean over the R routers of `gates` of
    each one's N * sum_i f_i * P_i, as one op, so a forward records one
    balance node.

    With N experts, T tokens and K selections per token, f_i is expert i's
    share of the T*K selection slots and P_i its mean softmax probability.
    Perfectly uniform routing scores exactly 1; concentration raises it. The
    dispatch fractions f are constants (selection is discrete); gradient
    flows through the mean probabilities only, so each probability p[t, i] of
    a router with N experts and T tokens receives N * f_i / (T * R), reaching
    every expert column of the router weight.
    """
    if not gates:
        raise ValueError("balance_loss_tensor needs at least one gate")
    share = 1.0 / len(gates)
    total, coefs = 0.0, []
    for gate in gates:
        tokens, num_experts = gate.probs.shape
        counts, _ = gate.tally()
        dispatch_frac = counts.astype(gate.probs.dtype) / gate.selected.size
        total += (gate.probs.data.mean(axis=0) * dispatch_frac).sum() * float(num_experts)
        coefs.append(dispatch_frac * (num_experts * share / tokens))
    probs = tuple(gate.probs for gate in gates)

    def backward(grad):
        for p, coef in zip(probs, coefs):
            if p.requires_grad:
                p._accumulate(np.broadcast_to(grad * coef, p.shape))

    return _make(np.asarray(total * share, dtype=probs[0].dtype), probs, backward)


def stacked_lora(x: Tensor, frozen: np.ndarray, gate: GateBatch, in_factors: Tensor,
                 out_factors: Tensor, dropped: np.ndarray | None, rate: float, scale: float,
                 record: bool = True) -> Tensor:
    """One adapted matrix: x @ frozen.T plus each token's selected expert
    updates, weighted by the gate's renormalised weights times `scale`, as
    one stacked expert product.

    x @ in_factors.T, with in_factors = [A_1; ...; A_N], gives every
    expert's (tokens, rank) block at once; a gather takes each token's blocks
    at its selected experts, one scatter puts them, times weights * scale,
    into a gated product that is zero elsewhere, and one product with
    out_factors = [B_1, ..., B_N] sums them onto x @ frozen.T. `dropped`,
    the positions dropout zeroes flat in the (tokens, K, in_dim) layout
    (:func:`~mole.tensor.dropout_positions`) or None, sets only the slot
    count and the mask. Without it x is the one row block: N * rank *
    (in + out) per token, whatever K. With it each selection slot sees its
    own masked x / (1 - rate), one of K row blocks of the in-product
    (K * N * rank * in per token).

    Without `record` the result is a plain tensor. With it the op is one
    graph node whose parents are x, `gate.probs` and the two factor arrays.
    It keeps each slot's block at its expert and the dropped positions; the
    backward rebuilds the slot rows and the gated product. It is the
    products transposed: with h = grad @ out_factors, the out-factors get
    grad.T @ gated; h at each row's selected experts times weights * scale
    is dlow, which gives the in-factors dlow.T @ rows and x grad @ frozen
    plus the masked dlow @ in_factors of every slot. So an expert no token
    selected gets exact-zero gradients. The weights get
    dw[t, s] = scale * <h, low> at slot s's expert, and the renormalisation
    sends it to the selected probabilities: for a token with selected set S,
    weights w and dw, dp_S = (dw - <dw, w>) / sum(p_S).
    """
    weights, probs, selected = gate.weights, gate.probs, gate.selected
    tokens, k = selected.shape
    n, rank = probs.shape[1], in_factors.shape[0] // probs.shape[1]
    stacked_in, stacked_out = in_factors.data, out_factors.data   # (N r, in), (out, N r)
    block = np.arange(tokens)[:, None] * n + selected  # each slot's expert, flat in (tokens, N)
    scaled = weights * scale
    slots = 1 if dropped is None else k         # row blocks of the in-product
    at = block + np.arange(slots) * (tokens * n)  # each slot's expert, flat in (slots tokens N)
    keep = x.dtype.type(1.0 / (1.0 - rate))

    def slot_rows(rows: np.ndarray) -> np.ndarray:
        """(tokens slots, in) rows as (slots, tokens, in), masked in place."""
        if dropped is not None:
            rows *= keep
            rows.reshape(-1)[dropped] = 0.0
        return rows.reshape(tokens, slots, -1).transpose(1, 0, 2)

    def x_rows() -> np.ndarray:
        """x once per slot as (slots, tokens, in), masked; without a mask, x itself."""
        return slot_rows(x.data if dropped is None else np.repeat(x.data, k, axis=0))

    def scatter(blocks: np.ndarray, where: np.ndarray, size: int) -> np.ndarray:
        spread = np.zeros((size, rank), dtype=x.dtype)
        spread[where] = blocks * scaled[:, :, None]
        return spread

    # each slot's block at its expert (tokens, K, r), freeing the in-product before the scatter
    picked = (x_rows() @ stacked_in.T).reshape(-1, rank).take(at, axis=0)
    out = scatter(picked, block, tokens * n).reshape(tokens, n * rank) @ stacked_out.T
    out += x.data @ frozen.T
    if not record:
        return Tensor(out)

    def backward(grad):
        h = grad @ stacked_out
        out_factors._accumulate(
            grad.T @ scatter(picked, block, tokens * n).reshape(tokens, n * rank))
        h_picked = h.reshape(-1, rank).take(block, axis=0)
        dw = np.einsum("tsr,tsr->ts", h_picked, picked)             # d loss / d weights
        dlow = scatter(h_picked, at, slots * tokens * n).reshape(slots, tokens, n * rank)
        in_factors._accumulate((dlow.transpose(0, 2, 1) @ x_rows()).sum(axis=0))
        if x.requires_grad:
            dx = grad @ frozen
            d_rows = np.empty((tokens * slots, x.shape[1]), dtype=x.dtype)
            np.matmul(dlow, stacked_in, out=d_rows.reshape(tokens, slots, -1).transpose(1, 0, 2))
            for d_slot in slot_rows(d_rows):
                dx += d_slot
            del d_rows, d_slot          # freed before x copies dx
            x._accumulate(dx)
        if probs.requires_grad:
            dw *= scale
            dw -= (dw * weights).sum(axis=-1, keepdims=True)
            dw /= probs.data.take(block).sum(axis=-1, keepdims=True)  # now d loss / d p_S
            dprobs = np.zeros(probs.data.size, dtype=probs.dtype)
            dprobs[block] = dw
            probs._accumulate(dprobs.reshape(probs.shape))

    return _make(out, (x, probs, in_factors, out_factors), backward)


class AdaptedLinear:
    """A frozen linear map plus routed low-rank expert updates.

    The frozen weight is (out_dim, in_dim) and never receives gradients. The
    router's N experts share one rank, read off the trainable `out_factors`
    (out_dim, N * rank) and `in_factors` (N * rank, in_dim), whose blocks i
    are expert i's B_i and A_i (:class:`LoraExpert` views them). The matrix
    keeps `alpha` once, as `scale` = alpha / rank, and its `dropout_rate`.
    The router consumes the same activation rows that feed the frozen matrix.

    For tokens x the output is x @ frozen.T plus, for each token and each of
    its K selected experts i, the expert's renormalised weight times
    scale * dropout(x[token]) @ A_i.T @ B_i.T. The whole formula is one op,
    :func:`stacked_lora`, one path with and without dropout: two stacked
    expert products whose work is O(N * rank) per token, O(K * N * rank) on
    the in-path under dropout. A recorded forward records three graph nodes
    (router logits, softmax, stacked op) whatever the expert count.
    """

    def __init__(self, frozen_weight: np.ndarray, out_factors: np.ndarray,
                 in_factors: np.ndarray, router: Router, *, alpha: float, dropout_rate: float):
        w0 = np.asarray(frozen_weight)
        if w0.ndim != 2:
            raise ValueError(f"frozen weight must be 2-d, got shape {w0.shape}")
        out_dim, in_dim = w0.shape
        b, a, n = np.asarray(out_factors), np.asarray(in_factors), router.num_experts
        rank = len(a) // n if a.ndim == 2 else 0
        if b.shape != (out_dim, n * rank) or a.shape != (n * rank, in_dim):
            raise ValueError(f"expert dims: the router's {n} experts need factors ({out_dim}, "
                             f"{n} * rank) and ({n} * rank, {in_dim}), got {b.shape}, {a.shape}")
        if router.in_dim != in_dim:
            raise ValueError(f"router input dim {router.in_dim} != layer input dim {in_dim}")
        if not 1 <= rank < min(in_dim, out_dim):
            raise ValueError(f"rank must satisfy 1 <= rank < min({in_dim}, {out_dim}), got {rank}")
        if not 0.0 < alpha < np.inf:
            raise ValueError(f"alpha must be positive and finite, got {alpha}")
        if not 0.0 <= dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1), got {dropout_rate}")
        self.frozen = Tensor(w0)  # requires_grad stays False: never trained
        self.out_factors = Tensor(b, requires_grad=True)
        self.in_factors = Tensor(a, requires_grad=True)
        self.router = router
        self.in_dim, self.out_dim, self.rank = in_dim, out_dim, rank
        self.scale = float(alpha) / rank
        self.dropout_rate = float(dropout_rate)

    @property
    def experts(self) -> list[LoraExpert]:
        """Every expert as a view of its factor blocks, taken anew on each call."""
        return [LoraExpert(self, i) for i in range(self.router.num_experts)]

    def forward(self, x: Tensor, rng: Rng | None = None,
                record: bool = True) -> tuple[Tensor, GateBatch]:
        """Apply the layer to a token batch x (tokens, in_dim).

        Returns the output and the :class:`GateBatch` so the caller can
        assemble balance losses and routing statistics. An `rng` turns dropout
        on; it applies on the adapter path only, and the frozen path sees the
        undropped input. The matrix draws its dropped positions once, in the
        (tokens, K, in_dim) layout of its selection slots. With `record`
        false neither the gate nor the stacked op records anything, so there
        is no autodiff graph; the value is the recorded forward's, bit for
        bit.
        """
        gate = self.router.gate(x, record)
        dropped = dropout_positions((x.shape[0], self.router.k, self.in_dim),
                                    self.dropout_rate, rng)
        return stacked_lora(x, self.frozen.data, gate, self.in_factors, self.out_factors,
                            dropped, self.dropout_rate, self.scale, record), gate

    def named_parameters(self, prefix: str = "") -> dict[str, Tensor]:
        """The frozen weight, the router and each expert's two factor views."""
        params = {f"{prefix}frozen": self.frozen, f"{prefix}router": self.router.weight}
        for i, e in enumerate(self.experts):
            params[f"{prefix}expert{i}.out_factor"] = e.out_factor
            params[f"{prefix}expert{i}.in_factor"] = e.in_factor
        return params

    def trainable_parameters(self, prefix: str = "") -> dict[str, Tensor]:
        """What gradients reach and the optimizer updates: the router and factors."""
        return {f"{prefix}router": self.router.weight, f"{prefix}out_factors": self.out_factors,
                f"{prefix}in_factors": self.in_factors}
