"""LoRA experts, top-K routers, and the routed adapted linear layer.

An adapted linear layer keeps its dense weight frozen and adds a gated sum of
low-rank expert updates on top. Each expert is a pair of factors; the output
factor starts Gaussian and the input factor starts at exactly zero, so a fresh
layer computes the frozen product unchanged. A per-layer router picks the K
most probable experts per token and fuses their outputs with renormalized
softmax weights. A switch-style load-balancing loss keeps expert workloads
equitable.

An adapted matrix runs as one stacked expert product (:func:`stacked_lora`):
the product of x with all N experts' in-factors stacked, a dense gate that
zeroes the experts a token did not select, one product with the out-factors
stacked, and the frozen product. Its work grows with N * rank, not with K,
and the number of its matrix products does not grow with N (only the
backward's hand-off of each expert's gradient slices does). Training,
gradient checks and inference run this one formula; a recorded forward makes
it one graph node whose hand-written backward is the same products
transposed and also differentiates the top-K renormalisation. So an adapted
matrix records three graph nodes whatever N is: its router's logits, their
softmax, and the stacked op. The balance loss is one more node per forward,
over all routers at once. An expert that no token selected gets exact-zero
factor gradients. Dropout is one mask draw per matrix, one mask per (token,
selection slot), so two identical experts still see different masks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import NonFiniteError, Rng, Tensor, _make, dropout_mask, matmul, softmax

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
    its gradient through the renormalisation to `probs`.
    """

    selected: np.ndarray
    weights: np.ndarray
    probs: Tensor

    def outcome(self, token: int) -> "RoutingOutcome":
        return RoutingOutcome(selected=tuple(int(i) for i in self.selected[token]),
                              weights=self.weights[token].copy(),
                              full_softmax=self.probs.data[token].copy())

    def outcomes(self) -> list["RoutingOutcome"]:
        return [self.outcome(t) for t in range(self.selected.shape[0])]


@dataclass(frozen=True)
class RoutingOutcome:
    """Routing decision for one token: which experts fire and at what weight.

    `selected` holds exactly K distinct expert indices in ascending order;
    `weights` are their fusion weights (positive, summing to 1); and
    `full_softmax` keeps the probabilities over all experts for the balance
    loss and the utilization statistics.
    """

    selected: tuple[int, ...]
    weights: np.ndarray
    full_softmax: np.ndarray


class LoraExpert:
    """One low-rank adapter: out_factor (out_dim x rank) @ in_factor (rank x in_dim).

    The update applied to a token x is (alpha / rank) * out_factor @ in_factor @ x,
    with dropout on x on this adapter path only. in_factor starts at zero, so a
    freshly initialized expert contributes nothing.
    """

    def __init__(self, in_dim: int, out_dim: int, rank: int, *, alpha: float = 16.0,
                 dropout_rate: float = 0.05, rng: Rng | None = None, dtype=np.float64):
        if rank < 1 or rank >= min(in_dim, out_dim):
            raise ValueError(f"rank must satisfy 1 <= rank < min({in_dim}, {out_dim}), got {rank}")
        if not 0.0 <= dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1), got {dropout_rate}")
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.rank = rank
        self.alpha = float(alpha)
        self.dropout_rate = float(dropout_rate)
        init = rng.normal((out_dim, rank), std=EXPERT_INIT_STD, dtype=dtype) \
            if rng is not None else np.zeros((out_dim, rank), dtype=dtype)
        self.out_factor = Tensor(init, requires_grad=True)
        self.in_factor = Tensor(np.zeros((rank, in_dim), dtype=dtype), requires_grad=True)

    @classmethod
    def from_factors(cls, out_factor, in_factor, *, alpha: float = 1.0,
                     dropout_rate: float = 0.0) -> "LoraExpert":
        """Build an expert from explicit factor matrices (mostly for tests)."""
        a = np.asarray(out_factor, dtype=np.float64)
        b = np.asarray(in_factor, dtype=np.float64)
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
            raise ValueError(f"factor shapes disagree: {a.shape} x {b.shape}")
        expert = cls(b.shape[1], a.shape[0], a.shape[1], alpha=alpha, dropout_rate=dropout_rate)
        expert.out_factor = Tensor(a, requires_grad=True)
        expert.in_factor = Tensor(b, requires_grad=True)
        return expert

    @property
    def scaling(self) -> float:
        return self.alpha / self.rank

    def effective_delta(self) -> np.ndarray:
        """The dense (out_dim, in_dim) update this expert encodes, unscaled."""
        return self.out_factor.data @ self.in_factor.data


def expert_delta(expert: LoraExpert, x) -> np.ndarray:
    """Apply one expert's scaled update to a single token vector."""
    vec = np.asarray(x, dtype=expert.in_factor.dtype)
    if vec.shape != (expert.in_dim,):
        raise ValueError(f"expected input of shape ({expert.in_dim},), got {vec.shape}")
    return expert.scaling * (expert.out_factor.data @ (expert.in_factor.data @ vec))


class Router:
    """Top-K gate for one adapted matrix.

    Holds a trainable (in_dim x num_experts) weight; a token's logits are
    x @ weight. Selection takes the K largest probabilities, breaking ties
    toward the lower expert index, and fusion weights renormalize the selected
    probabilities to sum to one. Selection is invariant under a uniform shift
    of the logits.
    """

    def __init__(self, in_dim: int, num_experts: int, k: int, *, layer_index: int = 0,
                 tag: str = "q", rng: Rng | None = None, dtype=np.float64):
        if k < 1 or k > num_experts:
            raise ValueError(f"top-K must satisfy 1 <= K <= {num_experts}, got K={k}")
        self.in_dim = in_dim
        self.num_experts = num_experts
        self.k = k
        self.layer_index = layer_index
        self.tag = tag
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
        try:
            probs = softmax(logits, axis=-1)
        except NonFiniteError as err:
            raise NonFiniteError(
                f"router (layer {self.layer_index}, {self.tag}): {err}") from err
        # Stable argsort on -p: ties resolve to the lower expert index.
        order = np.argsort(-probs.data, axis=-1, kind="stable")
        selected = np.sort(order[:, : self.k], axis=-1)
        kept = probs.data[np.arange(len(selected))[:, None], selected]
        return GateBatch(selected, kept / kept.sum(axis=-1, keepdims=True), probs)

    def route(self, x) -> RoutingOutcome:
        """Route a single token vector and report the decision."""
        vec = np.asarray(x, dtype=self.weight.dtype)
        if vec.shape != (self.in_dim,):
            raise ValueError(f"expected input of shape ({self.in_dim},), got {vec.shape}")
        if not np.isfinite(vec).all():
            raise ValueError("routing input contains non-finite entries")
        return self.gate(Tensor(vec[None, :])).outcome(0)


def load_balance_loss(outcomes: list[RoutingOutcome]) -> float:
    """Switch-style balance loss over a batch of routing decisions.

    With N experts, T tokens, and K selections per token this is
    N * sum_i f_i * P_i, where f_i is expert i's share of the T*K selection
    slots and P_i is its mean softmax probability. Perfectly uniform routing
    scores exactly 1; concentration raises it.
    """
    if not outcomes:
        raise ValueError("load_balance_loss needs at least one routing outcome")
    gate = GateBatch(np.array([o.selected for o in outcomes]),
                     np.array([o.weights for o in outcomes]),
                     Tensor(np.stack([o.full_softmax for o in outcomes])))
    return balance_loss_tensor([gate]).item()


def balance_loss_tensor(gates: list[GateBatch]) -> Tensor:
    """Differentiable twin of :func:`load_balance_loss`: the mean over the R
    routers of `gates` of each one's N * sum_i f_i * P_i, as one op, so a
    forward records one balance node.

    The dispatch fractions f are constants (selection is discrete); gradient
    flows through the mean probabilities only, so each probability p[t, i] of
    a router with N experts and T tokens receives N * f_i / (T * R), reaching
    every expert column of the router weight.
    """
    share = 1.0 / len(gates)
    total, coefs = 0.0, []
    for gate in gates:
        tokens, num_experts = gate.probs.shape
        counts = np.bincount(gate.selected.reshape(-1), minlength=num_experts)
        dispatch_frac = counts.astype(gate.probs.dtype) / gate.selected.size
        total += (gate.probs.data.mean(axis=0) * dispatch_frac).sum() * float(num_experts)
        coefs.append(dispatch_frac * (num_experts * share / tokens))
    probs = tuple(gate.probs for gate in gates)

    def backward(grad):
        for p, coef in zip(probs, coefs):
            if p.requires_grad:
                p._accumulate(np.broadcast_to(grad * coef, p.shape))

    return _make(np.asarray(total * share, dtype=probs[0].dtype), probs, backward)


def stacked_lora(x: Tensor, frozen: np.ndarray, gate: GateBatch, experts: list[LoraExpert],
                 keep: np.ndarray | None, scale: float, record: bool = True) -> Tensor:
    """One adapted matrix: x @ frozen.T plus each token's selected expert
    updates, weighted by the gate's renormalised weights times `scale`, as
    one stacked expert product.

    x @ [A_1; ...; A_N].T gives every expert's (tokens, rank) block at once,
    with A the in-factors; each block is scaled by a dense (tokens, N) gate
    that holds weights * scale at the token's selected experts and 0
    elsewhere, and one product with the out-factors [B_1, ..., B_N] sums the
    updates onto x @ frozen.T. The work is N * rank * (in_dim + out_dim) per
    token, whatever K. `keep` is the (tokens, K, in_dim) dropout mask, or
    None: with it, each selection slot's masked copy of x gets its own
    in-product, gated at that slot's expert only.

    Without `record` the result is a plain tensor. With it the op is one
    graph node whose parents are x, `gate.probs` and every expert's factors;
    `frozen` and `weights` are plain arrays. The node keeps the gated
    product, the dense gates, each slot's rank rows at its selected experts
    and, for dropout, the mask's kept flags (one byte an entry) and its one
    kept value. The backward is the stacked products transposed: with
    h = grad @ [B_1, ..., B_N], the out-factors get grad.T @ gated, and per
    slot dlow = h * gate gives the in-factors dlow.T @ masked(x) and x
    masked(dlow @ [A_1; ...; A_N]), after grad @ frozen. So an expert no
    token selected gets exact-zero gradients. The weights get
    dw[t, s] = scale * <h, low> at slot s's expert, and the renormalisation
    sends it to the selected probabilities: for a token with selected set S,
    weights w and dw, dp_S = (dw - <dw, w>) / sum(p_S).
    """
    weights, probs, selected = gate.weights, gate.probs, gate.selected
    tokens, k = selected.shape
    n, rank = len(experts), experts[0].rank
    stacked_in = np.concatenate([e.in_factor.data for e in experts])            # (N r, in)
    stacked_out = np.concatenate([e.out_factor.data for e in experts], axis=1)  # (out, N r)
    row = np.arange(tokens)[:, None]
    saved = []      # per slot group: its dense gate and its rank rows at its experts

    def slot_product(rows: np.ndarray, slots) -> np.ndarray:
        dense = np.zeros((tokens, n), dtype=x.dtype)
        dense[row, selected[:, slots]] = weights[:, slots] * scale
        low = (rows @ stacked_in.T).reshape(tokens, n, rank)
        if record:
            saved.append((slots, dense, low[row, selected[:, slots]]))
        low *= dense[:, :, None]
        return low

    if keep is None:
        gated = slot_product(x.data, slice(None))
    else:
        gated = sum(slot_product(x.data * keep[:, s], [s]) for s in range(k))
    gated = gated.reshape(tokens, n * rank)
    out = gated @ stacked_out.T
    out += x.data @ frozen.T
    if not record:
        return Tensor(out)
    # the graph holds no (tokens, K, in_dim) float array: see the docstring
    flags, value = (None, None) if keep is None else (keep != 0, keep.max(initial=0.0))

    def masked(t: np.ndarray, slots) -> np.ndarray:
        """t * keep[:, slot], rounded alike: times the value, then the flags."""
        if flags is None:
            return t
        t = t * value
        t *= flags[:, slots[0]]
        return t

    def backward(grad):
        stacked_in = np.concatenate([e.in_factor.data for e in experts])
        stacked_out = np.concatenate([e.out_factor.data for e in experts], axis=1)
        h = grad @ stacked_out                               # (tokens, N r)
        d_out = grad.T @ gated
        d_in = np.zeros_like(stacked_in)
        dx = grad @ frozen if x.requires_grad else None
        dw = np.empty(selected.shape, dtype=x.dtype)        # d loss / d weights
        h3 = h.reshape(tokens, n, rank)
        for slots, dense, rows_low in saved:
            dw[:, slots] = np.einsum("tsr,tsr->ts", h3[row, selected[:, slots]], rows_low)
            dlow = (h3 * dense[:, :, None]).reshape(tokens, n * rank)
            d_in += dlow.T @ masked(x.data, slots)
            if dx is not None:
                dx += masked(dlow @ stacked_in, slots)
        for i, e in enumerate(experts):
            e.out_factor._accumulate(d_out[:, i * rank:(i + 1) * rank])
            e.in_factor._accumulate(d_in[i * rank:(i + 1) * rank])
        if dx is not None:
            x._accumulate(dx)
        if probs.requires_grad:
            dw *= scale
            dw -= (dw * weights).sum(axis=-1, keepdims=True)
            dw /= probs.data[row, selected].sum(axis=-1, keepdims=True)  # now d loss / d p_S
            dprobs = np.zeros_like(probs.data)
            dprobs[row, selected] = dw
            probs._accumulate(dprobs)

    factors = [t for e in experts for t in (e.in_factor, e.out_factor)]
    return _make(out, (x, probs, *factors), backward)


class AdaptedLinear:
    """A frozen linear map plus routed low-rank expert updates.

    The frozen weight is (out_dim, in_dim) and never receives gradients. All
    experts share the frozen matrix's dimensions, rank, alpha and dropout
    rate; the router consumes the same activation vector that feeds the frozen
    matrix.

    For tokens x the output is x @ frozen.T plus, for each token and each of
    its K selected experts i, the expert's renormalised weight times
    (alpha / rank) * dropout(x[token]) @ A_i.T @ B_i.T, with A the in-factors
    and B the out-factors. The whole formula is one op,
    :func:`stacked_lora`: two stacked expert products whose work is
    O(N * rank) per token. A recorded forward records three graph nodes
    (router logits, softmax, stacked op) whatever the expert count.
    """

    def __init__(self, frozen_weight: np.ndarray, experts: list[LoraExpert],
                 router: Router):
        w0 = np.asarray(frozen_weight)
        if w0.ndim != 2:
            raise ValueError(f"frozen weight must be 2-d, got shape {w0.shape}")
        out_dim, in_dim = w0.shape
        for e in experts:
            if (e.in_dim, e.out_dim) != (in_dim, out_dim):
                raise ValueError(
                    f"expert dims ({e.in_dim}, {e.out_dim}) disagree with frozen ({in_dim}, {out_dim})")
        shared = {(e.rank, e.alpha, e.dropout_rate) for e in experts}
        if len(shared) > 1:
            raise ValueError(
                f"experts must share one (rank, alpha, dropout_rate), got {sorted(shared)}")
        if router.num_experts != len(experts):
            raise ValueError(f"router expects {router.num_experts} experts, got {len(experts)}")
        if router.in_dim != in_dim:
            raise ValueError(f"router input dim {router.in_dim} != layer input dim {in_dim}")
        self.frozen = Tensor(w0)  # requires_grad stays False: never trained
        self.experts = experts
        self.router = router
        self.in_dim = in_dim
        self.out_dim = out_dim

    def forward(self, x: Tensor, rng: Rng | None = None,
                record: bool = True) -> tuple[Tensor, GateBatch]:
        """Apply the layer to a token batch x (tokens, in_dim).

        Returns the output and the :class:`GateBatch` so the caller can
        assemble balance losses and routing statistics. An `rng` turns dropout
        on; it applies on the adapter path only, and the frozen path sees the
        undropped input. With `record` false neither the gate nor the
        stacked op records anything, so there is no autodiff graph; the
        value is the recorded forward's, bit for bit.
        """
        gate = self.router.gate(x, record)
        first = self.experts[0]
        keep = dropout_mask((x.shape[0], self.router.k, self.in_dim), first.dropout_rate,
                            rng, x.dtype)
        return stacked_lora(x, self.frozen.data, gate, self.experts, keep, first.scaling,
                            record), gate

    def named_parameters(self, prefix: str = "") -> dict[str, Tensor]:
        params = {f"{prefix}frozen": self.frozen, f"{prefix}router": self.router.weight}
        for i, e in enumerate(self.experts):
            params[f"{prefix}expert{i}.out_factor"] = e.out_factor
            params[f"{prefix}expert{i}.in_factor"] = e.in_factor
        return params


def adapted_forward(layer: AdaptedLinear, x, rng: Rng | None = None
                    ) -> tuple[np.ndarray, RoutingOutcome]:
    """Single-vector convenience: apply `layer` to one token, with its routing."""
    vec = np.asarray(x, dtype=layer.frozen.dtype)
    if vec.shape != (layer.in_dim,):
        raise ValueError(f"expected input of shape ({layer.in_dim},), got {vec.shape}")
    out, gate = layer.forward(Tensor(vec[None, :]), rng=rng)
    return out.data[0], gate.outcome(0)
