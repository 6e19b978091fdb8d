"""LoRA experts, top-K routers, and the routed adapted linear layer.

An adapted linear layer keeps its dense weight frozen and adds a gated sum of
low-rank expert updates on top. Each expert is a pair of factors; the output
factor starts Gaussian and the input factor starts at exactly zero, so a fresh
layer computes the frozen product unchanged. A per-layer router picks the K
most probable experts per token and fuses their outputs with renormalized
softmax weights. A switch-style load-balancing loss keeps expert workloads
equitable.

A recorded forward (training, gradient checks) runs an adapted matrix as one
op (:func:`routed_lora`): the frozen product plus a grouped dispatch in which
each expert that some token selected runs only on the rows routed to it, so
the work grows with K, not with the expert count N. That op also
differentiates the top-K renormalisation, so an adapted matrix records three
graph nodes whatever N is: its router's logits, their softmax, and the routed
op. The balance loss is one more node per forward, over all routers at once.
An expert that no token selected is never run and its factors receive no
gradient. Dropout is one mask draw per matrix, one mask per (token, selection
slot), so two identical experts still see different masks.

A forward that records nothing (inference) computes the same value with
:func:`stacked_lora`: one product of x with all N experts' in-factors
stacked, a dense gate that zeroes the experts a token did not select, and one
product with the out-factors stacked. Its work grows with N * rank, not with
K; it replaces N gathers and scatters with two matrix products.
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
    autodiff graph: `weights` is a plain array, and :func:`routed_lora` sends
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

    def delta(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Unscaled update of the input rows (rows, in_dim) routed to this
        expert: returns (rows @ in_factor.T @ out_factor.T, the rank-space
        product rows @ in_factor.T that the backward reuses)."""
        low = rows @ self.in_factor.data.T
        return low @ self.out_factor.data.T, low


def expert_delta(expert: LoraExpert, x) -> np.ndarray:
    """Apply one expert's scaled update to a single token vector."""
    vec = np.asarray(x, dtype=expert.in_factor.dtype)
    if vec.shape != (expert.in_dim,):
        raise ValueError(f"expected input of shape ({expert.in_dim},), got {vec.shape}")
    up, _ = expert.delta(vec[None, :])
    return expert.scaling * up[0]


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
        plain array; :func:`routed_lora` differentiates it. With `record`
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


def routed_lora(x: Tensor, frozen: np.ndarray, gate: GateBatch, experts: list[LoraExpert],
                keep: np.ndarray | None, scale: float) -> Tensor:
    """One adapted matrix: x @ frozen.T plus each token's selected expert
    updates, weighted by the gate's renormalised weights times `scale`.

    For each expert i that some token selected, with (tok, slot) the places
    where ``gate.selected == i``, the output rows tok receive
    weights[tok, slot] * scale * (x[tok] * keep[tok, slot]) @ A_i.T @ B_i.T,
    with A the in-factor and B the out-factor. `keep` is the (tokens, K,
    in_dim) dropout mask, or None for no dropout. An expert whose rows are all
    the tokens skips the gather and the scatter.

    The expert work is K rows per token whatever the expert count. The
    parents are x, `gate.probs` and the routed experts' factors; `frozen` and
    `weights` are plain arrays. The op keeps each expert's rank-space product
    and, for dropout, the mask's kept flags (one byte an entry) and its one
    kept value; the backward gathers and drops each
    expert's input rows again. The backward sends gradients to x (from
    grad @ frozen on), to each routed expert's factors and, through the
    renormalisation, to the selected probabilities: for a token with selected
    set S, weights w and dw = d loss / d w, dp_S = (dw - <dw, w>) / sum(p_S).
    """
    weights, probs, selected = gate.weights, gate.probs, gate.selected
    tokens, k = selected.shape
    row = np.arange(tokens)[:, None]
    # Group the (token, slot) pairs by expert. The sort is stable, so each
    # group lists its tokens in ascending order, at most once each.
    order = np.argsort(selected, axis=None, kind="stable")
    tok, slot = np.divmod(order, k)
    expert_of = selected.reshape(-1)[order]
    bounds = np.searchsorted(expert_of, np.arange(len(experts) + 1))
    weight = (weights[tok, slot] * scale)[:, None]
    mask = None if keep is None else keep[tok, slot]
    out = x.data @ frozen.T
    routes = []
    for i in np.flatnonzero(np.diff(bounds)):
        a, b = bounds[i], bounds[i + 1]
        at = slice(None) if b - a == tokens else tok[a:b]
        rows = x.data[at] if mask is None else x.data[at] * mask[a:b]
        up, low = experts[i].delta(rows)
        up *= weight[a:b]
        out[at] += up
        routes.append((experts[i], a, b, at, low))
    # the graph holds no (pairs, in_dim) float array: see the docstring
    flags, value = (None, None) if mask is None else (mask != 0, mask.max(initial=0.0))

    def masked(t: np.ndarray, a: int, b: int) -> np.ndarray:
        """t * mask[a:b], rounded alike: times the value, then the flags."""
        if flags is None:
            return t
        t = t * value
        t *= flags[a:b]
        return t

    def backward(grad):
        dx = grad @ frozen if x.requires_grad else None
        dweight = np.empty(order.size, dtype=x.dtype)   # d loss / d weight, per pair
        for expert, a, b, at, low in routes:
            rows = masked(x.data[at], a, b)
            g = grad[at]
            h = g @ expert.out_factor.data                 # (rows, rank)
            np.einsum("rk,rk->r", h, low, out=dweight[a:b])
            h *= weight[a:b]
            expert.out_factor._accumulate(g.T @ (low * weight[a:b]))
            expert.in_factor._accumulate(h.T @ rows)
            if dx is not None:
                dx[at] += masked(h @ expert.in_factor.data, a, b)
        if dx is not None:
            x._accumulate(dx)
        if probs.requires_grad:
            dsel = np.empty(selected.shape, dtype=x.dtype)     # d loss / d weights
            dsel[tok, slot] = scale * dweight
            dsel -= (dsel * weights).sum(axis=-1, keepdims=True)
            dsel /= probs.data[row, selected].sum(axis=-1, keepdims=True)  # now d loss / d p_S
            dprobs = np.zeros_like(probs.data)
            dprobs[row, selected] = dsel
            probs._accumulate(dprobs)

    factors = [t for route in routes for t in (route[0].in_factor, route[0].out_factor)]
    return _make(out, (x, probs, *factors), backward)


def stacked_lora(x: np.ndarray, frozen: np.ndarray, gate: GateBatch,
                 experts: list[LoraExpert], keep: np.ndarray | None,
                 scale: float) -> np.ndarray:
    """The value of :func:`routed_lora`, recording nothing, as one stacked
    expert product.

    x @ [A_1; ...; A_N].T gives every expert's (tokens, rank) block at once;
    each block is scaled by a dense (tokens, N) gate that holds weights *
    scale at the token's selected experts and 0 elsewhere, and one product
    with [B_1, ..., B_N] sums the updates onto x @ frozen.T. The work is
    N * rank * (in_dim + out_dim) per token, whatever K. With a dropout mask
    `keep` each selection slot's masked copy of x gets its own in-product,
    gated at that slot's expert only.
    """
    tokens, k = gate.selected.shape
    n, rank = len(experts), experts[0].rank
    stacked_in = np.concatenate([e.in_factor.data for e in experts])            # (N r, in)
    stacked_out = np.concatenate([e.out_factor.data for e in experts], axis=1)  # (out, N r)
    row = np.arange(tokens)[:, None]

    def gated(rows: np.ndarray, slots) -> np.ndarray:
        dense = np.zeros((tokens, n), dtype=x.dtype)
        dense[row, gate.selected[:, slots]] = gate.weights[:, slots] * scale
        low = (rows @ stacked_in.T).reshape(tokens, n, rank)
        low *= dense[:, :, None]
        return low

    if keep is None:
        low = gated(x, slice(None))
    else:
        low = sum(gated(x * keep[:, s], [s]) for s in range(k))
    out = low.reshape(tokens, n * rank) @ stacked_out.T
    out += x @ frozen.T
    return out


class AdaptedLinear:
    """A frozen linear map plus routed low-rank expert updates.

    The frozen weight is (out_dim, in_dim) and never receives gradients. All
    experts share the frozen matrix's dimensions, rank, alpha and dropout
    rate; the router consumes the same activation vector that feeds the frozen
    matrix.

    For tokens x the output is x @ frozen.T plus, for each token and each of
    its K selected experts i, the expert's renormalised weight times
    (alpha / rank) * dropout(x[token]) @ A_i.T @ B_i.T, with A the in-factors
    and B the out-factors. A recorded forward computes the whole formula as
    one op (:func:`routed_lora`), grouped by expert: each expert runs once,
    on the rows routed to it, so the matrix costs O(K) expert rows per token
    whatever its expert count, and records three graph nodes (router logits,
    softmax, routed op). A forward that records nothing uses
    :func:`stacked_lora`, two stacked products whose work is O(N * rank) per
    token.
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
        undropped input. With `record` false the gate records nothing and
        the output comes from :func:`stacked_lora`, with no autodiff graph.
        """
        gate = self.router.gate(x, record)
        first = self.experts[0]
        keep = dropout_mask((x.shape[0], self.router.k, self.in_dim), first.dropout_rate,
                            rng, x.dtype)
        if not record:
            return Tensor(stacked_lora(x.data, self.frozen.data, gate, self.experts, keep,
                                       first.scaling)), gate
        return routed_lora(x, self.frozen.data, gate, self.experts, keep, first.scaling), gate

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
