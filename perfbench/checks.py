"""Correctness checks for the benchmark's outputs.

Every check compares the program's output with a computation made here, apart
from the program, or with a property the method must have. None compares with
a stored copy of earlier output. The reference forward reads weights only
through ``named_parameters()`` and the accessors the analysis module uses
(``model.blocks[j].adapted[tag].experts`` and ``effective_delta()``), so it
shares no arithmetic with the model's autodiff path. ``selftest.py`` shows each
check rejecting a deliberately wrong result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

TAGS = ("q", "k", "v", "o", "gate", "up", "down")
ATTENTION_TAGS = ("q", "k", "v", "o")
LN_EPS = 1e-5
LOGIT_TOL = 1e-9
BASE_TOL = 1e-12
REDUNDANCY_RTOL = 1e-9


class CheckFailed(AssertionError):
    """A program output disagreed with its independent check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# -- independent numpy forward -------------------------------------------------


@dataclass
class RouterTally:
    tokens: int
    counts: np.ndarray
    weight_sums: np.ndarray


@dataclass
class Reference:
    """Last-position logits per example (input order) and per-router tallies."""

    last_logits: list[np.ndarray]
    groups: dict[int, np.ndarray] = field(default_factory=dict)   # length -> (B, T, V)
    routers: dict[tuple[int, str], RouterTally] = field(default_factory=dict)


def _layer_norm(x, gain, bias):
    centred = x - x.mean(axis=-1, keepdims=True)
    var = (centred * centred).mean(axis=-1, keepdims=True)
    return centred / np.sqrt(var + LN_EPS) * gain + bias


def _softmax(z):
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def top_k(probs: np.ndarray, k: int) -> np.ndarray:
    """Indices of the K largest probabilities per row, ties to the lower
    index, returned in ascending index order."""
    index = np.broadcast_to(np.arange(probs.shape[1]), probs.shape)
    order = np.lexsort((index, -probs), axis=-1)
    return np.sort(order[:, :k], axis=-1)


class ReferenceModel:
    """Plain-numpy forward of a mole model: pre-LN attention, gated-silu MLP,
    top-K renormalised routing, alpha/r scaling on every expert update."""

    def __init__(self, model):
        cfg = model.config
        self.cfg = cfg
        self.k = cfg.allocation.k
        self.scale = cfg.alpha / cfg.rank
        self.p = {name: t.data for name, t in model.named_parameters().items()}
        self.deltas = {
            (j, tag): [e.effective_delta() for e in model.blocks[j].adapted[tag].experts]
            for j in range(cfg.num_layers) for tag in TAGS}

    def _adapted(self, x, j, tag, tally):
        prefix = f"layer{j}.{tag}."
        out = x @ self.p[prefix + "frozen"].T
        probs = _softmax(x @ self.p[prefix + "router"])
        chosen = top_k(probs, self.k)
        weights = np.take_along_axis(probs, chosen, axis=1)
        weights = weights / weights.sum(axis=1, keepdims=True)
        for i, delta in enumerate(self.deltas[(j, tag)]):
            hit = chosen == i                                   # (tokens, K)
            rows = hit.any(axis=1)
            if rows.any():
                w = (weights * hit).sum(axis=1)[rows, None]
                out[rows] += w * self.scale * (x[rows] @ delta.T)
        n = probs.shape[1]
        entry = tally.setdefault((j, tag), RouterTally(0, np.zeros(n, dtype=np.int64),
                                                        np.zeros(n)))
        entry.tokens += x.shape[0]
        entry.counts += np.bincount(chosen.reshape(-1), minlength=n)
        np.add.at(entry.weight_sums, chosen.reshape(-1), weights.reshape(-1))
        return out

    def logits(self, ids: np.ndarray, tally: dict) -> np.ndarray:
        cfg, p = self.cfg, self.p
        batch, seq = ids.shape
        d, heads = cfg.d_model, cfg.num_heads
        hd = d // heads
        x = p["tok_emb"][ids] + p["pos_emb"][:seq]
        causal = np.triu(np.full((seq, seq), -np.inf), k=1)

        def split(t):
            return t.reshape(batch, seq, heads, hd).transpose(0, 2, 1, 3)

        for j in range(cfg.num_layers):
            u = _layer_norm(x, p[f"layer{j}.ln1.gain"], p[f"layer{j}.ln1.bias"])
            u = u.reshape(batch * seq, d)
            q, k, v = (split(self._adapted(u, j, t, tally)) for t in ("q", "k", "v"))
            att = _softmax(q @ k.transpose(0, 1, 3, 2) / math.sqrt(hd) + causal)
            ctx = (att @ v).transpose(0, 2, 1, 3).reshape(batch * seq, d)
            x = x + self._adapted(ctx, j, "o", tally).reshape(batch, seq, d)
            u2 = _layer_norm(x, p[f"layer{j}.ln2.gain"], p[f"layer{j}.ln2.bias"])
            u2 = u2.reshape(batch * seq, d)
            g = self._adapted(u2, j, "gate", tally)
            h = g / (1.0 + np.exp(-g)) * self._adapted(u2, j, "up", tally)
            x = x + self._adapted(h, j, "down", tally).reshape(batch, seq, d)
        x = _layer_norm(x, p["final_ln.gain"], p["final_ln.bias"])
        return x @ p["head"].T


def by_length(examples) -> dict[int, list[int]]:
    groups: dict[int, list[int]] = {}
    for i, ex in enumerate(examples):
        groups.setdefault(len(ex.prompt), []).append(i)
    return groups


def sample(examples, per_length: int = 8) -> list:
    """The first `per_length` examples of each prompt length."""
    return [examples[i] for idx in by_length(examples).values() for i in idx[:per_length]]


def reference_pass(model, examples) -> Reference:
    ref_model = ReferenceModel(model)
    last: list[np.ndarray | None] = [None] * len(examples)
    ref = Reference(last_logits=last)
    for length, idx in sorted(by_length(examples).items()):
        ids = np.array([examples[i].prompt for i in idx], dtype=np.intp)
        logits = ref_model.logits(ids, ref.routers)
        ref.groups[length] = logits
        for row, i in enumerate(idx):
            last[i] = logits[row, -1]
    return ref


def choose(row: np.ndarray, example) -> int:
    """The choice rule: highest logit among the answer choices (the whole
    vocabulary when none), first candidate on ties."""
    candidates = example.choices if example.choices else range(row.shape[0])
    return max(candidates, key=lambda c: row[c])


def correct_count(rows, examples) -> int:
    return sum(int(choose(row, ex) == ex.label) for row, ex in zip(rows, examples))


# -- checks ----------------------------------------------------------------------


def check_program_logits(model, examples, ref: Reference, tol: float = LOGIT_TOL) -> None:
    """Batched program logits agree with the reference forward within `tol`."""
    for length, idx in sorted(by_length(examples).items()):
        ids = np.array([examples[i].prompt for i in idx], dtype=np.intp)
        got = model.forward(ids).logits.data
        want = ref.groups[length]
        require(got.shape == want.shape,
                f"logits shape {got.shape} != reference {want.shape} (length {length})")
        err = float(np.max(np.abs(got - want)))
        require(err <= tol, f"logits differ from the reference forward by {err:.3e} "
                            f"(tolerance {tol:g}) at prompt length {length}")


def check_accuracy(reported: float, examples, rows, what: str) -> None:
    """A reported accuracy equals correct/total recomputed from `rows`."""
    expected = correct_count(rows, examples) / len(examples)
    require(reported == expected,
            f"{what}: reported accuracy {reported!r}, recomputed {expected!r}")


def single_example_rows(model, examples) -> list[np.ndarray]:
    """Answer-position logits from one single-example forward per example."""
    return [model.forward(np.array(ex.prompt, dtype=np.intp)).logits.data[-1]
            for ex in examples]


def check_step_count(count: int, expected: int, what: str) -> None:
    """A fixed budget made exactly its number of train_step calls."""
    require(count == expected, f"{what}: {count} train_step calls, expected {expected}")


def check_min_accuracy(value: float, floor: float, what: str) -> None:
    require(value >= floor, f"{what} accuracy {value!r} below {floor}")


def check_router_stats(usages, examples, model, ref: Reference,
                       tol: float = LOGIT_TOL) -> None:
    """Per router: tokens equal the summed prompt lengths, selections sum to
    tokens x K, and counts and weights match the reference routing."""
    cfg = model.config
    k = cfg.allocation.k
    tokens = sum(len(ex.prompt) for ex in examples)
    seen = set()
    for u in usages:
        key = (u.layer, u.tag)
        seen.add(key)
        require(u.tokens == tokens,
                f"router {key}: {u.tokens} tokens, corpus has {tokens}")
        require(sum(u.selection_counts) == tokens * k,
                f"router {key}: selections sum to {sum(u.selection_counts)}, "
                f"expected tokens x K = {tokens * k}")
        want = ref.routers[key]
        require(list(u.selection_counts) == want.counts.tolist(),
                f"router {key}: selection counts {list(u.selection_counts)} != "
                f"reference {want.counts.tolist()}")
        err = float(np.max(np.abs(np.asarray(u.weight_sums) - want.weight_sums)))
        require(err <= tol * max(1, tokens), f"router {key}: fusion weight sums off by {err:.3e}")
    expected = {(j, t) for j in range(cfg.num_layers) for t in TAGS}
    require(seen == expected, f"router_stats covers {len(seen)} routers, expected {len(expected)}")


def _oracle_distance(params, prefix: str, i: int, j: int) -> float:
    a = params[f"{prefix}expert{i}.out_factor"].data @ params[f"{prefix}expert{i}.in_factor"].data
    b = params[f"{prefix}expert{j}.out_factor"].data @ params[f"{prefix}expert{j}.in_factor"].data
    return math.sqrt(float(((a - b) ** 2).sum()))


def check_redundancy(report, model, rtol: float = REDUNDANCY_RTOL) -> None:
    """Redundancy values equal a double loop over expert pairs of the
    Frobenius distance between effective updates built from raw factors."""
    cfg = model.config
    params = model.named_parameters()
    require(len(report) == cfg.num_layers,
            f"redundancy report has {len(report)} layers, model has {cfg.num_layers}")
    for entry in report:
        j = entry.layer
        n = cfg.allocation.counts[j]
        require(entry.num_experts == n, f"layer {j}: {entry.num_experts} experts, expected {n}")
        oracle = {}
        for tag in TAGS:
            dists = [_oracle_distance(params, f"layer{j}.{tag}.", a, b)
                     for a in range(n) for b in range(a + 1, n)]
            oracle[tag] = sum(dists) / len(dists) if dists else None
            got = entry.per_matrix[tag]
            if oracle[tag] is None:
                require(got is None, f"layer {j} {tag}: value {got!r} with fewer than 2 experts")
            else:
                require(got is not None and abs(got - oracle[tag]) <= rtol * max(1.0, oracle[tag]),
                        f"layer {j} {tag}: redundancy {got!r}, oracle {oracle[tag]!r}")
        attention = [oracle[t] for t in ATTENTION_TAGS]
        want = None if None in attention else sum(attention) / len(attention)
        if want is None:
            require(entry.value is None, f"layer {j}: value {entry.value!r}, expected absent")
        else:
            require(entry.value is not None and abs(entry.value - want) <= rtol * max(1.0, want),
                    f"layer {j}: redundancy {entry.value!r}, oracle {want!r}")


def check_fresh_is_base(fresh_model, examples, tol: float = BASE_TOL) -> None:
    """A freshly built model (zero input factors) computes the frozen base."""
    examples = sample(examples)
    for length, idx in sorted(by_length(examples).items()):
        ids = np.array([examples[i].prompt for i in idx], dtype=np.intp)
        full = fresh_model.forward(ids).logits.data
        base = fresh_model.base_forward(ids).data
        err = float(np.max(np.abs(full - base)))
        require(err <= tol, f"fresh model differs from base_forward by {err:.3e} "
                            f"at prompt length {length}")


def check_losses_finite(stats) -> None:
    require(len(stats) > 0, "no training steps were recorded")
    for n, s in enumerate(stats):
        values = (s.total_loss, s.cross_entropy, s.aux_loss)
        require(all(math.isfinite(v) for v in values), f"step {n}: non-finite loss {values}")


def check_frozen_equal(model, fresh) -> None:
    """Frozen base parameters are bitwise equal to a fresh build's."""
    trained = model.named_parameters()
    base = fresh.named_parameters()
    frozen = [name for name, p in base.items() if not p.requires_grad]
    require(len(frozen) > 0, "fresh build reports no frozen parameters")
    for name in frozen:
        a, b = trained[name].data, base[name].data
        require(a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes(),
                f"frozen parameter {name} differs from a fresh build")


def closed_form_trainable(cfg) -> int:
    """Sum over layers j and adapted matrices (in, out) of
    n_j * (rank * (in + out) + in): expert factor pairs plus router columns."""
    d, f, r = cfg.d_model, cfg.d_ffn, cfg.rank
    matrices = [(d, d)] * 4 + [(d, f), (d, f), (f, d)]
    return sum(n * (r * (i + o) + i) for n in cfg.allocation.counts for i, o in matrices)


def check_trainable_total(model) -> None:
    want = closed_form_trainable(model.config)
    got = model.trainable_param_total()
    require(got == want, f"trainable_param_total() = {got}, closed form gives {want}")


def check_reload_identical(model, reloaded, examples) -> None:
    """A reloaded checkpoint gives bitwise-identical logits."""
    examples = sample(examples)
    for length, idx in sorted(by_length(examples).items()):
        ids = np.array([examples[i].prompt for i in idx], dtype=np.intp)
        a = model.forward(ids).logits.data
        b = reloaded.forward(ids).logits.data
        require(a.shape == b.shape and a.tobytes() == b.tobytes(),
                f"reloaded checkpoint changes logits at prompt length {length}")


def check_same(values, what: str) -> None:
    """Repeated rounds of identical work give identical results."""
    require(all(v == values[0] for v in values[1:]), f"{what} differs between rounds")
