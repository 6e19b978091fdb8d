"""Dense tensors with reverse-mode automatic differentiation.

Every operation records its parents and a backward closure; ``Tensor.backward``
replays the graph in reverse topological order, accumulating gradients via the
chain rule. Arrays are 64-bit floats by default; 32-bit is an opt-in mode for
training runs (gradient checking is only meaningful in 64-bit).

A formula with a closed-form derivative is one op with a hand-written
backward, not a chain of elementwise ops: softmax, cross-entropy and layer
norm here; in :mod:`mole.adapters`, an adapted matrix (frozen product,
stacked expert products and top-K renormalisation: three nodes with its
router's logits and softmax) and the balance loss over all routers (one node
per forward).

The model's residual stream is one (rows, d) matrix from the embeddings to
the head, so one row gather, :func:`take_rows`, serves the embedding lookups,
the answer rows and any loss that picks rows of flattened logits.

No global state anywhere: randomness comes from an explicit, splittable
counter-based generator (:class:`Rng`) owned by the caller, and there is no
grad mode. An op records its parents and backward only when some parent
requires grad; only trainable leaves do. A forward that the caller runs with
``record=False`` (:meth:`~mole.model.AdaptedModel.forward`) computes the same
ops and values but records nothing where they read the trainable weights, so
each intermediate is freed as soon as no later op needs it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

FLOAT_DTYPES = (np.float32, np.float64)


class NonFiniteError(ValueError):
    """An op met NaN or infinite input where it needs finite values."""


def _as_array(data, dtype=None) -> np.ndarray:
    arr = np.asarray(data, dtype=dtype)
    if arr.dtype not in FLOAT_DTYPES:
        arr = arr.astype(np.float64)
    return arr


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    """A dense array plus the bookkeeping needed for reverse-mode autodiff.

    `data` is a row-major numpy array of 64-bit (or opt-in 32-bit) floats.
    `grad`, when populated, always has the same shape as `data`. Tensors are
    treated as immutable after construction; the single sanctioned exception
    is that the optimizer updates trainable leaves in place, so a view of one
    (an expert's factors, :class:`~mole.adapters.LoraExpert`) reads the
    current weights.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, *, dtype=None,
                 _parents: tuple = (), _backward=None):
        self.data = _as_array(data, dtype)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward = _backward

    # -- introspection ----------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() requires a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- autodiff ----------------------------------------------------------

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            # a copy: `grad` may be another node's array, which later adds must not touch
            self.grad = np.array(grad, dtype=self.data.dtype)
        else:
            self.grad += grad

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Backpropagate from a scalar root through the recorded graph.

        Leaves keep their accumulated `grad`. An op's gradient is released
        once its backward has passed it on, so the backward holds at most
        the gradients still waiting to be passed on."""
        if self.size != 1:
            raise ValueError(f"backward() requires a scalar root, got shape {self.shape}")
        # Iterative topological sort; recursion would overflow on deep graphs.
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self._accumulate(np.ones_like(self.data))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                node.grad = None

    # -- operators ---------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def reshape(self, *shape) -> "Tensor":
        return reshape(self, shape if len(shape) != 1 or isinstance(shape[0], int) else shape[0])

    def transpose(self, *axes) -> "Tensor":
        return transpose(self, axes if axes else None)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return reduce_sum(self, axis, keepdims)


def _wrap(value, dtype) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=dtype))


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    if any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, _parents=parents, _backward=backward)
    return Tensor(data)


def tensor(data, requires_grad: bool = False, dtype=None) -> Tensor:
    """Construct a leaf tensor."""
    return Tensor(data, requires_grad=requires_grad, dtype=dtype)


# -- elementwise and structural ops -----------------------------------------


def add(a: Tensor, b) -> Tensor:
    b = _wrap(b, a.dtype)
    out_data = a.data + b.data

    def backward(grad):
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(grad, b.shape))

    return _make(out_data, (a, b), backward)


def mul(a: Tensor, b) -> Tensor:
    b = _wrap(b, a.dtype)
    out_data = a.data * b.data

    def backward(grad):
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(grad * a.data, b.shape))

    return _make(out_data, (a, b), backward)


def silu(a: Tensor) -> Tensor:
    """x * sigmoid(x), the gating nonlinearity of the MLP blocks. The
    sigmoid is built in place, in one array, which the backward keeps."""
    sig = np.negative(a.data)
    np.exp(sig, out=sig)
    sig += 1.0
    np.divide(1.0, sig, out=sig)
    out_data = a.data * sig

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad * (sig * (1.0 + a.data * (1.0 - sig))))

    return _make(out_data, (a,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float) -> Tensor:
    """Normalise each row of `x` over its last axis to zero mean and unit
    variance, then scale by `gain` and shift by `bias` (both of that axis's
    size). The centred rows are normalised in place and kept for the
    backward."""
    normed = x.data - x.data.mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt((normed * normed).mean(axis=-1, keepdims=True) + eps)
    normed *= inv_std
    out_data = normed * gain.data
    out_data += bias.data

    def backward(grad):
        if x.requires_grad:
            g = grad * gain.data
            x._accumulate(inv_std * (g - g.mean(axis=-1, keepdims=True)
                                     - normed * (g * normed).mean(axis=-1, keepdims=True)))
        rows = grad.reshape(-1, grad.shape[-1])
        if gain.requires_grad:
            gain._accumulate((rows * normed.reshape(rows.shape)).sum(axis=0))
        if bias.requires_grad:
            bias._accumulate(rows.sum(axis=0))

    return _make(out_data, (x, gain, bias), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; operands must be at least 2-d, inner dimensions equal.

    Batched stacks broadcast per numpy rules; gradients are summed back over
    broadcast axes.
    """
    b = _wrap(b, a.dtype)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(f"matmul requires 2-d operands, got shapes {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    out_data = a.data @ b.data

    def backward(grad):
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad @ b.data.swapaxes(-1, -2), a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(a.data.swapaxes(-1, -2) @ grad, b.shape))

    return _make(out_data, (a, b), backward)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    out_data = a.data.reshape(shape)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad.reshape(a.shape))

    return _make(out_data, (a,), backward)


def transpose(a: Tensor, axes=None) -> Tensor:
    out_data = a.data.transpose(axes)

    def backward(grad):
        if a.requires_grad:
            inv = np.argsort(axes) if axes is not None else None
            a._accumulate(grad.transpose(inv))

    return _make(out_data, (a,), backward)


def reduce_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(grad):
        if a.requires_grad:
            g = grad
            if not keepdims and axis is not None:
                g = np.expand_dims(g, axis)
            a._accumulate(np.broadcast_to(g, a.shape).copy())

    return _make(out_data, (a,), backward)


def take_rows(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row gather `table[ids]` (embedding lookup); ids is a plain int array."""
    ids = np.asarray(ids)
    out_data = table.data[ids]

    def backward(grad):
        if table.requires_grad:
            full = np.zeros_like(table.data)
            np.add.at(full, ids.reshape(-1), grad.reshape(-1, table.shape[-1]))
            table._accumulate(full)

    return _make(out_data, (table,), backward)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along `axis`; rejects non-finite input."""
    if not np.isfinite(a.data).all():
        bad = a.data[~np.isfinite(a.data)]
        raise NonFiniteError(
            f"softmax input contains non-finite entries (first: {bad.flat[0]!r})")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def backward(grad):
        if a.requires_grad:
            inner = (grad * out_data).sum(axis=axis, keepdims=True)
            a._accumulate((grad - inner) * out_data)

    return _make(out_data, (a,), backward)


def cross_entropy(logits: Tensor, target_index) -> Tensor:
    """Negative log-likelihood of `target_index` under softmax(logits).

    `logits` is `(..., V)`; `target_index` is an int (or int array matching the
    leading shape). Multi-example inputs reduce by mean. The gradient is the
    closed form softmax(logits) - onehot(target), scaled by 1/#examples.
    """
    targets = np.asarray(target_index)
    vocab = logits.shape[-1]
    lead = logits.shape[:-1]
    if targets.shape != lead:
        raise ValueError(f"target shape {targets.shape} does not match logits {logits.shape}")
    if targets.size and (targets.min() < 0 or targets.max() >= vocab):
        raise ValueError(f"target index out of range for {vocab} classes: {targets}")
    flat = logits.data.reshape(-1, vocab)
    tflat = targets.reshape(-1).astype(np.intp)
    n = flat.shape[0]
    m = flat.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(flat - m).sum(axis=1))
    losses = lse - flat[np.arange(n), tflat]
    out_data = np.asarray(losses.mean(), dtype=logits.dtype)

    def backward(grad):
        if logits.requires_grad:
            p = np.exp(flat - m)
            p /= p.sum(axis=1, keepdims=True)
            p[np.arange(n), tflat] -= 1.0
            logits._accumulate((grad * p / n).reshape(logits.shape))

    return _make(out_data, (logits,), backward)


def dropout_positions(shape, rate: float, rng: "Rng | None") -> np.ndarray | None:
    """The entries inverted dropout zeroes in an array of `shape` (the kept
    ones are scaled by 1/(1-rate)), as ascending flat row-major int64
    positions drawn from `rng`. An rng is what turns dropout on: None without
    one or at rate 0, where nothing is dropped, so inference is deterministic.

    Each entry is dropped independently with probability `rate`, drawn as
    the gaps between dropped entries, which are Geometric(rate): about
    rate * size draws instead of one per entry. Gaps come in fixed-size
    chunks until they pass the end, so what a draw takes from `rng` depends
    only on the stream and the shape."""
    if rng is None or rate <= 0.0:
        return None
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    size = int(np.prod(shape))
    chunk = int(rate * size + 4.0 * np.sqrt(rate * size)) + 1
    dropped = np.cumsum(rng.geometric(rate, chunk)) - 1
    while dropped[-1] < size:
        dropped = np.concatenate([dropped, dropped[-1] + np.cumsum(rng.geometric(rate, chunk))])
    return dropped[:np.searchsorted(dropped, size)]


# -- randomness --------------------------------------------------------------


def _label_word(label) -> int:
    digest = hashlib.blake2b(repr(label).encode("utf-8"), digest_size=4).digest()
    return int.from_bytes(digest, "little")


class Rng:
    """Deterministic, splittable randomness with no global state.

    Backed by the counter-based Philox generator keyed on
    ``(seed, *hashed child labels)``, so ``rng.child("init", 3)`` names the
    same stream on every run and is independent of sibling streams.
    """

    def __init__(self, seed: int, _path: tuple[int, ...] = ()):
        self.seed = int(seed)
        self._path = _path
        ss = np.random.SeedSequence((self.seed,) + _path)
        self._gen = np.random.Generator(np.random.Philox(ss))

    def child(self, *labels) -> "Rng":
        """Derive an independent stream addressed by `labels`."""
        return Rng(self.seed, self._path + tuple(_label_word(l) for l in labels))

    def normal(self, shape, std: float = 1.0, dtype=np.float64) -> np.ndarray:
        return (self._gen.standard_normal(size=shape) * std).astype(dtype, copy=False)

    def geometric(self, p: float, size) -> np.ndarray:
        """Trials up to and including the first success, success rate `p`."""
        return self._gen.geometric(p, size=size)

    def integers(self, low: int, high: int, size=None):
        return self._gen.integers(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


# -- gradient checking -------------------------------------------------------


@dataclass
class GradCheckResult:
    """Outcome of comparing reverse-mode gradients with central differences."""

    passed: bool
    tolerance: float
    max_rel_error: float
    per_param: dict[str, float] = field(default_factory=dict)
    worst: tuple[str, int] | None = None
    frozen_params: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        loc = f" worst={self.worst}" if self.worst else ""
        return f"grad_check {status}: max_rel_error={self.max_rel_error:.3e}{loc}"


def grad_check(f, params: dict[str, Tensor], step: float = 1e-5,
               tolerance: float = 1e-5, rel_floor: float = 1e-4) -> GradCheckResult:
    """Check reverse-mode gradients of the scalar `f()` against central
    finite differences, entry by entry.

    `f` must be deterministic for fixed parameter values. Params without
    `requires_grad` are treated as frozen: their gradient must stay absent,
    and they are skipped by the finite-difference sweep. The relative error
    denominator is floored at `rel_floor` so that near-zero gradient entries
    are compared on an absolute scale (finite differences of an O(1) loss
    carry ~1e-11 cancellation noise in 64-bit).
    """
    result = GradCheckResult(passed=True, tolerance=tolerance, max_rel_error=0.0)

    for p in params.values():
        p.zero_grad()
    base = f()
    if not np.isfinite(base.data).all():
        result.failures.append("f() non-finite at baseline")
        result.passed = False
        return result
    base.backward()

    grads: dict[str, np.ndarray] = {}
    for name, p in params.items():
        if not p.requires_grad:
            result.frozen_params.append(name)
            if p.grad is not None and np.any(p.grad):
                result.failures.append(f"frozen param {name} accumulated a gradient")
                result.passed = False
            continue
        grads[name] = np.zeros_like(p.data) if p.grad is None else p.grad.copy()

    for name, p in params.items():
        if name not in grads:
            continue
        worst_here = 0.0
        for i, at in enumerate(np.ndindex(p.shape)):  # in place, also through a strided view
            keep = p.data[at]
            p.data[at] = keep + step
            up = float(f().data)
            p.data[at] = keep - step
            down = float(f().data)
            p.data[at] = keep
            if not (np.isfinite(up) and np.isfinite(down)):
                result.failures.append(f"f() non-finite while perturbing {name}[{i}]")
                result.passed = False
                continue
            fd = (up - down) / (2.0 * step)
            rev = float(grads[name].reshape(-1)[i])
            rel = abs(rev - fd) / max(abs(rev), abs(fd), rel_floor)
            if rel > worst_here:
                worst_here = rel
            if rel > result.max_rel_error:
                result.max_rel_error = rel
                result.worst = (name, i)
        result.per_param[name] = worst_here

    if result.max_rel_error > tolerance:
        result.passed = False
    return result
