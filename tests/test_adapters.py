"""Adapter-layer tests: routing, expert updates, balance loss, gradient flow."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mole.adapters import (EXPERT_INIT_STD, AdaptedLinear, GateBatch, Router,
                           balance_loss_tensor)
from mole.tensor import Rng, Tensor, cross_entropy


def brute_force_top_k(probs: np.ndarray, k: int) -> tuple[tuple[int, ...], np.ndarray]:
    """Oracle: enumerate every K-subset, pick the max-probability one
    (lexicographically smallest on ties), renormalize."""
    best = max(itertools.combinations(range(len(probs)), k),
               key=lambda subset: (sum(probs[i] for i in subset), [-i for i in subset]))
    total = sum(probs[i] for i in best)
    return best, np.array([probs[i] / total for i in best])


def softmax_np(v: np.ndarray) -> np.ndarray:
    e = np.exp(v - v.max())
    return e / e.sum()


def make_router(num_experts, k, seed=0, in_dim=4):
    return Router(in_dim, num_experts, k, rng=Rng(seed).child("router"))


def one_token(x) -> Tensor:
    """A single token vector as the one-row batch every adapter entry point takes."""
    return Tensor(np.asarray(x, dtype=np.float64)[None])


def reference_update(scale, expert, x):
    """scale * B @ (A @ x): one expert's update to one token, B its out-factor."""
    return scale * (expert.out_factor.data @ (expert.in_factor.data @ x))


class TestRoute:
    def test_equal_logits_split_evenly(self):
        router = make_router(2, 2)
        router.weight.data[:] = 0.0
        gate = router.gate(one_token([0.3, -1.0, 2.0, 0.1]))
        np.testing.assert_array_equal(gate.selected, [[0, 1]])
        np.testing.assert_allclose(gate.weights, [[0.5, 0.5]], atol=1e-15)

    def test_known_probabilities(self):
        # softmax probs [0.1, 0.4, 0.3, 0.2] -> top-2 {1, 2}, weights 4/7, 3/7
        router = make_router(4, 2, in_dim=1)
        router.weight.data[:] = np.log([0.1, 0.4, 0.3, 0.2])[None, :]
        gate = router.gate(one_token([1.0]))
        np.testing.assert_array_equal(gate.selected, [[1, 2]])
        np.testing.assert_allclose(gate.weights, [[4 / 7, 3 / 7]], atol=1e-12)

    def test_uniform_logit_shift_preserves_outcome(self):
        router = make_router(5, 2, seed=3, in_dim=1)
        base = router.gate(one_token([1.0]))
        router.weight.data += 7.25
        shifted = router.gate(one_token([1.0]))
        np.testing.assert_array_equal(shifted.selected, base.selected)
        np.testing.assert_allclose(shifted.weights, base.weights, atol=1e-12)

    def test_tie_breaks_to_lower_index(self):
        router = make_router(3, 1, in_dim=1)
        router.weight.data[:] = np.array([[1.0, 1.0, 0.0]])
        np.testing.assert_array_equal(router.gate(one_token([1.0])).selected, [[0]])

    def test_k_larger_than_n_rejected_at_construction(self):
        with pytest.raises(ValueError, match="top-K"):
            Router(4, num_experts=2, k=3)

    def test_non_finite_input_rejected(self):
        router = make_router(2, 1)
        with pytest.raises(ValueError, match="non-finite"):
            router.gate(one_token([float("nan"), 0.0, 0.0, 0.0]))

    def test_matches_brute_force_oracle(self):
        # all N <= 4, K <= 2 over randomized logits, one gate call per router
        rng = Rng(123)
        trials = 0
        for n in (2, 3, 4):
            for k in (1, 2):
                router = make_router(n, k, seed=n * 10 + k, in_dim=3)
                x = rng.normal((1000 // 6 + 1, 3), std=2.0)
                gate = router.gate(Tensor(x))
                for t in range(len(x)):
                    probs = softmax_np(x[t] @ router.weight.data)
                    idx, weights = brute_force_top_k(probs, k)
                    assert tuple(gate.selected[t].tolist()) == idx
                    np.testing.assert_allclose(gate.weights[t], weights, atol=1e-12)
                    np.testing.assert_allclose(gate.probs.data[t], probs, atol=1e-12)
                    trials += 1
        assert trials >= 1000

    @given(st.integers(2, 6), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_outcome_invariants(self, num_experts, seed):
        k = min(2, num_experts)
        router = make_router(num_experts, k, seed=seed, in_dim=4)
        gate = router.gate(one_token(Rng(seed).child("x").normal((4,))))
        assert len(set(gate.selected[0].tolist())) == k
        assert np.all(gate.weights > 0)
        assert abs(gate.weights.sum() - 1.0) <= 1e-12
        assert abs(gate.probs.data.sum() - 1.0) <= 1e-12


def expert_layer(out_factor, in_factor, alpha: float = 1.0) -> AdaptedLinear:
    """A layer whose only expert has the given factors, over a zero frozen weight."""
    b, a = np.asarray(out_factor, dtype=np.float64), np.asarray(in_factor, dtype=np.float64)
    return AdaptedLinear(np.zeros((b.shape[0], a.shape[1])), b, a, Router(a.shape[1], 1, 1),
                         alpha=alpha, dropout_rate=0.0)


def expert_update(layer: AdaptedLinear, x) -> np.ndarray:
    """A one-row forward through a one-expert layer over a zero frozen
    weight: the expert's update to the token x."""
    return layer.forward(one_token(x))[0].data[0]


def expert_grads(layer: AdaptedLinear, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Expert i's blocks of the stacked out- and in-factor gradients."""
    block = slice(i * layer.rank, (i + 1) * layer.rank)
    return layer.out_factors.grad[:, block], layer.in_factors.grad[block]


def checked(layer: AdaptedLinear, **extra) -> dict:
    """What a gradient check sweeps: the router and the two stacked factor
    arrays, plus the frozen weight, which must get no gradient."""
    return {"frozen": layer.frozen, **layer.trainable_parameters(), **extra}


class TestExpertDelta:
    def test_fresh_expert_is_noop(self):
        layer = expert_layer(Rng(0).child("e").normal((4, 2), std=EXPERT_INIT_STD),
                             np.zeros((2, 6)))
        np.testing.assert_array_equal(expert_update(layer, np.ones(6)), np.zeros(4))

    def test_hand_computed_update(self):
        # rank 1, out_factor [[2],[0]], in_factor [[1,1]], alpha/rank = 1:
        # in.x = 7, out_factor * 7 = [14, 0]
        layer = expert_layer([[2.0], [0.0]], [[1.0, 1.0]])
        x = np.array([3.0, 4.0])
        np.testing.assert_allclose(expert_update(layer, x), [14.0, 0.0])
        np.testing.assert_allclose(expert_update(layer, x),
                                   reference_update(1.0, layer.experts[0], x))

    def test_doubling_alpha_doubles_output(self):
        one = expert_update(expert_layer([[1.0], [2.0]], [[0.5, -1.0]], alpha=1.0), [1.0, 2.0])
        two = expert_update(expert_layer([[1.0], [2.0]], [[0.5, -1.0]], alpha=2.0), [1.0, 2.0])
        np.testing.assert_allclose(two, 2.0 * one)

    def test_rank_bound_enforced(self):
        # the rank is read off the stacked shapes: 4 rank rows, one expert
        with pytest.raises(ValueError, match="rank"):
            AdaptedLinear(np.eye(4), np.zeros((4, 4)), np.zeros((4, 4)), Router(4, 1, 1),
                          alpha=1.0, dropout_rate=0.0)

    def test_effective_delta_fresh_and_hand(self):
        fresh = expert_layer(Rng(1).child("e").normal((3, 1)), np.zeros((1, 3)))
        np.testing.assert_array_equal(fresh.experts[0].effective_delta(), np.zeros((3, 3)))
        layer = expert_layer([[1.0], [2.0]], [[3.0, 4.0]])
        np.testing.assert_array_equal(layer.experts[0].effective_delta(),
                                      [[3.0, 4.0], [6.0, 8.0]])

    def test_effective_delta_linear_in_out_factor(self):
        b = [[3.0, 4.0]]
        d1 = expert_layer([[1.0], [2.0]], b).experts[0].effective_delta()
        d2 = expert_layer([[2.0], [4.0]], b).experts[0].effective_delta()
        np.testing.assert_allclose(d2, 2.0 * d1)


def make_layer(in_dim, out_dim, num_experts, k, rank=2, seed=0, dropout_rate=0.0,
               alpha=4.0):
    rng = Rng(seed)
    w0 = rng.child("w0").normal((out_dim, in_dim))
    out_factors = np.concatenate([rng.child("expert", i).normal((out_dim, rank),
                                                                std=EXPERT_INIT_STD)
                                  for i in range(num_experts)], axis=1)
    router = Router(in_dim, num_experts, k, rng=rng.child("router"))
    return AdaptedLinear(w0, out_factors, np.zeros((num_experts * rank, in_dim)), router,
                         alpha=alpha, dropout_rate=dropout_rate)


def randomize_adapters(layer: AdaptedLinear, seed: int, std: float = 0.3) -> None:
    rng = Rng(seed).child("randomize")
    for i, e in enumerate(layer.experts):
        e.out_factor.data[:] = rng.child("a", i).normal(e.out_factor.shape, std=std)
        e.in_factor.data[:] = rng.child("b", i).normal(e.in_factor.shape, std=std)
    layer.router.weight.data[:] = rng.child("r").normal(layer.router.weight.shape, std=std)


class TestAdaptedLinear:
    def test_zero_init_identity(self):
        layer = make_layer(5, 3, num_experts=4, k=2, seed=11)
        x = Rng(12).normal((5,))
        out, _ = layer.forward(one_token(x))
        np.testing.assert_allclose(out.data[0], layer.frozen.data @ x, rtol=1e-12)

    def test_single_expert_degenerate_routing(self):
        layer = make_layer(4, 4, num_experts=1, k=1, seed=13)
        randomize_adapters(layer, 14)
        x = Rng(15).normal((4,))
        out, gate = layer.forward(one_token(x))
        np.testing.assert_array_equal(gate.selected, [[0]])
        np.testing.assert_allclose(gate.weights, [[1.0]])
        expected = layer.frozen.data @ x + reference_update(layer.scale, layer.experts[0], x)
        np.testing.assert_allclose(out.data[0], expected, atol=1e-12)

    def test_matches_loop_oracle(self):
        # N=3, K=2: explicit per-expert loops vs the vectorized layer
        layer = make_layer(4, 3, num_experts=3, k=2, seed=21)
        randomize_adapters(layer, 22)
        rng = Rng(23)
        for trial in range(20):
            x = rng.child("x", trial).normal((4,))
            out, gate = layer.forward(one_token(x))
            probs = softmax_np(x @ layer.router.weight.data)
            idx, weights = brute_force_top_k(probs, 2)
            expected = layer.frozen.data @ x
            for i, w in zip(idx, weights):
                expected = expected + w * reference_update(layer.scale, layer.experts[i], x)
            assert tuple(gate.selected[0].tolist()) == idx
            np.testing.assert_allclose(out.data[0], expected, atol=1e-12)

    def test_gradients_reach_only_selected_experts(self):
        layer = make_layer(4, 4, num_experts=3, k=1, seed=41)
        randomize_adapters(layer, 42)
        x = Tensor(Rng(43).normal((1, 4)))
        out, gate = layer.forward(x)
        selected = {int(i) for i in gate.selected[0]}
        loss = (out * out).sum()
        loss.backward()
        for i in range(3):
            out_grad, in_grad = expert_grads(layer, i)
            if i in selected:
                assert np.any(out_grad)
            else:
                np.testing.assert_array_equal(out_grad, 0.0)
                np.testing.assert_array_equal(in_grad, 0.0)
        assert layer.router.weight.grad is not None
        assert layer.frozen.grad is None

    def test_recorded_ops_do_not_depend_on_expert_count(self):
        def ops(num_experts):
            layer = make_layer(6, 5, num_experts=num_experts, k=2, seed=53, dropout_rate=0.1)
            randomize_adapters(layer, 54)
            x = Tensor(Rng(55).normal((64, 6)), requires_grad=True)
            out, gate = layer.forward(x, rng=Rng(56))
            assert len(np.unique(gate.selected)) == num_experts
            # an op is a recorded tensor with a backward; leaves grow with N
            seen, todo, count = {id(out)}, [out], 0
            while todo:
                node = todo.pop()
                count += node._backward is not None
                for parent in node._parents:
                    if id(parent) not in seen:
                        seen.add(id(parent))
                        todo.append(parent)
            return count

        assert ops(2) == ops(8)

    def test_identical_experts_draw_their_own_dropout_masks(self):
        layer = make_layer(6, 5, num_experts=2, k=2, seed=57, dropout_rate=0.5)
        randomize_adapters(layer, 58)
        first, twin = layer.experts
        twin.out_factor.data[:] = first.out_factor.data
        twin.in_factor.data[:] = first.in_factor.data
        layer.router.weight.data[:] = 0.0     # equal fusion weights 1/2, 1/2
        out, gate = layer.forward(Tensor(Rng(59).normal((4, 6))), rng=Rng(60))
        np.testing.assert_array_equal(gate.weights, 0.5)
        (out * Tensor(Rng(61).normal(out.shape))).sum().backward()
        assert np.any(np.abs(expert_grads(layer, 0)[1] - expert_grads(layer, 1)[1]) > 1e-6)

    def test_scale_is_alpha_over_rank(self):
        layer = make_layer(6, 5, num_experts=2, k=1, rank=4, alpha=6.0, dropout_rate=0.25)
        assert (layer.scale, layer.dropout_rate) == (1.5, 0.25)

    @pytest.mark.parametrize("frozen, factor_shapes, router_dims, settings, match", [
        (np.ones(4), [(4, 4), (4, 4)], (4, 2), {}, "2-d"),
        (np.eye(4), [(5, 2), (2, 4)], (4, 1), {}, "expert dims"),
        (np.eye(4), [(4, 4), (4, 4)], (4, 3), {}, "router's 3 experts"),
        (np.eye(4), [(4, 4), (4, 4)], (5, 2), {}, "router input dim 5"),
        (np.eye(4), [(4, 3), (4, 4)], (4, 2), {}, r"\(4, 3\), \(4, 4\)"),
        (np.eye(4), [(4, 4), (4, 4)], (4, 2), {"alpha": 0.0}, "alpha"),
        (np.eye(4), [(4, 4), (4, 4)], (4, 2), {"alpha": float("inf")}, "alpha"),
        (np.eye(4), [(4, 4), (4, 4)], (4, 2), {"alpha": float("nan")}, "alpha"),
        (np.eye(4), [(4, 4), (4, 4)], (4, 2), {"dropout_rate": 1.0}, "dropout_rate"),
        (np.eye(4), [(4, 4), (4, 4)], (4, 2), {"dropout_rate": float("nan")}, "dropout_rate"),
    ], ids=["frozen-1d", "expert-dims", "router-experts", "router-in-dim", "ranks",
            "alpha-zero", "alpha-inf", "alpha-nan", "dropout-one", "dropout-nan"])
    def test_constructor_checks(self, frozen, factor_shapes, router_dims, settings, match):
        # alpha and the dropout rate are the matrix's, given once; the stacked
        # factors must fit the frozen weight and hold the router's N experts
        # of one rank
        out_factors, in_factors = (np.zeros(shape) for shape in factor_shapes)
        with pytest.raises(ValueError, match=match):
            AdaptedLinear(frozen, out_factors, in_factors, Router(*router_dims, 1),
                          **{"alpha": 1.0, "dropout_rate": 0.0, **settings})

    def test_dropout_off_at_eval_keeps_identity_exact(self):
        layer = make_layer(4, 4, num_experts=2, k=2, seed=51, dropout_rate=0.5)
        x = Rng(52).normal((4,))
        out, _ = layer.forward(one_token(x))
        np.testing.assert_allclose(out.data[0], layer.frozen.data @ x, rtol=1e-12)


def test_gate_tally_counts_and_weight_sums():
    gate = GateBatch(np.array([[0, 2], [1, 2]]), np.array([[0.25, 0.75], [0.5, 0.5]]),
                     Tensor(np.full((2, 4), 0.25)))
    counts, sums = gate.tally()
    np.testing.assert_array_equal(counts, [1, 1, 2, 0])
    np.testing.assert_array_equal(sums, [0.25, 0.5, 1.25, 0.0])


def top1_balance_loss(selected, probs) -> float:
    """The balance loss of one router whose token t selects expert
    selected[t] (K = 1) at softmax probs[t]."""
    gate = GateBatch(np.asarray(selected).reshape(-1, 1), np.ones((len(selected), 1)),
                     Tensor(np.asarray(probs, dtype=np.float64)))
    return balance_loss_tensor([gate]).item()


class TestLoadBalanceLoss:
    def test_uniform_split_gives_one(self):
        assert top1_balance_loss([0, 1] * 3, [[0.5, 0.5]] * 6) == pytest.approx(1.0, abs=1e-12)

    def test_total_collapse_gives_two(self):
        assert top1_balance_loss([0] * 4, [[1.0, 0.0]] * 4) == pytest.approx(2.0, abs=1e-12)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            balance_loss_tensor([])

    def test_top1_loss_at_least_one_by_enumeration(self):
        # deterministic (one-hot) routings: every assignment of 3 tokens to 2 experts
        for assignment in itertools.product(range(2), repeat=3):
            assert top1_balance_loss(assignment, np.eye(2)[list(assignment)]) >= 1.0 - 1e-12

    def test_uniform_assignment_minimizes_by_enumeration(self):
        # N <= 3, T <= 4: with one-hot probabilities the loss is N * sum f_i^2,
        # minimized exactly by the most balanced assignment
        for n in (2, 3):
            for t in (2, 3, 4):
                losses = {assignment: top1_balance_loss(assignment, np.eye(n)[list(assignment)])
                          for assignment in itertools.product(range(n), repeat=t)}
                best = min(losses.values())
                if t % n == 0:
                    balanced = tuple(i % n for i in range(t))
                    assert losses[balanced] == pytest.approx(1.0, abs=1e-12)
                    assert best == pytest.approx(1.0, abs=1e-12)
                    for assignment, value in losses.items():
                        counts = np.bincount(assignment, minlength=n)
                        if not np.all(counts == t // n):
                            assert value > best + 1e-9

    def test_balance_gradient_reaches_all_router_columns(self):
        router = make_router(3, 1, seed=63, in_dim=4)
        x = Tensor(Rng(64).normal((6, 4)))
        loss = balance_loss_tensor([router.gate(x)])
        loss.backward()
        grad_by_column = np.abs(router.weight.grad).sum(axis=0)
        assert np.all(grad_by_column > 0)


@pytest.mark.parametrize("num_experts, k", [(3, 2), (8, 1), (8, 2), (2, 2)])
def test_full_adapted_layer_grad_check(num_experts, k):
    """Adapter-path loss (frozen product + gated expert sum + cross entropy),
    checked against central finite differences in 64-bit, input included.
    (2, 2) routes every token to every expert, so the gather takes every block."""
    from mole.tensor import grad_check

    layer = make_layer(5, 4, num_experts=num_experts, k=k, rank=2, seed=71, dropout_rate=0.1)
    randomize_adapters(layer, 72)
    x = Tensor(Rng(73).normal((3, 5)), requires_grad=True)
    targets = np.array([1, 0, 3])

    def f():
        out, gate = layer.forward(x, rng=Rng(74).child("drop"))
        return cross_entropy(out, targets) + 0.01 * balance_loss_tensor([gate])

    result = grad_check(f, checked(layer, x=x), step=1e-5, tolerance=1e-5)
    assert result.passed, result.summary()
    assert result.frozen_params == ["frozen"]
    assert set(result.per_param) == {"router", "out_factors", "in_factors", "x"}
    assert np.any(x.grad)


def mutated_stacked_lora(old: str, new: str):
    """`stacked_lora` compiled from its own source with `old` replaced by `new`."""
    import inspect

    import mole.adapters

    source = inspect.getsource(mole.adapters.stacked_lora)
    assert source.count(old) == 1, f"mutation target not found once: {old!r}"
    namespace = dict(vars(mole.adapters))
    exec(compile(source.replace(old, new), mole.adapters.__file__, "exec"), namespace)
    return namespace["stacked_lora"]


@pytest.mark.parametrize("mutation", [
    None,
    # the dropout mask left off the input gradient
    ("for d_slot in slot_rows(d_rows):",
     "for d_slot in d_rows.reshape(tokens, slots, -1).transpose(1, 0, 2):"),
    # the 1/(1-rate) scale left off the in-factor gradient
    ("dlow.transpose(0, 2, 1) @ x_rows()",
     "dlow.transpose(0, 2, 1) @ (x_rows() / keep)"),
], ids=["real-op", "unmasked-input-grad", "unscaled-in-factor-grad"])
def test_grad_check_catches_a_wrong_dropout_backward(monkeypatch, mutation):
    """At (N, K) = (3, 2) and rate 0.5 the f64 grad check passes the op as
    it is and fails each deliberately wrong backward of its dropout slots;
    the forward, and so the loss the differences see, is the op's own."""
    import mole.adapters
    from mole.tensor import grad_check

    if mutation is not None:
        monkeypatch.setattr(mole.adapters, "stacked_lora", mutated_stacked_lora(*mutation))
    layer = make_layer(5, 4, num_experts=3, k=2, rank=2, seed=71, dropout_rate=0.5)
    randomize_adapters(layer, 72)
    x = Tensor(Rng(73).normal((3, 5)), requires_grad=True)
    targets = np.array([1, 0, 3])

    def f():
        out, gate = layer.forward(x, rng=Rng(74).child("drop"))
        return cross_entropy(out, targets) + 0.01 * balance_loss_tensor([gate])

    result = grad_check(f, checked(layer, x=x), step=1e-5, tolerance=1e-5)
    assert result.passed is (mutation is None), result.summary()


def test_adapted_layer_grad_check_tied_router_logits():
    """A zero router ties every logit: each token takes experts 0 and 1 (ties
    go to the lower index) at fusion 1/2, so two of four experts serve all
    rows and the other two get exact-zero factor gradients. The router is
    left out of the finite-difference sweep, because any perturbation of it
    breaks the tie; the other cases check its gradient."""
    from mole.tensor import grad_check

    layer = make_layer(5, 4, num_experts=4, k=2, rank=2, seed=75, dropout_rate=0.1)
    randomize_adapters(layer, 76)
    layer.router.weight.data[:] = 0.0
    x = Tensor(Rng(77).normal((3, 5)), requires_grad=True)
    targets = np.array([2, 0, 1])

    def f():
        out, gate = layer.forward(x, rng=Rng(78).child("drop"))
        return cross_entropy(out, targets)

    _, gate = layer.forward(x)
    np.testing.assert_array_equal(gate.selected, [[0, 1]] * 3)
    np.testing.assert_array_equal(gate.weights, [[0.5, 0.5]] * 3)
    params = {name: p for name, p in checked(layer, x=x).items() if name != "router"}
    result = grad_check(f, params, step=1e-5, tolerance=1e-5)
    assert result.passed, result.summary()
    assert set(result.per_param) == {"out_factors", "in_factors", "x"}
    for i in (2, 3):
        for grad in expert_grads(layer, i):
            np.testing.assert_array_equal(grad, 0.0)


def test_adapted_layer_grad_check_at_cli_dims():
    """Every entry of one MLP up-projection at the CLI's dims (64 -> 172,
    rank 8, N=8, K=2, dropout 0.05) against central differences in 64-bit,
    with experts that no token selected: those get exact-zero gradients. The
    loss is the cross-entropy alone, which keeps the sweep over its 16k
    entries to a few seconds; the toy-size cases check the balance term."""
    from mole.tensor import grad_check

    layer = make_layer(64, 172, num_experts=8, k=2, rank=8, seed=85, dropout_rate=0.05,
                       alpha=16.0)
    randomize_adapters(layer, 86, std=0.1)
    x = Tensor(Rng(87).normal((3, 64)), requires_grad=True)
    targets = np.array([5, 170, 64])

    def f():
        return cross_entropy(layer.forward(x, rng=Rng(88))[0], targets)

    _, gate = layer.forward(x)
    unselected = sorted(set(range(8)) - set(gate.selected.reshape(-1).tolist()))
    assert unselected
    result = grad_check(f, checked(layer, x=x), step=1e-5, tolerance=1e-5)
    assert result.passed, result.summary()
    assert set(result.per_param) == {"router", "out_factors", "in_factors", "x"}
    for i in unselected:
        for grad in expert_grads(layer, i):
            np.testing.assert_array_equal(grad, 0.0)


@pytest.mark.parametrize("num_experts, k", [(2, 2), (8, 1), (8, 2)])
def test_inference_forward_equals_the_recording_forward(num_experts, k):
    """record=False runs the recording forward's formula: the same gate and,
    bit for bit, the same value, also with experts no token selected;
    nothing is recorded."""
    layer = make_layer(6, 5, num_experts=num_experts, k=k, seed=91, dropout_rate=0.1)
    randomize_adapters(layer, 92)
    x = Tensor(Rng(93).normal((5, 6)), requires_grad=True)
    recorded, gate = layer.forward(x)
    inferred, same = layer.forward(x, record=False)
    np.testing.assert_array_equal(same.selected, gate.selected)
    np.testing.assert_array_equal(inferred.data, recorded.data)
    assert inferred._parents == () and not inferred.requires_grad
    if num_experts == 8:
        assert len(np.unique(gate.selected)) < 8


def test_dropout_forward_matches_per_slot_loop_oracle():
    """Entry (t, s, i) of the drawn positions drops input i of token t's
    selection slot s; kept inputs are scaled by 1/(1 - rate), and slot s
    runs only through the slot's expert, at its fusion weight."""
    from mole.tensor import dropout_positions

    layer = make_layer(6, 5, num_experts=4, k=2, seed=98, dropout_rate=0.5)
    randomize_adapters(layer, 99)
    x = Rng(100).normal((7, 6))
    out, gate = layer.forward(Tensor(x), rng=Rng(101))
    mask = np.full(7 * 2 * 6, 2.0)
    mask[dropout_positions((7, 2, 6), 0.5, Rng(101))] = 0.0
    mask = mask.reshape(7, 2, 6)
    for t in range(7):
        expected = layer.frozen.data @ x[t]
        for s, (i, w) in enumerate(zip(gate.selected[t], gate.weights[t])):
            expected = expected + w * reference_update(layer.scale, layer.experts[i],
                                                       mask[t, s] * x[t])
        np.testing.assert_allclose(out.data[t], expected, rtol=1e-12, atol=1e-12)


def test_inference_forward_with_dropout_equals_the_recording_forward():
    """An rng with record=False: each selection slot's masked copy of x is a
    row block of the one stacked in-product, so the value is the recording
    forward's, bit for bit, under the same masks, and not the undropped one."""
    layer = make_layer(6, 5, num_experts=4, k=2, seed=94, dropout_rate=0.5)
    randomize_adapters(layer, 95)
    x = Tensor(Rng(96).normal((7, 6)))
    recorded, _ = layer.forward(x, rng=Rng(97))
    inferred, _ = layer.forward(x, rng=Rng(97), record=False)
    undropped, _ = layer.forward(x, record=False)
    np.testing.assert_array_equal(inferred.data, recorded.data)
    assert np.abs(inferred.data - undropped.data).max() > 1e-3
