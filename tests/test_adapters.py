"""Adapter-layer tests: routing, expert updates, balance loss, gradient flow."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mole.adapters import (
    AdaptedLinear,
    GateBatch,
    LoraExpert,
    Router,
    RoutingOutcome,
    adapted_forward,
    balance_loss_tensor,
    expert_delta,
    load_balance_loss,
)
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


class TestRoute:
    def test_equal_logits_split_evenly(self):
        router = make_router(2, 2)
        router.weight.data[:] = 0.0
        outcome = router.route([0.3, -1.0, 2.0, 0.1])
        assert outcome.selected == (0, 1)
        np.testing.assert_allclose(outcome.weights, [0.5, 0.5], atol=1e-15)

    def test_known_probabilities(self):
        # softmax probs [0.1, 0.4, 0.3, 0.2] -> top-2 {1, 2}, weights 4/7, 3/7
        router = make_router(4, 2, in_dim=1)
        router.weight.data[:] = np.log([0.1, 0.4, 0.3, 0.2])[None, :]
        outcome = router.route([1.0])
        assert outcome.selected == (1, 2)
        np.testing.assert_allclose(outcome.weights, [4 / 7, 3 / 7], atol=1e-12)

    def test_uniform_logit_shift_preserves_outcome(self):
        router = make_router(5, 2, seed=3, in_dim=1)
        base = router.route([1.0])
        router.weight.data += 7.25
        shifted = router.route([1.0])
        assert shifted.selected == base.selected
        np.testing.assert_allclose(shifted.weights, base.weights, atol=1e-12)

    def test_tie_breaks_to_lower_index(self):
        router = make_router(3, 1, in_dim=1)
        router.weight.data[:] = np.array([[1.0, 1.0, 0.0]])
        outcome = router.route([1.0])
        assert outcome.selected == (0,)

    def test_k_larger_than_n_rejected_at_construction(self):
        with pytest.raises(ValueError, match="top-K"):
            Router(4, num_experts=2, k=3)

    def test_non_finite_input_rejected(self):
        router = make_router(2, 1)
        with pytest.raises(ValueError, match="non-finite"):
            router.route([float("nan"), 0.0, 0.0, 0.0])

    def test_matches_brute_force_oracle(self):
        # all N <= 4, K <= 2 over randomized logits
        rng = Rng(123)
        trials = 0
        for n in (2, 3, 4):
            for k in (1, 2):
                router = make_router(n, k, seed=n * 10 + k, in_dim=3)
                for _ in range(1000 // 6 + 1):
                    x = rng.normal((3,), std=2.0)
                    outcome = router.route(x)
                    probs = softmax_np(x @ router.weight.data)
                    idx, weights = brute_force_top_k(probs, k)
                    assert outcome.selected == idx
                    np.testing.assert_allclose(outcome.weights, weights, atol=1e-12)
                    np.testing.assert_allclose(outcome.full_softmax, probs, atol=1e-12)
                    trials += 1
        assert trials >= 1000

    @given(st.integers(2, 6), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_outcome_invariants(self, num_experts, seed):
        k = min(2, num_experts)
        router = make_router(num_experts, k, seed=seed, in_dim=4)
        outcome = router.route(Rng(seed).child("x").normal((4,)))
        assert len(set(outcome.selected)) == k
        assert all(w > 0 for w in outcome.weights)
        assert abs(outcome.weights.sum() - 1.0) <= 1e-12
        assert abs(outcome.full_softmax.sum() - 1.0) <= 1e-12


class TestExpertDelta:
    def test_fresh_expert_is_noop(self):
        expert = LoraExpert(6, 4, 2, rng=Rng(0).child("e"))
        out = expert_delta(expert, np.ones(6))
        np.testing.assert_array_equal(out, np.zeros(4))

    def test_hand_computed_update(self):
        # rank 1, out_factor [[2],[0]], in_factor [[1,1]], alpha/rank = 1:
        # in.x = 7, out_factor * 7 = [14, 0]
        expert = LoraExpert.from_factors([[2.0], [0.0]], [[1.0, 1.0]], alpha=1.0)
        np.testing.assert_allclose(expert_delta(expert, [3.0, 4.0]), [14.0, 0.0])

    def test_doubling_alpha_doubles_output(self):
        a, b = [[1.0], [2.0]], [[0.5, -1.0]]
        one = expert_delta(LoraExpert.from_factors(a, b, alpha=1.0), [1.0, 2.0])
        two = expert_delta(LoraExpert.from_factors(a, b, alpha=2.0), [1.0, 2.0])
        np.testing.assert_allclose(two, 2.0 * one)

    def test_rank_bound_enforced(self):
        with pytest.raises(ValueError, match="rank"):
            LoraExpert(4, 4, 4)

    def test_effective_delta_fresh_and_hand(self):
        fresh = LoraExpert(3, 3, 1, rng=Rng(1).child("e"))
        np.testing.assert_array_equal(fresh.effective_delta(), np.zeros((3, 3)))
        expert = LoraExpert.from_factors([[1.0], [2.0]], [[3.0, 4.0]])
        np.testing.assert_array_equal(expert.effective_delta(), [[3.0, 4.0], [6.0, 8.0]])

    def test_effective_delta_linear_in_out_factor(self):
        b = [[3.0, 4.0]]
        d1 = LoraExpert.from_factors([[1.0], [2.0]], b).effective_delta()
        d2 = LoraExpert.from_factors([[2.0], [4.0]], b).effective_delta()
        np.testing.assert_allclose(d2, 2.0 * d1)


def make_layer(in_dim, out_dim, num_experts, k, rank=2, seed=0, dropout_rate=0.0,
               alpha=4.0):
    rng = Rng(seed)
    w0 = rng.child("w0").normal((out_dim, in_dim))
    experts = [LoraExpert(in_dim, out_dim, rank, alpha=alpha, dropout_rate=dropout_rate,
                          rng=rng.child("expert", i)) for i in range(num_experts)]
    router = Router(in_dim, num_experts, k, rng=rng.child("router"))
    return AdaptedLinear(w0, experts, router)


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
        out, _ = adapted_forward(layer, x)
        np.testing.assert_allclose(out, layer.frozen.data @ x, rtol=1e-12)

    def test_single_expert_degenerate_routing(self):
        layer = make_layer(4, 4, num_experts=1, k=1, seed=13)
        randomize_adapters(layer, 14)
        x = Rng(15).normal((4,))
        out, outcome = adapted_forward(layer, x)
        assert outcome.selected == (0,)
        np.testing.assert_allclose(outcome.weights, [1.0])
        expected = layer.frozen.data @ x + expert_delta(layer.experts[0], x)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_matches_loop_oracle(self):
        # N=3, K=2: explicit per-expert loops vs the vectorized layer
        layer = make_layer(4, 3, num_experts=3, k=2, seed=21)
        randomize_adapters(layer, 22)
        rng = Rng(23)
        for trial in range(20):
            x = rng.child("x", trial).normal((4,))
            out, outcome = adapted_forward(layer, x)
            probs = softmax_np(x @ layer.router.weight.data)
            idx, weights = brute_force_top_k(probs, 2)
            expected = layer.frozen.data @ x
            for i, w in zip(idx, weights):
                e = layer.experts[i]
                expected = expected + w * e.scaling * (e.out_factor.data @ (e.in_factor.data @ x))
            assert outcome.selected == idx
            np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_gradients_reach_only_selected_experts(self):
        layer = make_layer(4, 4, num_experts=3, k=1, seed=41)
        randomize_adapters(layer, 42)
        x = Tensor(Rng(43).normal((1, 4)))
        out, gate = layer.forward(x)
        selected = {int(i) for i in gate.selected[0]}
        loss = (out * out).sum()
        loss.backward()
        for i, e in enumerate(layer.experts):
            if i in selected:
                assert e.out_factor.grad is not None and np.any(e.out_factor.grad)
            else:
                assert e.out_factor.grad is None or not np.any(e.out_factor.grad)
                assert e.in_factor.grad is None or not np.any(e.in_factor.grad)
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
        assert np.any(np.abs(first.in_factor.grad - twin.in_factor.grad) > 1e-6)

    @pytest.mark.parametrize("field", ["alpha", "dropout_rate"])
    def test_experts_must_share_alpha_and_dropout(self, field):
        experts = [LoraExpert(4, 4, 2, **{field: value}) for value in (0.25, 0.5)]
        with pytest.raises(ValueError, match="must share"):
            AdaptedLinear(np.eye(4), experts, Router(4, 2, 1))

    def test_dropout_off_at_eval_keeps_identity_exact(self):
        layer = make_layer(4, 4, num_experts=2, k=2, seed=51, dropout_rate=0.5)
        x = Rng(52).normal((4,))
        out, _ = adapted_forward(layer, x)
        np.testing.assert_allclose(out, layer.frozen.data @ x, rtol=1e-12)


class TestLoadBalanceLoss:
    @staticmethod
    def outcome(selected, probs):
        return RoutingOutcome(selected=tuple(selected), weights=np.ones(len(selected)),
                              full_softmax=np.asarray(probs, dtype=np.float64))

    def test_uniform_split_gives_one(self):
        outcomes = [self.outcome([0], [0.5, 0.5]), self.outcome([1], [0.5, 0.5])] * 3
        assert load_balance_loss(outcomes) == pytest.approx(1.0, abs=1e-12)

    def test_total_collapse_gives_two(self):
        outcomes = [self.outcome([0], [1.0, 0.0])] * 4
        assert load_balance_loss(outcomes) == pytest.approx(2.0, abs=1e-12)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            load_balance_loss([])

    def test_top1_loss_at_least_one_by_enumeration(self):
        # deterministic (one-hot) routings: every assignment of 3 tokens to 2 experts
        for assignment in itertools.product(range(2), repeat=3):
            outcomes = [self.outcome([a], np.eye(2)[a]) for a in assignment]
            assert load_balance_loss(outcomes) >= 1.0 - 1e-12

    def test_uniform_assignment_minimizes_by_enumeration(self):
        # N <= 3, T <= 4: with one-hot probabilities the loss is N * sum f_i^2,
        # minimized exactly by the most balanced assignment
        for n in (2, 3):
            for t in (2, 3, 4):
                losses = {}
                for assignment in itertools.product(range(n), repeat=t):
                    outcomes = [self.outcome([a], np.eye(n)[a]) for a in assignment]
                    losses[assignment] = load_balance_loss(outcomes)
                best = min(losses.values())
                if t % n == 0:
                    balanced = tuple(i % n for i in range(t))
                    assert losses[balanced] == pytest.approx(1.0, abs=1e-12)
                    assert best == pytest.approx(1.0, abs=1e-12)
                    for assignment, value in losses.items():
                        counts = np.bincount(assignment, minlength=n)
                        if not np.all(counts == t // n):
                            assert value > best + 1e-9

    def test_tensor_twin_matches_plain_version(self):
        router = make_router(3, 2, seed=61, in_dim=4)
        x = Tensor(Rng(62).normal((5, 4)))
        gate = router.gate(x)
        plain = load_balance_loss(gate.outcomes())
        twin = balance_loss_tensor([gate])
        assert twin.item() == pytest.approx(plain, abs=1e-12)

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
    (2, 2) routes every token to every expert, the no-gather path."""
    from mole.tensor import grad_check

    layer = make_layer(5, 4, num_experts=num_experts, k=k, rank=2, seed=71, dropout_rate=0.1)
    randomize_adapters(layer, 72)
    x = Tensor(Rng(73).normal((3, 5)), requires_grad=True)
    targets = np.array([1, 0, 3])

    def f():
        out, gate = layer.forward(x, rng=Rng(74).child("drop"))
        return cross_entropy(out, targets) + 0.01 * balance_loss_tensor([gate])

    params = dict(layer.named_parameters(), x=x)
    result = grad_check(f, params, step=1e-5, tolerance=1e-5)
    assert result.passed, result.summary()
    assert "frozen" in result.frozen_params
    assert np.any(x.grad)


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
    params = {name: p for name, p in layer.named_parameters().items() if name != "router"}
    result = grad_check(f, dict(params, x=x), step=1e-5, tolerance=1e-5)
    assert result.passed, result.summary()
    for e in layer.experts[2:]:
        np.testing.assert_array_equal(e.in_factor.grad, 0.0)
        np.testing.assert_array_equal(e.out_factor.grad, 0.0)


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
    result = grad_check(f, dict(layer.named_parameters(), x=x), step=1e-5, tolerance=1e-5)
    assert result.passed, result.summary()
    for i in unselected:
        np.testing.assert_array_equal(layer.experts[i].in_factor.grad, 0.0)
        np.testing.assert_array_equal(layer.experts[i].out_factor.grad, 0.0)


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


def test_inference_forward_with_dropout_equals_the_recording_forward():
    """An rng with record=False: each selection slot's masked copy of x gets
    its own stacked in-product, so the value is the recording forward's,
    bit for bit, under the same masks, and not the undropped one."""
    layer = make_layer(6, 5, num_experts=4, k=2, seed=94, dropout_rate=0.5)
    randomize_adapters(layer, 95)
    x = Tensor(Rng(96).normal((7, 6)))
    recorded, _ = layer.forward(x, rng=Rng(97))
    inferred, _ = layer.forward(x, rng=Rng(97), record=False)
    undropped, _ = layer.forward(x, record=False)
    np.testing.assert_array_equal(inferred.data, recorded.data)
    assert np.abs(inferred.data - undropped.data).max() > 1e-3
