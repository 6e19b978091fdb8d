"""Engine tests: op semantics, gradients vs central differences, RNG determinism."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mole.tensor import (
    GradCheckResult,
    NonFiniteError,
    Rng,
    Tensor,
    cross_entropy,
    dropout_positions,
    grad_check,
    layer_norm,
    matmul,
    silu,
    softmax,
    take_rows,
    tensor,
)


class TestMatmul:
    def test_identity(self):
        out = matmul(tensor([[1.0, 0.0], [0.0, 1.0]]), tensor([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.data, [[3.0], [4.0]])

    def test_hand_case(self):
        # [[1,2],[3,4]] x [[5],[6]] = [[17],[39]], by hand
        out = matmul(tensor([[1.0, 2.0], [3.0, 4.0]]), tensor([[5.0], [6.0]]))
        np.testing.assert_array_equal(out.data, [[17.0], [39.0]])

    def test_shape_mismatch_reports_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 1\)"):
            matmul(tensor(np.ones((2, 3))), tensor(np.ones((2, 1))))

    def test_grad_matches_finite_differences(self):
        rng = Rng(7)
        a = tensor(rng.normal((2, 3)), requires_grad=True)
        b = tensor(rng.normal((3, 1)), requires_grad=True)
        result = grad_check(lambda: matmul(a, b).sum(), {"a": a, "b": b}, step=1e-5)
        assert result.passed, result.summary()
        assert result.max_rel_error < 1e-7

    def test_batched_grad(self):
        rng = Rng(8)
        a = tensor(rng.normal((2, 3, 4)), requires_grad=True)
        b = tensor(rng.normal((4, 5)), requires_grad=True)
        result = grad_check(lambda: (matmul(a, b) * matmul(a, b)).sum(), {"a": a, "b": b})
        assert result.passed, result.summary()


class TestSoftmax:
    def test_symmetry(self):
        out = softmax(tensor([0.0, 0.0]))
        np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-15)

    def test_large_logits_no_overflow(self):
        out = softmax(tensor([1000.0, 1000.0]))
        np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-15)

    def test_direct_evaluation(self):
        # exp([1,2,3]) / sum, evaluated independently with math.exp
        expected = [math.exp(v) for v in (1.0, 2.0, 3.0)]
        expected = [v / sum(expected) for v in expected]
        out = softmax(tensor([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(out.data, expected, atol=1e-12)
        np.testing.assert_allclose(out.data, [0.09003, 0.24473, 0.66524], atol=1e-5)

    def test_rejects_nan(self):
        with pytest.raises(NonFiniteError, match="non-finite"):
            softmax(tensor([0.0, float("nan")]))

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=8),
           st.floats(-100, 100))
    @settings(max_examples=100, deadline=None)
    def test_sums_to_one_and_shift_invariant(self, logits, shift):
        out = softmax(tensor(logits))
        assert abs(out.data.sum() - 1.0) <= 1e-12
        shifted = softmax(tensor([v + shift for v in logits]))
        np.testing.assert_allclose(out.data, shifted.data, atol=1e-12)

    def test_grad(self):
        x = tensor([0.1, -0.4, 2.0], requires_grad=True)
        weights = Tensor([3.0, -1.0, 0.5])
        result = grad_check(lambda: (softmax(x) * weights).sum(), {"x": x})
        assert result.passed, result.summary()


class TestCrossEntropy:
    def test_uniform_logits_give_log_vocab(self):
        for vocab in (2, 7, 256):
            out = cross_entropy(tensor(np.zeros(vocab)), 0)
            assert abs(out.item() - math.log(vocab)) < 1e-12

    def test_confident_correct(self):
        # -log(e^10 / (e^10 + e^-10)) = log(1 + e^-20), evaluated directly
        out = cross_entropy(tensor([10.0, -10.0]), 0)
        assert abs(out.item() - math.log1p(math.exp(-20.0))) < 1e-15
        assert abs(out.item() - 2.0611536e-9) < 1e-12

    def test_gradient_closed_form(self):
        logits = tensor([0.3, -1.2, 0.8], requires_grad=True)
        loss = cross_entropy(logits, 2)
        loss.backward()
        p = np.exp(logits.data) / np.exp(logits.data).sum()
        expected = p - np.array([0.0, 0.0, 1.0])
        np.testing.assert_allclose(logits.grad, expected, atol=1e-9)

    def test_batched_mean(self):
        logits = tensor(np.zeros((3, 4)))
        out = cross_entropy(logits, np.array([0, 1, 2]))
        assert abs(out.item() - math.log(4)) < 1e-12

    def test_out_of_range_target_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            cross_entropy(tensor([0.0, 1.0]), 2)


class TestStructuralOps:
    def test_reshape_transpose_grads(self):
        x = tensor(Rng(3).normal((2, 3, 4)), requires_grad=True)

        def f():
            return (x.reshape(6, 4).transpose(1, 0) * x.reshape(6, 4).transpose(1, 0)).sum()

        assert grad_check(f, {"x": x}).passed

    def test_take_rows_grad_accumulates_repeats(self):
        table = tensor(np.eye(4), requires_grad=True)
        ids = np.array([1, 1, 3])
        out = take_rows(table, ids)
        out.sum().backward()
        expected = np.zeros((4, 4))
        expected[1] = 2.0
        expected[3] = 1.0
        np.testing.assert_array_equal(table.grad, expected)

    def test_composite_layer_norm_grad(self):
        # the model's layer norm, one op: values against numpy, then every
        # input trainable against central differences (3-d, as the model uses it)
        x = tensor(Rng(5).normal((2, 3, 6)), requires_grad=True)
        gain = tensor(Rng(6).normal((6,)), requires_grad=True)
        bias = tensor(Rng(7).normal((6,)), requires_grad=True)
        centered = x.data - x.data.mean(axis=-1, keepdims=True)
        expected = centered / np.sqrt((centered ** 2).mean(axis=-1, keepdims=True) + 1e-5)
        np.testing.assert_allclose(layer_norm(x, gain, bias, 1e-5).data,
                                   expected * gain.data + bias.data, atol=1e-12)
        weights = Tensor(Rng(8).normal((2, 3, 6)))

        def f():
            return (layer_norm(x, gain, bias, 1e-5) * weights).sum()

        result = grad_check(f, {"x": x, "gain": gain, "bias": bias})
        assert result.passed, result.summary()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("requires_grad", [False, True])
    def test_in_place_ops_bitwise_equal_the_plain_expressions(self, dtype, requires_grad):
        data = Rng(9).normal((3, 5, 8), std=3.0, dtype=dtype)
        gain, bias = Rng(10).normal((8,), dtype=dtype), Rng(11).normal((8,), dtype=dtype)
        centered = data - data.mean(axis=-1, keepdims=True)
        inv_std = 1.0 / np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + 1e-5)
        expected = centered * inv_std * gain + bias
        out = layer_norm(Tensor(data, requires_grad=requires_grad), Tensor(gain),
                         Tensor(bias), 1e-5)
        assert out.dtype == dtype and out.data.tobytes() == expected.tobytes()
        out = silu(Tensor(data, requires_grad=requires_grad))
        expected = data * (1.0 / (1.0 + np.exp(-data)))
        assert out.dtype == dtype and out.data.tobytes() == expected.tobytes()

    def test_silu_grad(self):
        x = tensor([[-2.0, -0.5, 0.0, 0.5, 2.0]], requires_grad=True)
        assert grad_check(lambda: (silu(x) * silu(x)).sum(), {"x": x}).passed


class TestDropout:
    """`dropout_positions` returns the flat positions of the dropped entries;
    the kept ones are scaled by 1/(1-rate) where the mask is applied."""

    def test_eval_is_identity(self):
        assert dropout_positions((3,), 0.5, None) is None
        assert dropout_positions((3,), 0.0, Rng(11).child("drop")) is None

    @pytest.mark.parametrize("rate", [1.0, 1.5])
    def test_rate_outside_the_unit_interval_rejected(self, rate):
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            dropout_positions((3,), rate, Rng(11).child("drop"))

    def test_positions_are_distinct_ascending_and_in_range(self):
        dropped = dropout_positions((10000,), 0.25, Rng(11).child("drop"))
        assert dropped.dtype == np.int64
        assert np.all(np.diff(dropped) > 0) and dropped[0] >= 0 and dropped[-1] < 10000
        # the kept entries' mean 1/(1-rate) scale is within 0.03 of one
        assert abs((10000 - dropped.size) / 0.75 / 10000 - 1.0) < 0.03

    def test_same_rng_same_mask(self):
        a = dropout_positions((64,), 0.5, Rng(2).child("d"))
        b = dropout_positions((64,), 0.5, Rng(2).child("d"))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("rate", [0.05, 0.5, 0.9])
    def test_entries_drop_independently_at_the_rate(self, rate):
        # drop fraction and adjacent-pair fraction of an i.i.d. Bernoulli(rate)
        # mask, each within 5 standard errors, over 100,000 entries
        shape = (250, 2, 200)
        positions = dropout_positions(shape, rate, Rng(3).child("d", rate))
        dropped = np.zeros(math.prod(shape), dtype=bool)
        dropped[positions] = True
        n = dropped.size
        assert abs(dropped.mean() - rate) < 5 * math.sqrt(rate * (1 - rate) / n)
        pairs = dropped[1:] & dropped[:-1]
        # neighbouring pairs share an entry: covariance r^3 - r^4 each side
        var = (rate**2 * (1 - rate**2) + 2 * (rate**3 - rate**4)) / (n - 1)
        assert abs(pairs.mean() - rate**2) < 5 * math.sqrt(var)
        np.testing.assert_array_equal(positions,
                                      dropout_positions(shape, rate, Rng(3).child("d", rate)))

    def test_gaps_are_drawn_until_they_pass_the_end(self):
        class UnitGaps:
            """Every gap is one entry, so every entry is dropped."""

            def geometric(self, p, size):
                return np.ones(size, dtype=np.int64)

        np.testing.assert_array_equal(dropout_positions((40, 50), 0.05, UnitGaps()),
                                      np.arange(2000))


class TestGradCheck:
    def test_quadratic(self):
        w = tensor([3.0], requires_grad=True)
        result = grad_check(lambda: (w * w).sum(), {"w": w})
        assert result.passed
        assert result.max_rel_error < 1e-9
        w.zero_grad()
        (w * w).sum().backward()
        np.testing.assert_allclose(w.grad, [6.0], atol=1e-12)

    def test_frozen_param_reported_without_gradient(self):
        w = tensor([2.0], requires_grad=True)
        frozen = tensor([5.0])
        result = grad_check(lambda: (w * frozen * w).sum(), {"w": w, "frozen": frozen})
        assert result.passed
        assert "frozen" in result.frozen_params
        assert frozen.grad is None

    def test_strided_view_is_perturbed_in_place(self):
        # a column block, as an expert's out-factor is of its stacked array:
        # the loss reads the storage, the view gets no gradient, so the check
        # must see nonzero differences against a zero gradient and fail
        storage = np.arange(6.0).reshape(2, 3)
        view = Tensor(storage[:, 1:], requires_grad=True)
        result = grad_check(lambda: (Tensor(storage) * Tensor(storage)).sum(), {"view": view})
        assert not result.passed
        assert result.per_param["view"] == 1.0
        np.testing.assert_array_equal(storage, np.arange(6.0).reshape(2, 3))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_reported_with_location(self):
        w = tensor([0.0], requires_grad=True)

        def f():
            return (w * np.inf).sum()  # 0 * inf = NaN at baseline

        result = grad_check(f, {"w": w})
        assert not result.passed
        assert any("baseline" in msg for msg in result.failures)

    def test_backward_requires_scalar(self):
        x = tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            (x * x).backward()


class TestRng:
    def test_deterministic(self):
        a = Rng(42).normal((4, 4))
        b = Rng(42).normal((4, 4))
        np.testing.assert_array_equal(a, b)

    def test_child_streams_independent_and_stable(self):
        root = Rng(42)
        a = root.child("layer", 0).normal((8,))
        b = root.child("layer", 1).normal((8,))
        assert not np.array_equal(a, b)
        again = Rng(42).child("layer", 0).normal((8,))
        np.testing.assert_array_equal(a, again)

    def test_child_order_does_not_matter(self):
        r1 = Rng(9)
        first = r1.child("a").normal((4,))
        r2 = Rng(9)
        _ = r2.child("b").normal((4,))
        second = r2.child("a").normal((4,))
        np.testing.assert_array_equal(first, second)


def test_float32_mode_preserved_through_ops():
    x = tensor(np.ones((2, 2), dtype=np.float32))
    y = matmul(x, x) + x * 2.0
    assert y.dtype == np.float32


def test_gradients_accumulate_across_reuse():
    x = tensor([1.0], requires_grad=True)
    y = x * 2.0 + x * 3.0
    y.sum().backward()
    np.testing.assert_allclose(x.grad, [5.0])
