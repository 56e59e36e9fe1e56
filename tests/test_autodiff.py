import math

import numpy as np
import pytest

from copysum import autodiff as ad
from copysum.autodiff import Parameter, Tensor
from copysum.errors import ContractError, NumericError

from conftest import assert_grads_close, make_parameter


class TestSoftmax:
    def test_uniform_logits(self):
        out = ad.softmax(Tensor([0.0, 0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [0.25, 0.25, 0.25, 0.25], atol=1e-12)

    def test_closed_form_two_way(self):
        # e^0 / (e^0 + 3) = 1/4 in high precision
        out = ad.softmax(Tensor([0.0, math.log(3.0)]))
        np.testing.assert_allclose(out.data, [0.25, 0.75], atol=1e-12)

    def test_normalizes_and_shift_invariant(self, rng):
        for _ in range(50):
            x = rng.normal(0, 5, size=(3, 7))
            shift = rng.normal(0, 100)
            a = ad.softmax(Tensor(x)).data
            b = ad.softmax(Tensor(x + shift)).data
            np.testing.assert_allclose(a.sum(axis=-1), 1.0, atol=1e-9)
            assert np.all(a >= 0)
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_non_finite_input_rejected(self):
        with pytest.raises(NumericError):
            ad.softmax(Tensor([0.0, float("inf")]))
        with pytest.raises(NumericError):
            ad.softmax(Tensor([float("nan"), 0.0]))


class TestBackward:
    def test_quadratic_derivative(self):
        w = Parameter([1.0, 2.0], name="w")
        loss = ad.tensor_sum(w * w)
        loss.backward()
        np.testing.assert_allclose(w.grad, [2.0, 4.0], atol=1e-12)

    def test_constant_loss_leaves_grads_zero(self):
        w = Parameter([1.0, 2.0], name="w")
        loss = Tensor(3.0)
        loss.backward()
        np.testing.assert_allclose(w.grad, [0.0, 0.0])

    def test_non_scalar_rejected(self):
        w = Parameter([1.0, 2.0], name="w")
        with pytest.raises(ContractError):
            (w * w).backward()

    def test_second_backward_accumulates(self):
        w = Parameter([3.0], name="w")
        loss = ad.tensor_sum(w * w)
        loss.backward()
        loss.backward()
        np.testing.assert_allclose(w.grad, [12.0])

    def test_mlp_matches_finite_differences(self, rng):
        """Three-layer MLP gradient against the central-difference oracle."""
        x = rng.normal(0, 1, size=(4, 5))
        params = [
            make_parameter(rng, (5, 8), "w1"),
            make_parameter(rng, (8,), "b1", scale=0.1),
            make_parameter(rng, (8, 8), "w2"),
            make_parameter(rng, (8,), "b2", scale=0.1),
            make_parameter(rng, (8, 3), "w3"),
            make_parameter(rng, (3,), "b3", scale=0.1),
        ]
        w1, b1, w2, b2, w3, b3 = params

        def loss_fn():
            h = ad.gelu(Tensor(x) @ w1 + b1)
            h = ad.gelu(h @ w2 + b2)
            out = h @ w3 + b3
            return ad.tensor_sum(out * out)

        assert_grads_close(params, loss_fn, rtol=1e-4)

    def test_assorted_ops_match_finite_differences(self, rng):
        """softmax, layer_norm, transpose, mean, take_rows, embedding."""
        gain = Parameter(rng.normal(1.0, 0.1, size=(6,)), name="gain")
        bias = Parameter(rng.normal(0.0, 0.1, size=(6,)), name="bias")
        table = make_parameter(rng, (7, 6), "table")
        w = make_parameter(rng, (6, 6), "w")
        ids = np.array([0, 3, 3, 5])
        rows = np.array([1, 1, 2])

        def loss_fn():
            e = ad.embedding(table, ids)
            h = ad.layer_norm(e, gain, bias)
            h = ad.softmax(h @ ad.transpose(w, (1, 0)))
            picked = ad.take_rows(h, rows)
            return ad.tensor_mean(picked * picked)

        assert_grads_close([gain, bias, table, w], loss_fn, rtol=1e-4)

    def test_cross_entropy_matches_finite_differences(self, rng):
        logits = make_parameter(rng, (5, 4), "logits")
        targets = np.array([0, 3, 1, 1, 2])

        def loss_fn():
            return ad.cross_entropy_from_logits(logits, targets, "mean")

        assert_grads_close([logits], loss_fn, rtol=1e-4)

    def test_cross_entropy_sum_vs_mean(self, rng):
        logits = Tensor(rng.normal(size=(3, 4)))
        mean = ad.cross_entropy_from_logits(logits, np.array([1, 2, 0]), "mean")
        total = ad.cross_entropy_from_logits(logits, np.array([1, 2, 0]), "sum")
        assert mean.item() == pytest.approx(total.item() / 3.0, rel=1e-12)

    @pytest.mark.parametrize("reduction", ["mean", "sum"])
    def test_cross_entropy_is_the_shared_softmax_kernels(self, rng, reduction):
        """Loss is -log_softmax_values at the targets; its gradient is
        softmax_values minus the one-hot targets, scaled by the reduction."""
        x = rng.normal(0.0, 3.0, size=(6, 5))
        targets = np.array([0, 4, 2, 2, 1, 3])
        logits = Parameter(x.copy(), name="logits")
        loss = ad.cross_entropy_from_logits(logits, targets, reduction)
        loss.backward()
        losses = -ad.log_softmax_values(x)[np.arange(6), targets]
        expected = losses.mean() if reduction == "mean" else losses.sum()
        assert loss.item() == pytest.approx(expected, rel=1e-14)
        scale = 1.0 / 6 if reduction == "mean" else 1.0
        grad = (ad.softmax_values(x) - np.eye(5)[targets]) * scale
        np.testing.assert_allclose(logits.grad, grad, rtol=0, atol=1e-15)


class TestShapes:
    def test_matmul_shape_mismatch(self):
        with pytest.raises(ContractError):
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_broadcast_add_gradients(self, rng):
        a = make_parameter(rng, (4, 3), "a")
        b = make_parameter(rng, (3,), "b")

        def loss_fn():
            s = a + b
            return ad.tensor_sum(s * s)

        assert_grads_close([a, b], loss_fn)

    def test_forward_values_finite(self, rng):
        x = Tensor(rng.normal(0, 10, size=(5, 5)))
        for out in (ad.gelu(x), ad.softmax(x), x @ x, x * x):
            assert np.all(np.isfinite(out.data))
