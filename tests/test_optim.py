import numpy as np
import pytest

from copysum.autodiff import Parameter
from copysum.errors import ContractError
from copysum.optim import BETA1, BETA2, EPS, AdamW, PlateauHalver


def test_zero_gradient_exempt_parameter_unchanged():
    p = Parameter([1.0, -2.0], name="ln_gain", decay_exempt=True)
    opt = AdamW([p], lr=0.1, weight_decay=0.01)
    opt.step()
    np.testing.assert_allclose(p.data, [1.0, -2.0], atol=0)


def test_first_step_magnitude_is_bias_corrected():
    # m_hat = v_hat = 1 after one step with unit gradients, so each
    # component moves by lr / (1 + eps)
    p = Parameter(np.zeros(4), name="w")
    p.grad[...] = 1.0
    opt = AdamW([p], lr=0.1, weight_decay=0.0)
    opt.step()
    np.testing.assert_allclose(p.data, -0.1 / (1.0 + EPS), rtol=1e-15)
    assert opt.t == 1


def test_decoupled_decay_on_zero_gradient():
    p = Parameter([1.0], name="w")
    opt = AdamW([p], lr=0.1, weight_decay=0.01)
    opt.step()
    np.testing.assert_allclose(p.data, [0.999], rtol=1e-15)


def test_decay_exempt_skips_decay_but_not_update():
    exempt = Parameter([1.0], name="bias", decay_exempt=True)
    regular = Parameter([1.0], name="w")
    exempt.grad[...] = 1.0
    regular.grad[...] = 1.0
    opt = AdamW([exempt, regular], lr=0.1, weight_decay=0.5)
    opt.step()
    adam_part = 0.1 / (1.0 + 1e-8)
    np.testing.assert_allclose(exempt.data, 1.0 - adam_part, rtol=1e-12)
    np.testing.assert_allclose(
        regular.data, (1.0 - adam_part) * (1.0 - 0.1 * 0.5), rtol=1e-12
    )


def test_state_shape_mismatch_rejected():
    p = Parameter([1.0, 2.0], name="w")
    opt = AdamW([p])
    opt.m[0] = np.zeros(3)
    with pytest.raises(ContractError):
        opt.step()


def test_moments_stay_nonnegative_in_v():
    rng = np.random.default_rng(7)
    p = Parameter(rng.normal(size=8), name="w")
    opt = AdamW([p], lr=0.01)
    for _ in range(10):
        p.grad[...] = rng.normal(size=8)
        opt.step()
        assert np.all(opt.v[0] >= 0)


def test_zero_lr_keeps_parameters_fixed():
    p = Parameter([1.0, -1.0], name="w")
    p.grad[...] = 5.0
    opt = AdamW([p], lr=0.0, weight_decay=0.01)
    opt.step()
    np.testing.assert_allclose(p.data, [1.0, -1.0], atol=0)


@pytest.mark.parametrize("lr, weight_decay", [(float("nan"), 0.01), (1e-3, float("nan")),
                                               (-1e-3, 0.01), (1e-3, -0.01)])
def test_negative_or_nan_lr_and_weight_decay_rejected(lr, weight_decay):
    with pytest.raises(ContractError):
        AdamW([Parameter([1.0], name="w")], lr=lr, weight_decay=weight_decay)


@pytest.mark.parametrize("weight_decay", [0.0, 0.02])
def test_steps_equal_the_textbook_formula_bit_for_bit(weight_decay):
    rng = np.random.default_rng(12)
    params = [Parameter(rng.normal(size=(3, 4)), name="w"),
              Parameter(rng.normal(size=5), name="bias", decay_exempt=True)]
    lr = 3e-3
    opt = AdamW(params, lr=lr, weight_decay=weight_decay)
    expected = [(p.data.copy(), np.zeros_like(p.data), np.zeros_like(p.data)) for p in params]
    for t in range(1, 6):
        for p in params:
            p.grad[...] = rng.normal(size=p.data.shape) * 10.0 ** rng.integers(-6, 2)
        opt.step()
        for i, p in enumerate(params):
            value, m, v = expected[i]
            g = p.grad
            m = BETA1 * m + (1.0 - BETA1) * g
            v = BETA2 * v + (1.0 - BETA2) * (g * g)
            m_hat = m / (1.0 - BETA1**t)
            v_hat = v / (1.0 - BETA2**t)
            value = value - lr * m_hat / (np.sqrt(v_hat) + EPS)
            if weight_decay and not p.decay_exempt:
                value = value - lr * weight_decay * value
            expected[i] = (value, m, v)
            assert np.array_equal(p.data, value), (t, p.name)
            assert np.array_equal(opt.m[i], m) and np.array_equal(opt.v[i], v), (t, p.name)


class TestPlateauHalver:
    def test_halves_after_patience_without_improvement(self):
        p = Parameter([0.0], name="w")
        opt = AdamW([p], lr=1.0)
        halver = PlateauHalver(patience=2, min_delta=1e-4)
        assert not halver.update(opt, 1.0)
        assert not halver.update(opt, 1.0)  # stale 1
        assert halver.update(opt, 1.0)  # stale 2 -> halve
        assert opt.lr == 0.5

    def test_improvement_resets_window(self):
        p = Parameter([0.0], name="w")
        opt = AdamW([p], lr=1.0)
        halver = PlateauHalver(patience=2, min_delta=1e-4)
        halver.update(opt, 1.0)
        halver.update(opt, 1.0)
        assert not halver.update(opt, 0.5)  # real improvement
        assert not halver.update(opt, 0.5 - 5e-5)  # below min_delta: stale
        assert opt.lr == 1.0
