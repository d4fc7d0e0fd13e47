import json

import numpy as np
import pytest

from iat.errors import ConfigurationError, ShapeError
from iat.image_io import ImageRGB, quantize
from iat.isp import (
    CLAMP_EPS,
    DegradationParams,
    GlobalParams,
    apply_color_matrix,
    compose_iat,
    degrade,
    recovery_params,
    sample_degradation,
)
from iat.rng import philox
from iat.tensor import Tape, Tensor, parameter

from fdcheck import assert_grads_close, numeric_grad


def scalar_global_reference(x, matrix, gamma, eps):
    """Per-pixel scalar-loop oracle for the global operation."""
    _, _, h, w = x.shape
    out = np.zeros_like(x)
    for i in range(h):
        for j in range(w):
            v = matrix @ x[0, :, i, j]
            out[0, :, i, j] = np.maximum(v, eps) ** gamma
    return out


# ---------------------------------------------------------------------------
# apply_color_matrix / compose_iat


def test_color_matrix_identity():
    rng = np.random.default_rng(0)
    x = Tensor(rng.random((1, 3, 4, 5)).astype(np.float32))
    out = apply_color_matrix(x, Tensor(np.eye(3, dtype=np.float32)))
    np.testing.assert_allclose(out.data, x.data, atol=1e-7)


def test_color_matrix_swap():
    rng = np.random.default_rng(1)
    x = Tensor(rng.random((1, 3, 2, 2)).astype(np.float32))
    swap = np.zeros((3, 3), dtype=np.float32)
    swap[0, 2] = swap[2, 0] = swap[1, 1] = 1.0
    out = apply_color_matrix(x, Tensor(swap))
    np.testing.assert_array_equal(out.data, x.data[:, [2, 1, 0]])


def test_color_matrix_matches_per_pixel_oracle():
    rng = np.random.default_rng(2)
    x = rng.random((1, 3, 4, 4))
    m = rng.standard_normal((3, 3))
    out = apply_color_matrix(Tensor(x), Tensor(m))
    ref = np.einsum("ij,njhw->nihw", m, x)
    np.testing.assert_allclose(out.data, ref, atol=1e-6)


def test_color_matrix_shape_error():
    with pytest.raises(ShapeError):
        apply_color_matrix(Tensor(np.zeros((1, 3, 2, 2))), Tensor(np.zeros((2, 3))))


def test_apply_global_identity():
    rng = np.random.default_rng(3)
    x = Tensor(rng.uniform(1e-6, 1.0, (1, 3, 5, 5)).astype(np.float32))
    out = compose_iat(x, GlobalParams.from_values(np.eye(3), 1.0))
    np.testing.assert_allclose(out.data, x.data, atol=1e-7)


def test_apply_global_gamma_two():
    x = Tensor(np.full((1, 3, 2, 2), 0.5, dtype=np.float32))
    out = compose_iat(x, GlobalParams.from_values(np.eye(3), 2.0))
    np.testing.assert_allclose(out.data, 0.25, rtol=1e-6)


def test_apply_global_monotone_decreasing_in_gamma():
    rng = np.random.default_rng(4)
    x = Tensor(rng.uniform(0.05, 1.0, (1, 3, 6, 6)))
    gammas = [0.5, 0.8, 1.0, 1.5, 2.2]
    means = [
        compose_iat(x, GlobalParams.from_values(np.eye(3), g)).data.mean()
        for g in gammas
    ]
    assert all(a > b for a, b in zip(means, means[1:]))


def test_apply_global_gradients_all_ten_scalars():
    rng = np.random.default_rng(5)
    x = Tensor(rng.uniform(0.05, 1.0, (1, 3, 3, 3)))
    m = parameter(np.eye(3) + 0.05 * rng.standard_normal((3, 3)), dtype=np.float64)
    g = parameter(1.3, dtype=np.float64)

    def fwd():
        return compose_iat(x, GlobalParams(m, g)).sum()

    with Tape() as tape:
        tape.backward(fwd())
    nm, ng = numeric_grad(lambda: fwd().item(), [m.data, g.data])
    assert_grads_close(m.grad, nm, label="color matrix")
    assert_grads_close(g.grad, ng, label="gamma")


def test_compose_identity_and_doubling():
    rng = np.random.default_rng(6)
    f = Tensor(rng.uniform(1e-6, 1.0, (1, 3, 4, 4)).astype(np.float32))
    out = compose_iat(f, GlobalParams.from_values(np.eye(3), 1.0))
    np.testing.assert_allclose(out.data, f.data, atol=1e-7)

    quarter = Tensor(np.full((1, 3, 2, 2), 0.25, dtype=np.float32))
    out = compose_iat(quarter, GlobalParams.from_values(2.0 * np.eye(3), 1.0))
    np.testing.assert_allclose(out.data, 0.5, rtol=1e-6)


def test_compose_matches_scalar_oracle():
    rng = np.random.default_rng(7)
    x = rng.uniform(0, 1, (1, 3, 8, 8))
    gain = rng.uniform(0.5, 2.0, (1, 3, 8, 8))
    offset = rng.uniform(-0.3, 0.3, (1, 3, 8, 8))
    f = x * gain + offset
    m = np.eye(3) + 0.1 * rng.standard_normal((3, 3))
    gamma = 0.8
    out = compose_iat(Tensor(f), GlobalParams.from_values(m, gamma))
    ref = scalar_global_reference(f, m, gamma, CLAMP_EPS)
    np.testing.assert_allclose(out.data, ref, atol=1e-6)


# ---------------------------------------------------------------------------
# degradation simulator


def identity_dp(**overrides):
    kw = dict(
        wb_gains=np.ones(3),
        ccm=np.eye(3),
        gamma_d=1 / 2.2,
        exposure=1.0,
        noise_sigma=0.0,
    )
    kw.update(overrides)
    return DegradationParams(**kw)


def test_degrade_identity_pipeline(tmp_path):
    rng = np.random.default_rng(8)
    clean = ImageRGB(rng.random((6, 7, 3)).astype(np.float32))
    degraded, _ = degrade(clean, identity_dp(), philox(0))
    np.testing.assert_array_equal(quantize(degraded.pixels), quantize(clean.pixels))


def test_degrade_quarter_exposure_closed_form():
    clean = ImageRGB(np.ones((2, 2, 3), dtype=np.float32))
    degraded, _ = degrade(clean, identity_dp(exposure=0.25), philox(0))
    np.testing.assert_allclose(degraded.pixels, 0.25 ** (1 / 2.2), rtol=1e-5)


def test_degrade_deterministic():
    rng = np.random.default_rng(9)
    clean = ImageRGB(rng.random((5, 5, 3)).astype(np.float32))
    dp = identity_dp(noise_sigma=0.01)
    a, raw_a = degrade(clean, dp, philox(123))
    b, raw_b = degrade(clean, dp, philox(123))
    np.testing.assert_array_equal(a.pixels, b.pixels)
    np.testing.assert_array_equal(raw_a, raw_b)


def test_degrade_pseudo_raw_nonnegative():
    rng = np.random.default_rng(10)
    clean = ImageRGB(rng.random((8, 8, 3)).astype(np.float32))
    dp = sample_degradation(philox(5), "low_light")
    _, raw = degrade(clean, dp, philox(6))
    assert (raw >= 0).all()


def test_degrade_rejects_singular_ccm():
    ccm = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(ConfigurationError, match="singular"):
        identity_dp(ccm=ccm)


def test_recovery_property():
    # sigma=0 degradation admits an analytic global correction within 1e-3.
    # Content with natural channel correlation: fully independent channels
    # can drive the inverse color transform negative, where the pseudo-raw
    # clamp makes the pipeline deliberately non-invertible.
    rng = np.random.default_rng(11)
    luma = rng.uniform(0.15, 0.9, (10, 10, 1))
    chroma = rng.uniform(-0.08, 0.08, (10, 10, 3))
    clean = ImageRGB(np.clip(luma + chroma, 0.0, 1.0).astype(np.float32))
    dp = sample_degradation(philox(77), "low_light")
    dp = DegradationParams(
        wb_gains=dp.wb_gains,
        ccm=dp.ccm,
        gamma_d=dp.gamma_d,
        exposure=dp.exposure,
        noise_sigma=0.0,
    )
    degraded, raw = degrade(clean, dp, philox(0))
    assert raw.min() > 0, "clamp must not engage for the analytic inverse to exist"
    x = Tensor(np.transpose(degraded.pixels.astype(np.float64), (2, 0, 1))[None])
    recovered = compose_iat(x, recovery_params(dp))
    ref = np.transpose(clean.pixels, (2, 0, 1))[None]
    assert np.abs(recovered.data - ref).max() < 1e-3


# ---------------------------------------------------------------------------
# profile sampler


def test_sampler_reproducible():
    a = sample_degradation(philox(42), "mixed")
    b = sample_degradation(philox(42), "mixed")
    np.testing.assert_array_equal(a.wb_gains, b.wb_gains)
    np.testing.assert_array_equal(a.ccm, b.ccm)
    assert (a.exposure, a.noise_sigma, a.gamma_d) == (b.exposure, b.noise_sigma, b.gamma_d)


def test_sampler_invariants_hold_over_many_draws():
    rng = philox(1)
    for _ in range(1000):
        dp = sample_degradation(rng, "mixed")
        assert (dp.wb_gains > 0).all()
        np.testing.assert_allclose(dp.ccm.sum(axis=1), 1.0, atol=1e-9)
        assert dp.exposure > 0 and dp.noise_sigma >= 0
        assert 1 / 2.6 <= dp.gamma_d <= 1 / 1.8
        assert (0.7 <= dp.wb_gains).all() and (dp.wb_gains <= 1.3).all()


def test_low_light_exposure_below_one():
    rng = philox(2)
    for _ in range(500):
        dp = sample_degradation(rng, "low_light")
        assert 0.05 <= dp.exposure <= 0.5
        assert dp.noise_sigma <= 0.02


def test_over_exposure_ranges():
    rng = philox(3)
    for _ in range(500):
        dp = sample_degradation(rng, "over_exposure")
        assert 2.0 <= dp.exposure <= 8.0
        assert dp.noise_sigma <= 0.005


def test_unknown_profile():
    with pytest.raises(ConfigurationError):
        sample_degradation(philox(0), "sunny")


def test_degradation_params_json_roundtrip():
    dp = sample_degradation(philox(4), "mixed")
    back = DegradationParams(**json.loads(json.dumps(dp.to_dict())))
    np.testing.assert_array_equal(back.wb_gains, dp.wb_gains)
    np.testing.assert_array_equal(back.ccm, dp.ccm)
    assert back.exposure == dp.exposure
