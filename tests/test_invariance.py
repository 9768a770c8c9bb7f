"""The refit is affine-invariant and least-squares optimal: moving the data
leaves its cross-entropy unchanged, rescaling coordinate i by s_i adds
ln|s_i|, and no family's SSE is beaten by an independent least-squares
solve."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afcec.curves import (
    BUILTIN_KINDS,
    FunctionFamily,
    builtin_family,
    fit_curve,
    select_orientation,
)
from afcec.data import GeneratorSpec, generate
from afcec.density import fadapted_cross_entropy
from afcec.engine import EngineConfig, fit
from afcec.errors import ZeroResidualWarning

# H moves by about |b| / spread * 1e-16 under a shift b; the data below has a
# spread of about 1, so 1e6 leaves 1e-10 of rounding in the centred rows
SHIFT_ATOL = 1e-9
SCALE_ATOL = 1e-12
SSE_RTOL = 1e-12

_magnitude = st.floats(min_value=-6.0, max_value=6.0)
_sign = st.sampled_from([-1.0, 1.0])


def _curved_cloud(seed, n, d):
    """Points around x_{d-1} = 0.5 x_0^2 + 0.3 x_0^3 with noise 0.3, so the
    last axis is the clear argmin of every curved family and no residual
    variance comes near the floor."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    x[:, -1] = 0.5 * x[:, 0] ** 2 + 0.3 * x[:, 0] ** 3 + 0.3 * x[:, -1]
    return x


def _refit(x, family):
    with warnings.catch_warnings():
        warnings.simplefilter("error", ZeroResidualWarning)
        axis, _, h, _ = select_orientation(x, family)
    return axis, h


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(BUILTIN_KINDS),
    d=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    data=st.data(),
)
def test_refit_entropy_is_translation_invariant(kind, d, seed, data):
    x = _curved_cloud(seed, 300, d)
    family = builtin_family(kind, d - 1)
    mags = data.draw(st.lists(_magnitude, min_size=d, max_size=d))
    signs = data.draw(st.lists(_sign, min_size=d, max_size=d))
    b = np.array(signs) * 10.0 ** np.array(mags)
    axis, h = _refit(x, family)
    moved_axis, moved_h = _refit(x + b, family)
    assert moved_h == pytest.approx(h, rel=0, abs=SHIFT_ATOL)
    # with the linear family every axis has the Gaussian's H, so the argmin
    # is a rounding tie
    if kind != "linear":
        assert moved_axis == axis == d - 1


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(BUILTIN_KINDS),
    d=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    data=st.data(),
)
def test_refit_entropy_is_scale_invariant(kind, d, seed, data):
    x = _curved_cloud(seed, 300, d) + 2.0
    family = builtin_family(kind, d - 1)
    mags = data.draw(st.lists(_magnitude, min_size=d, max_size=d))
    signs = data.draw(st.lists(_sign, min_size=d, max_size=d))
    s = np.array(signs) * 10.0 ** np.array(mags)
    axis, h = _refit(x, family)
    scaled_axis, scaled_h = _refit(x * s, family)
    shift = sum(math.log(abs(si)) for si in s)
    assert scaled_h == pytest.approx(h + shift, rel=0, abs=SCALE_ATOL * (1.0 + abs(shift)))
    if kind != "linear":
        assert scaled_axis == axis == d - 1


def _lstsq_sse(design, target):
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    resid = target - design @ coef
    return float(resid @ resid)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(BUILTIN_KINDS),
    d=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    data=st.data(),
)
def test_refit_sse_is_least_squares_optimal(kind, d, seed, data):
    scale = 10.0 ** np.array(data.draw(st.lists(_magnitude, min_size=d, max_size=d)))
    offset = data.draw(st.floats(min_value=-1e3, max_value=1e3))
    x = (_curved_cloud(seed, 200, d) + offset) * scale
    family = builtin_family(kind, d - 1)
    xc = x - x.mean(axis=0)
    for j in range(d):
        others = [i for i in range(d) if i != j]
        want = _lstsq_sse(family.design_matrix(xc[:, others]), xc[:, j])
        assert fit_curve(x, j, family).sse <= (1.0 + SSE_RTOL) * want


def test_refit_sse_is_optimal_for_a_family_not_closed_under_divisors():
    # {1, x, y, x^2 y}: centring would leave the span, so only the linear
    # columns are centred and the fit is the raw basis's least squares
    family = FunctionFamily(2, [[0, 0], [1, 0], [0, 1], [2, 1]])
    rng = np.random.default_rng(21)
    for scale in (1e-6, 1.0, 1e6):
        x = rng.standard_normal((150, 3))
        x[:, 2] = 0.4 * x[:, 0] ** 2 * x[:, 1] - x[:, 1] + 0.2 * x[:, 2]
        x = x * scale
        for j in range(3):
            others = [i for i in range(3) if i != j]
            want = _lstsq_sse(family.design_matrix(x[:, others]), x[:, j])
            assert fit_curve(x, j, family).sse <= (1.0 + SSE_RTOL) * want


@pytest.mark.parametrize("offset", [0.0, 1e2, 1e6])
def test_family_not_closed_under_divisors_keeps_accurate_moments(offset):
    # the moments are taken about the segment mean for every family, so far
    # from the origin the explanatory mean and covariance match a two-pass
    # computation, and H a fresh evaluation of the returned curve
    family = FunctionFamily(2, [[0, 0], [1, 0], [0, 1], [2, 1]])
    rng = np.random.default_rng(21)
    x = rng.standard_normal((150, 3))
    x[:, 2] = 0.4 * x[:, 0] ** 2 * x[:, 1] - x[:, 1] + 0.2 * x[:, 2]
    x += offset
    axis, curve, h, params = select_orientation(x, family)
    others = [i for i in range(3) if i != axis]
    xc = x[:, others] - x[:, others].mean(axis=0)
    np.testing.assert_allclose(params.mean_exp, x[:, others].mean(axis=0), rtol=1e-15, atol=1e-14)
    np.testing.assert_allclose(params.cov_exp, xc.T @ xc / len(x), rtol=1e-12)
    assert h == pytest.approx(fadapted_cross_entropy(x, axis, curve)[0], rel=0, abs=1e-12)


def test_fit_on_a_moved_or_rescaled_copy_keeps_the_partition():
    x = generate(GeneratorSpec(kind="strokes", n=3000, noise_sigma=0.1, seed=2)).rows
    cfg = EngineConfig(k_init=8, family=builtin_family("quadratic", 1), seed=0)
    base = fit(x, cfg)
    for shift, scale in [(1e4, 1.0), (0.0, 1e-6), (0.0, 1e4), (-3e3, 1e-3)]:
        model = fit((x + shift) * scale, cfg)
        assert np.array_equal(model.assignment, base.assignment)
        want = base.final_cost + 2.0 * math.log(scale)
        assert model.final_cost == pytest.approx(want, rel=1e-9, abs=1e-12)
