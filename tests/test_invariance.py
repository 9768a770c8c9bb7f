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
    """Points around x_{d-1} = 0.5 x_0^2 + 0.3 x_0^3 with noise 0.3, so no
    residual variance comes near the floor. The last axis is usually the
    argmin of every curved family, but not always: at seed 1915 the quadratic
    d=2 fit prefers axis 0 by about 0.014 nats."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    x[:, -1] = 0.5 * x[:, 0] ** 2 + 0.3 * x[:, 0] ** 3 + 0.3 * x[:, -1]
    return x


def _refit(x, family):
    with warnings.catch_warnings():
        warnings.simplefilter("error", ZeroResidualWarning)
        axis, _, h, _ = select_orientation(x, family)
    return axis, h


def _assert_same_clear_argmin(x, family, axis, moved_axis, tol):
    """Both copies chose axis, and its H is below every other axis's H by
    more than tol, so an H that moves by at most tol keeps the choice. Each
    axis's H comes from fit_curve and fadapted_cross_entropy, apart from the
    refit's argmin. With the linear family every axis has the Gaussian's H, so
    the argmin is a rounding tie and is not checked."""
    if family.kind == "linear":
        return
    assert moved_axis == axis
    hs = [fadapted_cross_entropy(x, j, fit_curve(x, j, family))[0] for j in range(x.shape[1])]
    assert min(h for j, h in enumerate(hs) if j != axis) - hs[axis] > tol


def _check_translation(kind, d, seed, b):
    x = _curved_cloud(seed, 300, d)
    family = builtin_family(kind, d - 1)
    axis, h = _refit(x, family)
    moved_axis, moved_h = _refit(x + b, family)
    assert moved_h == pytest.approx(h, rel=0, abs=SHIFT_ATOL)
    _assert_same_clear_argmin(x, family, axis, moved_axis, SHIFT_ATOL)


def _check_scale(kind, d, seed, s):
    x = _curved_cloud(seed, 300, d) + 2.0
    family = builtin_family(kind, d - 1)
    axis, h = _refit(x, family)
    scaled_axis, scaled_h = _refit(x * s, family)
    shift = sum(math.log(abs(si)) for si in s)
    tol = SCALE_ATOL * (1.0 + abs(shift))
    assert scaled_h == pytest.approx(h + shift, rel=0, abs=tol)
    _assert_same_clear_argmin(x, family, axis, scaled_axis, tol)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(BUILTIN_KINDS),
    d=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    data=st.data(),
)
def test_refit_entropy_is_translation_invariant(kind, d, seed, data):
    mags = data.draw(st.lists(_magnitude, min_size=d, max_size=d))
    signs = data.draw(st.lists(_sign, min_size=d, max_size=d))
    _check_translation(kind, d, seed, np.array(signs) * 10.0 ** np.array(mags))


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(BUILTIN_KINDS),
    d=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    data=st.data(),
)
def test_refit_entropy_is_scale_invariant(kind, d, seed, data):
    mags = data.draw(st.lists(_magnitude, min_size=d, max_size=d))
    signs = data.draw(st.lists(_sign, min_size=d, max_size=d))
    _check_scale(kind, d, seed, np.array(signs) * 10.0 ** np.array(mags))


def test_refit_invariance_where_the_first_axis_wins():
    # seed 1915, quadratic, d=2: both copies choose axis 0, not the last axis
    # (an st.data() draw cannot be pinned with @example)
    _check_translation("quadratic", 2, 1915, np.array([1e6, -1e6]))
    _check_scale("quadratic", 2, 1915, np.array([-1.0, -1.0]))


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


def test_fit_on_a_moved_or_rescaled_copy_keeps_the_partition():
    x = generate(GeneratorSpec(kind="strokes", n=3000, noise_sigma=0.1, seed=2)).rows
    cfg = EngineConfig(k_init=8, family=builtin_family("quadratic", 1), seed=0)
    base = fit(x, cfg)
    for shift, scale in [(1e4, 1.0), (0.0, 1e-6), (0.0, 1e4), (-3e3, 1e-3)]:
        model = fit((x + shift) * scale, cfg)
        assert np.array_equal(model.assignment, base.assignment)
        want = base.final_cost + 2.0 * math.log(scale)
        assert model.final_cost == pytest.approx(want, rel=1e-9, abs=1e-12)


@pytest.mark.xfail(
    strict=True,
    reason="scoring evaluates raw-basis coefficients and the -L^-1 mean intercept on raw "
    "design rows, which cancel far from the origin; ROADMAP item 3's standardization "
    "(one standardized design per command) is the fix",
)
def test_fit_on_a_copy_moved_by_1e6_keeps_the_partition():
    x = generate(GeneratorSpec(kind="strokes", n=3000, noise_sigma=0.1, seed=2)).rows
    cfg = EngineConfig(k_init=8, family=builtin_family("quadratic", 1), seed=0)
    base = fit(x, cfg)
    model = fit(x + 1e6, cfg)
    assert np.array_equal(model.assignment, base.assignment)
    assert model.final_cost == pytest.approx(base.final_cost, rel=1e-9, abs=1e-12)
