import numpy as np
import pytest

from anosov import (
    CallableObservable,
    LinearToral,
    PerturbedCat,
    TrigPolynomial,
    cat_map,
    standard_observable,
)
from anosov.torus import mod1


def test_mod1_reduction():
    x = np.array([1.25, -0.25, 3.0, -2.0])
    assert np.array_equal(mod1(x), [0.25, 0.75, 0.0, 0.0])
    # values just under 1 are left alone, no snapping
    r = mod1(1.0 - 1e-16)
    assert r == 1.0 - 1e-16 and 0.0 <= r < 1.0


def test_linear_map_fixed_point():
    assert cat_map().image_arrays(0.0, 0.0) == (0.0, 0.0)


def test_perturbed_cat_delta_zero_matches_linear():
    y1, y2 = PerturbedCat(0.0, "section7").image_arrays(0.25, 0.5)
    assert y1 == pytest.approx(0.0, abs=1e-15)
    assert y2 == pytest.approx(0.75, abs=1e-15)


def test_perturbed_cat_direct_substitution():
    y1, y2 = PerturbedCat(0.01, "section7").image_arrays(0.0, 0.0)
    assert y1 == pytest.approx(0.02, abs=1e-15)
    assert y2 == pytest.approx((0.01 * np.sin(1.0)) % 1.0, abs=1e-15)


def test_appendix_form_cosine_amplitude():
    half = PerturbedCat(0.01, "appendix")
    full = PerturbedCat(0.01, "section7")
    assert half.image_arrays(0.0, 0.0)[0] == pytest.approx(0.01, abs=1e-15)
    assert full.image_arrays(0.0, 0.0)[0] == pytest.approx(0.02, abs=1e-15)


@pytest.mark.parametrize("delta", [float("nan"), float("inf"), -float("inf")])
def test_perturbed_cat_requires_finite_delta(delta):
    with pytest.raises(ValueError, match="delta must be finite"):
        PerturbedCat(delta)


def test_linear_toral_requires_automorphism():
    with pytest.raises(ValueError):
        LinearToral(2, 0, 0, 1)


def test_linear_additivity_mod1(rng):
    m = cat_map()
    p = rng.random((2, 50))
    q = rng.random((2, 50))
    both = m.image_arrays(*(p + q))
    sep1 = m.image_arrays(*p)
    sep2 = m.image_arrays(*q)
    for y, y1, y2 in zip(both, sep1, sep2):
        diff = (y - y1 - y2) % 1.0
        assert np.minimum(diff, 1 - diff).max() < 1e-12


@pytest.mark.parametrize(
    "m",
    [
        cat_map(),
        PerturbedCat(0.01, "section7"),
        PerturbedCat(0.03, "appendix"),
    ],
    ids=["cat", "section7", "appendix"],
)
def test_jacobian_matches_central_differences(m, rng):
    h = 1e-6
    x1, x2 = rng.random((2, 100))
    J = m.jacobian(x1, x2)
    assert J.shape == (100, 2, 2)
    num = np.empty((100, 2, 2))
    for col, (d1, d2) in enumerate(((h, 0.0), (0.0, h))):
        # lift to the plane: difference the unreduced coordinates
        fp = _lifted(m, x1 + d1, x2 + d2)
        fm = _lifted(m, x1 - d1, x2 - d2)
        num[..., col] = ((fp - fm) / (2 * h)).T
    assert np.allclose(J, num, atol=1e-6)


@pytest.mark.parametrize(
    "m",
    [cat_map(), PerturbedCat(0.02, "section7"), PerturbedCat(0.02, "appendix")],
    ids=["cat", "section7", "appendix"],
)
def test_jacobian_broadcasts_like_image_arrays(m):
    # a (3, 1) input against a (1, 4) one, and the 6d oracle's grid against
    # one call per point
    x1, x2 = np.array([[0.1], [0.45], [0.8]]), np.array([[0.05, 0.3, 0.55, 0.9]])
    J = m.jacobian(x1, x2)
    assert J.shape == (3, 4, 2, 2)
    full1, full2 = np.broadcast_arrays(x1, x2)
    assert np.array_equal(J, m.jacobian(full1, full2))
    grid = np.arange(40) / 40
    stack = m.jacobian(grid[:, None], grid[None, :])
    pointwise = np.array([[m.jacobian(a, b) for b in grid] for a in grid])
    assert pointwise.shape == stack.shape and np.array_equal(stack, pointwise)


def _lifted(m, x1, x2):
    if isinstance(m, LinearToral):
        return np.array([m.a11 * x1 + m.a12 * x2, m.a21 * x1 + m.a22 * x2])
    amp = m.cos_amp
    return np.array(
        [
            2 * x1 + x2 + amp * m.delta * np.cos(2 * np.pi * x1),
            x1 + x2 + m.delta * np.sin(4 * np.pi * x2 + 1),
        ]
    )


def test_standard_observable_values():
    g = standard_observable()
    assert g.sample(0.0, 0.0) == pytest.approx(1.0, abs=1e-14)
    assert g.sample(0.25, 0.25) == pytest.approx(0.0, abs=1e-14)


def test_trig_polynomial_euler_identity():
    g = TrigPolynomial((((1, 0), 0.5), ((-1, 0), 0.5)))
    assert g.sample(0.5, 0.0) == pytest.approx(-1.0, abs=1e-14)


def test_trig_polynomial_requires_conjugate_symmetry():
    with pytest.raises(ValueError):
        TrigPolynomial((((1, 0), 0.5),))
    with pytest.raises(ValueError):
        TrigPolynomial((((1, 0), 0.5j), ((-1, 0), 0.5j)))


def test_trig_polynomial_rejects_non_finite_amplitudes():
    """nan fails every comparison, so it must not pass the symmetry check."""
    nan, inf = float("nan"), float("inf")
    for c in (nan, inf, complex(0.0, -inf)):
        with pytest.raises(ValueError, match="is not finite"):
            TrigPolynomial((((1, 0), c), ((-1, 0), np.conj(c))))
    with pytest.raises(ValueError, match="conjugate symmetry at \\(1, 1\\)"):
        TrigPolynomial((((1, 1), 0.5), ((-1, -1), nan)))


def test_standard_observable_zero_mean():
    g = standard_observable()
    N = 256
    a = np.arange(N) / N
    x1, x2 = np.meshgrid(a, a, indexing="ij")
    assert abs(np.mean(g.sample(x1, x2))) < 1e-12


def test_observable_shift():
    g = standard_observable().shifted(0.3)
    assert g.sample(0.0, 0.0) == pytest.approx(0.7, abs=1e-14)
    c = CallableObservable(lambda x1, x2: np.ones_like(x1) * 2.0)
    assert c.shifted(2.0).sample(0.1, 0.9) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize(
    "model",
    [
        PerturbedCat(0.01, "section7"),
        PerturbedCat(0.05, "appendix"),
        cat_map(),
        LinearToral(1, 0, 0, 1),
    ],
    ids=["section7", "appendix", "cat", "identity"],
)
def test_image_arrays_broadcast_matches_meshgrid(model):
    # the Ulam lattice: x1 along the sub-box rows, x2 along (box, sub-box column)
    m, ks = 8, 5
    off = (np.arange(ks) + 0.5) / (m * ks)
    x1 = (3 / m + off)[:, None]
    x2 = np.arange(m)[:, None, None] / m + off
    full1, full2 = (np.array(a) for a in np.broadcast_arrays(x1, x2))
    for y, y_full in zip(model.image_arrays(x1, x2), model.image_arrays(full1, full2)):
        assert y.shape == (m, ks, ks)
        assert np.array_equal(y, y_full)


@pytest.mark.parametrize("form", ["section7", "appendix"])
def test_perturbed_cat_images_match_remainder_formula(form, rng):
    # x - floor(x) and x % 1.0 round the same way, negative x included
    model = PerturbedCat(0.3, form)
    _, phi1, phi2 = model.separable_parts()
    x1 = np.concatenate([rng.uniform(-3.0, 3.0, 4000), [-1e-17, -0.0, 0.0, 1.0, -2.0]])
    x2 = np.concatenate([rng.uniform(-3.0, 3.0, 4000), [1e-17, 0.5, -0.5, 0.0, 3.0]])
    y1, y2 = model.image_arrays(x1, x2)
    assert np.array_equal(y1, (2.0 * x1 + x2 + phi1(x1)) % 1.0)
    assert np.array_equal(y2, (x1 + x2 + phi2(x2)) % 1.0)
