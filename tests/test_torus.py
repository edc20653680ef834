import numpy as np
import pytest

from anosov import (
    CallableObservable,
    LinearToral,
    PerturbedCat,
    TorusPoint,
    TrigPolynomial,
    cat_map,
    standard_observable,
)


def test_torus_point_reduction():
    p = TorusPoint(1.25, -0.25)
    assert p.x1 == 0.25 and p.x2 == 0.75
    q = TorusPoint(3.0, -2.0)
    assert q.x1 == 0.0 and q.x2 == 0.0
    # values just under 1 are left alone, no snapping
    r = TorusPoint(1.0 - 1e-16, 0.0)
    assert 0.0 <= r.x1 < 1.0


def test_linear_map_fixed_point():
    m = cat_map()
    img = m(TorusPoint(0.0, 0.0))
    assert img == TorusPoint(0.0, 0.0)


def test_perturbed_cat_delta_zero_matches_linear():
    m = PerturbedCat(0.0, "section7")
    img = m(TorusPoint(0.25, 0.5))
    assert img.x1 == pytest.approx(0.0, abs=1e-15)
    assert img.x2 == pytest.approx(0.75, abs=1e-15)


def test_perturbed_cat_direct_substitution():
    m = PerturbedCat(0.01, "section7")
    img = m(TorusPoint(0.0, 0.0))
    assert img.x1 == pytest.approx(0.02, abs=1e-15)
    assert img.x2 == pytest.approx((0.01 * np.sin(1.0)) % 1.0, abs=1e-15)


def test_appendix_form_cosine_amplitude():
    half = PerturbedCat(0.01, "appendix")
    full = PerturbedCat(0.01, "section7")
    p = TorusPoint(0.0, 0.0)
    assert half(p).x1 == pytest.approx(0.01, abs=1e-15)
    assert full(p).x1 == pytest.approx(0.02, abs=1e-15)


def test_linear_toral_requires_automorphism():
    with pytest.raises(ValueError):
        LinearToral(2, 0, 0, 1)


def test_linear_additivity_mod1(rng):
    m = cat_map()
    for _ in range(50):
        p = rng.random(2)
        q = rng.random(2)
        both = m(TorusPoint(*(p + q)))
        sep1 = m(TorusPoint(*p))
        sep2 = m(TorusPoint(*q))
        diff1 = (both.x1 - sep1.x1 - sep2.x1) % 1.0
        diff2 = (both.x2 - sep1.x2 - sep2.x2) % 1.0
        assert min(diff1, 1 - diff1) < 1e-12
        assert min(diff2, 1 - diff2) < 1e-12


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
    for _ in range(100):
        x1, x2 = rng.random(2)
        J = m.jacobian(TorusPoint(x1, x2))
        num = np.empty((2, 2))
        for col, (d1, d2) in enumerate(((h, 0.0), (0.0, h))):
            # lift to the plane: difference the unreduced coordinates
            fp = _lifted(m, x1 + d1, x2 + d2)
            fm = _lifted(m, x1 - d1, x2 - d2)
            num[:, col] = (fp - fm) / (2 * h)
        assert np.allclose(J, num, atol=1e-6)


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
    assert g(TorusPoint(0.0, 0.0)) == pytest.approx(1.0, abs=1e-14)
    assert g(TorusPoint(0.25, 0.25)) == pytest.approx(0.0, abs=1e-14)


def test_trig_polynomial_euler_identity():
    g = TrigPolynomial((((1, 0), 0.5), ((-1, 0), 0.5)))
    assert g(TorusPoint(0.5, 0.0)) == pytest.approx(-1.0, abs=1e-14)


def test_trig_polynomial_requires_conjugate_symmetry():
    with pytest.raises(ValueError):
        TrigPolynomial((((1, 0), 0.5),))
    with pytest.raises(ValueError):
        TrigPolynomial((((1, 0), 0.5j), ((-1, 0), 0.5j)))


def test_standard_observable_zero_mean():
    g = standard_observable()
    N = 256
    a = np.arange(N) / N
    x1, x2 = np.meshgrid(a, a, indexing="ij")
    assert abs(np.mean(g.sample(x1, x2))) < 1e-12


def test_observable_shift():
    g = standard_observable().shifted(0.3)
    assert g(TorusPoint(0.0, 0.0)) == pytest.approx(0.7, abs=1e-14)
    c = CallableObservable(lambda x1, x2: np.ones_like(x1) * 2.0, name="const")
    assert c.shifted(2.0)(TorusPoint(0.1, 0.9)) == pytest.approx(0.0, abs=1e-14)


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
