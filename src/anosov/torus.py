"""Torus geometry, the map family and observables.

Points live on T^2 = [0,1)^2 with floor-based reduction mod 1.  Two map
variants are supported: hyperbolic linear toral automorphisms and the
perturbed cat map

    section7 form:  T(x1,x2) = (2x1 + x2 + 2 d cos(2 pi x1), x1 + x2 + d sin(4 pi x2 + 1))
    appendix form:  T(x1,x2) = (2x1 + x2 +   d cos(2 pi x1), x1 + x2 + d sin(4 pi x2 + 1))

both reduced mod 1.  The two forms differ only in the cosine amplitude; the
certification formulas are stated for the appendix form while the variance
and rate-function runs default to the section7 form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi


def mod1(x):
    """Floor-based reduction into [0, 1). Works on scalars and arrays."""
    return x - np.floor(x)


class MapModel:
    """Base class: a self-map of T^2 with an analytic Jacobian."""

    def image_arrays(self, x1, x2):
        """(y1, y2) = T(x1, x2) mod 1, elementwise.

        x1 and x2 broadcast against each other as numpy arrays do, and the
        images match, bit for bit, an evaluation on the broadcast arrays.
        Computed from :meth:`separable_parts`.
        """
        A, phi1, phi2 = self.separable_parts()
        y1 = mod1(A[0, 0] * x1 + A[0, 1] * x2 + phi1(x1))
        y2 = mod1(A[1, 0] * x1 + A[1, 1] * x2 + phi2(x2))
        return y1, y2

    def jacobian(self, x1, x2) -> np.ndarray:
        """DT at (x1, x2), shape ``np.broadcast(x1, x2).shape + (2, 2)``."""
        raise NotImplementedError

    def separable_parts(self):
        """(A, phi1, phi2) with T(x) = A x + (phi1(x1), phi2(x2)) mod 1.

        A is the integer 2 x 2 matrix; phi1 and phi2 map 1-D arrays to arrays.
        Operator assembly, the Ulam build and :meth:`image_arrays` need this form.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class LinearToral(MapModel):
    """x -> A x mod 1 for an integer matrix A with |det A| = 1."""

    a11: int = 2
    a12: int = 1
    a21: int = 1
    a22: int = 1

    def __post_init__(self):
        det = self.a11 * self.a22 - self.a12 * self.a21
        if abs(det) != 1:
            raise ValueError(f"matrix must be an automorphism, |det| = {abs(det)}")

    def jacobian(self, x1, x2) -> np.ndarray:
        J = np.empty(np.broadcast(x1, x2).shape + (2, 2))
        J[...] = self.separable_parts()[0]
        return J

    def separable_parts(self):
        A = np.array([[self.a11, self.a12], [self.a21, self.a22]])
        return A, np.zeros_like, np.zeros_like


def cat_map() -> LinearToral:
    """Arnold's cat map, A = [[2,1],[1,1]]."""
    return LinearToral(2, 1, 1, 1)


@dataclass(frozen=True)
class PerturbedCat(MapModel):
    """Perturbed cat map with perturbation size delta.

    ``form`` selects the cosine amplitude: "section7" uses 2*delta,
    "appendix" uses delta.
    """

    delta: float = 0.01
    form: str = "section7"

    def __post_init__(self):
        if not np.isfinite(self.delta):
            raise ValueError(f"delta must be finite, got {self.delta!r}")
        if self.form not in ("section7", "appendix"):
            raise ValueError(f"unknown form {self.form!r}")

    @property
    def cos_amp(self) -> float:
        return 2.0 if self.form == "section7" else 1.0

    def jacobian(self, x1, x2) -> np.ndarray:
        d = self.delta
        J = np.ones(np.broadcast(x1, x2).shape + (2, 2))
        J[..., 0, 0] = 2.0 - self.cos_amp * TWO_PI * d * np.sin(TWO_PI * x1)
        J[..., 1, 1] = 1.0 + 2.0 * TWO_PI * d * np.cos(2.0 * TWO_PI * x2 + 1.0)
        return J

    def separable_parts(self):
        amp, d = self.cos_amp, self.delta
        return (
            np.array([[2, 1], [1, 1]]),
            lambda x1: amp * d * np.cos(TWO_PI * x1),
            lambda x2: d * np.sin(2.0 * TWO_PI * x2 + 1.0),
        )


class Observable:
    """Base class: a real-valued function on T^2."""

    def sample(self, x1, x2):
        raise NotImplementedError

    def shifted(self, a: float) -> "Observable":
        """The observable g - a."""
        raise NotImplementedError

    def separable_parts(self):
        """(g1, g2) with g(x) = g1(x1) + g2(x2), each mapping 1-D arrays, or None."""
        return None


@dataclass(frozen=True)
class TrigPolynomial(Observable):
    """Finite Fourier sum sum_j c_j e^{2 pi i j.x} with c_{-j} = conj(c_j).

    ``modes`` is a tuple of ((j1, j2), amplitude) pairs.  Conjugate symmetry
    is required so the function is real valued, and every amplitude must be
    finite.
    """

    modes: tuple

    def __post_init__(self):
        m = dict(self.modes)
        for (j1, j2), c in m.items():
            if not np.isfinite(c):
                raise ValueError(f"amplitude at {(j1, j2)} is not finite: {c!r}")
            c_neg = m.get((-j1, -j2), 0.0)
            # written so that a nan defect fails it
            if not abs(np.conj(c) - c_neg) <= 1e-12 * max(1.0, abs(c)):
                raise ValueError(f"modes violate conjugate symmetry at {(j1, j2)}")
        object.__setattr__(self, "modes", tuple(sorted(m.items())))

    def sample(self, x1, x2):
        out = np.zeros(np.broadcast(x1, x2).shape)
        for (j1, j2), c in self.modes:
            out = out + np.real(c * np.exp(2j * np.pi * (j1 * x1 + j2 * x2)))
        return out

    def shifted(self, a: float) -> "TrigPolynomial":
        m = dict(self.modes)
        m[(0, 0)] = m.get((0, 0), 0.0) - a
        return TrigPolynomial(tuple(m.items()))

    def separable_parts(self):
        """None when a mode has j1 != 0 and j2 != 0; g1 carries the constant."""
        if any(j1 and j2 for (j1, j2), _ in self.modes):
            return None
        g1 = TrigPolynomial(tuple((j, c) for j, c in self.modes if j[1] == 0))
        g2 = TrigPolynomial(tuple((j, c) for j, c in self.modes if j[1] != 0))
        return (lambda x1: g1.sample(x1, 0.0)), (lambda x2: g2.sample(0.0, x2))


@dataclass(frozen=True, eq=False)
class CallableObservable(Observable):
    """Wraps an arbitrary vectorised function of (x1, x2)."""

    fn: object

    def sample(self, x1, x2):
        return self.fn(x1, x2)

    def shifted(self, a: float) -> "CallableObservable":
        fn = self.fn
        return CallableObservable(lambda x1, x2: fn(x1, x2) - a)


def standard_observable() -> TrigPolynomial:
    """g(x1, x2) = cos(4 pi x1) + sin(2 pi x2)."""
    return TrigPolynomial(
        (
            ((2, 0), 0.5),
            ((-2, 0), 0.5),
            ((0, 1), -0.5j),
            ((0, -1), 0.5j),
        )
    )
