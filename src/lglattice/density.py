"""Cosine-series angular density of the molecular cloud on a hard disk.

rho(r, phi) = theta(R - r) * sum_k c_k cos(k phi + phase_k); the k = 0 term
is always present and defaults to amplitude 1, phase 0.

The angular factor is a trigonometric polynomial of degree K (the top active
order), so its exact global minimum lies among the roots of its derivative,
a degree-2K polynomial in z = exp(i phi) solved through its companion matrix
(J. P. Boyd, J. Eng. Math. 56, 203 (2006)). The solve costs O(K^3): about
0.1 ms at K = 2, 0.4 ms at K = 8, 25 ms at K = 64 and over a second at
K = 256 (one core of a 2-core Xeon VM, one BLAS thread).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "Harmonic",
    "DensityProfile",
    "NonPhysicalDensity",
    "density_at",
    "angular_density",
    "angular_minimum",
    "validate_nonnegative",
    "rotate",
]

NEGATIVITY_TOLERANCE = 1e-9


class NonPhysicalDensity(ValueError):
    """The angular density dips below zero: no molecular cloud realizes it."""

    def __init__(self, minimum: float):
        self.minimum = minimum
        super().__init__(
            f"angular density reaches {minimum:.3e}; a molecular cloud "
            "density must be non-negative everywhere"
        )


class Harmonic(NamedTuple):
    k: int
    c: float
    phase: float = 0.0


@dataclass(frozen=True)
class DensityProfile:
    """Hard-disk cloud of radius `radius` with angular cosine harmonics.

    Harmonics are stored sorted by order k; orders must be distinct and a
    k = 0 entry (c = 1, phase = 0 unless given) is added automatically.
    """

    radius: float = 4.0
    harmonics: tuple[Harmonic, ...] = ()

    def __post_init__(self):
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise ValueError(f"radius must be positive and finite, got {self.radius}")
        entries = [Harmonic(int(h[0]), float(h[1]), float(h[2])) for h in self.harmonics]
        if not all(math.isfinite(h.c) and math.isfinite(h.phase) for h in entries):
            raise ValueError("harmonic amplitudes and phases must be finite")
        orders = [h.k for h in entries]
        if any(k < 0 for k in orders):
            raise ValueError("harmonic orders must be non-negative")
        if len(set(orders)) != len(orders):
            raise ValueError(f"harmonic orders must be distinct, got {orders}")
        if 0 not in orders:
            entries.append(Harmonic(0, 1.0, 0.0))
        entries.sort(key=lambda h: h.k)
        object.__setattr__(self, "harmonics", tuple(entries))

    def harmonic(self, k: int) -> Harmonic | None:
        for h in self.harmonics:
            if h.k == k:
                return h
        return None

    @property
    def active_orders(self) -> tuple[int, ...]:
        """Orders k >= 1 with a nonzero amplitude (the hopping ranges)."""
        return tuple(h.k for h in self.harmonics if h.k >= 1 and h.c != 0.0)

    def to_dict(self) -> dict:
        return {
            "radius": self.radius,
            "harmonics": [
                {"k": h.k, "c": h.c, "phase": h.phase} for h in self.harmonics
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DensityProfile":
        harmonics = tuple(
            Harmonic(int(h["k"]), float(h["c"]), float(h.get("phase", 0.0)))
            for h in data.get("harmonics", [])
        )
        return cls(radius=float(data.get("radius", 4.0)), harmonics=harmonics)


def angular_density(profile: DensityProfile, phi):
    """Angular factor sum_k c_k cos(k phi + phase_k)."""
    phi = np.asarray(phi, dtype=float)
    out = np.zeros_like(phi)
    for k, c, phase in profile.harmonics:
        out += c * np.cos(k * phi + phase)
    return out if out.ndim else float(out)


def density_at(profile: DensityProfile, r, phi):
    """Cloud density at (r, phi): the angular series inside r <= R, else 0."""
    r = np.asarray(r, dtype=float)
    inside = (r <= profile.radius).astype(float)
    out = inside * angular_density(profile, phi)
    return out if out.ndim else float(out)


def rotate(profile: DensityProfile, alpha: float) -> DensityProfile:
    """Rotate the cloud pattern by alpha around the beam axis.

    The rotated density satisfies density_at(rotate(p, a), r, phi)
    == density_at(p, r, phi - a), i.e. each harmonic phase shifts by -k*alpha.
    """
    return DensityProfile(
        radius=profile.radius,
        harmonics=tuple(
            Harmonic(h.k, h.c, h.phase - h.k * alpha) for h in profile.harmonics
        ),
    )


def angular_minimum(profile: DensityProfile) -> float:
    """Exact global minimum over phi of the angular factor.

    Every critical point of f(phi) = sum_k c_k cos(k phi + phase_k) is a root
    on the unit circle of z^K f'(phi), proportional to
    sum_k k c_k (exp(i phase_k) z^(K+k) - exp(-i phase_k) z^(K-k)). The
    minimum is the smallest f at the angles of all 2K roots: roots off the
    circle only add angles, which cannot lower the minimum. Harmonics whose
    weight k c_k is below the double epsilon of the largest weight are left
    out of the polynomial, since a leading coefficient that small only
    overflows the companion matrix; f itself is still evaluated with every
    harmonic.
    """
    harmonics = [h for h in profile.harmonics if h.k >= 1 and h.c != 0.0]
    if not harmonics:
        zero = profile.harmonic(0)
        return float(zero.c * math.cos(zero.phase))
    # roots ignore an overall scale; this one keeps k c_k from overflowing
    scale = max(abs(h.c) for h in harmonics)
    weights = [h.k * (h.c / scale) for h in harmonics]
    floor = np.finfo(float).eps * max(map(abs, weights))
    kept = [(w, h.k, h.phase) for w, h in zip(weights, harmonics) if abs(w) >= floor]
    top = kept[-1][1]
    coefficients = np.zeros(2 * top + 1, dtype=complex)  # index = power of z
    for weight, k, phase in kept:
        coefficients[top + k] = weight * np.exp(1j * phase)
        coefficients[top - k] = -weight * np.exp(-1j * phase)
    angles = np.angle(np.roots(coefficients[::-1]))
    return float(np.min(angular_density(profile, angles)))


def validate_nonnegative(profile: DensityProfile) -> float:
    """Global minimum of the angular density; raises if the cloud is unphysical.

    The minimum is exact (see angular_minimum); a profile passes when it is
    no lower than -NEGATIVITY_TOLERANCE.
    """
    minimum = angular_minimum(profile)
    if not minimum >= -NEGATIVITY_TOLERANCE:
        raise NonPhysicalDensity(minimum)
    return minimum
