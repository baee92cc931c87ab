"""Laguerre-Gaussian transverse mode profiles, normalization and detunings.

Modes are evaluated in the beam waist plane with unit transverse norm;
curvature, Gouy and longitudinal factors are absorbed into the coupling
scales carried by :class:`BeamParameters`.

radial_profiles is the one home of the radial formula: it evaluates a whole
mode list in one (modes x nodes) array, with one Laguerre recurrence for
all rows (Allen et al., Phys. Rev. A 45, 8185 (1992)). It takes radii in
waists, rho = r / w: the waist is the modes' only length, so a profile at
radius r under waist w is radial_profiles(modes, r / w) / w.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "ModeIndex",
    "BeamParameters",
    "normalization_constant",
    "radial_profiles",
    "mode_detuning",
]

# Cap on |l| + p, the largest lgamma argument: far above any window this
# toolkit handles, it keeps lgamma inputs sane.
MAX_MODE_ORDER = 1_000_000


@dataclass(frozen=True, order=True)
class ModeIndex:
    """Label of a Laguerre-Gaussian mode: azimuthal index l, radial index p."""

    l: int
    p: int = 0

    def __post_init__(self):
        if self.p < 0:
            raise ValueError(f"radial index p must be >= 0, got {self.p}")
        if abs(self.l) + self.p > MAX_MODE_ORDER:
            raise ValueError(f"|l| + p = {abs(self.l) + self.p} exceeds supported cap {MAX_MODE_ORDER}")

    @property
    def order(self) -> int:
        """Combined mode order |l| + 2p."""
        return abs(self.l) + 2 * self.p


@dataclass(frozen=True)
class BeamParameters:
    """Physical scales of the driving beam and its coupling to the cloud.

    waist sets the length unit (default 1). first_order_scale multiplies
    the chemical potential and hopping integrals; second_order_scale the
    density-density interaction integrals, with its sign carried separately
    by interaction_sign ("attractive" or "repulsive"). longitudinal_fill is
    the dimensionless fraction of the cavity occupied by the cloud along z,
    applied once to every coupling integral. gouy_rate is the frequency
    offset per unit of mode order |l| + 2p.
    """

    waist: float = 1.0
    gouy_rate: float = 0.0
    longitudinal_fill: float = 1.0
    first_order_scale: float = 1.0
    second_order_scale: float = 0.1
    interaction_sign: str = "attractive"

    def __post_init__(self):
        for name in BEAM_NUMBERS:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.waist > 0:
            raise ValueError(f"waist must be positive, got {self.waist}")
        if not 0.0 < self.longitudinal_fill <= 1.0:
            raise ValueError("longitudinal_fill is a fraction in (0, 1]")
        if self.second_order_scale < 0:
            raise ValueError(
                "second_order_scale is a magnitude; use interaction_sign "
                "to select attractive or repulsive interactions"
            )
        if self.interaction_sign not in ("attractive", "repulsive"):
            raise ValueError(
                f"interaction_sign must be 'attractive' or 'repulsive', "
                f"got {self.interaction_sign!r}"
            )


# every field of BeamParameters but the sign is a finite number
BEAM_NUMBERS = tuple(f.name for f in fields(BeamParameters) if f.name != "interaction_sign")


def _laguerre_rows(p: np.ndarray, a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """L_{p_i}^{a_i}(x) for every row i, shape (rows,) + x.shape.

    One three-term recurrence runs for all rows up to the largest p, with a
    as a column; each row keeps the term of its own order. Every row does
    the arithmetic of a one-row recurrence, so its bits do not depend on
    the other rows.
    """
    out = np.ones(p.shape + x.shape)
    top = int(p.max(initial=0))
    if top == 0:
        return out
    a = a.reshape(a.shape + (1,) * x.ndim)
    prev, cur = 1.0, 1.0 + a - x
    out[p == 1] = cur[p == 1]
    for i in range(1, top):
        prev, cur = cur, ((2 * i + a + 1 - x) * cur - (i + a) * prev) / (i + 1)
        out[p == i + 1] = cur[p == i + 1]
    return out


def normalization_constant(mode: ModeIndex) -> float:
    """Transverse normalization factor sqrt(2 p! / (pi (p + |l|)!)).

    Evaluated through log-factorials so large indices cannot overflow.
    """
    log_ratio = math.lgamma(mode.p + 1) - math.lgamma(mode.p + abs(mode.l) + 1)
    return math.sqrt(2.0 / math.pi) * math.exp(0.5 * log_ratio)


def radial_profiles(modes, rho) -> np.ndarray:
    """Real radial factors g_{l,p}(rho) of several modes at radii rho in
    waists, shape (modes,) + rho.shape. The full profile g exp(-i l phi) has
    unit norm: the integral of g^2 rho d rho over [0, inf) is 1/(2 pi). The
    mode-only factors are taken once per call and the Laguerre recurrence
    runs once for all modes (see _laguerre_rows). Each row is bit-identical
    to evaluating its mode on its own.
    """
    rho = np.asarray(rho, dtype=float)
    a = np.array([abs(mode.l) for mode in modes], dtype=np.int64)
    p = np.array([mode.p for mode in modes], dtype=np.int64)
    norm = np.array([normalization_constant(mode) for mode in modes])
    column = (-1,) + (1,) * rho.ndim
    u = rho**2
    s = np.sqrt(2.0) * rho
    power = np.power(s, a.reshape(column))
    # s ** 2 with a scalar 2 is np.square, which can differ in the last bit
    # from the power routine an array of exponents runs; |l| = 2 keeps it
    power[a == 2] = np.square(s)
    out = norm.reshape(column) * power * np.exp(-u)
    if p.any():
        out *= _laguerre_rows(p, a, 2.0 * u)
    return out


def mode_detuning(mode: ModeIndex, beam: BeamParameters) -> float:
    """Frequency offset of a mode: gouy_rate * (|l| + 2p)."""
    return beam.gouy_rate * mode.order
