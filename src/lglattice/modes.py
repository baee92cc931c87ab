"""Laguerre-Gaussian transverse mode profiles, normalization and detunings.

Modes are evaluated in the beam waist plane with unit transverse norm;
curvature, Gouy and longitudinal factors are absorbed into the coupling
scales carried by :class:`BeamParameters`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "ModeIndex",
    "BeamParameters",
    "laguerre",
    "normalization_constant",
    "radial_profile",
    "mode_amplitude",
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

    @property
    def interaction_prefactor(self) -> float:
        """Signed interaction scale: negative for attractive coupling."""
        sign = -1.0 if self.interaction_sign == "attractive" else 1.0
        return sign * self.second_order_scale


# every field of BeamParameters but the sign is a finite number
BEAM_NUMBERS = tuple(f.name for f in fields(BeamParameters) if f.name != "interaction_sign")


def laguerre(p: int, a: int, x):
    """Associated Laguerre polynomial L_p^a(x) by the three-term recurrence.

    Accepts scalar or ndarray x and returns a matching shape.
    """
    if p < 0 or a < 0:
        raise ValueError("laguerre requires p >= 0 and a >= 0")
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if p == 0:
        return prev if prev.ndim else float(prev)
    cur = 1.0 + a - x
    for i in range(1, p):
        prev, cur = cur, ((2 * i + a + 1 - x) * cur - (i + a) * prev) / (i + 1)
    return cur if cur.ndim else float(cur)


def normalization_constant(mode: ModeIndex) -> float:
    """Transverse normalization factor sqrt(2 p! / (pi (p + |l|)!)).

    Evaluated through log-factorials so large indices cannot overflow.
    """
    log_ratio = math.lgamma(mode.p + 1) - math.lgamma(mode.p + abs(mode.l) + 1)
    return math.sqrt(2.0 / math.pi) * math.exp(0.5 * log_ratio)


def radial_profile(mode: ModeIndex, r, beam: BeamParameters):
    """Real radial factor g_{l,p}(r) of the waist-plane mode profile.

    The full profile is g_{l,p}(r) * exp(-i l phi); g carries the whole
    transverse norm: integral of g^2 r dr over [0, inf) equals 1/(2 pi).
    """
    r = np.asarray(r, dtype=float)
    w = beam.waist
    u = (r / w) ** 2
    c = normalization_constant(mode) / w
    out = c * (np.sqrt(2.0) * r / w) ** abs(mode.l) * np.exp(-u) * laguerre(
        mode.p, abs(mode.l), 2.0 * u
    )
    return out if out.ndim else float(out)


def mode_amplitude(mode: ModeIndex, r, phi, beam: BeamParameters):
    """Waist-plane mode profile g_{l,p}(r) exp(-i l phi), unit transverse norm."""
    out = radial_profile(mode, r, beam) * np.exp(
        -1j * mode.l * np.asarray(phi, dtype=float)
    )
    return out if np.ndim(out) else complex(out)


def mode_detuning(mode: ModeIndex, beam: BeamParameters) -> float:
    """Frequency offset of a mode: gouy_rate * (|l| + 2p)."""
    return beam.gouy_rate * mode.order
