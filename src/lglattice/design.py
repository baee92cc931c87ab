"""Inverse design: from a target lattice to a density profile.

Each azimuthal harmonic of the cloud turns on one hopping range, its
amplitude sets the magnitude and its phase the hopping phase, so chains,
ladders, band-limited power laws and target plaquette fluxes all reduce to
choosing a small set of (order, amplitude, phase) triples subject to the
density staying non-negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .couplings import CouplingSet, ModeWindow, radial_overlap_matrices
from .density import DensityProfile, Harmonic, angular_minimum
from .modes import BeamParameters, ModeIndex

__all__ = [
    "BrokenPlaquette",
    "Chain",
    "TriangularLadder",
    "ExtendedTriangle",
    "preset_profile",
    "design_power_law",
    "design_fluxes",
    "wrap_angle",
    "loop_flux",
    "flux_of_plaquette",
    "plaquette_fluxes",
    "PowerLawFit",
    "fit_power_law",
    "write_fit_report",
    "write_flux_report",
]

DEFAULT_RADIUS = 4.0
# below this a hopping leg carries no trustworthy phase
MIN_LOOP_AMPLITUDE = 1e-12


class BrokenPlaquette(ValueError):
    """A requested flux involves a hopping amplitude that vanishes."""


def wrap_angle(x: float) -> float:
    """Wrap an angle to the half-open interval (-pi, pi]."""
    return math.pi - (math.pi - x) % (2.0 * math.pi)


@dataclass(frozen=True)
class Chain:
    """Nearest-neighbour chain: a single k=1 harmonic."""

    phase: float = 0.9 * math.pi
    strength: float = 1.0

    def profile(self, radius: float = DEFAULT_RADIUS) -> DensityProfile:
        return DensityProfile(
            radius=radius, harmonics=(Harmonic(1, self.strength, self.phase),)
        )


@dataclass(frozen=True)
class TriangularLadder:
    """Ranges 1 and 2 together; ratio fixes t2/t1 leverage, phases the signs."""

    ratio: float = 1.0 / 3.0
    phase1: float = 0.9 * math.pi
    phase2: float = 1.1 * math.pi

    def profile(self, radius: float = DEFAULT_RADIUS) -> DensityProfile:
        if self.ratio <= 0.0:
            raise ValueError("ratio must be positive")
        # c1 + c2 = 1 keeps the density valid for any pair of phases
        c1 = 1.0 / (1.0 + self.ratio)
        return DensityProfile(
            radius=radius,
            harmonics=(
                Harmonic(1, c1, self.phase1),
                Harmonic(2, self.ratio * c1, self.phase2),
            ),
        )


@dataclass(frozen=True)
class ExtendedTriangle:
    """Ranges 1, 2 and 3 with equal weight and independent phases."""

    phase1: float = 0.9 * math.pi
    phase2: float = 1.1 * math.pi
    phase3: float = 1.02 * math.pi

    def profile(self, radius: float = DEFAULT_RADIUS) -> DensityProfile:
        third = 1.0 / 3.0
        return DensityProfile(
            radius=radius,
            harmonics=(
                Harmonic(1, third, self.phase1),
                Harmonic(2, third, self.phase2),
                Harmonic(3, third, self.phase3),
            ),
        )


_PRESETS = {
    "chain": Chain,
    "triangular_ladder": TriangularLadder,
    "extended_triangle": ExtendedTriangle,
}


def preset_profile(name: str, radius: float = DEFAULT_RADIUS, **params) -> DensityProfile:
    """Build one of the named preset profiles, forwarding keyword overrides."""
    try:
        preset = _PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(_PRESETS))
        raise ValueError(f"unknown preset {name!r} (known: {known})") from None
    return preset(**params).profile(radius=radius)


def design_power_law(
    beta: float,
    max_range: int,
    window: ModeWindow | None = None,
    beam: BeamParameters | None = None,
    calibrate: bool = True,
    radius: float = DEFAULT_RADIUS,
) -> DensityProfile:
    """Profile whose hoppings decay as a power law in the range k.

    With calibrate=False the harmonic amplitudes themselves follow k**-beta,
    so the measured hoppings inherit the extra k dependence of the radial
    overlaps. With calibrate=True (requires window and beam) each amplitude
    is divided by the mean radial overlap between the central mode and its
    k-th neighbours, which cancels that dependence at the window centre.
    The overall amplitude is set in closed form to the non-negativity
    boundary, so the designed density's minimum is exactly zero.
    """
    if max_range < 1:
        raise ValueError("max_range must be at least 1")
    if not beta >= 0.0:
        raise ValueError("beta must be non-negative")
    ks = list(range(1, max_range + 1))
    weights = [float(k) ** (-beta) for k in ks]
    if calibrate:
        if window is None or beam is None:
            raise ValueError("calibration needs a mode window and beam parameters")
        center = window.central_mode
        reach = max(window.l_max - center.l, center.l - window.l_min)
        if max_range > reach:
            raise ValueError("max_range exceeds the window's reach from its centre")
        # the central mode's row of the window, out to max_range either side
        l_lo = max(window.l_min, center.l - max_range)
        l_hi = min(window.l_max, center.l + max_range)
        row = [ModeIndex(l, center.p) for l in range(l_lo, l_hi + 1)]
        overlap_t, _, _ = radial_overlap_matrices(row, radius, beam)
        from_center = overlap_t[center.l - l_lo].tolist()
        for idx, k in enumerate(ks):
            overlaps = [
                from_center[neighbour - l_lo]
                for neighbour in (center.l + k, center.l - k)
                if l_lo <= neighbour <= l_hi
            ]
            weights[idx] /= sum(overlaps) / len(overlaps)
    pairs = list(zip(ks, weights))
    shape = DensityProfile(
        radius=radius,
        harmonics=(Harmonic(0, 0.0),) + tuple(Harmonic(k, w) for k, w in pairs),
    )
    # 1 + A * shape is non-negative exactly up to A = -1 / min(shape) (< 0)
    amp = -1.0 / angular_minimum(shape)
    return DensityProfile(
        radius=radius,
        harmonics=tuple(Harmonic(k, amp * w, 0.0) for k, w in pairs),
    )


def design_fluxes(
    narrow_flux: float,
    wide_flux: float | None = None,
    gauge_phase: float = 0.5 * math.pi,
    radius: float = DEFAULT_RADIUS,
) -> DensityProfile:
    """Profile realizing target plaquette fluxes.

    The narrow triangle (two range-1 hops closed by a range-2 hop) encloses
    2 phase_1 - phase_2; the wide triangle (range 1 then 2 closed by 3)
    encloses phase_1 + phase_2 - phase_3. phase_1 itself is pure gauge and
    is pinned by gauge_phase. Amplitudes sum to one so the density stays
    non-negative for every phase choice.
    """
    theta1 = wrap_angle(gauge_phase)
    theta2 = wrap_angle(2.0 * theta1 - narrow_flux)
    if wide_flux is None:
        harmonics = (
            Harmonic(1, 0.75, theta1),
            Harmonic(2, 0.25, theta2),
        )
    else:
        theta3 = wrap_angle(theta1 + theta2 - wide_flux)
        third = 1.0 / 3.0
        harmonics = (
            Harmonic(1, third, theta1),
            Harmonic(2, third, theta2),
            Harmonic(3, third, theta3),
        )
    return DensityProfile(radius=radius, harmonics=harmonics)


def _triangle_offsets(kind: str) -> tuple[int, int]:
    # (middle, far) azimuthal offsets of the triangle's two upper corners
    if kind == "narrow":
        return 1, 2
    if kind == "wide":
        return 1, 3
    raise ValueError(f"kind must be 'narrow' or 'wide', got {kind!r}")


def loop_flux(couplings: CouplingSet, cycle) -> float:
    """Signed sum of hopping phases around a directed cycle of modes.

    ``cycle`` lists the modes in traversal order, as ModeIndex values or
    (l, p) pairs; the closing hop back to the first mode is implied.  Each
    leg from mode a to mode b contributes arg(t[b, a]), and the total is
    wrapped to (-pi, pi].  Gauge-invariant: per-mode phase redefinitions
    cancel around any closed loop.
    """
    modes = [m if isinstance(m, ModeIndex) else ModeIndex(*m) for m in cycle]
    if len(modes) < 2:
        raise ValueError("a cycle needs at least two modes")
    window = couplings.window
    indices = [window.index_of(m) for m in modes]
    total = 0.0
    for pos, start in enumerate(indices):
        stop = indices[(pos + 1) % len(indices)]
        amp = couplings.t[stop, start]
        if abs(amp) <= MIN_LOOP_AMPLITUDE:
            raise BrokenPlaquette(
                f"hop {modes[pos]} -> {modes[(pos + 1) % len(modes)]} has "
                f"|t| <= {MIN_LOOP_AMPLITUDE:g}; the cycle carries no flux"
            )
        total += float(np.angle(amp))
    return wrap_angle(total)


def flux_of_plaquette(
    couplings: CouplingSet, l: int, kind: str = "narrow", p: int | None = None
) -> float:
    """Gauge-invariant flux through one triangle based at azimuthal index l.

    The loop runs l -> l+1 -> l+far -> l with far = 2 ("narrow") or
    3 ("wide"), each leg taking the hopping coefficient in the direction
    of travel.
    """
    mid_off, far_off = _triangle_offsets(kind)
    if p is None:
        p = couplings.window.p_values[0]
    return loop_flux(
        couplings,
        (ModeIndex(l, p), ModeIndex(l + mid_off, p), ModeIndex(l + far_off, p)),
    )


def plaquette_fluxes(
    couplings: CouplingSet, kind: str = "narrow"
) -> list[tuple[int, int, float]]:
    """Fluxes (l, p, flux) for every interior plaquette of the window."""
    window = couplings.window
    _, far_off = _triangle_offsets(kind)
    rows = []
    for p in window.p_values:
        for l in range(window.l_min, window.l_max - far_off + 1):
            rows.append((l, p, flux_of_plaquette(couplings, l, kind, p)))
    return rows


@dataclass
class PowerLawFit:
    """Log-log fits of the designed coefficients and the measured hoppings."""

    ks: tuple[int, ...]
    coefficients: tuple[float, ...]
    hoppings: tuple[float, ...]
    coefficient_slope: float
    hopping_slope: float
    coefficient_residual: float
    hopping_residual: float


def _loglog_fit(ks, values) -> tuple[float, float]:
    if len(ks) < 2:
        return math.nan, math.nan
    coeffs, residuals, *_ = np.polyfit(
        np.log(np.asarray(ks, dtype=float)), np.log(np.asarray(values)), 1, full=True
    )
    residual = float(residuals[0]) if residuals.size else 0.0
    return float(coeffs[0]), residual


def fit_power_law(couplings: CouplingSet) -> PowerLawFit:
    """Fit the hopping decay measured from the window's central mode.

    For each active range k the hopping magnitude is averaged over the two
    k-th neighbours of the central mode (one if only one is in the window);
    both the designed coefficients c_k and these magnitudes get a log-log
    straight-line fit. An empty fit (single range) reports nan slopes.
    """
    window = couplings.window
    profile = DensityProfile.from_dict(couplings.metadata["profile"])
    center = window.central_mode
    ci = window.index_of(center)
    ks, cs, mags = [], [], []
    for k in sorted(profile.active_orders):
        sides = []
        for neighbour in (center.l + k, center.l - k):
            mode = ModeIndex(neighbour, center.p)
            if mode in window:
                sides.append(abs(couplings.t[window.index_of(mode), ci]))
        if not sides:
            continue
        ks.append(k)
        cs.append(profile.harmonic(k).c)
        mags.append(sum(sides) / len(sides))
    c_slope, c_res = _loglog_fit(ks, cs)
    t_slope, t_res = _loglog_fit(ks, mags)
    return PowerLawFit(
        ks=tuple(ks),
        coefficients=tuple(cs),
        hoppings=tuple(mags),
        coefficient_slope=c_slope,
        hopping_slope=t_slope,
        coefficient_residual=c_res,
        hopping_residual=t_res,
    )


def write_fit_report(fit: PowerLawFit, path) -> None:
    """Long-format CSV: per-range values then the fitted slopes/residuals."""
    from pathlib import Path

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = ["quantity,k,value"]
    for k, c in zip(fit.ks, fit.coefficients):
        lines.append(f"coefficient,{k},{format(c, '.17g')}")
    for k, t in zip(fit.ks, fit.hoppings):
        lines.append(f"hopping,{k},{format(t, '.17g')}")
    lines.append(f"coefficient_slope,,{format(fit.coefficient_slope, '.17g')}")
    lines.append(f"hopping_slope,,{format(fit.hopping_slope, '.17g')}")
    lines.append(f"coefficient_residual,,{format(fit.coefficient_residual, '.17g')}")
    lines.append(f"hopping_residual,,{format(fit.hopping_residual, '.17g')}")
    path.write_text("\n".join(lines) + "\n")


def write_flux_report(couplings: CouplingSet, path) -> None:
    """CSV of every interior plaquette flux, narrow triangles then wide.

    A triangle kind is reported only when the profile carries all of its
    hopping ranges (narrow: 1 and 2; wide: 1, 2 and 3) and the window is
    wide enough to hold one. If the window holds a triangle but the profile
    completes none, no loop carries flux and BrokenPlaquette is raised.
    """
    from pathlib import Path

    active = set(DensityProfile.from_dict(couplings.metadata["profile"]).active_orders)
    span = couplings.window.l_max - couplings.window.l_min
    lines = ["triangle,l,p,flux"]
    fitting, closed = [], []
    for kind in ("narrow", "wide"):
        mid_off, far_off = _triangle_offsets(kind)
        if span < far_off:
            continue
        fitting.append(kind)
        if {mid_off, far_off - mid_off, far_off} <= active:
            closed.append(kind)
    if fitting and not closed:
        raise BrokenPlaquette(
            f"the profile's hopping ranges {sorted(active)} close no "
            f"{' or '.join(fitting)} triangle; there is no flux to report"
        )
    for kind in closed:
        for l, p, flux in plaquette_fluxes(couplings, kind):
            lines.append(f"{kind},{l},{p},{format(flux, '.17g')}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
