"""Inverse design: from a target lattice to a density profile.

Each azimuthal harmonic of the cloud turns on one hopping range, its
amplitude sets the magnitude and its phase the hopping phase, so chains,
ladders, band-limited power laws and target plaquette fluxes all reduce to
choosing a small set of (order, amplitude, phase) triples subject to the
density staying non-negative.

Two array readings check a design: the mean over the central mode's k-th
neighbours (_central_mean) calibrates a power law and fits its |t|, and the
flux around directed cycles of modes (_cycle_fluxes) serves loop_flux and
plaquette_fluxes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .couplings import CouplingSet, ModeWindow, radial_overlap_matrices
from .density import DEFAULT_RADIUS, MAX_HARMONIC_ORDER, DensityProfile, Harmonic, angular_minimum
from .modes import BeamParameters, ModeIndex

__all__ = [
    "BrokenPlaquette",
    "preset_profile",
    "design_power_law",
    "design_fluxes",
    "wrap_angle",
    "loop_flux",
    "plaquette_fluxes",
    "PowerLawFit",
    "fit_power_law",
]

# a hopping leg at or below this fraction of the largest |t| carries no
# trustworthy phase; relative, so the rule means the same at every beam scale
MIN_LOOP_AMPLITUDE = 1e-12

# (middle, far) offsets of the triangle l -> l + middle -> l + far -> l
TRIANGLES = {"narrow": (1, 2), "wide": (1, 3)}


class BrokenPlaquette(ValueError):
    """A requested flux involves a hopping amplitude that vanishes."""


def wrap_angle(x: float) -> float:
    """Wrap an angle to the half-open interval (-pi, pi]."""
    return math.pi - (math.pi - x) % (2.0 * math.pi)


def _chain(phase: float = 0.9 * math.pi, strength: float = 1.0):
    """Nearest-neighbour chain: a single k=1 harmonic."""
    return (Harmonic(1, strength, phase),)


def _triangular_ladder(ratio: float = 1.0 / 3.0, phase1: float = 0.9 * math.pi, phase2: float = 1.1 * math.pi):
    """Ranges 1 and 2 together; ratio fixes t2/t1 leverage, phases the signs."""
    if ratio <= 0.0:
        raise ValueError("ratio must be positive")
    # c1 + c2 = 1 keeps the density valid for any pair of phases
    c1 = 1.0 / (1.0 + ratio)
    return (Harmonic(1, c1, phase1), Harmonic(2, ratio * c1, phase2))


def _extended_triangle(phase1: float = 0.9 * math.pi, phase2: float = 1.1 * math.pi, phase3: float = 1.02 * math.pi):
    """Ranges 1, 2 and 3 with equal weight and independent phases."""
    return tuple(Harmonic(k, 1.0 / 3.0, phase) for k, phase in enumerate((phase1, phase2, phase3), 1))


# each preset: a function from its keyword parameters to its harmonics
_PRESETS = {
    "chain": _chain,
    "triangular_ladder": _triangular_ladder,
    "extended_triangle": _extended_triangle,
}


def preset_profile(name: str, radius: float = DEFAULT_RADIUS, **params) -> DensityProfile:
    """Build one of the named preset profiles; params are its keywords."""
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r} (known: {', '.join(sorted(_PRESETS))})")
    return DensityProfile(radius=radius, harmonics=_PRESETS[name](**params))


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
    # checked before the per-range lists below are built
    if max_range > MAX_HARMONIC_ORDER:
        raise ValueError(f"max_range {max_range} exceeds the harmonic order cap {MAX_HARMONIC_ORDER}")
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
        overlap_t, _, _ = radial_overlap_matrices(row, radius / beam.waist)
        centre = center.l - l_lo
        means = _central_mean(overlap_t[centre], centre, ks).tolist()
        if 0.0 in means:
            raise ValueError(f"radius {radius:g} is too small to calibrate: a mean central overlap is 0")
        weights = [w / mean for w, mean in zip(weights, means)]
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
    narrow: float,
    wide: float | None = None,
    gauge: float = 0.5 * math.pi,
    radius: float = DEFAULT_RADIUS,
) -> DensityProfile:
    """Profile realizing target plaquette fluxes.

    The triangle l -> l+mid -> l+far -> l encloses
    phase_mid + phase_(far-mid) - phase_far, so each target flux fixes the
    phase of its triangle's far hop: 2 phase_1 - phase_2 for the narrow
    triangle, phase_1 + phase_2 - phase_3 for the wide one. phase_1 itself
    is pure gauge and is pinned by gauge. The amplitudes are those of the
    triangular_ladder preset (0.75, 0.25), or of extended_triangle (thirds)
    when a wide flux is given; they sum to one, so the density stays
    non-negative for every phase choice.
    """
    phases = {1: wrap_angle(gauge)}
    for kind, flux in (("narrow", narrow), ("wide", wide)):
        if flux is not None:
            mid, far = TRIANGLES[kind]
            phases[far] = wrap_angle(phases[mid] + phases[far - mid] - flux)
    name = "triangular_ladder" if wide is None else "extended_triangle"
    return preset_profile(name, radius, **{f"phase{k}": phase for k, phase in phases.items()})


def _central_mean(row: np.ndarray, centre: int, ks) -> np.ndarray:
    """Per range k, the mean of row[centre + k] and row[centre - k] over the
    sides that lie inside the row (each k needs at least one)."""
    ks = np.asarray(ks, dtype=int)
    sides = np.stack([centre + ks, centre - ks])
    inside = (sides >= 0) & (sides < len(row))
    values = np.where(inside, row[np.clip(sides, 0, len(row) - 1)], 0.0)
    return (values[0] + values[1]) / inside.sum(axis=0)


def _cycle_fluxes(couplings: CouplingSet, cycles: np.ndarray) -> list[float]:
    """Flux around each row of window indices, legs added in traversal
    order; BrokenPlaquette names the first dead leg in row-major order, a
    leg with |t| <= MIN_LOOP_AMPLITUDE * max|t|."""
    heads = np.roll(cycles, -1, axis=1)
    legs = couplings.t[heads, cycles]
    dead = np.abs(legs) <= MIN_LOOP_AMPLITUDE * np.max(np.abs(couplings.t))
    if dead.any():
        row, pos = np.argwhere(dead)[0]
        modes = couplings.window.modes
        raise BrokenPlaquette(
            f"hop {modes[cycles[row, pos]]} -> {modes[heads[row, pos]]} has "
            f"|t| <= {MIN_LOOP_AMPLITUDE:g} max|t|; the cycle carries no flux"
        )
    total = np.zeros(len(cycles))
    for angles in np.angle(legs).T:
        total += angles
    return [wrap_angle(x) for x in total.tolist()]


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
    indices = [couplings.window.index_of(m) for m in modes]
    return _cycle_fluxes(couplings, np.array([indices]))[0]


def plaquette_fluxes(
    couplings: CouplingSet, kind: str = "narrow"
) -> list[tuple[int, int, float]]:
    """Fluxes (l, p, flux) for every interior plaquette of the window: the
    triangle of TRIANGLES[kind] based at each l of each radial sector, each
    leg taking the hopping coefficient in the direction of travel."""
    try:
        mid, far = TRIANGLES[kind]
    except KeyError:
        raise ValueError(f"kind must be {' or '.join(map(repr, TRIANGLES))}, got {kind!r}") from None
    window = couplings.window
    # window indices, one row per radial sector, one column per l
    grid = np.arange(window.size).reshape(len(window.p_values), -1)
    bases = grid[:, : max(grid.shape[1] - far, 0)].ravel()
    fluxes = _cycle_fluxes(couplings, bases[:, None] + np.array([0, mid, far]))
    modes = window.modes
    return [(modes[b].l, modes[b].p, flux) for b, flux in zip(bases.tolist(), fluxes)]


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
    # a zero value has no logarithm: no fit, as for a single range
    if len(ks) < 2 or 0.0 in values:
        return math.nan, math.nan
    coeffs, residuals, *_ = np.polyfit(
        np.log(np.asarray(ks, dtype=float)), np.log(np.abs(values)), 1, full=True
    )
    residual = float(residuals[0]) if residuals.size else 0.0
    return float(coeffs[0]), residual


def fit_power_law(couplings: CouplingSet) -> PowerLawFit:
    """Fit the hopping decay measured from the window's central mode.

    For each active range k the hopping magnitude is averaged over the two
    k-th neighbours of the central mode (one if only one is in the window);
    both the designed coefficients c_k and these magnitudes get a log-log
    straight-line fit. The fit takes |c_k|: a negative c_k is the same
    harmonic with its phase moved by pi. The report keeps the signed c_k.
    A fit over a single range, or over a zero value, reports a nan slope
    and residual.
    """
    window = couplings.window
    profile = DensityProfile.from_dict(couplings.metadata["profile"])
    width = window.l_max - window.l_min + 1
    centre = window.index_of(window.central_mode)
    ks = [k for k in profile.active_orders if k <= width - 1 - centre]
    column = couplings.t[:width, centre]
    mags = _central_mean(np.hypot(column.real, column.imag), centre, ks).tolist()
    cs = [profile.harmonic(k).c for k in ks]
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
