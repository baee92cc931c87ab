"""Effective lattice coefficients for modes scattered off a shaped cloud.

The chemical potential, hopping and interaction integrals factorize into an
analytic azimuthal Fourier factor times a radial overlap. The radial layer
works in rho = r / w and takes no beam: radial_overlap_matrices(modes, rho)
depends on the modes and R / w alone, and compute_couplings puts 1 / w^2 on
u after the interaction scale. One adaptive Gauss-Legendre quadrature over
rho in [0, min(R / w, _extent)] gives the overlaps of every pair of modes at
once, each order evaluating all modes in one batch (radial_profiles). A
bounded memo keyed by (modes, R / w) keeps the last 64 results, so the
couplings, the power-law calibration and check's tests share one quadrature
per key; callers get copies, never the memo's own arrays. The oracle
integrates the full 2D integrand, with no factorization, on one (rho, phi)
tensor grid for every pair of a mode list; its trapezoid rule in phi takes
the exact node count max|l_n - l_m| + K + 1.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from scipy.special import roots_legendre

from .density import DensityProfile, density_at, validate_nonnegative
from .modes import BeamParameters, ModeIndex, mode_detuning, radial_profiles

__all__ = [
    "ModeWindow",
    "CouplingSet",
    "QuadratureNotConverged",
    "azimuthal_factor",
    "radial_overlap_matrices",
    "compute_couplings",
    "brute_force_coupling",
    "hopping_uniformity",
]

RADIAL_RTOL = 1e-10
RADIAL_ATOL = 1e-13
MIN_RADIAL_ORDER = 16
MAX_RADIAL_ORDER = 2**12


class QuadratureNotConverged(RuntimeError):
    """Adaptive quadrature hit its node cap before the estimates settled, or
    an estimate left the float range."""

    def __init__(self, order: int, delta: float, message: str | None = None):
        self.order = order
        self.delta = delta
        super().__init__(message or f"quadrature not converged at {order} nodes (last change {delta:.3e})")


@dataclass(frozen=True)
class ModeWindow:
    """Rectangular set of modes: azimuthal l_min..l_max times radial p_values."""

    l_min: int
    l_max: int
    p_values: tuple[int, ...] = (0,)

    def __post_init__(self):
        object.__setattr__(self, "p_values", tuple(int(p) for p in self.p_values))
        if self.l_min > self.l_max:
            raise ValueError(f"l_min {self.l_min} exceeds l_max {self.l_max}")
        if not self.p_values:
            raise ValueError("p_values must be non-empty")
        if any(p < 0 for p in self.p_values):
            raise ValueError("radial indices must be non-negative")
        if len(set(self.p_values)) != len(self.p_values):
            raise ValueError("radial indices must be distinct")
        ModeIndex(max(self.l_min, self.l_max, key=abs), max(self.p_values))  # the farthest mode meets the cap

    @cached_property
    def modes(self) -> tuple[ModeIndex, ...]:
        return tuple(
            ModeIndex(l, p)
            for p in self.p_values
            for l in range(self.l_min, self.l_max + 1)
        )

    @property
    def size(self) -> int:
        return (self.l_max - self.l_min + 1) * len(self.p_values)

    @cached_property
    def _index(self) -> dict[ModeIndex, int]:
        return {mode: i for i, mode in enumerate(self.modes)}

    def index_of(self, mode: ModeIndex) -> int:
        try:
            return self._index[mode]
        except KeyError:
            raise KeyError(f"mode {mode} is outside the window") from None

    def __contains__(self, mode: ModeIndex) -> bool:
        return mode in self._index

    @property
    def central_mode(self) -> ModeIndex:
        """Mode at the middle azimuthal index of the first radial sector."""
        return ModeIndex((self.l_min + self.l_max) // 2, self.p_values[0])

    def to_dict(self) -> dict:
        return {"l_min": self.l_min, "l_max": self.l_max, "p_values": list(self.p_values)}


@dataclass
class CouplingSet:
    """Lattice coefficients over a mode window.

    mu is real, t complex Hermitian with a zero stored diagonal (the diagonal
    overlap is folded into mu), u symmetric non-negative; interaction_sign
    records whether u enters the many-body energy attractively or repulsively.
    """

    window: ModeWindow
    mu: np.ndarray
    t: np.ndarray
    u: np.ndarray
    interaction_sign: str
    metadata: dict = field(default_factory=dict)

    @property
    def size(self) -> int:
        return self.window.size


@lru_cache(maxsize=64)
def _gauss_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    # scipy's Newton-based nodes stay cheap at the highest orders
    return roots_legendre(order)


def azimuthal_factor(delta_l: int, profile: DensityProfile) -> complex:
    """Fourier integral of the angular density against exp(-i delta_l phi).

    Nonzero only when |delta_l| is an order carried by the profile:
    2 pi c_0 cos(phase_0) at delta_l = 0, and pi c_k exp(+-i phase_k) at
    delta_l = +-k. A hop raising l by k therefore carries the phase +phase_k.
    """
    if delta_l == 0:
        h = profile.harmonic(0)
        return complex(2.0 * np.pi * h.c * np.cos(h.phase))
    h = profile.harmonic(abs(delta_l))
    if h is None or h.c == 0.0:
        return 0j
    sign = 1.0 if delta_l > 0 else -1.0
    return np.pi * h.c * np.exp(sign * 1j * h.phase)


def _adaptive_radial(estimate, upper: float) -> tuple[np.ndarray, int]:
    """Gauss-Legendre on [0, upper] with order doubling until every entry of
    the estimate settles to a 1e-10 relative tolerance (absolute floor 1e-13
    so essentially-zero overlaps terminate).

    estimate(r, wr) returns an array of quadrature sums over the nodes r with
    weights wr, which already include the r of the area element. It runs
    with numpy's overflow warnings off; the first non-finite estimate stops.
    """
    previous = None
    delta = math.inf
    order = MIN_RADIAL_ORDER
    while order <= MAX_RADIAL_ORDER:
        x, w = _gauss_nodes(order)
        r = 0.5 * (x + 1.0) * upper
        with np.errstate(over="ignore", invalid="ignore"):
            value = np.asarray(estimate(r, 0.5 * upper * w * r))
        if not np.isfinite(value).all():  # more nodes cannot bring it back
            raise QuadratureNotConverged(order, delta, f"radial quadrature estimate is not finite at {order} nodes")
        if previous is not None:
            change = np.abs(value - previous)
            delta = float(np.max(change))
            if np.all(change <= np.maximum(RADIAL_RTOL * np.abs(value), RADIAL_ATOL)):
                return value, order
        previous = value
        order *= 2
    raise QuadratureNotConverged(order // 2, delta)


def _extent(modes) -> float:
    """Radius in waists where the modes end, for the largest order N: no outer
    turning point lies past sqrt(N + 1), and six waists further out the
    Gaussian tail is below double precision. Never less than 12 waists."""
    return max(12.0, math.sqrt(max(mode.order for mode in modes) + 1) + 6.0)


@lru_cache(maxsize=64)
def _radial_overlaps(modes: tuple[ModeIndex, ...], rho: float):
    # the waist-free overlaps of a disk of rho waists, stored read-only
    def gram(r, wr):
        g = radial_profiles(modes, r)
        root = np.sqrt(wr)
        a = g * root
        b = g * a
        return np.stack([np.einsum("ik,jk->ij", a, a), np.einsum("ik,jk->ij", b, b)])

    (overlap_t, overlap_u), order = _adaptive_radial(gram, min(rho, _extent(modes)))
    overlap_t.flags.writeable = overlap_u.flags.writeable = False
    return overlap_t, overlap_u, order


def radial_overlap_matrices(modes, rho: float) -> tuple[np.ndarray, np.ndarray, int]:
    """Radial overlaps of every pair of modes on a disk of rho waists.

    Returns T[i, j] = integral of g_i g_j rho drho, U[i, j] = integral of
    g_i^2 g_j^2 rho drho, and the Gauss-Legendre order at which every entry
    of both converged. The quadrature runs up to min(rho, _extent(modes)),
    so rho may be 0 (zero overlaps) or math.inf. All modes are evaluated in
    one batch per order (radial_profiles). Each weight is split as its
    square root onto both factors, so T and U are Gram matrices that are
    exactly symmetric; einsum reduces in a fixed order without BLAS, so the
    bits do not depend on the BLAS thread count. The overlaps are memoized
    by (modes, rho), the last 64 keys; the caller gets fresh copies.
    A QuadratureNotConverged is raised on every call, never memoized.
    """
    if not rho >= 0:
        raise ValueError(f"rho must be non-negative, got {rho}")
    overlap_t, overlap_u, order = _radial_overlaps(tuple(modes), rho)
    return overlap_t.copy(), overlap_u.copy(), order


# an overflow leaves an inf or nan entry, rejected before return
@np.errstate(over="ignore", invalid="ignore")
def compute_couplings(window: ModeWindow, profile: DensityProfile, beam: BeamParameters) -> CouplingSet:
    """Assemble the chemical potential vector and hopping/interaction matrices.

    Every entry factorizes into the analytic azimuthal factor times a radial
    overlap, and one batched quadrature gives the overlaps of all pairs.
    Entries whose azimuthal index difference matches no harmonic of the
    profile are exact zeros. t is built from its upper triangle and mirrored,
    so it is exactly Hermitian; u is exactly symmetric because its radial
    overlaps are. Scales or amplitudes that carry an entry past the float
    range raise ValueError, naming the matrix.
    """
    validate_nonnegative(profile)
    modes = window.modes
    count = len(modes)
    w = beam.waist
    overlap_t, overlap_u, order = radial_overlap_matrices(modes, profile.radius / w)
    g_scale = beam.first_order_scale * beam.longitudinal_fill
    u_scale = beam.second_order_scale * beam.longitudinal_fill
    a0 = azimuthal_factor(0, profile).real

    detuning = np.array([mode_detuning(mode, beam) for mode in modes])
    mu = g_scale * a0 * np.diag(overlap_t) + detuning

    ls = np.array([mode.l for mode in modes])
    span = window.l_max - window.l_min
    factors = np.array([azimuthal_factor(dl, profile) for dl in range(-span, span + 1)])
    upper = np.triu_indices(count, 1)
    az = factors[ls[upper[0]] - ls[upper[1]] + span]
    # an exact +0 where no harmonic links the modes (a negative overlap would give -0)
    hop = np.where(az != 0j, g_scale * az * overlap_t[upper], 0j)
    t = np.zeros((count, count), dtype=complex)
    t[upper] = hop
    t[upper[::-1]] = hop.conj()

    u = u_scale * a0 * overlap_u / w / w
    for name, matrix in (("mu", mu), ("t", t), ("u", u)):
        if not np.isfinite(matrix).all():
            raise ValueError(f"{name} is not finite: the beam parameters or harmonic amplitudes overflow it")

    metadata = {
        "profile": profile.to_dict(),
        "beam": asdict(beam),
        "window": window.to_dict(),
        "quadrature": {"radial_orders": [order], "rtol": RADIAL_RTOL, "atol": RADIAL_ATOL},
        "conventions": {
            "mode_phase": "exp(-i l phi)",
            "hopping_term": "t[i, j] multiplies bdag_i b_j (normal ordered)",
            "hopping_phase": "hop from l to l+k carries phase +phase_k",
            "diagonal": "overlap diagonal folded into mu; t[i, i] stored as 0",
        },
    }
    return CouplingSet(window=window, mu=mu, t=t, u=u, interaction_sign=beam.interaction_sign, metadata=metadata)


def _oracle_integrals(modes, profile: DensityProfile, beam: BeamParameters) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Full 2D quadrature of every coupling integral of a mode list.

    Returns T[n, m] = g_scale * integral of density f_n conj(f_m) (its
    diagonal is mu less the detuning), U[n, m] = u_scale * integral of
    density |f_n|^2 |f_m|^2, both over the radial overlaps' rho range, the
    radial order reached and the azimuthal node count; no azimuthal factor.
    As in compute_couplings, the scales multiply after the quadrature, and
    so does the density's amplitude, as the power of two at or below max|c_k|.
    """
    validate_nonnegative(profile)
    ls = [mode.l for mode in modes]
    winding = np.array([-1j * l for l in ls])  # -i l, the winding of exp(-i l phi)
    # f_n conj(f_m) carries exp(-i (l_n - l_m) phi) and the density orders up
    # to K, so no phi frequency exceeds max|l_n - l_m| + K. The n-point
    # trapezoid rule integrates exp(i q phi) exactly for |q| < n, so one node
    # more than that bound is exact; more nodes move only the round-off.
    n_phi = max(ls) - min(ls) + max(profile.active_orders, default=0) + 1
    step = 2.0 * np.pi / n_phi
    phi = np.arange(n_phi) * step
    w = beam.waist
    amplitude = math.ldexp(1.0, math.frexp(max(abs(h.c) for h in profile.harmonics))[1] - 1)

    def integrals(rho, wr):
        phi_grid, rho_grid = phi[:, None], rho[None, :]  # one row per azimuthal node
        weights = density_at(profile, rho_grid * w, phi_grid) / amplitude * wr * step
        # f[n, phi, rho] = g_n(rho) exp(-i l_n phi)
        f = radial_profiles(modes, rho_grid) * np.exp(winding[:, None, None] * phi_grid)
        power = np.abs(f) ** 2
        # each row summed over rho, then the rows: two short sums keep the
        # round-off near the radial overlaps', one long sum does not. einsum
        # reduces in a fixed order without BLAS, for thread-independent bits.
        t = np.einsum("ipr,jpr->ijp", f * weights, f.conj()).sum(axis=-1)
        u = np.einsum("ipr,jpr->ijp", power * weights, power).sum(axis=-1)
        return np.stack([t, u])

    (overlap_t, overlap_u), order = _adaptive_radial(integrals, min(profile.radius / w, _extent(modes)))
    g_scale = beam.first_order_scale * beam.longitudinal_fill
    u_scale = beam.second_order_scale * beam.longitudinal_fill
    with np.errstate(over="ignore"):
        return g_scale * (amplitude * overlap_t), u_scale * (amplitude * overlap_u.real) / w / w, order, n_phi


def brute_force_coupling(
    n: ModeIndex,
    m: ModeIndex,
    kind: str,
    profile: DensityProfile,
    beam: BeamParameters,
) -> complex:
    """Full 2D quadrature of one coupling integral, with no factorization.

    A one-pair view of the oracle: adaptive Gauss-Legendre in r, trapezoid
    in phi at the exact node count |l_n - l_m| + K + 1. kind selects the
    integrand: "t" pairs the two mode profiles, "u" their squared magnitudes,
    "mu" uses |f_n|^2 alone (m is ignored, no detuning offset).
    """
    if kind not in ("t", "u", "mu"):
        raise ValueError(f"kind must be 't', 'u' or 'mu', got {kind!r}")
    overlap_t, overlap_u, _, _ = _oracle_integrals((n,) if kind == "mu" else (n, m), profile, beam)
    return complex((overlap_u if kind == "u" else overlap_t)[0, -1])


def hopping_uniformity(couplings: CouplingSet) -> dict[int, dict[str, float]]:
    """Spread of |t| across the window for each hopping range k.

    For every active range the magnitudes |t[n, n+k]| along each radial
    sector are collected and summarized; rel_spread is (max - min) / mean.
    The azimuthal dependence of the radial overlaps makes this spread
    nonzero in general; it is reported, not bounded.
    """
    window = couplings.window
    sectors, width = len(window.p_values), window.l_max - window.l_min + 1
    # the (p, p) diagonal blocks of t: the hops inside each radial sector
    blocks = np.einsum("aiaj->aij", couplings.t.reshape(sectors, width, sectors, width))
    report: dict[int, dict[str, float]] = {}
    for k in range(1, width):
        t = np.diagonal(blocks, offset=k, axis1=1, axis2=2).ravel()
        mags = np.hypot(t.real, t.imag)  # the scalar abs() bit for bit
        if not mags.any():
            continue
        mean = float(mags.mean())
        report[k] = {
            "mean": mean,
            "min": float(mags.min()),
            "max": float(mags.max()),
            "rel_spread": float((mags.max() - mags.min()) / mean) if mean else 0.0,
        }
    return report
