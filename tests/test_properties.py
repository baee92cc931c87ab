"""Property tests over random profiles and windows.

The density validator is checked against a certificate: on a grid of
spacing h the true minimum lies within sum_k k^2 |c_k| h^2 / 8 below the
grid minimum, so the exact minimum must fall in that bracket, and its
verdict does not move when every amplitude scales by a power of two. Designed
power-law profiles must sit exactly on the non-negativity boundary.
Every row of the batched radial profiles is the per-mode formula bit for
bit. The coupling layer runs on windows of up to 12 modes: exact
Hermiticity, symmetry and selection-rule zeros, every entry within the
tolerances of ``check``'s 2D oracle, gauge covariance under rotation, phase-blindness of
u, exact scaling under powers of two of the beam scales, the amplitudes or
the waist with the radius, with no check verdict moved, and the p = 0
radial overlaps against their closed form in the regularized incomplete
gamma function, also at waists from 1e-300 to 1e300
and on disks far wider than the modes. The memoized radial overlaps are
the uncached quadrature bit for bit, stay intact when a caller writes to
its copy, and are shared by every beam and radius of equal R / w. The design layer's
array readings equal their per-entry forms bit for bit: plaquette fluxes
the per-leg loop over each triangle (broken windows with the same message),
the fit's hoppings and the power-law calibration the per-range neighbour
mean. The many-body layer keeps
windows to at most 4 modes and 3 particles, so the operator-algebra oracle
(dimension (N + 1) ** modes) and a full dense solve stay cheap; time
evolution on any grid of times matches the dense propagator. Exactly real
hoppings build a float64 Hamiltonian, solved and evolved as its complex
copy is, while the same lattice with its signs written as phase pi stays
complex. The output
layer writes every float field exactly as ``format(x, ".17g")`` does, and the
heatmap's |t| column is the scalar ``abs`` bit for bit. The config parser
builds each section from the keys it holds, leaving the rest to the class
defaults, and rejects any one field, section or list item swapped for a value
of another JSON kind as a ConfigError. No schema-valid config with numbers
across the float range makes ``main`` exit 1 (an unexpected error).
"""

import copy
import dataclasses
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import gamma, gammainc, gammaln, roots_legendre

from lglattice import (
    BeamParameters,
    BrokenPlaquette,
    CouplingSet,
    DensityProfile,
    Harmonic,
    ManyBodyOperator,
    ModeIndex,
    ModeWindow,
    NonPhysicalDensity,
    angular_minimum,
    build_basis,
    build_hamiltonian,
    compute_couplings,
    design_fluxes,
    design_power_law,
    eigensolve,
    fit_power_law,
    loop_flux,
    normalization_constant,
    plaquette_fluxes,
    radial_overlap_matrices,
    radial_profiles,
    rotate,
    time_evolve,
    validate_nonnegative,
)
from lglattice.cli import CHECKS, GAUGE_T_RTOL, TASKS, ConfigError, RunConfig, main, parse_config
from lglattice.density import NEGATIVITY_TOLERANCE
from lglattice.design import MIN_LOOP_AMPLITUDE, TRIANGLES, wrap_angle
from lglattice.io import write_table
import lglattice.couplings as couplings
import lglattice.manybody as manybody
from lglattice.manybody import RESIDUAL_RTOL
from conftest import dense_evolution, kron_hamiltonian, per_mode_radial_profile

# print_blob: a falsified property prints the @reproduce_failure line that replays it
PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, print_blob=True)
PHASES = st.floats(-math.pi, math.pi)


@st.composite
def windows(draw, max_modes=4, p_choices=((0,), (0, 1))):
    p_values = draw(st.sampled_from(p_choices))
    count = draw(st.integers(1, max_modes // len(p_values)))
    l_min = draw(st.integers(-3, 3))
    return ModeWindow(l_min, l_min + count - 1, p_values=p_values)


WIDE_WINDOWS = windows(max_modes=12, p_choices=((0,), (0, 1), (0, 1, 2)))


@st.composite
def profiles(draw, max_order=3, max_count=3, max_total=0.95, min_count=0):
    """Random profile whose amplitudes sum to at most the mean density, so it
    is non-negative whatever the phases."""
    orders = draw(st.lists(st.integers(1, max_order), min_size=min_count, max_size=max_count, unique=True))
    weights = [draw(st.floats(0.05, 1.0)) for _ in orders]
    total = draw(st.floats(0.1, max_total))
    harmonics = tuple(
        Harmonic(k, total * w / sum(weights), draw(PHASES))
        for k, w in zip(orders, weights)
    )
    return DensityProfile(radius=draw(st.floats(3.0, 5.0)), harmonics=harmonics)


@st.composite
def any_sign_profiles(draw):
    """Orders 1-8 with amplitudes summing up to 1.5: valid and invalid alike.
    Every other profile, on average, has all phases zero."""
    orders = draw(st.lists(st.integers(1, 8), min_size=1, max_size=8, unique=True))
    weights = [draw(st.floats(0.05, 1.0)) for _ in orders]
    total = draw(st.floats(0.0, 1.5))
    phases = st.just(0.0) if draw(st.booleans()) else PHASES
    harmonics = tuple(
        Harmonic(k, total * w / sum(weights), draw(phases))
        for k, w in zip(orders, weights)
    )
    return DensityProfile(harmonics=harmonics)


@st.composite
def signed_lattices(draw):
    """A window, a beam and two spellings of one profile: phase 0 on every
    harmonic with a random sign on its amplitude, which keeps t exactly real,
    and the same density with each negative amplitude written as phase pi."""
    profile = draw(profiles())
    flips = [h.k > 0 and draw(st.booleans()) for h in profile.harmonics]
    signed = tuple(Harmonic(h.k, -h.c if flip else h.c) for h, flip in zip(profile.harmonics, flips))
    phased = tuple(Harmonic(h.k, h.c, math.pi if flip else 0.0) for h, flip in zip(profile.harmonics, flips))
    beam = BeamParameters(interaction_sign=draw(st.sampled_from(["attractive", "repulsive"])))
    return (
        draw(windows()),
        beam,
        DensityProfile(profile.radius, signed),
        DensityProfile(profile.radius, phased),
    )


@st.composite
def coupling_sets(draw):
    profile = draw(profiles())
    beam = BeamParameters(interaction_sign=draw(st.sampled_from(["attractive", "repulsive"])))
    return compute_couplings(draw(windows()), profile, beam)


beams = st.builds(BeamParameters, waist=st.floats(0.7, 1.3))


@PROPERTY_SETTINGS
@given(window=WIDE_WINDOWS, profile=profiles(max_order=5), beam=beams)
def test_couplings_hermitian_symmetric_and_selection_ruled(window, profile, beam):
    couplings = compute_couplings(window, profile, beam)
    t, u = couplings.t, couplings.u
    assert np.array_equal(t, t.conj().T)
    assert np.all(np.diag(t) == 0j)
    assert np.array_equal(u, u.T)
    ls = np.array([mode.l for mode in window.modes])
    dl = np.abs(ls[:, None] - ls[None, :])
    forbidden = ~np.isin(dl, (0,) + profile.active_orders)
    assert np.all(t[forbidden] == 0j)


@PROPERTY_SETTINGS
@given(
    window=windows(max_modes=12),
    profile=profiles(max_order=8, max_count=8, max_total=1.0),
    # a nonzero Gouy rate puts a detuning into mu, which the oracle adds to T_nn
    beam=st.builds(BeamParameters, waist=st.floats(0.7, 1.3), gouy_rate=st.floats(0.0, 0.5)),
)
def test_check_oracle_passes_every_entry(window, profile, beam):
    config = RunConfig(window=window, beam=beam, profile=profile)
    couplings = compute_couplings(window, profile, beam)
    selection, oracle = (CHECKS[name](config, couplings) for name in ("selection_rule", "oracle"))
    assert selection["passed"] and oracle["passed"], oracle
    entries = oracle["entries"]
    assert entries["mu"] == window.size and entries["u"] == window.size**2
    assert entries["t_allowed"] + entries["t_forbidden"] == window.size * (window.size - 1)


@PROPERTY_SETTINGS
@given(window=WIDE_WINDOWS, profile=profiles(), beam=beams, alpha=PHASES)
def test_rotation_is_a_gauge_transformation(window, profile, beam, alpha):
    base = compute_couplings(window, profile, beam)
    turned = compute_couplings(window, rotate(profile, alpha), beam)
    ls = np.array([mode.l for mode in window.modes])
    expected = base.t * np.exp(-1j * alpha * (ls[:, None] - ls[None, :]))
    assert np.max(np.abs(turned.t - expected)) <= GAUGE_T_RTOL * np.max(np.abs(base.t))


def checked(window, profile, beam, design=None):
    """The couplings and the verdict of every applicable row of CHECKS."""
    config = RunConfig(window=window, beam=beam, profile=profile, design=design)
    couplings = compute_couplings(window, profile, beam)
    entries = {name: rule(config, couplings) for name, rule in CHECKS.items()}
    return couplings, {name: entry["passed"] for name, entry in entries.items() if entry is not None}


SCALE_POWERS = st.integers(-40, 40)
# no design, or a fluxes design, whose flux_roundtrip check reads plaquette_fluxes
flux_designs = st.none() | st.builds(lambda narrow, wide: {"kind": "fluxes", "narrow": narrow, "wide": wide},
                                     PHASES, PHASES)
scaled_beams = st.builds(
    BeamParameters, waist=st.floats(0.7, 1.3), gouy_rate=st.floats(0.0, 0.5), second_order_scale=st.floats(0.01, 1.0)
)


def assert_scaled(moved, base, factor):
    """moved is factor * base bit for bit on every real and imaginary
    component that is zero or normal in both. IEEE rounds a subnormal at a
    fixed absolute spacing, 2^-1074, which no scaling keeps: where either
    value is subnormal, the two agree within max(1, factor) * 2^-1074."""
    moved, base = (np.concatenate([np.ravel(np.real(x)), np.ravel(np.imag(x))]) for x in (moved, base))
    expected = factor * base
    subnormal = np.zeros(moved.shape, dtype=bool)
    for values in (moved, base):
        subnormal |= (values != 0.0) & (np.abs(values) < np.finfo(float).tiny)
    assert np.array_equal(moved[~subnormal], expected[~subnormal])
    assert np.all(np.abs(moved - expected)[subnormal] <= max(1.0, factor) * 2.0**-1074)


def subnormal_hoppings(**fixed):
    """Pins drawn cases whose t has a subnormal component, from a phase below
    the smallest normal float: each failed a bit-exact assertion at j = 1."""
    def pin(test):
        for phase, p_values in ((2.2e-311, (0,)), (2.2e-309, (0, 1)), (7.5e-308, (0, 1))):
            profile = DensityProfile(4.0, (Harmonic(1, 0.3, phase),))
            test = example(window=ModeWindow(0, 1, p_values=p_values), profile=profile, j=1, **fixed)(test)
        return test
    return pin


# a power of two scales a normal float without rounding, so these are exact
@PROPERTY_SETTINGS
@given(window=windows(max_modes=6), profile=profiles(), beam=scaled_beams, design=flux_designs, j=SCALE_POWERS)
@subnormal_hoppings(beam=BeamParameters(), design=None)
# legs of about 0.1 * 2^-40 fell under an absolute 1e-12 dead-leg floor
@example(window=ModeWindow(-3, 2), profile=DensityProfile(), beam=BeamParameters(),
         design={"kind": "fluxes", "narrow": math.pi, "wide": math.pi / 2}, j=-40)
def test_beam_scales_scale_couplings_exactly(window, profile, beam, design, j):
    if design is not None:
        profile = design_fluxes(design["narrow"], design["wide"], radius=profile.radius)
    factor = 2.0**j
    scaled = dataclasses.replace(
        beam,
        first_order_scale=beam.first_order_scale * factor,
        second_order_scale=beam.second_order_scale * factor,
        gouy_rate=beam.gouy_rate * factor,
    )
    base, verdicts = checked(window, profile, beam, design)
    moved, moved_verdicts = checked(window, profile, scaled, design)
    for name in ("mu", "t", "u"):
        assert_scaled(getattr(moved, name), getattr(base, name), factor)
    assert moved_verdicts == verdicts
    assert ("flux_roundtrip" in verdicts) == (design is not None)
    if design is not None:
        for kind in TRIANGLES:
            assert bits(plaquette_fluxes(moved, kind)) == bits(plaquette_fluxes(base, kind))


@PROPERTY_SETTINGS
@given(window=windows(max_modes=6), profile=profiles(), beam=scaled_beams, j=SCALE_POWERS)
def test_waist_and_radius_scale_only_u(window, profile, beam, j):
    factor = 2.0**j
    wide = DensityProfile(radius=profile.radius * factor, harmonics=profile.harmonics)
    base, verdicts = checked(window, profile, beam)
    moved, moved_verdicts = checked(window, wide, dataclasses.replace(beam, waist=beam.waist * factor))
    assert np.array_equal(moved.mu, base.mu)
    assert np.array_equal(moved.t, base.t)
    assert np.array_equal(moved.u, base.u / 4.0**j)
    assert moved_verdicts == verdicts


@PROPERTY_SETTINGS
@given(window=windows(max_modes=6), profile=profiles(), j=SCALE_POWERS)
@subnormal_hoppings()
def test_density_amplitudes_scale_couplings_exactly(window, profile, j):
    # the oracle integrates the density at its own scale too
    factor = 2.0**j
    louder = DensityProfile(profile.radius, tuple(Harmonic(h.k, h.c * factor, h.phase) for h in profile.harmonics))
    base, verdicts = checked(window, profile, BeamParameters())
    moved, moved_verdicts = checked(window, louder, BeamParameters())
    for name in ("mu", "t", "u"):
        assert_scaled(getattr(moved, name), getattr(base, name), factor)
    assert moved_verdicts == verdicts


FLOAT_LADDER = [0.0, 1e-300, 1e-150, 1e-30, 1e-8, 1e-3, 0.5, 1.0, 3.0, 1e3, 1e8, 1e30, 1e150, 1e300]


@st.composite
def schema_configs(draw):
    """Schema-valid configs whose numbers span the float range, a few of
    them negative: small windows, at most 3 particles."""
    def number(negative=0.1):
        value = draw(st.sampled_from(FLOAT_LADDER))
        return -value if value and draw(st.floats(0.0, 1.0)) < negative else value

    def some(keys):
        return {key: number() for key in keys if draw(st.booleans())}

    l_min = draw(st.integers(-4, 4))
    config = {
        "window": {"l_min": l_min, "l_max": draw(st.integers(l_min, min(4, l_min + 4))),
                   "p_values": draw(st.sampled_from([[0], [0, 1], [1, 2], [0, 2]]))},
        "beam": some(("waist", "gouy_rate", "longitudinal_fill", "first_order_scale", "second_order_scale")),
        "particles": draw(st.integers(0, 3)),
    }
    kind = draw(st.sampled_from(["profile", "preset", "power_law", "fluxes"]))
    if kind == "profile":
        orders = draw(st.lists(st.integers(0, 4), max_size=3, unique=True))
        config["profile"] = {**some(("radius",)), "harmonics": [{"k": k, "c": number(), "phase": number(0.5)} for k in orders]}
        return config
    design = {"kind": kind, **some(("radius",))}
    if kind == "preset":
        design["name"] = draw(st.sampled_from(["chain", "triangular_ladder", "extended_triangle"]))
    elif kind == "power_law":
        design.update(beta=number(), max_range=draw(st.integers(1, 3)))
    else:
        design.update(narrow=number(0.5), **some(("wide", "gauge")))
    config["design"] = design
    return config


# the contract of main: any schema-valid config exits with a documented
# code, and no numpy warning escapes as an unexpected error (exit 1); a
# fixed seed keeps the examples repeatable. The example's oracle u leaves
# the float range (1 / w^2 on the round-off of a mean-zero density): its
# check fails (exit 7) instead of warning.
@settings(max_examples=200, deadline=None, derandomize=True)
@given(command=st.sampled_from(["compute", "design", "diagonalize", "check"]), config=schema_configs())
@example(command="check", config={
    "window": {"l_min": 2, "l_max": 4}, "beam": {"waist": 1e-300, "gouy_rate": 3.0, "first_order_scale": 1e30},
    "profile": {"radius": 0.5, "harmonics": [{"k": 0, "c": 0.0}, {"k": 2, "c": 1e-150}, {"k": 4, "c": 1e-150, "phase": 0.5}]},
})
def test_no_schema_valid_config_is_an_unexpected_error(command, config):
    with tempfile.TemporaryDirectory() as out, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main([command, "--config", json.dumps(config), "--out", out])
        record = Path(out, "error.json")
        assert code != 1, record.read_text() if record.exists() else code


@PROPERTY_SETTINGS
@given(window=WIDE_WINDOWS, profile=profiles(), beam=beams, data=st.data())
def test_interactions_blind_to_harmonic_phases(window, profile, beam, data):
    # the k = 0 phase scales the mean density, so only k >= 1 phases move
    rephased = DensityProfile(
        radius=profile.radius,
        harmonics=tuple(
            Harmonic(h.k, h.c, data.draw(PHASES) if h.k else h.phase)
            for h in profile.harmonics
        ),
    )
    base = compute_couplings(window, profile, beam)
    assert np.array_equal(compute_couplings(window, rephased, beam).u, base.u)


@PROPERTY_SETTINGS
@given(profile=any_sign_profiles())
def test_density_minimum_within_grid_certificate(profile):
    phi, h = np.linspace(0.0, 2 * np.pi, 2**16, endpoint=False, retstep=True)
    grid = sum(c * np.cos(k * phi + phase) for k, c, phase in profile.harmonics)
    # |f''| <= sum k^2 |c_k| bounds how far f dips between grid points
    slack = sum(k * k * abs(c) for k, c, _ in profile.harmonics) * h * h / 8
    lower = float(grid.min()) - slack - 1e-13
    upper = float(grid.min()) + 1e-13
    minimum = angular_minimum(profile)
    assert lower <= minimum <= upper
    # so a bracket wholly below the tolerance at the density's own scale,
    # -NEGATIVITY_TOLERANCE * max|c_k| with k = 0 included, raises; one above passes
    if minimum < -NEGATIVITY_TOLERANCE * max(abs(h.c) for h in profile.harmonics):
        with pytest.raises(NonPhysicalDensity) as excinfo:
            validate_nonnegative(profile)
        assert excinfo.value.minimum == minimum
    else:
        assert validate_nonnegative(profile) == minimum


# a minimum of -5e-10 at amplitude 1 reads -2e-9 at 4: one density, one verdict
@PROPERTY_SETTINGS
@given(profile=any_sign_profiles(), j=SCALE_POWERS)
@example(profile=DensityProfile(harmonics=(Harmonic(1, 1.0 + 5e-10),)), j=2)
def test_density_verdict_is_scale_free(profile, j):
    def physical(profile):
        try:
            validate_nonnegative(profile)
        except NonPhysicalDensity:
            return False
        return True

    scaled = DensityProfile(profile.radius, tuple(h._replace(c=h.c * 2.0**j) for h in profile.harmonics))
    assert physical(scaled) == physical(profile)


@PROPERTY_SETTINGS
@given(profile=any_sign_profiles(), alpha=PHASES)
def test_density_minimum_rotation_invariant(profile, alpha):
    assert abs(angular_minimum(rotate(profile, alpha)) - angular_minimum(profile)) <= 1e-12


@PROPERTY_SETTINGS
@given(
    beta=st.floats(0.0, 3.0),
    max_range=st.integers(1, 7),
    calibrate=st.booleans(),
    beam=beams,
)
def test_power_law_design_on_validity_boundary(beta, max_range, calibrate, beam):
    window = ModeWindow(-max_range, max_range)
    profile = design_power_law(beta, max_range, window=window, beam=beam, calibrate=calibrate)
    assert abs(angular_minimum(profile)) <= 1e-12
    pushed = DensityProfile(
        radius=profile.radius,
        harmonics=tuple(
            Harmonic(h.k, (1 + 1e-6) * h.c, h.phase) for h in profile.harmonics if h.k
        ),
    )
    with pytest.raises(NonPhysicalDensity):
        validate_nonnegative(pushed)


DESIGN_WINDOWS = windows(max_modes=12)


def per_leg_loop_flux(couplings, cycle):
    """The cycle flux one leg at a time, in traversal order; a leg is dead
    at or below MIN_LOOP_AMPLITUDE of the largest |t| in the window."""
    window = couplings.window
    t_max = max(abs(amp) for amp in couplings.t.ravel().tolist())
    total = 0.0
    for pos, start in enumerate(cycle):
        stop = cycle[(pos + 1) % len(cycle)]
        amp = couplings.t[window.index_of(stop), window.index_of(start)]
        if abs(amp) <= MIN_LOOP_AMPLITUDE * t_max:
            raise BrokenPlaquette(
                f"hop {start} -> {stop} has "
                f"|t| <= {MIN_LOOP_AMPLITUDE:g} max|t|; the cycle carries no flux"
            )
        total += float(np.angle(amp))
    return wrap_angle(total)


def bits(rows):
    return [tuple(x.hex() if isinstance(x, float) else x for x in row) for row in rows]


@PROPERTY_SETTINGS
@given(window=DESIGN_WINDOWS, profile=profiles(min_count=2), beam=beams, kind=st.sampled_from(sorted(TRIANGLES)))
def test_plaquette_fluxes_are_the_per_triangle_loops(window, profile, beam, kind):
    # two of the orders 1-3 or all three: some triangles close, some break
    couplings = compute_couplings(window, profile, beam)
    mid, far = TRIANGLES[kind]
    triangles = [
        (ModeIndex(l, p), ModeIndex(l + mid, p), ModeIndex(l + far, p))
        for p in window.p_values for l in range(window.l_min, window.l_max - far + 1)
    ]
    expected = []
    try:
        for cycle in triangles:
            flux = per_leg_loop_flux(couplings, cycle)
            assert loop_flux(couplings, cycle).hex() == flux.hex()
            expected.append((cycle[0].l, cycle[0].p, flux))
    except BrokenPlaquette as exc:
        # the first dead leg in traversal order names the same hop everywhere
        for reader in (lambda: loop_flux(couplings, cycle), lambda: plaquette_fluxes(couplings, kind)):
            with pytest.raises(BrokenPlaquette) as caught:
                reader()
            assert str(caught.value) == str(exc)
        return
    rows = plaquette_fluxes(couplings, kind)
    assert bits(rows) == bits(expected)
    assert all(type(l) is int and type(p) is int and type(f) is float for l, p, f in rows)


@PROPERTY_SETTINGS
@given(window=DESIGN_WINDOWS, profile=profiles(), beam=beams)
def test_fit_hoppings_are_the_per_range_neighbour_means(window, profile, beam):
    couplings = compute_couplings(window, profile, beam)
    centre = window.central_mode
    ks, means = [], []
    for k in profile.active_orders:
        sides = [
            abs(couplings.t[window.index_of(mode), window.index_of(centre)])
            for mode in (ModeIndex(centre.l + k, centre.p), ModeIndex(centre.l - k, centre.p))
            if mode in window
        ]
        if sides:
            ks.append(k)
            means.append(sum(sides) / len(sides))
    fit = fit_power_law(couplings)
    assert fit.ks == tuple(ks)
    assert bits([fit.hoppings]) == bits([tuple(float(m) for m in means)])


@PROPERTY_SETTINGS
@given(window=DESIGN_WINDOWS, beta=st.floats(0.0, 3.0), radius=st.floats(2.5, 5.0), beam=beams, data=st.data())
def test_calibrated_power_law_is_the_per_range_loop(window, beta, radius, beam, data):
    center = window.central_mode
    reach = window.l_max - center.l
    assume(reach >= 1)
    max_range = data.draw(st.integers(1, reach))
    # the calibration one range at a time over the central mode's row
    ks = list(range(1, max_range + 1))
    weights = [float(k) ** (-beta) for k in ks]
    l_lo = max(window.l_min, center.l - max_range)
    l_hi = min(window.l_max, center.l + max_range)
    row = [ModeIndex(l, center.p) for l in range(l_lo, l_hi + 1)]
    from_center = radial_overlap_matrices(row, radius / beam.waist)[0][center.l - l_lo].tolist()
    for idx, k in enumerate(ks):
        overlaps = [
            from_center[neighbour - l_lo]
            for neighbour in (center.l + k, center.l - k)
            if l_lo <= neighbour <= l_hi
        ]
        weights[idx] /= sum(overlaps) / len(overlaps)
    shape = DensityProfile(radius, (Harmonic(0, 0.0),) + tuple(Harmonic(k, w) for k, w in zip(ks, weights)))
    amp = -1.0 / angular_minimum(shape)
    expected = tuple(Harmonic(k, amp * w, 0.0) for k, w in zip(ks, weights))
    designed = design_power_law(beta, max_range, window=window, beam=beam, radius=radius)
    assert bits(designed.harmonics[1:]) == bits(expected)


modes = st.builds(ModeIndex, st.integers(-6, 6), st.integers(0, 2))


@PROPERTY_SETTINGS
@given(a=modes, b=modes, rho=st.floats(2.0, 7.0))
def test_radial_overlaps_symmetric_in_their_modes(a, b, rho):
    ab_t, ab_u, _ = radial_overlap_matrices((a, b), rho)
    ba_t, ba_u, _ = radial_overlap_matrices((b, a), rho)
    assert ab_t[0, 1] == ba_t[0, 1]
    assert ab_u[0, 1] == ba_u[0, 1]


@PROPERTY_SETTINGS
@given(
    batch=st.lists(st.builds(ModeIndex, st.integers(-8, 8), st.integers(0, 2)), min_size=1, max_size=6, unique=True),
    radius=st.floats(0.5, 8.0),
    beam=beams,
    other=st.builds(
        BeamParameters,
        gouy_rate=st.floats(-1.0, 1.0),
        first_order_scale=st.floats(0.1, 2.0),
        interaction_sign=st.sampled_from(["attractive", "repulsive"]),
    ),
)
def test_memoized_overlaps_are_the_uncached_quadrature(batch, radius, beam, other):
    memo = couplings._radial_overlaps
    w = beam.waist
    rho = radius / w
    reference = memo.__wrapped__(tuple(batch), rho)
    memo.cache_clear()
    first = radial_overlap_matrices(batch, rho)
    for got in (first, radial_overlap_matrices(batch, rho)):
        assert np.array_equal(got[0], reference[0]) and np.array_equal(got[1], reference[1])
        assert got[2] == reference[2]
    assert memo.cache_info().hits == 1
    # a returned array is the caller's own: writing to it leaves the memo alone
    first[0].fill(np.nan)
    first[1].fill(np.nan)
    again = radial_overlap_matrices(batch, rho)
    assert np.array_equal(again[0], reference[0]) and np.array_equal(again[1], reference[1])
    # compute_couplings keys the memo by the radius in waists alone
    window = ModeWindow(-2, 2, (0, 1))
    memo.cache_clear()
    base = compute_couplings(window, DensityProfile(radius, ()), beam)
    assert memo.cache_info().currsize == 1
    compute_couplings(window, DensityProfile(radius, ()), dataclasses.replace(other, waist=w))
    assert memo.cache_info().hits == 1 and memo.cache_info().currsize == 1
    # two waists with equal R / w share one entry; u carries the 1 / w^2
    doubled = compute_couplings(window, DensityProfile(2.0 * radius, ()), dataclasses.replace(beam, waist=2.0 * w))
    assert memo.cache_info().hits == 2 and memo.cache_info().currsize == 1
    assert np.array_equal(doubled.t, base.t) and np.array_equal(4.0 * doubled.u, base.u)
    compute_couplings(window, DensityProfile(radius, ()), dataclasses.replace(beam, waist=1.5 * w))
    assert memo.cache_info().hits == 2 and memo.cache_info().currsize == 2


@PROPERTY_SETTINGS
@given(
    batch=st.lists(st.builds(ModeIndex, st.integers(-40, 40), st.integers(0, 6)), min_size=1, max_size=12),
    rho=st.floats(0.5, 100.0),
    order=st.integers(16, 512),
)
def test_batched_radial_rows_match_per_mode_formula(batch, rho, order):
    # the quadrature's nodes on [0, rho] waists, plus the axis rho = 0
    x, _ = roots_legendre(order)
    nodes = np.concatenate([[0.0], 0.5 * (x + 1.0) * rho])
    rows = radial_profiles(batch, nodes)
    assert rows.shape == (len(batch), nodes.size)
    for mode, row in zip(batch, rows):
        assert np.array_equal(row, per_mode_radial_profile(mode, nodes))


@st.composite
def p0_windows(draw):
    l_min = draw(st.integers(-5, 5))
    return ModeWindow(l_min, draw(st.integers(l_min, min(5, l_min + 7))))


@PROPERTY_SETTINGS
@given(window=p0_windows(), radius=st.floats(2.5, 4.0), beam=beams)
def test_p0_overlaps_match_closed_form(window, radius, beam):
    # g_l = c_l (sqrt(2) r / w)^|l| exp(-r^2 / w^2): both overlaps are
    # incomplete gamma integrals in s = 2 r^2 / w^2 and 4 r^2 / w^2; the
    # waist-free U times 1 / w^2 is the U of a disk of radius r
    w = beam.waist
    overlap_t, overlap_u, _ = radial_overlap_matrices(window.modes, radius / w)
    overlap_u = overlap_u / w / w
    c = np.array([normalization_constant(mode) for mode in window.modes]) / w
    l_abs = np.array([abs(mode.l) for mode in window.modes])
    a = l_abs[:, None] + l_abs[None, :]
    exact_t = (
        np.outer(c, c) * (w**2 / 4) * gamma(a / 2 + 1)
        * gammainc(a / 2 + 1, 2 * radius**2 / w**2)
    )
    exact_u = (
        np.outer(c**2, c**2) * 2.0 ** (-a) * (w**2 / 8) * gamma(a + 1)
        * gammainc(a + 1, 4 * radius**2 / w**2)
    )
    for fast, exact in ((overlap_t, exact_t), (overlap_u, exact_u)):
        assert np.all(np.abs(fast - exact) <= np.maximum(1e-12 * np.abs(exact), 1e-13))


@PROPERTY_SETTINGS
@given(
    ls=st.lists(st.integers(-60, 60), min_size=1, max_size=6, unique=True),
    log_rho=st.floats(math.log10(0.5), 6.0),
)
def test_p0_overlaps_match_exact_gamma_form(ls, log_rho):
    # with a = |l_i|, b = |l_j|, m = (a + b) / 2 and rho = R / w:
    #   T = exp(ln G(m+1) - ln G(a+1) / 2 - ln G(b+1) / 2) P(m+1, 2 rho^2) / 2 pi
    #   U = G(a+b+1) P(a+b+1, 4 rho^2) / (pi^2 a! b! 2^(a+b+1))
    # on disks from half a waist to far past the modes' extent; both are
    # waist-free, so every R / w is checked for both
    rho = 10.0**log_rho
    overlap_t, overlap_u, _ = radial_overlap_matrices([ModeIndex(l) for l in ls], rho)
    a = np.abs(np.array(ls, dtype=float))[:, None]
    b = a.T
    m = (a + b) / 2
    exact_t = np.exp(gammaln(m + 1) - gammaln(a + 1) / 2 - gammaln(b + 1) / 2) * gammainc(m + 1, 2 * rho**2) / (2 * np.pi)
    log_u = gammaln(a + b + 1) - gammaln(a + 1) - gammaln(b + 1) - (a + b + 1) * math.log(2)
    exact_u = np.exp(log_u) * gammainc(a + b + 1, 4 * rho**2) / np.pi**2
    for fast, exact in ((overlap_t, exact_t), (overlap_u, exact_u)):
        assert np.all(np.abs(fast - exact) <= 10 * np.maximum(couplings.RADIAL_RTOL * np.abs(exact), couplings.RADIAL_ATOL))


def _assert_diagonal_stored_once(h):
    """build_hamiltonian stores H canonical, with every diagonal entry stored once, zeros too."""
    rows = np.repeat(np.arange(h.shape[0]), np.diff(h.indptr))
    assert h.has_canonical_format
    assert np.array_equal(np.bincount(rows[h.indices == rows], minlength=h.shape[0]), np.ones(h.shape[0]))


@PROPERTY_SETTINGS
@given(couplings=coupling_sets(), n_particles=st.integers(0, 3))
def test_hamiltonian_matches_operator_algebra_exactly(couplings, n_particles):
    operator = build_hamiltonian(couplings, n_particles)
    reference, states = kron_hamiltonian(couplings, n_particles)
    assert operator.basis.states == states
    assert np.array_equal(operator.matrix.toarray(), reference)
    _assert_diagonal_stored_once(operator.matrix)


@PROPERTY_SETTINGS
@given(window=windows(), n_particles=st.integers(0, 3))
def test_basis_lexicographic_and_ranked(window, n_particles):
    basis = build_basis(window, n_particles)
    states = basis.states
    assert basis.dim == math.comb(n_particles + window.size - 1, n_particles)
    assert all(len(s) == window.size and sum(s) == n_particles for s in states)
    assert all(a < b for a, b in zip(states, states[1:]))
    assert [basis.index_of(s) for s in states] == list(range(basis.dim))
    assert np.array_equal(basis.rank(basis.table), np.arange(basis.dim))


@PROPERTY_SETTINGS
@given(couplings=coupling_sets(), n_particles=st.integers(0, 3), data=st.data())
def test_lowest_states_match_full_spectrum(couplings, n_particles, data):
    operator = build_hamiltonian(couplings, n_particles)
    k = data.draw(st.integers(1, operator.dim))
    values, vectors = eigensolve(operator, k)
    assert vectors.shape == (operator.dim, k)
    reference = np.linalg.eigvalsh(operator.matrix.toarray())[:k]
    tol = RESIDUAL_RTOL * max(operator.norm_one(), 1.0)
    assert np.max(np.abs(values - reference)) <= tol


@PROPERTY_SETTINGS
@given(lattice=signed_lattices(), n_particles=st.integers(0, 3))
def test_real_hoppings_build_a_float64_hamiltonian(lattice, n_particles):
    window, beam, signed, phased = lattice
    couplings = compute_couplings(window, signed, beam)
    assert not couplings.t.imag.any()
    operator = build_hamiltonian(couplings, n_particles)
    assert operator.matrix.dtype == np.float64
    reference, _ = kron_hamiltonian(couplings, n_particles)
    assert np.array_equal(operator.matrix.toarray(), reference)
    _assert_diagonal_stored_once(operator.matrix)
    # phase pi leaves imaginary parts of order 1e-16 on every hop of its
    # range, and the exact test keeps such a Hamiltonian complex
    reaches_pi = any(h.phase and h.k <= window.l_max - window.l_min for h in phased.harmonics)
    phased_couplings = compute_couplings(window, phased, beam)
    assert phased_couplings.t.imag.any() == reaches_pi
    dtype = build_hamiltonian(phased_couplings, n_particles).matrix.dtype
    assert dtype == (np.complex128 if reaches_pi else np.float64)


@PROPERTY_SETTINGS
@given(lattice=signed_lattices(), n_particles=st.integers(1, 3), lanczos=st.booleans(), data=st.data())
def test_real_and_complex_solves_agree(lattice, n_particles, lanczos, data):
    window, beam, signed, _ = lattice
    operator = build_hamiltonian(compute_couplings(window, signed, beam), n_particles)
    complex_build = ManyBodyOperator(operator.basis, operator.matrix.astype(complex))
    # complex ARPACK needs k < dim - 1, and k = dim always goes dense
    assume(not lanczos or operator.dim >= 3)
    k = data.draw(st.integers(1, operator.dim - 2 if lanczos else operator.dim))
    with pytest.MonkeyPatch.context() as patch:
        if lanczos:
            patch.setattr(manybody, "DENSE_CUTOFF", 1)
        values, vectors = eigensolve(operator, k)
        reference, reference_vectors = eigensolve(complex_build, k)
    assert vectors.dtype == np.float64 and reference_vectors.dtype == np.complex128
    assert operator.norm_one() == complex_build.norm_one()
    tol = RESIDUAL_RTOL * max(operator.norm_one(), 1.0)
    assert np.max(np.abs(values - reference)) <= tol


# unsorted, negative and repeated times; the sampled values make repeats likely
TIMES = st.lists(st.one_of(st.floats(-4.0, 4.0), st.sampled_from([-1.5, 0.5, 2.0])), max_size=6)


@PROPERTY_SETTINGS
@given(couplings=coupling_sets(), n_particles=st.integers(0, 3), times=TIMES, data=st.data())
def test_evolution_on_any_grid_matches_dense(couplings, n_particles, times, data):
    operator = build_hamiltonian(couplings, n_particles)
    zero_at = data.draw(st.integers(0, len(times)))
    times.insert(zero_at, 0.0)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    initial = rng.normal(size=operator.dim) + 1j * rng.normal(size=operator.dim)
    initial /= np.linalg.norm(initial)
    trajectory = time_evolve(operator, initial, times)
    assert np.array_equal(trajectory[zero_at], initial)
    reference = dense_evolution(operator, initial, np.asarray(times))
    np.testing.assert_allclose(trajectory, reference, rtol=0, atol=1e-12)


@PROPERTY_SETTINGS
@given(lattice=signed_lattices(), n_particles=st.integers(0, 3), times=TIMES, data=st.data())
def test_real_and_complex_evolution_agree(lattice, n_particles, times, data):
    window, beam, signed, _ = lattice
    operator = build_hamiltonian(compute_couplings(window, signed, beam), n_particles)
    complex_build = ManyBodyOperator(operator.basis, operator.matrix.astype(complex))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    initial = rng.normal(size=operator.dim) + 1j * rng.normal(size=operator.dim)
    initial /= np.linalg.norm(initial)
    np.testing.assert_allclose(
        time_evolve(operator, initial, times),
        time_evolve(complex_build, initial, times),
        rtol=0,
        atol=1e-12,
    )


# every float: ±0, subnormals, nan and inf, and magnitudes spread evenly in
# the exponent from 1e-300 to 1e300
MAGNITUDES = st.builds(
    lambda mantissa, exponent, sign: sign * mantissa * 10.0**exponent,
    st.floats(1.0, 9.999), st.integers(-300, 299), st.sampled_from([1.0, -1.0]),
)
SUBNORMALS = st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308)
FIELD_FLOATS = st.one_of(st.floats(), MAGNITUDES, SUBNORMALS, st.sampled_from([0.0, -0.0, 5e-324, -5e-324]))
FINITE_FLOATS = st.one_of(MAGNITUDES, SUBNORMALS, st.sampled_from([0.0, -0.0]))


def _table_rows(write):
    """Rows of the CSV that ``write(path)`` writes, header first."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        write(path)
        text = path.read_text()
    assert text.endswith("\n")
    return [line.split(",") for line in text[:-1].split("\n")]


@PROPERTY_SETTINGS
@given(a=st.lists(FIELD_FLOATS, max_size=30), data=st.data())
def test_table_writer_formats_every_float_as_format_17g(a, data):
    b = data.draw(st.lists(FIELD_FLOATS, min_size=len(a), max_size=len(a)))
    columns = [np.arange(len(a)), np.array(a, dtype=float), b]
    rows = _table_rows(lambda path: write_table(path, "i,a,b", columns))
    assert rows[0] == ["i", "a", "b"]
    assert len(rows) == 1 + len(a)
    for i, row in enumerate(rows[1:]):
        assert row == [str(i), format(float(a[i]), ".17g"), format(float(b[i]), ".17g")]


@PROPERTY_SETTINGS
@given(n=st.integers(1, 5), data=st.data())
def test_heatmap_abs_is_scalar_abs_bit_for_bit(n, data):
    parts = data.draw(st.lists(FINITE_FLOATS, min_size=2 * n * n, max_size=2 * n * n))
    t = np.empty(n * n, dtype=complex)
    t.real, t.imag = parts[::2], parts[1::2]
    t = t.reshape(n, n)
    zeros = np.zeros((n, n))
    couplings = CouplingSet(ModeWindow(0, n - 1), zeros[0], t, zeros, "attractive")
    # the heatmap task reads no config; its one table goes through the table writer
    [(header, columns)] = TASKS["heatmap"](None, couplings).values()
    rows = _table_rows(lambda path: write_table(path, header, columns))[1:]
    assert len(rows) == n * n
    for row, z in zip(rows, t.ravel()):
        # .17g round-trips, so equal text is equal bits
        assert row[4] == format(float(abs(z)), ".17g")
        assert row[5] == format(float(np.angle(z)), ".17g")


HARMONIC_LISTS = st.lists(
    st.fixed_dictionaries({"k": st.integers(1, 3), "c": st.floats(0.0, 0.3)}, optional={"phase": PHASES}),
    max_size=3,
    unique_by=lambda h: h["k"],
)
# each section's keys, a strategy for valid values, and the class the
# section builds, from JSON-shaped keyword arguments
SECTIONS = {
    "window": (
        {"l_min": st.integers(-3, 0), "l_max": st.integers(0, 3),
         "p_values": st.lists(st.integers(0, 2), min_size=1, max_size=3, unique=True)},
        lambda kwargs: ModeWindow(**kwargs),
    ),
    "beam": (
        {"waist": st.floats(0.5, 2.0), "gouy_rate": st.floats(-1.0, 1.0),
         "longitudinal_fill": st.floats(0.1, 1.0), "first_order_scale": st.floats(0.0, 2.0),
         "second_order_scale": st.floats(0.0, 1.0),
         "interaction_sign": st.sampled_from(["attractive", "repulsive"])},
        lambda kwargs: BeamParameters(**kwargs),
    ),
    "profile": (
        {"radius": st.floats(1.0, 6.0), "harmonics": HARMONIC_LISTS},
        lambda kwargs: DensityProfile(**dict(
            kwargs, harmonics=tuple(Harmonic(**h) for h in kwargs.get("harmonics", ())))),
    ),
}


@PROPERTY_SETTINGS
@given(name=st.sampled_from(sorted(SECTIONS)), data=st.data())
def test_config_section_keeps_class_defaults(name, data):
    values, build = SECTIONS[name]
    keys = data.draw(st.lists(st.sampled_from(sorted(values)), unique=True))
    section = {key: data.draw(values[key]) for key in keys}
    config = {"window": {"l_min": 0, "l_max": 1}, "profile": {}, name: section}
    try:
        expected = build(copy.deepcopy(section))
    except TypeError:  # the window's l_min or l_max is missing
        with pytest.raises(ConfigError, match="missing required key"):
            parse_config(config)
        return
    assert getattr(parse_config(config), name) == expected


# one valid config per section and design kind; every float field holds a
# float and every integer field an int
LEAF_CONFIGS = [
    {"window": {"l_min": -1, "l_max": 1, "p_values": [0, 1]},
     "beam": {"waist": 1.0, "gouy_rate": 0.1, "longitudinal_fill": 0.5,
              "first_order_scale": 1.0, "second_order_scale": 0.1, "interaction_sign": "repulsive"},
     "profile": {"radius": 4.0, "harmonics": [{"k": 1, "c": 0.3, "phase": 0.5}]},
     "particles": 1, "n_states": 2, "tasks": ["profile", "couplings"]},
    {"window": {"l_min": -2, "l_max": 2},
     "design": {"kind": "preset", "name": "triangular_ladder", "radius": 4.0,
                "params": {"ratio": 0.5, "phase1": 1.0}}},
    {"window": {"l_min": -2, "l_max": 2},
     "design": {"kind": "power_law", "beta": 1.0, "max_range": 2, "radius": 4.0, "calibrate": False}},
    {"window": {"l_min": -2, "l_max": 2},
     "design": {"kind": "fluxes", "narrow": 1.0, "wide": 0.5, "gauge": 1.0, "radius": 4.0}},
]
NOT_NUMBERS = ["x", True, False, None, [], [1.0], math.nan]
# replacements of another JSON kind for a valid value of each kind. A float
# field takes any finite number, so an integer is drawn there only past the
# float range; an integer field takes any integer, so it is never drawn there
WRONG_KINDS = {
    int: NOT_NUMBERS + [{}, 0.5],
    float: NOT_NUMBERS + [{}, 10**400],
    bool: ["x", None, [], {}, 1, 0.5],
    str: [True, None, [], {}, 1, 0.5],
    list: ["x", True, None, {}, 1, 0.5],
    dict: ["x", True, None, [], 1, 0.5],
}


def nodes(node, path=()):
    """(path, value) of every field, section and list item below node."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,), value
        yield from nodes(value, path + (key,))


@pytest.mark.parametrize("config", LEAF_CONFIGS, ids=lambda c: c.get("design", {}).get("kind", "profile"))
@PROPERTY_SETTINGS
@given(data=st.data())
def test_non_number_leaf_is_config_error(config, data):
    parse_config(copy.deepcopy(config))
    path, value = data.draw(st.sampled_from(list(nodes(config))))
    replacement = data.draw(st.sampled_from(WRONG_KINDS[type(value)]))
    mutated = copy.deepcopy(config)
    node = mutated
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = replacement
    with pytest.raises(ConfigError):
        parse_config(mutated)
