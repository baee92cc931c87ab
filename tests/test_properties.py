"""Property tests over random profiles and windows.

The density validator is checked against a certificate: on a grid of
spacing h the true minimum lies within sum_k k^2 |c_k| h^2 / 8 below the
grid minimum, so the exact minimum must fall in that bracket. Designed
power-law profiles must sit exactly on the non-negativity boundary.
The coupling layer runs on windows of up to 12 modes: exact Hermiticity,
symmetry and selection-rule zeros, every entry within the tolerances of
``check``'s 2D oracle, gauge covariance under rotation, phase-blindness of
u, and the p = 0 radial overlaps against their closed form in the
regularized incomplete gamma function. The many-body layer keeps
windows to at most 4 modes and 3 particles, so the operator-algebra oracle
(dimension (N + 1) ** modes) and a full dense solve stay cheap; time
evolution on any grid of times matches the dense propagator. The output
layer writes every float field exactly as ``format(x, ".17g")`` does, and the
heatmap's |t| column is the scalar ``abs`` bit for bit. The config parser
builds each section from the keys it holds, leaving the rest to the class
defaults, and rejects any one numeric value swapped for a non-number as a
ConfigError.
"""

import copy
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma, gammainc

from lglattice import (
    BeamParameters,
    CouplingSet,
    DensityProfile,
    Harmonic,
    ModeIndex,
    ModeWindow,
    NonPhysicalDensity,
    angular_minimum,
    build_basis,
    build_hamiltonian,
    compute_couplings,
    design_power_law,
    eigensolve,
    normalization_constant,
    radial_overlap_matrices,
    radial_overlap_t,
    radial_overlap_u,
    rotate,
    time_evolve,
    validate_nonnegative,
    write_heatmap,
)
from lglattice.cli import GAUGE_T_ATOL, ConfigError, RunConfig, _coupling_checks, parse_config
from lglattice.density import NEGATIVITY_TOLERANCE
from lglattice.io import write_table
from lglattice.manybody import RESIDUAL_RTOL
from conftest import dense_evolution, kron_hamiltonian

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None)
PHASES = st.floats(-math.pi, math.pi)


@st.composite
def windows(draw, max_modes=4, p_choices=((0,), (0, 1))):
    p_values = draw(st.sampled_from(p_choices))
    count = draw(st.integers(1, max_modes // len(p_values)))
    l_min = draw(st.integers(-3, 3))
    return ModeWindow(l_min, l_min + count - 1, p_values=p_values)


WIDE_WINDOWS = windows(max_modes=12, p_choices=((0,), (0, 1), (0, 1, 2)))


@st.composite
def profiles(draw, max_order=3, max_count=3, max_total=0.95):
    """Random profile whose amplitudes sum to at most the mean density, so it
    is non-negative whatever the phases."""
    orders = draw(st.lists(st.integers(1, max_order), max_size=max_count, unique=True))
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
    # a nonzero Gouy rate puts a detuning into mu that the oracle leaves out
    beam=st.builds(BeamParameters, waist=st.floats(0.7, 1.3), gouy_rate=st.floats(0.0, 0.5)),
)
def test_check_oracle_passes_every_entry(window, profile, beam):
    config = RunConfig(window=window, beam=beam, profile=profile)
    selection, oracle = _coupling_checks(config, compute_couplings(window, profile, beam))
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
    assert np.max(np.abs(turned.t - expected)) <= GAUGE_T_ATOL


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
    # so a bracket wholly below -NEGATIVITY_TOLERANCE raises, one above passes
    if minimum < -NEGATIVITY_TOLERANCE:
        with pytest.raises(NonPhysicalDensity) as excinfo:
            validate_nonnegative(profile)
        assert excinfo.value.minimum == minimum
    else:
        assert validate_nonnegative(profile) == minimum


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


modes = st.builds(ModeIndex, st.integers(-6, 6), st.integers(0, 2))


@PROPERTY_SETTINGS
@given(a=modes, b=modes, radius=st.floats(2.5, 5.0), beam=beams)
def test_radial_overlaps_symmetric_in_their_modes(a, b, radius, beam):
    disk = DensityProfile(radius=radius)
    assert radial_overlap_t(a, b, disk, beam) == radial_overlap_t(b, a, disk, beam)
    assert radial_overlap_u(a, b, disk, beam) == radial_overlap_u(b, a, disk, beam)


@st.composite
def p0_windows(draw):
    l_min = draw(st.integers(-5, 5))
    return ModeWindow(l_min, draw(st.integers(l_min, min(5, l_min + 7))))


@PROPERTY_SETTINGS
@given(window=p0_windows(), radius=st.floats(2.5, 4.0), beam=beams)
def test_p0_overlaps_match_closed_form(window, radius, beam):
    # g_l = c_l (sqrt(2) r / w)^|l| exp(-r^2 / w^2): both overlaps are
    # incomplete gamma integrals in s = 2 r^2 / w^2 and 4 r^2 / w^2
    w = beam.waist
    overlap_t, overlap_u, _ = radial_overlap_matrices(window.modes, radius, beam)
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
@given(couplings=coupling_sets(), n_particles=st.integers(0, 3))
def test_hamiltonian_matches_operator_algebra_exactly(couplings, n_particles):
    operator = build_hamiltonian(couplings, n_particles)
    reference, states = kron_hamiltonian(couplings, n_particles)
    assert operator.basis.states == states
    assert np.array_equal(operator.matrix.toarray(), reference)


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
    rows = _table_rows(lambda path: write_heatmap(couplings, path))[1:]
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
              "first_order_scale": 1.0, "second_order_scale": 0.1},
     "profile": {"radius": 4.0, "harmonics": [{"k": 1, "c": 0.3, "phase": 0.5}]},
     "particles": 1, "n_states": 2},
    {"window": {"l_min": -2, "l_max": 2},
     "design": {"kind": "preset", "name": "triangular_ladder", "radius": 4.0,
                "params": {"ratio": 0.5, "phase1": 1.0}}},
    {"window": {"l_min": -2, "l_max": 2},
     "design": {"kind": "power_law", "beta": 1.0, "max_range": 2, "radius": 4.0}},
    {"window": {"l_min": -2, "l_max": 2},
     "design": {"kind": "fluxes", "narrow": 1.0, "wide": 0.5, "gauge": 1.0, "radius": 4.0}},
]
NOT_NUMBERS = ["x", True, False, None, [], [1.0], math.nan]


def numeric_leaves(node, path=()):
    """(path, value) of every int or float below node, bools excluded."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            yield path + (key,), value
        else:
            yield from numeric_leaves(value, path + (key,))


@pytest.mark.parametrize("config", LEAF_CONFIGS, ids=lambda c: c.get("design", {}).get("kind", "profile"))
@PROPERTY_SETTINGS
@given(data=st.data())
def test_non_number_leaf_is_config_error(config, data):
    parse_config(copy.deepcopy(config))
    path, value = data.draw(st.sampled_from(list(numeric_leaves(config))))
    # a huge integer only where a float belongs: as an integer field it is a
    # valid, unboundedly large size
    replacement = data.draw(st.sampled_from(NOT_NUMBERS + [10**400] * isinstance(value, float)))
    mutated = copy.deepcopy(config)
    node = mutated
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = replacement
    with pytest.raises(ConfigError):
        parse_config(mutated)
