"""Property tests over random profiles and windows.

The coupling layer runs on windows of up to 12 modes: exact Hermiticity,
symmetry and selection-rule zeros, gauge covariance under rotation,
phase-blindness of u, and the p = 0 radial overlaps against their closed
form in the regularized incomplete gamma function. The many-body layer keeps
windows to at most 4 modes and 3 particles, so the operator-algebra oracle
(dimension (N + 1) ** modes) and a full dense solve stay cheap.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma, gammainc

from lglattice import (
    BeamParameters,
    DensityProfile,
    Harmonic,
    ModeIndex,
    ModeWindow,
    build_basis,
    build_hamiltonian,
    compute_couplings,
    eigensolve,
    normalization_constant,
    radial_overlap_matrices,
    radial_overlap_t,
    radial_overlap_u,
    rotate,
)
from lglattice.cli import GAUGE_T_ATOL
from lglattice.manybody import RESIDUAL_RTOL
from conftest import kron_hamiltonian

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
def profiles(draw, max_order=3):
    """Random profile whose amplitudes sum below the mean density, so it is
    non-negative whatever the phases."""
    orders = draw(st.lists(st.integers(1, max_order), max_size=3, unique=True))
    weights = [draw(st.floats(0.05, 1.0)) for _ in orders]
    total = draw(st.floats(0.1, 0.95))
    harmonics = tuple(
        Harmonic(k, total * w / sum(weights), draw(PHASES))
        for k, w in zip(orders, weights)
    )
    return DensityProfile(radius=draw(st.floats(3.0, 5.0)), harmonics=harmonics)


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
