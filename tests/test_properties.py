"""Property tests of the many-body layer over random small windows.

Windows hold at most 4 modes and at most 3 particles, so the operator-algebra
oracle (dimension (N + 1) ** modes) and a full dense solve stay cheap.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lglattice import (
    BeamParameters,
    DensityProfile,
    Harmonic,
    ModeWindow,
    build_basis,
    build_hamiltonian,
    compute_couplings,
    eigensolve,
)
from lglattice.manybody import RESIDUAL_RTOL
from conftest import kron_hamiltonian

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def windows(draw):
    p_values = draw(st.sampled_from([(0,), (0, 1)]))
    count = draw(st.integers(1, 4 // len(p_values)))
    l_min = draw(st.integers(-3, 3))
    return ModeWindow(l_min, l_min + count - 1, p_values=p_values)


@st.composite
def coupling_sets(draw):
    """Couplings of a random profile whose amplitudes sum below the mean
    density, so it is non-negative whatever the phases."""
    orders = draw(st.lists(st.integers(1, 3), max_size=3, unique=True))
    weights = [draw(st.floats(0.05, 1.0)) for _ in orders]
    total = draw(st.floats(0.1, 0.95))
    harmonics = tuple(
        Harmonic(k, total * w / sum(weights), draw(st.floats(-math.pi, math.pi)))
        for k, w in zip(orders, weights)
    )
    profile = DensityProfile(radius=draw(st.floats(3.0, 5.0)), harmonics=harmonics)
    beam = BeamParameters(interaction_sign=draw(st.sampled_from(["attractive", "repulsive"])))
    return compute_couplings(draw(windows()), profile, beam)


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
