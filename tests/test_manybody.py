import math

import numpy as np
import pytest
import scipy.linalg

from lglattice import (
    BasisTooLarge,
    BeamParameters,
    CouplingSet,
    DensityProfile,
    ModeWindow,
    TriangularLadder,
    build_basis,
    build_hamiltonian,
    compute_couplings,
    eigensolve,
    interaction_shift,
    occupations,
    preset_profile,
    single_particle_matrix,
    time_evolve,
    write_eigenvalues,
    write_occupations,
)
import lglattice.manybody as manybody
from lglattice.manybody import DENSE_CUTOFF, RESIDUAL_RTOL
from conftest import dense_evolution, kron_hamiltonian, random_profile


@pytest.fixture
def ladder_couplings(beam):
    return compute_couplings(ModeWindow(-1, 1), preset_profile("triangular_ladder"), beam)


@pytest.fixture(scope="module")
def chain_3432():
    # 8 modes, 7 particles: 3432 states, above the dense cutoff
    beam = BeamParameters(second_order_scale=0.1, interaction_sign="attractive")
    couplings = compute_couplings(ModeWindow(0, 7), preset_profile("chain"), beam)
    return build_hamiltonian(couplings, 7)


class TestFockBasis:
    def test_dimension_formula(self):
        for m, n in ((1, 1), (3, 2), (4, 3), (5, 2)):
            basis = build_basis(ModeWindow(0, m - 1), n)
            assert basis.dim == math.comb(n + m - 1, n)

    def test_lexicographic_order(self):
        basis = build_basis(ModeWindow(0, 2), 2)
        assert basis.states == (
            (0, 0, 2), (0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0), (2, 0, 0),
        )

    def test_index_round_trip(self):
        basis = build_basis(ModeWindow(-1, 1), 3)
        for i, state in enumerate(basis.states):
            assert basis.index_of(state) == i

    def test_occupations_sum_to_total(self):
        basis = build_basis(ModeWindow(0, 3), 2)
        assert all(sum(s) == 2 for s in basis.states)

    def test_size_cap(self):
        with pytest.raises(BasisTooLarge) as excinfo:
            build_basis(ModeWindow(-30, 30), 8)
        assert excinfo.value.dim > 200_000

    def test_zero_particles(self):
        basis = build_basis(ModeWindow(0, 2), 0)
        assert basis.states == ((0, 0, 0),)


class TestHamiltonian:
    @pytest.mark.parametrize("n_particles", [1, 2])
    def test_matches_operator_algebra_exactly(self, ladder_couplings, n_particles):
        operator = build_hamiltonian(ladder_couplings, n_particles)
        reference, states = kron_hamiltonian(ladder_couplings, n_particles)
        assert operator.basis.states == states
        assert np.max(np.abs(operator.matrix.toarray() - reference)) == 0.0

    def test_random_profiles_match_oracle(self, beam, rng):
        for _ in range(3):
            profile = random_profile(rng, max_order=2)
            couplings = compute_couplings(ModeWindow(0, 2), profile, beam)
            operator = build_hamiltonian(couplings, 2)
            reference, _ = kron_hamiltonian(couplings, 2)
            assert np.max(np.abs(operator.matrix.toarray() - reference)) == 0.0

    def test_number_conservation_structural(self, ladder_couplings):
        operator = build_hamiltonian(ladder_couplings, 2)
        states = operator.basis.states
        coo = operator.matrix.tocoo()
        for a, b in zip(coo.row, coo.col):
            assert sum(states[a]) == sum(states[b])

    def test_hermitian(self, ladder_couplings):
        h = build_hamiltonian(ladder_couplings, 2).matrix.toarray()
        assert np.max(np.abs(h - h.conj().T)) < 1e-14

    def test_single_mode_bound_state_energy(self):
        # one particle on one mode: mu plus the self-interaction offset,
        # which is attractive here, 7 u deep
        beam = BeamParameters(second_order_scale=0.1, interaction_sign="attractive")
        couplings = compute_couplings(ModeWindow(0, 0), DensityProfile(harmonics=()), beam)
        operator = build_hamiltonian(couplings, 1)
        energy = operator.matrix.toarray()[0, 0].real
        assert energy == couplings.mu[0] - 7.0 * couplings.u[0, 0]

    def test_repulsive_flips_interaction(self):
        attract = BeamParameters(second_order_scale=0.1, interaction_sign="attractive")
        repel = BeamParameters(second_order_scale=0.1, interaction_sign="repulsive")
        window = ModeWindow(0, 0)
        bare = DensityProfile(harmonics=())
        e_att = build_hamiltonian(compute_couplings(window, bare, attract), 1)
        e_rep = build_hamiltonian(compute_couplings(window, bare, repel), 1)
        mu = compute_couplings(window, bare, attract).mu[0]
        assert e_att.matrix[0, 0].real < mu < e_rep.matrix[0, 0].real

    def test_single_particle_block_and_shift(self, ladder_couplings):
        operator = build_hamiltonian(ladder_couplings, 1)
        h = single_particle_matrix(ladder_couplings) + np.diag(
            interaction_shift(ladder_couplings)
        )
        # N = 1 states are lexicographic, so state i occupies mode M-1-i
        order = [s.index(1) for s in operator.basis.states]
        np.testing.assert_allclose(
            operator.matrix.toarray(), h[np.ix_(order, order)], rtol=0, atol=1e-14
        )

    def test_no_hopping_means_diagonal(self, beam):
        couplings = compute_couplings(ModeWindow(-1, 1), DensityProfile(harmonics=()), beam)
        assert np.all(couplings.t == 0j)
        matrix = build_hamiltonian(couplings, 2).matrix.toarray()
        assert np.array_equal(matrix, np.diag(np.diag(matrix)))


class TestSingleParticleSpectrum:
    def test_uniform_chain_spectrum_symmetric(self):
        # nearest-neighbour chain with uniform on-site energy is bipartite:
        # eigenvalues come in pairs mirrored about the common mu
        m, mu0 = 6, 1.7
        t = np.zeros((m, m), complex)
        for i in range(m - 1):
            t[i + 1, i] = t[i, i + 1] = -0.3
        couplings = CouplingSet(
            ModeWindow(0, m - 1), np.full(m, mu0), t, np.zeros((m, m)), "attractive"
        )
        eigs = np.linalg.eigvalsh(single_particle_matrix(couplings))
        np.testing.assert_allclose(eigs + eigs[::-1], 2.0 * mu0, atol=1e-12)

    def test_frustration_reshapes_spectrum(self, beam):
        window = ModeWindow(-2, 2)
        # phase pi on both ranges: t1, t2 < 0, no frustration; phase 0 on
        # the second range flips t2 > 0 and frustrates the triangles
        relaxed = TriangularLadder(phase1=math.pi, phase2=math.pi).profile()
        frustrated = TriangularLadder(phase1=math.pi, phase2=0.0).profile()
        spectra = []
        for profile in (relaxed, frustrated):
            couplings = compute_couplings(window, profile, beam)
            assert np.all(np.abs(couplings.t.imag) < 1e-15)
            spectra.append(np.linalg.eigvalsh(single_particle_matrix(couplings)))
        assert np.max(np.abs(spectra[0] - spectra[1])) > 1e-3


class TestEigensolve:
    def test_dense_against_numpy(self, ladder_couplings):
        operator = build_hamiltonian(ladder_couplings, 2)
        values, vectors = eigensolve(operator)
        reference = np.linalg.eigvalsh(operator.matrix.toarray())
        np.testing.assert_allclose(values, reference, rtol=1e-12, atol=1e-12)
        assert np.all(np.diff(values) >= -1e-12)

    def test_truncation(self, ladder_couplings):
        operator = build_hamiltonian(ladder_couplings, 2)
        values, vectors = eigensolve(operator, n_states=3)
        assert values.shape == (3,)
        assert vectors.shape == (operator.dim, 3)

    def test_sparse_path(self, chain_3432):
        operator = chain_3432
        assert operator.dim == 3432
        sparse_vals, _ = eigensolve(operator, n_states=3)
        dense = scipy.linalg.eigvalsh(operator.matrix.toarray(), subset_by_index=[0, 2])
        np.testing.assert_allclose(sparse_vals, dense, rtol=1e-9, atol=1e-9)

    def test_sparse_path_repeatable(self, chain_3432):
        first, first_vectors = eigensolve(chain_3432, 3)
        second, second_vectors = eigensolve(chain_3432, 3)
        assert np.array_equal(first, second)
        assert np.array_equal(first_vectors, second_vectors)

    def test_residuals_certified(self, ladder_couplings):
        operator = build_hamiltonian(ladder_couplings, 2)
        values, vectors = eigensolve(operator)
        h = operator.matrix
        scale = max(operator.norm_one(), 1.0)
        for idx in range(len(values)):
            r = np.linalg.norm(h @ vectors[:, idx] - values[idx] * vectors[:, idx])
            assert r <= 1e-9 * scale

    @pytest.mark.parametrize("n_states", [0, 7])
    def test_n_states_outside_basis_rejected(self, ladder_couplings, n_states):
        operator = build_hamiltonian(ladder_couplings, 2)
        assert operator.dim == 6
        with pytest.raises(ValueError, match="between 1 and the basis dimension 6"):
            eigensolve(operator, n_states=n_states)

    def test_n_states_past_sparse_basis_rejected(self, chain_3432):
        # the same rule holds past the cutoff, before any solver runs
        with pytest.raises(ValueError, match="between 1 and the basis dimension 3432"):
            eigensolve(chain_3432, n_states=5000)

    def test_full_spectrum_past_cutoff_solved_densely(self, ladder_couplings, monkeypatch):
        # Lanczos needs k < dim, so asking for every state goes dense
        operator = build_hamiltonian(ladder_couplings, 2)
        monkeypatch.setattr(manybody, "DENSE_CUTOFF", 2)
        values, vectors = eigensolve(operator, n_states=operator.dim)
        assert vectors.shape == (operator.dim, operator.dim)
        np.testing.assert_allclose(
            values, np.linalg.eigvalsh(operator.matrix.toarray()), rtol=0, atol=1e-12
        )

    def test_bad_eigenpair_fails_certificate(self, ladder_couplings, monkeypatch):
        # a solver that returns one wrong eigenvector must not get past the check
        operator = build_hamiltonian(ladder_couplings, 2)
        real_eigh = scipy.linalg.eigh
        bad = 2

        def perturbed_eigh(*args, **kwargs):
            values, vectors = real_eigh(*args, **kwargs)
            vectors = vectors.copy()
            vectors[0, bad] += 0.1
            vectors[:, bad] /= np.linalg.norm(vectors[:, bad])
            return values, vectors

        monkeypatch.setattr(manybody.scipy.linalg, "eigh", perturbed_eigh)
        with pytest.raises(RuntimeError, match=rf"^eigenpair {bad} residual"):
            eigensolve(operator)


class TestTimeEvolution:
    def test_unitary_and_energy_conserving(self, ladder_couplings, rng):
        operator = build_hamiltonian(ladder_couplings, 2)
        state = rng.normal(size=operator.dim) + 1j * rng.normal(size=operator.dim)
        state /= np.linalg.norm(state)
        times = np.linspace(0.0, 100.0, 60)
        trajectory = time_evolve(operator, state, times)
        h = operator.matrix.toarray()
        norms = np.linalg.norm(trajectory, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-11)
        energies = np.real(np.einsum("ti,ij,tj->t", trajectory.conj(), h, trajectory))
        drift = np.max(np.abs(energies - energies[0])) / abs(energies[0])
        assert drift < 1e-9

    def test_zero_time_is_identity(self, ladder_couplings):
        operator = build_hamiltonian(ladder_couplings, 1)
        state = np.zeros(operator.dim, complex)
        state[1] = 1.0
        out = time_evolve(operator, state, [0.0])
        np.testing.assert_allclose(out[0], state, atol=1e-13)

    @pytest.mark.parametrize("times", [
        np.linspace(0.0, 3.0, 7),
        np.linspace(-2.0, 1.0, 4),
        np.linspace(1.0, 0.0, 5),
        [0.5, 0.5],
        [0.4, 2.5, 0.0, 1.1],
    ])
    def test_matches_dense_evolution(self, ladder_couplings, rng, times):
        operator = build_hamiltonian(ladder_couplings, 2)
        state = rng.normal(size=operator.dim) + 1j * rng.normal(size=operator.dim)
        state /= np.linalg.norm(state)
        np.testing.assert_allclose(
            time_evolve(operator, state, times),
            dense_evolution(operator, state, np.asarray(times)),
            rtol=0,
            atol=1e-12,
        )

    def test_past_dense_cutoff(self, chain_3432, rng):
        operator = chain_3432
        assert operator.dim >= DENSE_CUTOFF
        state = rng.normal(size=operator.dim) + 1j * rng.normal(size=operator.dim)
        state /= np.linalg.norm(state)
        trajectory = time_evolve(operator, state, np.linspace(0.0, 2.0, 5))
        assert np.array_equal(trajectory[0], state)
        np.testing.assert_allclose(np.linalg.norm(trajectory, axis=1), 1.0, atol=1e-11)
        h = operator.matrix
        energies = np.einsum("ti,ti->t", trajectory.conj(), (h @ trajectory.T).T).real
        tol = RESIDUAL_RTOL * max(operator.norm_one(), 1.0)
        assert np.max(np.abs(energies - energies[0])) <= tol

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_rejected(self, ladder_couplings, bad):
        # a non-finite time has no finite number of series terms
        operator = build_hamiltonian(ladder_couplings, 1)
        state = np.zeros(operator.dim, complex)
        state[0] = 1.0
        with pytest.raises(ValueError, match="finite"):
            time_evolve(operator, state, [0.5, bad])

    def test_empty_grid(self, ladder_couplings):
        operator = build_hamiltonian(ladder_couplings, 1)
        out = time_evolve(operator, np.ones(operator.dim) / np.sqrt(operator.dim), [])
        assert out.shape == (0, operator.dim)

    def test_dimension_checked(self, ladder_couplings):
        operator = build_hamiltonian(ladder_couplings, 1)
        with pytest.raises(ValueError):
            time_evolve(operator, np.zeros(operator.dim + 1), [0.0])

    def test_single_mode_phase_factor(self):
        beam = BeamParameters(second_order_scale=0.1, interaction_sign="attractive")
        couplings = compute_couplings(ModeWindow(0, 0), DensityProfile(harmonics=()), beam)
        operator = build_hamiltonian(couplings, 1)
        energy = couplings.mu[0] - 7.0 * couplings.u[0, 0]
        out = time_evolve(operator, np.array([1.0 + 0j]), [0.9])
        assert out[0][0] == pytest.approx(np.exp(-1j * energy * 0.9), abs=1e-12)


class TestOccupations:
    def test_basis_state_occupation(self):
        basis = build_basis(ModeWindow(0, 2), 2)
        state = np.zeros(basis.dim)
        idx = basis.index_of((0, 1, 1))
        state[idx] = 1.0
        np.testing.assert_allclose(occupations(basis, state), [0.0, 1.0, 1.0])

    def test_total_preserved(self, ladder_couplings, rng):
        operator = build_hamiltonian(ladder_couplings, 2)
        state = rng.normal(size=operator.dim) + 1j * rng.normal(size=operator.dim)
        state /= np.linalg.norm(state)
        assert occupations(operator.basis, state).sum() == pytest.approx(2.0, rel=1e-12)


class TestWriters:
    def test_files(self, ladder_couplings, tmp_path):
        operator = build_hamiltonian(ladder_couplings, 2)
        values, vectors = eigensolve(operator, n_states=2)
        write_eigenvalues(values, tmp_path / "eigenvalues.csv")
        write_occupations(operator.basis, vectors, tmp_path / "occupations.csv")
        ev_lines = (tmp_path / "eigenvalues.csv").read_text().splitlines()
        assert ev_lines[0] == "index,value"
        assert len(ev_lines) == 3
        occ_lines = (tmp_path / "occupations.csv").read_text().splitlines()
        assert occ_lines[0] == "state,l,p,occupation"
        assert len(occ_lines) == 1 + 2 * 3
