"""End-to-end acceptance checks for the whole pipeline.

Each test exercises one headline capability, prints a PASS/FAIL line (echoed
in the terminal summary) and enforces the stated tolerance. Tolerances and
time budgets live next to the checks they govern.
"""

import math
import time

import numpy as np
import pytest

import conftest
from lglattice import (
    BeamParameters,
    DensityProfile,
    Harmonic,
    ModeIndex,
    ModeWindow,
    brute_force_coupling,
    build_hamiltonian,
    compute_couplings,
    design_fluxes,
    design_power_law,
    fit_power_law,
    hopping_uniformity,
    mode_detuning,
    plaquette_fluxes,
    preset_profile,
    radial_profiles,
    rotate,
    single_particle_matrix,
    time_evolve,
    wrap_angle,
)
from lglattice.cli import ORACLE_RTOL, RunConfig, run

BEAM = BeamParameters(second_order_scale=0.1, interaction_sign="attractive")


def report(name: str, passed: bool, detail: str):
    line = f"{'PASS' if passed else 'FAIL'}  {name}: {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert passed, line


def test_mode_set_is_orthonormal():
    # Gram matrix of 30 modes (l in [-7, 7], p in {0, 1}) from full 2D
    # quadrature must be the identity to 1e-8 in max norm, inside 10 s
    start = time.perf_counter()
    modes = [ModeIndex(l, p) for p in (0, 1) for l in range(-7, 8)]
    order = 200
    x, w = np.polynomial.legendre.leggauss(order)
    r = 0.5 * (x + 1.0) * 9.0
    w_r = 0.5 * 9.0 * w * r
    n_phi = 256
    phi = np.arange(n_phi) * (2.0 * np.pi / n_phi)
    w_phi = 2.0 * np.pi / n_phi
    # each mode's g(r) exp(-i l phi), at waist 1
    ls = np.array([m.l for m in modes])
    values = (radial_profiles(modes, r[:, None]) * np.exp(-1j * ls[:, None, None] * phi)).reshape(len(modes), -1)
    weights = (w_r[:, None] * np.full((1, n_phi), w_phi)).ravel()
    gram = np.conj(values * weights[None, :]) @ values.T
    deviation = float(np.max(np.abs(gram - np.eye(len(modes)))))
    elapsed = time.perf_counter() - start
    report(
        "mode orthonormality",
        deviation <= 1e-8 and elapsed < 10.0,
        f"max |Gram - I| = {deviation:.3e} in {elapsed:.2f}s",
    )


def test_factorized_couplings_match_brute_force():
    # >= 20 randomized (profile, pair) cases, every integral kind, within
    # 1e-6 relative (absolute floor 1e-9); a forbidden hop must be an exact
    # zero, its oracle within ORACLE_RTOL of the Cauchy-Schwarz bound;
    # inside 60 s
    start = time.perf_counter()
    rng = np.random.default_rng(7151)
    window = ModeWindow(-5, 5, p_values=(0, 1))
    modes = window.modes
    worst = worst_leak = 0.0
    cases = forbidden = 0
    zeros = True
    for _ in range(8):
        profile = conftest.random_profile(rng, max_order=3)
        couplings = compute_couplings(window, profile, BEAM)
        for kind in ("t", "u", "mu"):
            i, j = (int(v) for v in rng.integers(0, len(modes), size=2))
            if kind == "t" and i == j:
                j = (j + 1) % len(modes)
            n, m = modes[i], modes[j]
            brute = brute_force_coupling(n, m, kind, profile, BEAM)
            cases += 1
            if kind == "t":
                fast = couplings.t[i, j]
                leak = conftest.forbidden_leak(n, m, profile, BEAM, brute)
                if leak is not None:
                    zeros = zeros and fast == 0
                    worst_leak = max(worst_leak, leak)
                    forbidden += 1
                    continue
            elif kind == "u":
                fast = couplings.u[i, j]
            else:
                fast = couplings.mu[i] - mode_detuning(n, BEAM)
            scale = max(abs(fast), abs(brute), 1e-9)
            worst = max(worst, abs(fast - brute) / scale)
    elapsed = time.perf_counter() - start
    report(
        "factorized vs 2D quadrature",
        cases >= 20 and worst <= 1e-6 and zeros and worst_leak <= ORACLE_RTOL and elapsed < 60.0,
        f"{cases} cases, worst relative error {worst:.3e}; {forbidden} forbidden hops, "
        f"exact zeros: {zeros}, worst leak {worst_leak:.3e} of the bound in {elapsed:.1f}s",
    )


def test_preset_hopping_ranges():
    window = ModeWindow(-4, 4)
    modes = window.modes

    def ranges(couplings):
        active, zero = set(), set()
        for i, a in enumerate(modes):
            for j, b in enumerate(modes):
                if i == j:
                    continue
                dl = abs(a.l - b.l)
                if couplings.t[i, j] != 0j:
                    active.add(dl)
                else:
                    zero.add(dl)
        return active, zero

    chain = compute_couplings(window, preset_profile("chain"), BEAM)
    chain_active, chain_zero = ranges(chain)
    chain_ok = chain_active == {1} and 2 in chain_zero

    ladder = compute_couplings(window, preset_profile("triangular_ladder"), BEAM)
    ladder_active, _ = ranges(ladder)
    flipped = compute_couplings(
        window, preset_profile("triangular_ladder", phase1=math.pi, phase2=0.0), BEAM
    )
    aligned = compute_couplings(
        window, preset_profile("triangular_ladder", phase1=0.0, phase2=math.pi), BEAM
    )
    sign_ok = (
        flipped.t[1, 0].real < 0 < aligned.t[1, 0].real
        and aligned.t[2, 0].real < 0 < flipped.t[2, 0].real
    )
    ladder_ok = ladder_active == {1, 2} and sign_ok

    extended = compute_couplings(window, preset_profile("extended_triangle"), BEAM)
    ext_active, _ = ranges(extended)
    ext_ok = ext_active == {1, 2, 3}

    report(
        "preset hopping ranges",
        chain_ok and ladder_ok and ext_ok,
        f"chain {sorted(chain_active)}, ladder {sorted(ladder_active)} "
        f"(signs tunable: {sign_ok}), extended {sorted(ext_active)}",
    )


def test_power_law_decay_programmable(tmp_path):
    # beta in {0.5, 1, 2} with ranges up to 7 on a 15-mode window: fitted
    # slope within 0.02 of -beta and the matrix banded to exactly 7
    # off-diagonals, inside 120 s
    start = time.perf_counter()
    window = ModeWindow(-7, 7)
    modes = window.modes
    details = []
    ok = True
    for beta in (0.5, 1.0, 2.0):
        profile = design_power_law(beta, 7, window=window, beam=BEAM)
        couplings = compute_couplings(window, profile, BEAM)
        slope = fit_power_law(couplings).hopping_slope
        banded = True
        for i, a in enumerate(modes):
            for j, b in enumerate(modes):
                dl = abs(a.l - b.l)
                if i == j:
                    continue
                inside = 1 <= dl <= 7
                entry = couplings.t[i, j]
                if inside and entry == 0j:
                    banded = False
                if not inside and entry != 0j:
                    banded = False
        run(RunConfig(window=window, beam=BEAM, profile=profile), ["heatmap"], tmp_path / f"beta_{beta}")
        ok = ok and abs(slope + beta) <= 0.02 and banded
        details.append(f"beta={beta}: slope {slope:+.4f}, banded={banded}")
    elapsed = time.perf_counter() - start
    report(
        "programmable power-law decay",
        ok and elapsed < 120.0,
        "; ".join(details) + f" in {elapsed:.1f}s",
    )


def test_flux_targets_realized_on_every_plaquette():
    window = ModeWindow(-7, 7)
    profile = design_fluxes(math.pi, 0.5 * math.pi)
    couplings = compute_couplings(window, profile, BEAM)
    worst_narrow = max(
        abs(wrap_angle(flux - math.pi))
        for _, _, flux in plaquette_fluxes(couplings, "narrow")
    )
    worst_wide = max(
        abs(wrap_angle(flux - 0.5 * math.pi))
        for _, _, flux in plaquette_fluxes(couplings, "wide")
    )
    report(
        "target fluxes on every plaquette",
        worst_narrow <= 1e-8 and worst_wide <= 1e-8,
        f"narrow off by {worst_narrow:.3e}, wide by {worst_wide:.3e}",
    )


def test_rotation_is_a_gauge_transformation():
    # 10 random profiles x 10 random angles: hoppings transform with the
    # azimuthal phase factor (1e-10), spectra and fluxes invariant (1e-9)
    rng = np.random.default_rng(90210)
    window = ModeWindow(-3, 3)
    modes = window.modes
    l_values = np.array([m.l for m in modes])
    worst_t, worst_eig, worst_flux = 0.0, 0.0, 0.0
    for _ in range(10):
        raw = rng.uniform(0.2, 1.0, size=3)
        weights = raw / raw.sum() * rng.uniform(0.6, 0.95)
        phases = rng.uniform(-np.pi, np.pi, size=3)
        profile = DensityProfile(
            harmonics=tuple(
                Harmonic(k + 1, float(c), float(ph))
                for k, (c, ph) in enumerate(zip(weights, phases))
            )
        )
        base = compute_couplings(window, profile, BEAM)
        base_eigs = np.linalg.eigvalsh(single_particle_matrix(base))
        base_fluxes = np.array(
            [f for kind in ("narrow", "wide") for _, _, f in plaquette_fluxes(base, kind)]
        )
        for angle in rng.uniform(-np.pi, np.pi, size=10):
            rotated = compute_couplings(window, rotate(profile, float(angle)), BEAM)
            phase = np.exp(-1j * (l_values[:, None] - l_values[None, :]) * angle)
            worst_t = max(worst_t, float(np.max(np.abs(rotated.t - base.t * phase))))
            eigs = np.linalg.eigvalsh(single_particle_matrix(rotated))
            worst_eig = max(worst_eig, float(np.max(np.abs(eigs - base_eigs))))
            fluxes = np.array(
                [f for kind in ("narrow", "wide")
                 for _, _, f in plaquette_fluxes(rotated, kind)]
            )
            wrapped = np.abs([wrap_angle(d) for d in fluxes - base_fluxes])
            worst_flux = max(worst_flux, float(np.max(wrapped)))
    report(
        "rotation acts as a gauge transformation",
        worst_t <= 1e-10 and worst_eig <= 1e-9 and worst_flux <= 1e-9,
        f"hopping {worst_t:.3e}, spectrum {worst_eig:.3e}, flux {worst_flux:.3e}",
    )


def test_interactions_blind_to_harmonic_phases():
    window = ModeWindow(-3, 3, p_values=(0, 1))
    amplitudes = (0.5, 0.25, 0.15)
    phase_sets = [
        (0.0, 0.0, 0.0),
        (0.9, -1.3, 2.2),
        (math.pi, 0.5 * math.pi, -0.1),
    ]
    matrices = []
    for phases in phase_sets:
        profile = DensityProfile(
            harmonics=tuple(
                Harmonic(k + 1, c, ph) for k, (c, ph) in enumerate(zip(amplitudes, phases))
            )
        )
        matrices.append(compute_couplings(window, profile, BEAM).u)
    identical = all(np.array_equal(matrices[0], u) for u in matrices[1:])
    report(
        "interactions blind to harmonic phases",
        identical,
        f"{len(phase_sets)} phase sets, U matrices bit-identical: {identical}",
    )


def test_many_body_consistency():
    # three modes, up to two particles: entry-exact match with the
    # operator-algebra construction, structural number conservation,
    # conserved energy under evolution, and the single-mode bound state
    couplings = compute_couplings(
        ModeWindow(-1, 1), preset_profile("triangular_ladder"), BEAM
    )
    exact = True
    for n_particles in (1, 2):
        operator = build_hamiltonian(couplings, n_particles)
        reference, states = conftest.kron_hamiltonian(couplings, n_particles)
        if operator.basis.states != states:
            exact = False
        elif np.max(np.abs(operator.matrix.toarray() - reference)) != 0.0:
            exact = False

    operator = build_hamiltonian(couplings, 2)
    coo = operator.matrix.tocoo()
    conserved = all(
        sum(operator.basis.states[a]) == sum(operator.basis.states[b])
        for a, b in zip(coo.row, coo.col)
    )

    rng = np.random.default_rng(416)
    state = rng.normal(size=operator.dim) + 1j * rng.normal(size=operator.dim)
    state /= np.linalg.norm(state)
    trajectory = time_evolve(operator, state, np.linspace(0.0, 100.0, 80))
    dense = operator.matrix.toarray()
    energies = np.real(np.einsum("ti,ij,tj->t", trajectory.conj(), dense, trajectory))
    drift = float(np.max(np.abs(energies - energies[0])) / abs(energies[0]))

    single = compute_couplings(ModeWindow(0, 0), DensityProfile(harmonics=()), BEAM)
    bound = build_hamiltonian(single, 1).matrix[0, 0].real
    bound_ok = bound == single.mu[0] - 7.0 * single.u[0, 0]

    report(
        "many-body construction",
        exact and conserved and drift < 1e-9 and bound_ok,
        f"oracle exact: {exact}, number conserved: {conserved}, "
        f"energy drift {drift:.3e}, single-mode offset exact: {bound_ok}",
    )


def test_hopping_uniformity_reported(tmp_path):
    # translational invariance across the window is summarized per range;
    # the spread is reported, deliberately without a threshold
    config = RunConfig(window=ModeWindow(-4, 4), beam=BEAM, profile=preset_profile("triangular_ladder"))
    stats = hopping_uniformity(compute_couplings(config.window, config.profile, config.beam))
    [path] = run(config, ["uniformity"], tmp_path)
    lines = path.read_text().splitlines()
    shape_ok = (
        set(stats) == {1, 2}
        and all(
            s["min"] <= s["mean"] <= s["max"] and s["rel_spread"] >= 0.0
            for s in stats.values()
        )
        and lines[0] == "k,mean,min,max,rel_spread"
        and len(lines) == 3
    )
    spreads = ", ".join(f"k={k}: {stats[k]['rel_spread']:.3f}" for k in sorted(stats))
    report("hopping uniformity report", shape_ok, spreads)
