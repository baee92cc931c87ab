import lglattice
import lglattice.cli as cli
from lglattice import couplings, density, design, manybody, modes
from conftest import kron_hamiltonian

MODULES = (couplings, density, design, manybody, modes)


def test_package_exports_every_public_name_of_its_modules_once():
    names = [name for module in MODULES for name in module.__all__]
    assert len(set(names)) == len(names), "a name is public in two modules"
    assert lglattice.__all__ == sorted(names)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(lglattice, name) is getattr(module, name), name


# Every package name the benchmark under perfbench/ reads. Dropping or
# renaming one fails here, not as a failed or unchecked benchmark job.
BENCHMARK_READS = {
    "cli": ("main", "parse_config", "run", "check", "ORACLE_RTOL", "ORACLE_FLOOR", "FLUX_ATOL"),
    "couplings": ("ModeWindow", "CouplingSet", "compute_couplings", "brute_force_coupling", "hopping_uniformity"),
    "density": ("DensityProfile", "Harmonic", "validate_nonnegative", "NEGATIVITY_TOLERANCE"),
    "design": ("design_power_law", "design_fluxes", "preset_profile", "fit_power_law", "plaquette_fluxes"),
    "manybody": (
        "build_basis", "build_hamiltonian", "eigensolve", "occupations", "time_evolve",
        "RESIDUAL_RTOL", "DENSE_CUTOFF",
    ),
    "modes": ("BeamParameters", "mode_detuning"),
}


def test_names_the_benchmark_reads_exist():
    layers = {module.__name__.rsplit(".", 1)[-1]: module for module in (*MODULES, cli)}
    missing = [
        f"{layer}.{name}" for layer, names in BENCHMARK_READS.items()
        for name in names if not hasattr(layers[layer], name)
    ]
    assert not missing


def test_shapes_the_benchmark_reads():
    beam = modes.BeamParameters()
    profile = density.DensityProfile(harmonics=(density.Harmonic(1, 0.3, 0.2),))
    window = couplings.ModeWindow(0, 2)
    cs = couplings.compute_couplings(window, profile, beam)
    orders = cs.metadata["quadrature"]["radial_orders"]
    assert orders and all(isinstance(order, int) for order in orders)
    n, m = window.modes[:2]
    assert isinstance(couplings.brute_force_coupling(n, m, "t", profile, beam), complex)
    sub = couplings.CouplingSet(window=window, mu=cs.mu, t=cs.t, u=cs.u, interaction_sign=cs.interaction_sign)
    op = manybody.build_hamiltonian(sub, 2)
    assert op.basis.states == tuple(map(tuple, op.basis.table.tolist()))
    assert op.dim == op.matrix.shape[0]
    reference, states = kron_hamiltonian(sub, 2)
    assert reference.shape == (len(states), len(states))
    # lattice_design unpacks each flux row as (l, p, flux) and compares fit.ks
    # with a tuple of Python ints
    ladder = couplings.compute_couplings(window, design.preset_profile("triangular_ladder"), beam)
    rows = design.plaquette_fluxes(ladder, "narrow")
    assert rows and all(type(row) is tuple and list(map(type, row)) == [int, int, float] for row in rows)
    ks = design.fit_power_law(ladder).ks
    assert type(ks) is tuple and ks and all(type(k) is int for k in ks)
