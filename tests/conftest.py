import math

import numpy as np
import pytest
import scipy.linalg

from lglattice import BeamParameters, DensityProfile, Harmonic, brute_force_coupling

# collected by the acceptance tests, echoed after the run so the
# per-criterion lines survive pytest's output capture
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


@pytest.fixture
def beam():
    return BeamParameters(second_order_scale=0.1, interaction_sign="attractive")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_profile(rng, max_order=3, radius=4.0, with_phases=True):
    """Random valid profile: amplitudes summing below the mean keep the
    density non-negative for any phases."""
    k_count = int(rng.integers(1, max_order + 1))
    raw = rng.uniform(0.2, 1.0, size=k_count)
    weights = raw / raw.sum() * rng.uniform(0.5, 0.98)
    phases = rng.uniform(-np.pi, np.pi, size=k_count) if with_phases else np.zeros(k_count)
    harmonics = tuple(
        Harmonic(k + 1, float(c), float(ph)) for k, (c, ph) in enumerate(zip(weights, phases))
    )
    return DensityProfile(radius=radius, harmonics=harmonics)


def per_mode_radial_profile(mode, rho):
    """g_{l,p}(rho) of one mode, evaluated on its own: the reference that every
    row of the batched modes.radial_profiles must match bit for bit.

    c (sqrt(2) rho)^|l| exp(-rho^2) L_p^|l|(2 rho^2), rho in waists, the
    Laguerre factor by its three-term recurrence with Python scalars for p
    and |l|.
    """
    rho = np.asarray(rho, dtype=float)
    a, p = abs(mode.l), mode.p
    u = rho**2
    x = 2.0 * u
    prev, cur = np.ones_like(x), 1.0 + a - x
    laguerre = prev if p == 0 else cur
    for i in range(1, p):
        prev, cur = cur, ((2 * i + a + 1 - x) * cur - (i + a) * prev) / (i + 1)
        laguerre = cur
    log_ratio = math.lgamma(p + 1) - math.lgamma(p + a + 1)
    c = math.sqrt(2.0 / math.pi) * math.exp(0.5 * log_ratio)
    return c * (np.sqrt(2.0) * rho) ** a * np.exp(-u) * laguerre


def forbidden_leak(n, m, profile, beam, brute):
    """None for an allowed hop; for a forbidden one, |brute| over sqrt(T_nn T_mm).

    A hop is forbidden, as in check's selection rule, when l differs by an
    order the profile does not carry (same l, different p stays allowed).
    The fast value there is an exact zero, and for a non-negative density
    the oracle's round-off is bounded relative to the Cauchy-Schwarz bound
    sqrt(T_nn T_mm), the diagonals taken from the oracle's "mu" values.
    """
    dl = abs(n.l - m.l)
    if dl == 0 or dl in profile.active_orders:
        return None
    t_nn, t_mm = (brute_force_coupling(mode, mode, "mu", profile, beam).real for mode in (n, m))
    return abs(brute) / math.sqrt(t_nn * t_mm)


def kron_hamiltonian(couplings, n_particles):
    """Operator-algebra construction of the fixed-number Hamiltonian.

    Ladder operators truncated at n_particles quanta per mode are combined
    with np.kron, then the full matrix is projected onto the fixed-number
    sector, ordered to match the package basis. The number operator is the
    exact integer diagonal (its defining property), not bdag @ b, which
    would smuggle in sqrt(2)**2 rounding.
    """
    m = couplings.size
    cap = n_particles + 1
    b = np.diag(np.sqrt(np.arange(1, cap)), k=1).astype(complex)
    bdag = b.conj().T
    number = np.diag(np.arange(cap, dtype=float)).astype(complex)
    eye = np.eye(cap, dtype=complex)

    def site_op(op, site):
        out = np.array([[1.0 + 0j]])
        for s in range(m):
            out = np.kron(out, op if s == site else eye)
        return out

    lower = [site_op(b, s) for s in range(m)]
    raise_ = [site_op(bdag, s) for s in range(m)]
    counts = [site_op(number, s) for s in range(m)]

    dim = cap**m
    ham = np.zeros((dim, dim), complex)
    sign = -1.0 if couplings.interaction_sign == "attractive" else 1.0
    for n in range(m):
        ham = ham + couplings.mu[n] * counts[n]
    for n in range(m):
        for q in range(m):
            if couplings.u[n, q] != 0.0:
                ham = ham + sign * couplings.u[n, q] * (
                    3.0 * counts[n] + 4.0 * (counts[n] @ counts[q])
                )
    for i in range(m):
        for j in range(m):
            if i != j and couplings.t[i, j] != 0:
                ham = ham + couplings.t[i, j] * (raise_[i] @ lower[j])

    occupations = []
    for idx in range(dim):
        rem, occ = idx, []
        for s in range(m):
            occ.append(rem // cap ** (m - 1 - s))
            rem %= cap ** (m - 1 - s)
        occupations.append(tuple(occ))
    keep = sorted(
        (i for i, occ in enumerate(occupations) if sum(occ) == n_particles),
        key=lambda i: occupations[i],
    )
    states = tuple(occupations[i] for i in keep)
    return ham[np.ix_(keep, keep)], states


def dense_evolution(operator, initial, times):
    """exp(-i H t) through the full dense eigendecomposition."""
    values, vectors = scipy.linalg.eigh(operator.matrix.toarray())
    phases = np.exp(-1j * np.outer(times, values))
    return (phases * (vectors.conj().T @ initial)) @ vectors.T
