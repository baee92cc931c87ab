"""Bosonic many-body layer on top of the coupling matrices.

Fixed particle number throughout: the basis is the set of occupation
vectors with a given total, so number conservation is structural rather
than numerical. The basis is an integer table ranked by the combinatorial
number system. The Hamiltonian's diagonal is built one mode pair at a time
and its hops one source mode at a time, each with array operations over all
states, in the same arithmetic as the independent operator-algebra
construction the tests compare against. Time evolution is one Chebyshev
recurrence for the whole time grid.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.special
from scipy.sparse.linalg import eigsh

from .couplings import CouplingSet
from .io import write_table
from .modes import ModeIndex

__all__ = [
    "BasisTooLarge",
    "FockBasis",
    "build_basis",
    "ManyBodyOperator",
    "build_hamiltonian",
    "single_particle_matrix",
    "interaction_shift",
    "eigensolve",
    "time_evolve",
    "occupations",
    "write_eigenvalues",
    "write_occupations",
]

MAX_BASIS_DIM = 200_000
DENSE_CUTOFF = 2000
RESIDUAL_RTOL = 1e-9
LANCZOS_SEED = 20240817


class BasisTooLarge(ValueError):
    def __init__(self, dim: int):
        self.dim = dim
        super().__init__(
            f"Fock basis would have {dim} states (cap {MAX_BASIS_DIM}); "
            "shrink the window or the particle number"
        )


@dataclass(frozen=True, eq=False)
class FockBasis:
    """Occupation-number basis at fixed total particle number.

    ``table`` holds one occupation vector per row (dim x modes), the rows
    in lexicographic order with the first mode slowest. A row's position is
    its rank in the combinatorial number system, so ``rank`` maps a batch
    of occupation vectors back to positions without a lookup table.
    """

    modes: tuple[ModeIndex, ...]
    n_particles: int
    table: np.ndarray

    @property
    def dim(self) -> int:
        return self.table.shape[0]

    @property
    def states(self) -> tuple[tuple[int, ...], ...]:
        """The rows of ``table`` as tuples, rebuilt on every call."""
        return tuple(map(tuple, self.table.tolist()))

    def rank(self, occ: np.ndarray) -> np.ndarray:
        """Positions of the occupation vectors in the rows of ``occ``.

        With R_s the particles in modes s..m-1, the states sorting after a
        vector number sum_{s=1}^{m-1} C(R_s + m-1-s, m-s); the rank is
        dim - 1 minus that count. Exact in int64 because every term is at
        most dim. Rows must be valid states of this basis.
        """
        m = len(self.modes)
        rest = self.n_particles - np.cumsum(occ[:, :-1], axis=1)
        return self.dim - 1 - self._after[np.arange(m - 1), rest].sum(axis=1)

    def index_of(self, state: tuple[int, ...]) -> int:
        occ = np.asarray(state)
        if (
            occ.shape != (len(self.modes),)
            or occ.min() < 0
            or occ.sum() != self.n_particles
        ):
            raise KeyError(state)
        return int(self.rank(occ[None, :])[0])

    @property
    def _after(self) -> np.ndarray:
        # _after[s - 1, r] = C(r + m-1-s, m-s) for s = 1..m-1, r = 0..N+1;
        # r = N+1 is never a state's R_s, only one hop past it (_rank_steps)
        cache = self.__dict__.get("_after_cache")
        if cache is None:
            m, n = len(self.modes), self.n_particles
            cache = np.array(
                [[math.comb(r + m - 1 - s, m - s) for r in range(n + 2)] for s in range(1, m)],
                dtype=np.int64,
            ).reshape(m - 1, n + 2)
            object.__setattr__(self, "_after_cache", cache)
        return cache


def build_basis(modes, n_particles: int) -> FockBasis:
    """All occupation vectors of n_particles over the given modes.

    Accepts a mode window or any sequence of mode indices. Refuses to build
    a basis past the dimension cap instead of thrashing memory.
    """
    if hasattr(modes, "modes"):
        modes = modes.modes
    modes = tuple(modes)
    if n_particles < 0:
        raise ValueError("particle number must be non-negative")
    if not modes:
        raise ValueError("need at least one mode")
    m = len(modes)
    dim = math.comb(n_particles + m - 1, n_particles)
    if dim > MAX_BASIS_DIM:
        raise BasisTooLarge(dim)
    # stars and bars: the m-1 bar positions among n_particles + m - 1 slots,
    # taken in lexicographic order, give the states in lexicographic order
    bars = np.fromiter(
        itertools.chain.from_iterable(
            itertools.combinations(range(n_particles + m - 1), m - 1)
        ),
        dtype=np.int64,
        count=dim * (m - 1),
    ).reshape(dim, m - 1)
    table = np.diff(bars, axis=1, prepend=-1, append=n_particles + m - 1) - 1
    table.flags.writeable = False
    return FockBasis(modes=modes, n_particles=n_particles, table=table)


@dataclass
class ManyBodyOperator:
    basis: FockBasis
    matrix: scipy.sparse.csr_matrix

    @property
    def dim(self) -> int:
        return self.basis.dim

    def norm_one(self) -> float:
        """Maximum absolute column sum, used to scale residual tolerances."""
        return float(np.max(np.abs(self.matrix).sum(axis=0)))


def _rank_steps(basis: FockBasis) -> tuple[np.ndarray, np.ndarray]:
    """Prefix sums that give the rank of every state after one hop.

    In the terms of FockBasis.rank, moving a particle from mode j to mode i
    raises R_s by one for j < s <= i, or lowers it by one for i < s <= j,
    and leaves every other R_s alone. Column k of ``up`` sums over
    s = 1..k the rise of C(R_s + m-1-s, m-s) when R_s rises by one, and
    ``down`` its fall when R_s falls by one (0 where R_s = 0, which no hop
    lowers). The hop then takes a state's rank down by up[i] - up[j] when
    i > j and by down[i] - down[j] when i < j, exactly, in integers.
    """
    m, n = len(basis.modes), basis.n_particles
    rest = n - np.cumsum(basis.table[:, :-1], axis=1)
    s, after = np.arange(m - 1), basis._after
    here = after[s, rest]
    up = np.zeros((basis.dim, m), dtype=np.int64)
    down = np.zeros((basis.dim, m), dtype=np.int64)
    np.cumsum(after[s, rest + 1] - here, axis=1, out=up[:, 1:])
    np.cumsum(here - after[s, np.maximum(rest - 1, 0)], axis=1, out=down[:, 1:])
    return up, down


def build_hamiltonian(couplings: CouplingSet, n_particles: int) -> ManyBodyOperator:
    """Assemble the fixed-number Hamiltonian as a sparse matrix.

    Diagonal: chemical potentials plus the density-density energy
    sign * sum_{n,q} u[n,q] * (3 occ_n + 4 occ_n occ_q), attractive meaning
    sign -1. Off-diagonal: t[i, j] moves a particle from j to i with the
    usual bosonic matrix element. Only entries inside the fixed-number
    sector are ever generated. Each diagonal term is one array operation
    over all states, accumulated in the order of the per-entry sums above;
    the hops out of one mode j are one batch over every destination i, the
    target ranks taken from _rank_steps and each value computed as
    t[i, j] * (sqrt(n_j) * sqrt(n_i + 1)). The matrix is bit-identical to
    the operator-algebra construction.
    """
    basis = build_basis(couplings.window, n_particles)
    m = len(basis.modes)
    mu = couplings.mu
    t = couplings.t
    u = couplings.u
    sign = -1.0 if couplings.interaction_sign == "attractive" else 1.0
    occ = basis.table
    counts = occ.astype(float)

    diag = np.zeros(basis.dim)
    for n in range(m):
        diag += mu[n] * counts[:, n]
    for n in range(m):
        for q in range(m):
            if u[n, q] != 0.0:
                diag += sign * u[n, q] * (3.0 * counts[:, n] + 4.0 * counts[:, n] * counts[:, q])
    every = np.arange(basis.dim)
    rows, cols, vals = [every], [every], [diag.astype(complex)]
    up, down = _rank_steps(basis)
    for j in range(m):
        # every hop out of mode j at once, one row per destination i
        dest = np.flatnonzero(t[:, j] != 0j)
        dest = dest[dest != j]
        if not dest.size:
            continue
        source = np.flatnonzero(occ[:, j])
        steps = np.where(
            (dest > j)[:, None],
            up[source][:, dest].T - up[source, j],
            down[source][:, dest].T - down[source, j],
        )
        rows.append((source - steps).ravel())
        cols.append(np.tile(source, dest.size))
        n_i = counts[source][:, dest].T
        vals.append((t[dest, j][:, None] * (np.sqrt(counts[source, j]) * np.sqrt(n_i + 1.0))).ravel())
    matrix = scipy.sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(basis.dim, basis.dim),
        dtype=complex,
    )
    return ManyBodyOperator(basis=basis, matrix=matrix)


def single_particle_matrix(couplings: CouplingSet) -> np.ndarray:
    """Hermitian one-body matrix: chemical potentials on the diagonal plus t."""
    h = couplings.t.copy()
    h[np.diag_indices_from(h)] = couplings.mu
    return h


def interaction_shift(couplings: CouplingSet) -> np.ndarray:
    """Diagonal energy a single particle picks up from the interaction terms."""
    sign = -1.0 if couplings.interaction_sign == "attractive" else 1.0
    return sign * (3.0 * couplings.u.sum(axis=1) + 4.0 * np.diag(couplings.u))


def eigensolve(
    operator: ManyBodyOperator, n_states: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Lowest eigenpairs, dense below the cutoff and Lanczos above it.

    ``n_states`` must lie between 1 and the basis dimension; the full
    spectrum is always solved densely, since Lanczos needs k < dim. Every
    returned pair is residual-checked against the one-norm of the
    operator; a failed check raises instead of returning bad pairs.
    """
    dim = operator.dim
    if n_states is not None and not 1 <= n_states <= dim:
        raise ValueError(f"n_states must be between 1 and the basis dimension {dim}")
    if dim < DENSE_CUTOFF or n_states == dim:
        # Fortran order lets LAPACK work in place instead of on a copy
        dense = operator.matrix.toarray(order="F")
        subset = None if n_states in (None, dim) else [0, n_states - 1]
        values, vectors = scipy.linalg.eigh(dense, overwrite_a=True, subset_by_index=subset)
    else:
        k = n_states if n_states is not None else 6
        # a fixed random start vector makes the result repeatable; a
        # constant one could be orthogonal to an odd-parity ground state
        v0 = np.random.default_rng(LANCZOS_SEED).standard_normal(dim)
        values, vectors = eigsh(operator.matrix, k=k, which="SA", v0=v0)
        order = np.argsort(values)
        values = values[order]
        vectors = vectors[:, order]
    residuals = np.linalg.norm(operator.matrix @ vectors - vectors * values, axis=0)
    bound = RESIDUAL_RTOL * max(operator.norm_one(), 1.0)
    failed = np.flatnonzero(~(residuals <= bound))  # a NaN residual fails too
    if failed.size:
        idx = int(failed[0])
        raise RuntimeError(
            f"eigenpair {idx} residual {residuals[idx]:.3e} exceeds "
            f"{RESIDUAL_RTOL:.1e} * max(norm, 1)"
        )
    return values, vectors


def _chebyshev_terms(x: float) -> int:
    """Series length that resolves exp(-i x y), |y| <= 1, to machine precision.

    The coefficients are (2 - delta_k0) (-i)^k J_k(x), and
    |J_k(x)| <= (x/2)^k / k!. Once k + 1 >= x each bound is at most half the
    one before, so the terms from K on sum to at most 4 (x/2)^K / K!; K is
    the first such count that puts this tail below the double epsilon.
    """
    if x == 0.0:
        return 1
    count = max(1, math.ceil(x))
    log_tail = math.log(np.finfo(float).eps / 4.0)
    while count * math.log(x / 2.0) - math.lgamma(count + 1) > log_tail:
        count += 1
    return count


_MINUS_I_POWERS = np.array([1.0, -1j, -1.0, 1j])


def time_evolve(
    operator: ManyBodyOperator, initial: np.ndarray, times
) -> np.ndarray:
    """Evolve a state through exp(-i H t) on the sparse Hamiltonian.

    Returns one row per requested time, in any order: negative, repeated
    and zero times included. One Chebyshev recurrence (Tal-Ezer and
    Kosloff, J. Chem. Phys. 81, 3967 (1984)) serves the whole grid. The
    Gershgorin discs, diagonal plus or minus the off-diagonal absolute row
    sums, bound the spectrum by [c - a, c + a], and
    exp(-i H t) = exp(-i c t) sum_k (2 - delta_k0) (-i)^k J_k(a t) T_k((H - c) / a).
    The series is cut where the Bessel tail bound |J_k(x)| <= (x/2)^k / k!
    drops below the double epsilon at the largest |a t| (_chebyshev_terms),
    so no basis size short of MAX_BASIS_DIM is refused. A non-finite time
    has no finite series and raises ValueError.
    """
    initial = np.asarray(initial, dtype=complex)
    if initial.shape != (operator.dim,):
        raise ValueError("initial state has the wrong dimension")
    times = np.asarray(times, dtype=float).ravel()
    if not np.isfinite(times).all():
        raise ValueError("evolution times must be finite")
    h = operator.matrix
    diag = h.diagonal().real
    off_diagonal = h - scipy.sparse.diags(diag)
    radius = np.asarray(abs(off_diagonal).sum(axis=1)).ravel()
    low, high = np.min(diag - radius), np.max(diag + radius)
    center, half_width = (high + low) / 2.0, (high - low) / 2.0
    x = half_width * times
    ks = np.arange(_chebyshev_terms(float(np.max(np.abs(x), initial=0.0))))
    weights = np.where(ks == 0, 1.0, 2.0) * _MINUS_I_POWERS[ks % 4] * scipy.special.jv(ks, x[:, None])
    out = np.multiply.outer(weights[:, 0], initial)
    if ks.size > 1:
        # 2 (H - c) / a, so that T_{k+1} = scaled T_k - T_{k-1}
        scaled = (off_diagonal + scipy.sparse.diags(diag - center)) * (2.0 / half_width)
    previous = current = initial
    for k in ks[1:]:
        step = scaled @ current
        previous, current = current, (0.5 * step if k == 1 else step - previous)
        out += np.multiply.outer(weights[:, k], current)
    return out * np.exp(-1j * center * times)[:, None]


def occupations(basis: FockBasis, state: np.ndarray) -> np.ndarray:
    """Expected occupation of each mode in a normalized many-body state."""
    weights = np.abs(np.asarray(state)) ** 2
    return weights @ basis.table


def write_eigenvalues(values, path) -> Path:
    values = np.asarray(values, dtype=float)
    return write_table(path, "index,value", [np.arange(values.size), values])


def write_occupations(basis: FockBasis, vectors: np.ndarray, path) -> Path:
    """Per-eigenstate mode occupations, one row per (state, mode)."""
    vectors = np.asarray(vectors)
    n_states, n_modes = vectors.shape[1], len(basis.modes)
    occ = np.empty((n_states, n_modes))
    for s in range(n_states):
        occ[s] = occupations(basis, vectors[:, s])
    columns = [
        np.repeat(np.arange(n_states), n_modes),
        np.tile([m.l for m in basis.modes], n_states),
        np.tile([m.p for m in basis.modes], n_states),
        occ.ravel(),
    ]
    return write_table(path, "state,l,p,occupation", columns)
