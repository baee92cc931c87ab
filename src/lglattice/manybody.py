"""Bosonic many-body layer on top of the coupling matrices.

Fixed particle number throughout: the basis is the set of occupation
vectors with a given total, so number conservation is structural rather
than numerical. The basis is an integer table ranked by the combinatorial
number system, and the Hamiltonian is assembled one mode or hop at a time
with array operations over all states, in the same arithmetic as the
independent operator-algebra construction the tests compare against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.sparse.linalg import eigsh, expm_multiply

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
        # _after[s - 1, r] = C(r + m-1-s, m-s) for s = 1..m-1, r = 0..N
        cache = self.__dict__.get("_after_cache")
        if cache is None:
            m, n = len(self.modes), self.n_particles
            cache = np.array(
                [[math.comb(r + m - 1 - s, m - s) for r in range(n + 1)] for s in range(1, m)],
                dtype=np.int64,
            ).reshape(m - 1, n + 1)
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


def build_hamiltonian(couplings: CouplingSet, n_particles: int) -> ManyBodyOperator:
    """Assemble the fixed-number Hamiltonian as a sparse matrix.

    Diagonal: chemical potentials plus the density-density energy
    sign * sum_{n,q} u[n,q] * (3 occ_n + 4 occ_n occ_q), attractive meaning
    sign -1. Off-diagonal: t[i, j] moves a particle from j to i with the
    usual bosonic matrix element. Only entries inside the fixed-number
    sector are ever generated. Each term is one array operation over all
    states, accumulated in the order of the per-entry sums above, so the
    matrix is bit-identical to the operator-algebra construction.
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
    for i in range(m):
        for j in range(m):
            if i == j or t[i, j] == 0j:
                continue
            source = np.flatnonzero(occ[:, j])
            target = occ[source]
            target[:, j] -= 1
            target[:, i] += 1
            rows.append(basis.rank(target))
            cols.append(source)
            vals.append(t[i, j] * (np.sqrt(counts[source, j]) * np.sqrt(counts[source, i] + 1.0)))
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

    Every returned pair is residual-checked against the one-norm of the
    operator; a failed check raises instead of returning bad pairs.
    """
    dim = operator.dim
    if dim < DENSE_CUTOFF:
        dense = operator.matrix.toarray()
        if n_states is not None and n_states < dim:
            values, vectors = scipy.linalg.eigh(dense, subset_by_index=[0, n_states - 1])
        else:
            values, vectors = scipy.linalg.eigh(dense)
    else:
        k = n_states if n_states is not None else 6
        if k >= dim:
            raise ValueError("n_states must be below the basis dimension")
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


def time_evolve(
    operator: ManyBodyOperator, initial: np.ndarray, times
) -> np.ndarray:
    """Evolve a state through exp(-i H t) on the sparse Hamiltonian.

    Returns one row per requested time. Uses the truncated Taylor series of
    Al-Mohy and Higham (scipy's expm_multiply), so no basis size short of
    MAX_BASIS_DIM is refused. Evenly spaced increasing times go through the
    interval variant, which estimates the operator norms once for the whole
    grid instead of once per time.
    """
    initial = np.asarray(initial, dtype=complex)
    if initial.shape != (operator.dim,):
        raise ValueError("initial state has the wrong dimension")
    times = np.asarray(times, dtype=float).ravel()
    generator = -1j * operator.matrix
    # the interval variant is only right on an increasing grid
    if times.size > 1 and times[-1] > times[0] and np.array_equal(
        times, np.linspace(times[0], times[-1], times.size)
    ):
        return expm_multiply(
            generator, initial, start=times[0], stop=times[-1], num=times.size, endpoint=True
        )
    out = np.empty((times.size, operator.dim), dtype=complex)
    for row, t in enumerate(times):
        out[row] = expm_multiply(t * generator, initial)
    return out


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
