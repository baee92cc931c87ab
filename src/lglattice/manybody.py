"""Bosonic many-body layer on top of the coupling matrices.

Fixed particle number throughout: the basis is the set of occupation
vectors with a given total, so number conservation is structural rather
than numerical. The basis is an integer table ranked by the combinatorial
number system. The Hamiltonian's diagonal is built one mode at a time
and its hops one mode pair at a time, both directions from one batch, each
with array operations over all states, in the same arithmetic as the
independent operator-algebra construction the tests compare against. Time
evolution is one Chebyshev recurrence for the whole time grid.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.special
from scipy.sparse.linalg import eigsh

from .couplings import CouplingSet
from .modes import ModeIndex

__all__ = [
    "BasisTooLarge",
    "EigenCertificateFailed",
    "FockBasis",
    "build_basis",
    "ManyBodyOperator",
    "build_hamiltonian",
    "single_particle_matrix",
    "eigensolve",
    "time_evolve",
    "occupations",
]

MAX_BASIS_DIM = 200_000
DENSE_CUTOFF = 2000
RESIDUAL_RTOL = 1e-9
LANCZOS_SEED = 20240817


class BasisTooLarge(ValueError):
    def __init__(self, dim: int):
        self.dim = dim
        super().__init__(f"Fock basis would have {dim} states (cap {MAX_BASIS_DIM}); "
                         "shrink the window or the particle number")


class EigenCertificateFailed(RuntimeError):
    """An eigenpair's residual exceeds RESIDUAL_RTOL on H / max(norm, 1)."""


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
        """Position of the row equal to ``state`` entry by entry, as tuples compare; else KeyError."""
        occ = np.asarray(state)
        if occ.dtype.kind == "f" and np.all((occ == np.trunc(occ)) & (occ >= 0) & (occ <= self.n_particles)):
            occ = occ.astype(np.int64)
        if occ.dtype.kind not in "biu" or occ.shape != (len(self.modes),):
            raise KeyError(state)
        if occ.min() < 0 or occ.sum() != self.n_particles:
            raise KeyError(state)
        return int(self.rank(occ[None, :])[0])

    @cached_property
    def _after(self) -> np.ndarray:
        # _after[s - 1, r] = C(r + m-1-s, m-s) for s = 1..m-1, r = 0..N+1;
        # r = N+1 is never a state's R_s, only one hop past it (_rank_steps)
        m, n = len(self.modes), self.n_particles
        return np.array(
            [[math.comb(r + m - 1 - s, m - s) for r in range(n + 2)] for s in range(1, m)],
            dtype=np.int64,
        ).reshape(m - 1, n + 2)


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
    combinations = itertools.combinations(range(n_particles + m - 1), m - 1)
    bars = np.fromiter(itertools.chain.from_iterable(combinations), dtype=np.int64, count=dim * (m - 1))
    bars = bars.reshape(dim, m - 1)
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
        """Maximum absolute column sum, used to scale residual tolerances.

        The column sums accumulate over the stored entries in row order, as
        a sum over ``abs(matrix)`` does, without building that copy.
        """
        h = self.matrix
        return float(np.bincount(h.indices, weights=np.abs(h.data), minlength=self.dim).max())


def _rank_steps(basis: FockBasis) -> np.ndarray:
    """Prefix sums that give the rank of every state after one hop.

    In the terms of FockBasis.rank, moving a particle from mode j to a mode
    i > j raises R_s by one for j < s <= i and leaves every other R_s alone.
    Column k sums over s = 1..k the rise of C(R_s + m-1-s, m-s) when R_s
    rises by one, so the hop takes a state's rank down by up[i] - up[j],
    exactly, in integers. The hop back from i to j undoes it, so this one
    table serves both directions of every pair.
    """
    m, n = len(basis.modes), basis.n_particles
    rest = n - np.cumsum(basis.table[:, :-1], axis=1)
    s, after = np.arange(m - 1), basis._after
    up = np.zeros((basis.dim, m), dtype=np.int64)
    np.cumsum(after[s, rest + 1] - after[s, rest], axis=1, out=up[:, 1:])
    return up


def _diagonal(mu: np.ndarray, u: np.ndarray, sign: float, counts: np.ndarray) -> np.ndarray:
    """Diagonal of H over all states from the mode-major counts (modes x dim).

    Term by term in the order of the sums in build_hamiltonian: the
    chemical potentials, then for each mode n one block whose row 0 is the
    sum so far and whose other rows are the terms of every q with
    u[n, q] != 0. A reduction over axis 0 adds the rows in order, as
    one += per term would, so the bits match the operator-algebra oracle.
    """
    diag = np.zeros(counts.shape[1])
    for n in range(len(mu)):
        diag += mu[n] * counts[n]
    for n in range(len(mu)):
        qs = np.flatnonzero(u[n] != 0.0)
        terms = np.empty((qs.size + 1, counts.shape[1]))
        terms[0] = diag
        np.multiply(4.0 * counts[n], counts[qs], out=terms[1:])
        terms[1:] += 3.0 * counts[n]
        terms[1:] *= (sign * u[n, qs])[:, None]
        diag = terms.sum(axis=0)
    return diag


def _hop_entries(basis: FockBasis, t: np.ndarray, counts: np.ndarray):
    """COO row, column and value pieces of every hop, both directions of
    each pair {i, j} with i > j from one batch per j (see build_hamiltonian).

    Its working tables (_rank_steps, the per-batch ranks and factors) are
    released on return, before the pieces are joined.
    """
    occ = basis.table
    up = _rank_steps(basis)
    rows, cols, vals = [], [], []
    for j in range(len(basis.modes) - 1):
        # every pair {i, j} with i > j at once, one row per i
        dest = j + 1 + np.flatnonzero(t[j + 1 :, j] != 0)
        source = np.flatnonzero(occ[:, j]).astype(np.int32)
        target = (source - (up[source, dest[:, None]] - up[source, j])).astype(np.int32).ravel()
        factor = np.sqrt(counts[j, source]) * np.sqrt(counts[dest[:, None], source] + 1.0)
        source = np.tile(source, dest.size)
        rows += [target, source]
        cols += [source, target]
        vals += [(t[dest, j][:, None] * factor).ravel(), (t[j, dest][:, None] * factor).ravel()]
    return rows, cols, vals


def build_hamiltonian(couplings: CouplingSet, n_particles: int) -> ManyBodyOperator:
    """Assemble the fixed-number Hamiltonian as a sparse matrix.

    Diagonal: chemical potentials plus the density-density energy
    sign * sum_{n,q} u[n,q] * (3 occ_n + 4 occ_n occ_q), attractive meaning
    sign -1. Off-diagonal: t[i, j] moves a particle from j to i with the
    usual bosonic matrix element. Only entries inside the fixed-number
    sector are ever generated. The diagonal adds its terms over all states
    in the order of the sums above, one block per mode n (_diagonal). The
    hop j -> i and its reverse join the same two states with the same
    factor sqrt(n_j) * sqrt(n_i + 1), so the hops come one batch per j over
    every i > j with t[i, j] != 0 (for a Hermitian t, where t[j, i] != 0):
    target ranks from _rank_steps and factors once, then t[i, j] * factor
    at (target, source) and t[j, i] * factor at (source, target). The
    matrix is bit-identical to the operator-algebra construction. H is
    float64 when t has exactly no imaginary part, as on phase-0 profiles,
    each entry equal to the one the complex build would store, and
    complex128 otherwise.
    """
    basis = build_basis(couplings.window, n_particles)
    # exact, with no tolerance: a profile that writes a sign as phase pi
    # leaves imaginary parts of order 1e-16 and stays complex
    dtype = complex if couplings.t.imag.any() else float
    t = couplings.t if dtype is complex else couplings.t.real
    sign = -1.0 if couplings.interaction_sign == "attractive" else 1.0
    # mode-major, so that each mode's counts over all states are contiguous
    counts = basis.table.T.astype(float, order="C")

    diag = _diagonal(couplings.mu, couplings.u, sign, counts)
    rows, cols, vals = _hop_entries(basis, t, counts)
    del counts
    # int32, as every rank is below MAX_BASIS_DIM: the CSR matrix's index type
    every = np.arange(basis.dim, dtype=np.int32)
    # joined one at a time, each list released as it is joined, so scipy's
    # COO -> CSR conversion runs next to the three joined arrays alone
    rows = np.concatenate([every, *rows])
    cols = np.concatenate([every, *cols])
    vals = np.concatenate([diag.astype(dtype, copy=False), *vals])
    matrix = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(basis.dim, basis.dim), dtype=dtype)
    return ManyBodyOperator(basis=basis, matrix=matrix)


def single_particle_matrix(couplings: CouplingSet) -> np.ndarray:
    """Hermitian one-body matrix: chemical potentials on the diagonal plus t."""
    h = couplings.t.copy()
    h[np.diag_indices_from(h)] = couplings.mu
    return h


def eigensolve(
    operator: ManyBodyOperator, n_states: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Lowest eigenpairs, dense below the cutoff and Lanczos above it.

    ``n_states`` must lie between 1 and the basis dimension; a request for
    all states or all but one is solved densely, since ARPACK's complex
    solver needs k < dim - 1. Both paths work in the operator's dtype: a
    float64 H takes the real symmetric LAPACK and ARPACK routines and
    returns real eigenvectors. Every returned pair is residual-checked on
    H / max(norm, 1), the one-norm's scale, so entries near the float range
    do not overflow the residual; a failed check raises
    EigenCertificateFailed instead of returning bad pairs.
    """
    dim = operator.dim
    if n_states is not None and not 1 <= n_states <= dim:
        raise ValueError(f"n_states must be between 1 and the basis dimension {dim}")
    if dim < DENSE_CUTOFF or (n_states is not None and n_states >= dim - 1):
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
    scale = max(operator.norm_one(), 1.0)
    residuals = np.linalg.norm(operator.matrix @ vectors / scale - vectors * (values / scale), axis=0)
    failed = np.flatnonzero(~(residuals <= RESIDUAL_RTOL))  # a NaN residual fails too
    if failed.size:
        idx = int(failed[0])
        raise EigenCertificateFailed(
            f"eigenpair {idx} residual {residuals[idx]:.3e} exceeds {RESIDUAL_RTOL:.1e} on H / max(norm, 1)"
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
    has no finite series and raises ValueError. Any CSR matrix is read as
    stored, duplicate or unstored diagonal entries included, and never
    written to.
    """
    initial = np.asarray(initial, dtype=complex)
    if initial.shape != (operator.dim,):
        raise ValueError("initial state has the wrong dimension")
    times = np.asarray(times, dtype=float).ravel()
    if not np.isfinite(times).all():
        raise ValueError("evolution times must be finite")
    h = operator.matrix
    diag = h.diagonal().real
    # Gershgorin radii: each row's absolute sum less |diagonal|, on H's own
    # index arrays; abs(h) would sum a hand-built H's duplicates in place.
    # Split entries only widen the discs, which still bound the spectrum.
    magnitude = scipy.sparse.csr_matrix((np.abs(h.data), h.indices, h.indptr), shape=h.shape)
    radius = magnitude @ np.ones(operator.dim) - np.abs(diag)
    del magnitude
    low, high = np.min(diag - radius), np.max(diag + radius)
    center, half_width = (high + low) / 2.0, (high - low) / 2.0
    x = half_width * times
    ks = np.arange(_chebyshev_terms(float(np.max(np.abs(x), initial=0.0))))
    weights = np.where(ks == 0, 1.0, 2.0) * _MINUS_I_POWERS[ks % 4] * scipy.special.jv(ks, x[:, None])
    out = np.multiply.outer(weights[:, 0], initial)
    # complex values on H's own index arrays: H itself when H is complex, a
    # copy of the values alone when it is float64, since scipy's
    # real-matrix times complex-vector product is slower than a complex one
    h = scipy.sparse.csr_matrix((h.data.astype(complex, copy=False), h.indices, h.indptr), shape=h.shape)
    previous = current = initial
    term = np.empty_like(initial)
    for k in ks[1:]:
        # T_{k+1} = 2 (H - c) / a T_k - T_{k-1}, with no scaled H stored
        step = h @ current
        step -= center * current
        step *= 2.0 / half_width
        previous, current = current, (0.5 * step if k == 1 else step - previous)
        # one time at a time through one scratch row, not a (times x dim) temporary
        for row, weight in zip(out, weights[:, k]):
            row += np.multiply(weight, current, out=term)
    out *= np.exp(-1j * center * times)[:, None]
    return out


def occupations(basis: FockBasis, state: np.ndarray) -> np.ndarray:
    """Expected occupation of each mode in a normalized many-body state."""
    weights = np.abs(np.asarray(state)) ** 2
    return weights @ basis.table
