"""Workloads of the lglattice benchmark: job generation, execution, checks.

A job is a plain JSON-able dict and a pure function of (seed, index).  Jobs
come in blocks; slot ``s`` of every block belongs to the same stratum (job
kind and size), and only the draws inside the stratum change with the seed
and the block.  ``run`` is the only code that is timed; it calls the package
through module attributes, so the tracer's wrappers see every call.  ``check``
is untimed and compares each output with the package's own oracles at the
package's own tolerances.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np
import scipy.linalg
from scipy.sparse.linalg import eigsh

import lglattice.cli as cli
import lglattice.couplings as couplings
import lglattice.density as density
import lglattice.design as design
import lglattice.manybody as manybody
import lglattice.modes as modes

MODULES = {
    "modes": modes,
    "density": density,
    "couplings": couplings,
    "design": design,
    "manybody": manybody,
    "cli": cli,
}

# Bound of the power-law acceptance test (tests/test_acceptance.py): the
# fitted slope lies within 0.02 of -beta.  The package exports no constant.
POWER_LAW_SLOPE_ATOL = 0.02
MIN_JOBS = 100  # so job_p90_ms has at least ten jobs beyond it
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _rng(seed: int, index: int, salt: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, index, salt])


def _spread(seed: int, index: int, block: int, salt: int) -> float:
    """A draw in [0, 1) for slot ``index % block`` that, over consecutive
    blocks, covers the interval evenly: a seed-dependent start plus the
    block number times the golden ratio.  Draws that set a job's cost use it,
    so every run holds nearly the same mix of sizes whatever the seed."""
    start = _rng(seed, index % block, 100 + salt).random()
    return (start + (index // block) * GOLDEN) % 1.0


def _wrap(x: float) -> float:
    """Angle wrapped to (-pi, pi]."""
    return math.pi - (math.pi - x) % (2.0 * math.pi)


def _window(spec: dict) -> couplings.ModeWindow:
    return couplings.ModeWindow(spec["l_min"], spec["l_max"], tuple(spec["p_values"]))


def _profile(radius: float, harmonics) -> density.DensityProfile:
    return density.DensityProfile(
        radius=radius, harmonics=tuple(density.Harmonic(k, c, ph) for k, c, ph in harmonics)
    )


def _random_harmonics(rng, orders) -> list[list[float]]:
    """Amplitudes summing to 0.5-0.95 keep the density positive for any phases."""
    raw = rng.uniform(0.2, 1.0, size=len(orders))
    weights = raw / raw.sum() * rng.uniform(0.5, 0.95)
    phases = rng.uniform(-math.pi, math.pi, size=len(orders))
    return [[int(k), float(c), float(ph)] for k, c, ph in zip(orders, weights, phases)]


def _check_couplings(cs, profile, beam, rng, errors: list[str]) -> None:
    """Hermiticity, exact selection-rule zeros, and four sampled oracle
    entries: two allowed hoppings, one interaction, one chemical potential."""
    t, u = cs.t, cs.u
    window = cs.window
    ls = np.array([m.l for m in window.modes])
    dl = np.abs(ls[:, None] - ls[None, :])
    active = set(profile.active_orders)
    allowed = np.isin(dl, sorted(active | {0}))
    off = ~np.eye(len(ls), dtype=bool)
    if not np.array_equal(t, t.conj().T):
        errors.append("t is not exactly Hermitian")
    if np.any(np.diag(t) != 0):
        errors.append("t has a nonzero stored diagonal")
    if np.any(t[off & ~allowed] != 0):
        errors.append("t breaks a selection rule (nonzero at an inactive range)")
    if not np.array_equal(u, u.T) or np.any(u < 0):
        errors.append("u is not symmetric non-negative")

    hops = np.argwhere(off & allowed)
    picks = [("t", *hops[rng.integers(len(hops))]) for _ in range(2)] if len(hops) else []
    picks.append(("u", *rng.integers(0, len(ls), size=2)))
    i = int(rng.integers(0, len(ls)))
    picks.append(("mu", i, i))
    worst = 0.0
    for kind, i, j in picks:
        n, m = window.modes[int(i)], window.modes[int(j)]
        brute = couplings.brute_force_coupling(n, m, kind, profile, beam)
        if kind == "t":
            fast = t[i, j]
        elif kind == "u":
            fast = u[i, j]
        else:
            fast = cs.mu[i] - modes.mode_detuning(n, beam)
        scale = max(abs(fast), abs(brute), cli.ORACLE_FLOOR)
        worst = max(worst, abs(fast - brute) / scale)
    if worst > cli.ORACLE_RTOL:
        errors.append(f"oracle mismatch {worst:.3e} > ORACLE_RTOL {cli.ORACLE_RTOL:g}")


def _check_fluxes(rows, target, expected_count, kind, errors) -> None:
    if len(rows) != expected_count:
        errors.append(f"{kind}: {len(rows)} plaquettes, expected {expected_count}")
    worst = max((abs(_wrap(flux - target)) for _, _, flux in rows), default=0.0)
    if worst > cli.FLUX_ATOL:
        errors.append(f"{kind} flux off target by {worst:.3e} > FLUX_ATOL {cli.FLUX_ATOL:g}")


class LatticeDesign:
    """Single-particle lattice engineering: four job kinds times four sizes."""

    name = "lattice_design"
    KINDS = ("explicit", "power_law", "fluxes", "ladder")
    # (p_values, lowest, highest number of azimuthal indices)
    SIZES = (((0,), 11, 17), ((0,), 18, 27), ((0,), 28, 41), ((0, 1), 6, 10))
    block = len(KINDS) * len(SIZES)
    trace_blocks = 3

    def __init__(self, root: Path, scratch: Path):
        self.beam = modes.BeamParameters()

    def job(self, seed: int, index: int) -> dict:
        rng = _rng(seed, index)
        slot = index % self.block
        kind = self.KINDS[slot % len(self.KINDS)]
        size = slot // len(self.KINDS)
        p_values, lo, hi = self.SIZES[size]

        def pick(salt: int, low: int, high: int) -> int:
            return low + int(_spread(seed, index, self.block, salt) * (high - low + 1))

        count = pick(0, lo, hi)
        l_min = -(count // 2)
        job = {
            "workload": self.name,
            "seed": seed,
            "index": index,
            "kind": kind,
            "window": {"l_min": l_min, "l_max": l_min + count - 1, "p_values": list(p_values)},
            "radius": 3.0 + 2.0 * _spread(seed, index, self.block, 1),
        }
        reach = max(count - 1 - (count - 1) // 2, (count - 1) // 2)
        if kind == "explicit":
            n = pick(2, 1, 8)
            orders = sorted(int(k) for k in rng.choice(np.arange(1, 9), size=n, replace=False))
            job["harmonics"] = _random_harmonics(rng, orders)
        elif kind == "power_law":
            job["beta"] = float(rng.uniform(0.5, 2.5))
            job["max_range"] = pick(3, 2, min(7, reach))
            job["calibrate"] = size % 2 == 0
        elif kind == "fluxes":
            job["narrow"] = float(rng.uniform(-math.pi, math.pi))
            job["wide"] = float(rng.uniform(-math.pi, math.pi)) if size % 2 else None
            job["gauge"] = float(rng.uniform(-math.pi, math.pi))
        else:
            job["ratio"] = float(rng.uniform(0.1, 2.0))
        return job

    def run(self, job: dict) -> dict:
        window = _window(job["window"])
        radius = job["radius"]
        kind = job["kind"]
        if kind == "explicit":
            profile = _profile(radius, job["harmonics"])
        elif kind == "power_law":
            profile = design.design_power_law(
                job["beta"], job["max_range"], window=window, beam=self.beam,
                calibrate=job["calibrate"], radius=radius,
            )
        elif kind == "fluxes":
            profile = design.design_fluxes(job["narrow"], job["wide"], job["gauge"], radius=radius)
        else:
            profile = design.preset_profile("triangular_ladder", radius=radius, ratio=job["ratio"])
        out = {"profile": profile, "minimum": density.validate_nonnegative(profile)}
        cs = couplings.compute_couplings(window, profile, self.beam)
        out["couplings"] = cs
        out["uniformity"] = couplings.hopping_uniformity(cs)
        active = set(profile.active_orders)
        if kind == "power_law" or not {1, 2} <= active:
            out["fit"] = design.fit_power_law(cs)
        else:
            out["narrow"] = design.plaquette_fluxes(cs, "narrow")
            if 3 in active:
                out["wide"] = design.plaquette_fluxes(cs, "wide")
        return out

    def check(self, job: dict, out: dict) -> tuple[list[str], dict]:
        errors: list[str] = []
        profile, cs = out["profile"], out["couplings"]
        harmonics = {h.k: h for h in profile.harmonics}
        others = sum(abs(h.c) for h in profile.harmonics if h.k >= 1)
        c0 = harmonics[0].c * math.cos(harmonics[0].phase)
        phi = np.linspace(0.0, 2.0 * math.pi, 2048, endpoint=False)
        grid = sum(h.c * np.cos(h.k * phi + h.phase) for h in profile.harmonics)
        tol = density.NEGATIVITY_TOLERANCE
        found = out["minimum"]
        if not (c0 - others - tol <= found <= float(grid.min()) + tol and found >= -tol):
            errors.append(f"validator minimum {found:.6g} outside [{c0 - others:.6g}, {grid.min():.6g}]")

        _check_couplings(cs, profile, self.beam, _rng(job["seed"], job["index"], 1), errors)

        window = cs.window
        span = window.l_max - window.l_min
        active = set(profile.active_orders)
        if set(out["uniformity"]) != {k for k in active if k <= span}:
            errors.append(f"uniformity ranges {sorted(out['uniformity'])} != active {sorted(active)}")

        if "fit" in out:
            fit = out["fit"]
            if job["kind"] == "power_law":
                beta = job["beta"]
                if fit.ks != tuple(range(1, job["max_range"] + 1)):
                    errors.append(f"fit ranges {fit.ks}")
                slope = fit.hopping_slope if job["calibrate"] else fit.coefficient_slope
                if not abs(slope + beta) <= POWER_LAW_SLOPE_ATOL:
                    errors.append(f"power-law slope {slope:.5f} vs -beta {-beta:.5f}")
            elif any(c != harmonics[k].c for k, c in zip(fit.ks, fit.coefficients)):
                errors.append("fit coefficients differ from the profile's amplitudes")
        if "narrow" in out:
            ph = {k: h.phase for k, h in harmonics.items() if k <= 3}
            per_sector = len(window.p_values)
            _check_fluxes(out["narrow"], _wrap(2 * ph[1] - ph[2]), per_sector * (span - 1), "narrow", errors)
            if job["kind"] == "fluxes":
                _check_fluxes(out["narrow"], _wrap(job["narrow"]), per_sector * (span - 1), "narrow target", errors)
            if "wide" in out:
                _check_fluxes(out["wide"], _wrap(ph[1] + ph[2] - ph[3]), per_sector * (span - 2), "wide", errors)
                if job["kind"] == "fluxes":
                    _check_fluxes(out["wide"], _wrap(job["wide"]), per_sector * (span - 2), "wide target", errors)
        return errors, {}

    def finish(self) -> list[str]:
        return []


class ManybodySpectra:
    """Fixed-number spectra on small windows, Fock dimension in three bands."""

    name = "manybody_spectra"
    # (number of azimuthal indices, p_values, particles): Fock dimensions
    # 56, 70, 84, 120, 165, 286, 364 | 560, 715, 1001 | 2002, roughly
    # log-spaced within the bands below 500, 500-2000 and at or above the
    # Lanczos switch.  An odd count of strata puts the median job inside a
    # stratum rather than on the edge between two.
    STRATA = (
        (6, (0,), 3), (5, (0,), 4), (7, (0,), 3), (4, (0, 1), 3), (9, (0,), 3),
        (11, (0,), 3), (6, (0, 1), 3), (7, (0, 1), 3), (10, (0,), 4), (11, (0,), 4),
        (10, (0,), 5),
    )
    # every range up to 3 is active, so a stratum fixes nnz and the job's cost
    ORDERS = (1, 2, 3)
    block = len(STRATA)
    trace_blocks = 4
    N_STATES = 4
    EVOLVE_MAX_DIM = 1000
    REAL_MIN_DIM = 2000  # the stratum past the package's dense/Lanczos switch
    KRON_MAX_DIM = 200
    KRON_MAX_SPACE = 256  # (particles + 1) ** modes of the operator-algebra oracle

    def __init__(self, root: Path, scratch: Path):
        self.root = root
        self._kron = None
        self._deferred: list[tuple[int, object, np.ndarray, float]] = []

    def job(self, seed: int, index: int) -> dict:
        rng = _rng(seed, index)
        slot = index % self.block
        count, p_values, particles = self.STRATA[slot]
        l_min = int(rng.integers(-3, 4)) - (count - 1) // 2
        m = count * len(p_values)
        dim = math.comb(particles + m - 1, particles)
        job = {
            "workload": self.name,
            "seed": seed,
            "index": index,
            "window": {"l_min": l_min, "l_max": l_min + count - 1, "p_values": list(p_values)},
            "particles": particles,
            "dim": dim,
            "radius": float(rng.uniform(3.0, 5.0)),
            "harmonics": _random_harmonics(rng, self.ORDERS),
            "interaction_sign": "attractive" if (slot + index // self.block) % 2 == 0 else "repulsive",
            "evolve": None,
        }
        if dim >= self.REAL_MIN_DIM:
            # phase 0 with a random sign keeps t, and so H, exactly real: the
            # dense reference of a Lanczos job then costs 1.2 s, not 4.7 s
            job["harmonics"] = [[k, c * float(rng.choice((-1.0, 1.0))), 0.0] for k, c, _ in job["harmonics"]]
        if dim <= self.EVOLVE_MAX_DIM:
            job["evolve"] = {"initial": int(rng.integers(0, dim)), "t_max": float(rng.uniform(0.5, 2.0))}
        return job

    def run(self, job: dict) -> dict:
        beam = modes.BeamParameters(interaction_sign=job["interaction_sign"])
        profile = _profile(job["radius"], job["harmonics"])
        cs = couplings.compute_couplings(_window(job["window"]), profile, beam)
        op = manybody.build_hamiltonian(cs, job["particles"])
        values, vectors = manybody.eigensolve(op, n_states=self.N_STATES)
        occ = [manybody.occupations(op.basis, vectors[:, s]) for s in range(vectors.shape[1])]
        out = {"couplings": cs, "operator": op, "values": values, "occupations": occ}
        if job["evolve"] is not None:
            initial = np.zeros(op.dim, dtype=complex)
            initial[job["evolve"]["initial"]] = 1.0
            times = np.linspace(0.0, job["evolve"]["t_max"], 8)
            out["initial"] = initial
            out["trajectory"] = manybody.time_evolve(op, initial, times)
        return out

    def _kron_hamiltonian(self):
        if self._kron is None:
            spec = importlib.util.spec_from_file_location(
                "_lglattice_conftest", self.root / "tests" / "conftest.py"
            )
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            self._kron = module.kron_hamiltonian
        return self._kron

    def _check_kron(self, cs, op, particles, scale, errors) -> None:
        """The job's Hamiltonian on the states that occupy only its first
        modes equals the operator-algebra oracle built on those modes, once
        the interaction row sums over the remaining modes are folded into mu."""
        m = len(cs.mu)
        keep = max(k for k in range(1, m + 1) if (particles + 1) ** k <= self.KRON_MAX_SPACE)
        sign = -1.0 if cs.interaction_sign == "attractive" else 1.0
        sub = couplings.CouplingSet(
            window=couplings.ModeWindow(0, keep - 1),
            mu=cs.mu[:keep] + sign * 3.0 * cs.u[:keep, keep:].sum(axis=1),
            t=cs.t[:keep, :keep],
            u=cs.u[:keep, :keep],
            interaction_sign=cs.interaction_sign,
        )
        reference, states = self._kron_hamiltonian()(sub, particles)
        occ = np.asarray(op.basis.states)
        rows = {tuple(int(x) for x in row[:keep]): a for a, row in enumerate(occ) if not row[keep:].any()}
        order = [rows[s] for s in states]
        block = op.matrix[order][:, order].toarray()
        diff = float(np.max(np.abs(block - reference)))
        if diff > manybody.RESIDUAL_RTOL * scale:
            errors.append(f"Hamiltonian differs from the kron oracle by {diff:.3e}")

    def check(self, job: dict, out: dict) -> tuple[list[str], dict]:
        errors: list[str] = []
        op, values = out["operator"], np.asarray(out["values"])
        h = op.matrix
        particles = job["particles"]
        if op.dim != job["dim"]:
            errors.append(f"basis dimension {op.dim} != {job['dim']}")
        scale = max(float(abs(h).sum(axis=0).max()), 1.0)
        tol = manybody.RESIDUAL_RTOL * scale
        if len(values) != self.N_STATES or np.any(np.diff(values) < 0):
            errors.append("eigenvalues missing or unsorted")
        elif op.dim < getattr(manybody, "DENSE_CUTOFF", 2000):
            reference = np.sort(eigsh(h, k=self.N_STATES, which="SA")[0])
            diff = float(np.max(np.abs(values - reference)))
            if diff > tol:
                errors.append(f"dense and Lanczos eigenvalues differ by {diff:.3e}")
        else:
            # dense reference after the timed loop, so its memory stays out of peak_rss_mb
            self._deferred.append((job["index"], h, values, tol))
        for occ in out["occupations"]:
            if abs(float(np.sum(occ)) - particles) > manybody.RESIDUAL_RTOL * particles or np.min(occ) < -tol:
                errors.append(f"occupations sum to {np.sum(occ):.15g}, not {particles}")
                break
        if "trajectory" in out:
            traj, initial = out["trajectory"], out["initial"]
            norms = np.linalg.norm(traj, axis=1)
            energies = np.einsum("ti,ti->t", traj.conj(), (h @ traj.T).T).real
            e0 = float(np.vdot(initial, h @ initial).real)
            if np.max(np.abs(norms - 1.0)) > manybody.RESIDUAL_RTOL:
                errors.append(f"time evolution breaks the norm by {np.max(np.abs(norms - 1.0)):.3e}")
            if np.max(np.abs(energies - e0)) > tol:
                errors.append(f"time evolution breaks energy by {np.max(np.abs(energies - e0)):.3e}")
            if np.max(np.abs(traj[0] - initial)) > manybody.RESIDUAL_RTOL:
                errors.append("time evolution does not start from the initial state")
        if op.dim <= self.KRON_MAX_DIM:
            self._check_kron(out["couplings"], op, particles, scale, errors)
        return errors, {}

    def finish(self) -> list[str]:
        errors = []
        for index, h, values, tol in self._deferred:
            dense = h.toarray(order="F")
            if not dense.imag.any():
                dense = np.asfortranarray(dense.real)
            dense = scipy.linalg.eigvalsh(dense, overwrite_a=True, subset_by_index=[0, len(values) - 1])
            diff = float(np.max(np.abs(values - dense)))
            if diff > tol:
                errors.append(f"job {index}: Lanczos and dense eigenvalues differ by {diff:.3e}")
        self._deferred.clear()
        return errors


class CliBatch:
    """Every shipped config through every subcommand, one output dir per job."""

    name = "cli_batch"
    COMMANDS = (("compute", 1), ("compute", 2), ("design", 1), ("diagonalize", 1), ("check", 1))
    trace_blocks = 2

    def __init__(self, root: Path, scratch: Path):
        self.root = root
        self.scratch = scratch
        self.configs = sorted(p.relative_to(root).as_posix() for p in (root / "configs").glob("*.json"))
        if not self.configs:
            raise FileNotFoundError(f"no configs under {root / 'configs'}")
        self.block = len(self.configs) * len(self.COMMANDS)
        self._first: dict[tuple, dict[str, str]] = {}

    def job(self, seed: int, index: int) -> dict:
        slot = index % self.block
        config_idx, command_idx = divmod(slot, len(self.COMMANDS))
        command, threads = self.COMMANDS[command_idx]
        check_seed = int(_rng(seed, config_idx, 2).integers(0, 2**31 - 1))
        return {
            "workload": self.name,
            "seed": seed,
            "index": index,
            "config": self.configs[config_idx],
            "command": command,
            "threads": threads,
            "check_seed": check_seed if command == "check" else None,
        }

    def _outdir(self, job: dict) -> Path:
        return self.scratch / f"job-{job['index']}"

    def _argv(self, job: dict) -> list[str]:
        argv = [
            job["command"], "--config", str(self.root / job["config"]),
            "--out", str(self._outdir(job)), "--threads", str(job["threads"]),
        ]
        if job["check_seed"] is not None:
            argv += ["--seed", str(job["check_seed"])]
        return argv

    def run(self, job: dict) -> dict:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(self._argv(job))
        return {"exit_code": code, "stderr": stderr.getvalue().strip()}

    def failure(self, job: dict, out: dict) -> dict | None:
        if out["exit_code"] == 0:
            return None
        return {"exit_code": out["exit_code"], "message": out["stderr"]}

    def check(self, job: dict, out: dict) -> tuple[list[str], dict]:
        outdir = self._outdir(job)
        files = sorted(p for p in outdir.rglob("*") if p.is_file())
        stats = {
            "cli.bytes_written": sum(p.stat().st_size for p in files),
            "cli.files_written": len(files),
        }
        errors: list[str] = []
        if out["exit_code"] == 0:
            digests = {
                p.relative_to(outdir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
                for p in files
            }
            if job["command"] == "check":
                report = json.loads((outdir / "check_report.json").read_text())
                if report.get("passed") is not True:
                    errors.append("check_report.json does not say passed: true")
            key = (job["config"], job["command"], job["threads"])
            first = self._first.setdefault(key, digests)
            if digests != first:
                errors.append("outputs differ from the first pass of the same job")
            if job["threads"] != 1:
                single = self._first.get((job["config"], job["command"], 1))
                if single is not None and digests != single:
                    errors.append(f"--threads {job['threads']} output differs from --threads 1")
        shutil.rmtree(outdir, ignore_errors=True)
        return errors, stats

    def finish(self) -> list[str]:
        return []


WORKLOADS = {w.name: w for w in (LatticeDesign, ManybodySpectra, CliBatch)}
