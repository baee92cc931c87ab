"""Command line front end.

Configs are strict JSON: unknown keys anywhere are rejected so typos fail
loudly instead of silently running defaults. All outputs are deterministic
(no timestamps, fixed float formatting, sorted JSON keys) so reruns are
byte-identical and diffable.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .couplings import (
    CouplingSet,
    ModeWindow,
    QuadratureNotConverged,
    azimuthal_factor,
    brute_force_coupling,
    compute_couplings,
    radial_overlap_matrices,
    write_couplings,
    write_heatmap,
    write_uniformity,
)
from .density import DensityProfile, NonPhysicalDensity, rotate, validate_nonnegative
from .design import (
    BrokenPlaquette,
    design_fluxes,
    design_power_law,
    fit_power_law,
    plaquette_fluxes,
    preset_profile,
    wrap_angle,
    write_fit_report,
    write_flux_report,
)
from .manybody import (
    BasisTooLarge,
    build_hamiltonian,
    eigensolve,
    single_particle_matrix,
    write_eigenvalues,
    write_occupations,
)
from .modes import BeamParameters, mode_detuning

__all__ = ["ConfigError", "ValidationError", "CheckFailed", "RunConfig", "parse_config", "run", "check", "main"]

EXIT_CODES = {
    "ok": 0,
    "generic": 1,
    "parse": 2,
    "validation": 3,
    "quadrature": 4,
    "basis": 5,
    "plaquette": 6,
    "check": 7,
}

TASKS = ("profile", "couplings", "heatmap", "uniformity", "fit", "fluxes", "diagonalize")


class ConfigError(ValueError):
    """Config file malformed: bad JSON, unknown key, wrong type."""


class ValidationError(ValueError):
    """Config well-formed but physically inconsistent."""


class CheckFailed(RuntimeError):
    """One or more verification checks did not pass."""


@dataclass
class RunConfig:
    window: ModeWindow
    beam: BeamParameters
    profile: DensityProfile
    design: dict | None = None
    particles: int = 1
    n_states: int | None = None
    tasks: list[str] = field(default_factory=list)
    threads: int = 1


def _check_keys(section: dict, allowed, where: str):
    unknown = set(section) - set(allowed)
    if unknown:
        names = ", ".join(sorted(unknown))
        raise ConfigError(f"unknown key(s) in {where}: {names}")


def _number(section: dict, key: str, where: str, default=None):
    if key not in section:
        if default is None:
            raise ConfigError(f"{where} is missing required key {key!r}")
        return default
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}.{key} must be a number")
    try:
        number = float(value)
    except OverflowError:  # an integer literal past the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{where}.{key} must be a finite number")
    return number


def _integer(section: dict, key: str, where: str, default=None):
    if key not in section:
        if default is None:
            raise ConfigError(f"{where} is missing required key {key!r}")
        return default
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}.{key} must be an integer")
    return value


def _parse_window(section) -> ModeWindow:
    if not isinstance(section, dict):
        raise ConfigError("window must be an object")
    _check_keys(section, ("l_min", "l_max", "p_values"), "window")
    l_min = _integer(section, "l_min", "window")
    l_max = _integer(section, "l_max", "window")
    p_values = section.get("p_values", [0])
    if not isinstance(p_values, list) or not all(
        isinstance(p, int) and not isinstance(p, bool) for p in p_values
    ):
        raise ConfigError("window.p_values must be a list of integers")
    try:
        return ModeWindow(l_min=l_min, l_max=l_max, p_values=tuple(p_values))
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


def _parse_beam(section) -> BeamParameters:
    if section is None:
        return BeamParameters()
    if not isinstance(section, dict):
        raise ConfigError("beam must be an object")
    allowed = (
        "waist",
        "gouy_rate",
        "longitudinal_fill",
        "first_order_scale",
        "second_order_scale",
        "interaction_sign",
    )
    _check_keys(section, allowed, "beam")
    sign = section.get("interaction_sign", "attractive")
    if not isinstance(sign, str):
        raise ConfigError("beam.interaction_sign must be a string")
    defaults = {
        "waist": 1.0,
        "gouy_rate": 0.0,
        "longitudinal_fill": 1.0,
        "first_order_scale": 1.0,
        "second_order_scale": 0.1,
    }
    numbers = {key: _number(section, key, "beam", value) for key, value in defaults.items()}
    try:
        return BeamParameters(interaction_sign=sign, **numbers)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


def _parse_profile(section) -> DensityProfile:
    if not isinstance(section, dict):
        raise ConfigError("profile must be an object")
    _check_keys(section, ("radius", "harmonics"), "profile")
    harmonics = section.get("harmonics", [])
    if not isinstance(harmonics, list):
        raise ConfigError("profile.harmonics must be a list")
    parsed = []
    for i, h in enumerate(harmonics):
        where = f"profile.harmonics[{i}]"
        if not isinstance(h, dict):
            raise ConfigError(f"{where} must be an object")
        _check_keys(h, ("k", "c", "phase"), where)
        parsed.append(
            {
                "k": _integer(h, "k", where),
                "c": _number(h, "c", where),
                "phase": _number(h, "phase", where, 0.0),
            }
        )
    radius = _number(section, "radius", "profile", 4.0)
    try:
        return DensityProfile.from_dict({"radius": radius, "harmonics": parsed})
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


def _resolve_design(section, window: ModeWindow, beam: BeamParameters) -> DensityProfile:
    if not isinstance(section, dict):
        raise ConfigError("design must be an object")
    kind = section.get("kind")
    if kind == "preset":
        _check_keys(section, ("kind", "name", "radius", "params"), "design")
        name = section.get("name")
        if not isinstance(name, str):
            raise ConfigError("design.name must be a string")
        params = section.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError("design.params must be an object")
        for key, value in params.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                _number(params, key, "design.params")
        radius = _number(section, "radius", "design", 4.0 * beam.waist)
        try:
            return preset_profile(name, radius=radius, **params)
        except TypeError as exc:
            raise ConfigError(f"bad design.params: {exc}") from exc
        except ValueError as exc:
            raise ValidationError(str(exc)) from exc
    if kind == "power_law":
        _check_keys(section, ("kind", "beta", "max_range", "calibrate", "radius"), "design")
        calibrate = section.get("calibrate", True)
        if not isinstance(calibrate, bool):
            raise ConfigError("design.calibrate must be a boolean")
        beta = _number(section, "beta", "design")
        max_range = _integer(section, "max_range", "design")
        radius = _number(section, "radius", "design", 4.0 * beam.waist)
        try:
            return design_power_law(beta, max_range, window, beam, calibrate, radius)
        except ValueError as exc:
            raise ValidationError(str(exc)) from exc
    if kind == "fluxes":
        _check_keys(section, ("kind", "narrow", "wide", "gauge", "radius"), "design")
        wide = None
        if "wide" in section:
            wide = _number(section, "wide", "design")
        narrow = _number(section, "narrow", "design")
        gauge = _number(section, "gauge", "design", 0.5 * np.pi)
        radius = _number(section, "radius", "design", 4.0 * beam.waist)
        try:
            return design_fluxes(narrow, wide, gauge, radius)
        except ValueError as exc:
            raise ValidationError(str(exc)) from exc
    raise ConfigError("design.kind must be 'preset', 'power_law' or 'fluxes'")


def _config_text(source) -> str:
    text = str(source)
    if not isinstance(source, Path) and text.lstrip().startswith("{"):
        return text
    try:
        return Path(text).read_text()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {text}") from None
    except (OSError, ValueError) as exc:
        # a name too long for the OS, a directory, undecodable bytes
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise ConfigError(f"cannot read config file: {reason}") from exc


def parse_config(source) -> RunConfig:
    """Load and validate a config from a path, JSON string or dict.

    A string whose first non-blank character is ``{`` is JSON text; any
    other string names a file. Schema errors and unreadable or missing
    files raise ConfigError; a config that parses but describes unphysical
    parameters (negative density, bad beam values) raises ValidationError.
    """
    if isinstance(source, dict):
        raw = source
    else:
        text = _config_text(source)
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    allowed = ("window", "beam", "profile", "design", "particles", "n_states", "tasks", "threads")
    _check_keys(raw, allowed, "config")
    if "window" not in raw:
        raise ConfigError("config is missing required key 'window'")
    window = _parse_window(raw["window"])
    beam = _parse_beam(raw.get("beam"))
    if ("profile" in raw) == ("design" in raw):
        raise ConfigError("config needs exactly one of 'profile' or 'design'")
    if "profile" in raw:
        profile = _parse_profile(raw["profile"])
        design = None
    else:
        design = raw["design"]
        profile = _resolve_design(design, window, beam)
    try:
        validate_nonnegative(profile)
    except NonPhysicalDensity as exc:
        raise ValidationError(f"density profile is not physical: {exc}") from exc
    particles = _integer(raw, "particles", "config", 1)
    if particles < 0:
        raise ValidationError("particles must be non-negative")
    n_states = None
    if "n_states" in raw:
        n_states = _integer(raw, "n_states", "config")
        if n_states < 1:
            raise ValidationError("n_states must be positive")
    tasks = raw.get("tasks", [])
    if not isinstance(tasks, list) or not all(isinstance(t, str) for t in tasks):
        raise ConfigError("tasks must be a list of strings")
    for task in tasks:
        if task not in TASKS:
            known = ", ".join(TASKS)
            raise ConfigError(f"unknown task {task!r} (known: {known})")
    threads = _integer(raw, "threads", "config", 1)
    if threads < 1:
        raise ValidationError("threads must be at least 1")
    return RunConfig(
        window=window,
        beam=beam,
        profile=profile,
        design=design,
        particles=particles,
        n_states=n_states,
        tasks=list(tasks),
        threads=threads,
    )


def run(config: RunConfig, tasks, outdir: Path) -> list[Path]:
    """Execute a task list, computing couplings once and reusing them."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    couplings: CouplingSet | None = None

    def need_couplings() -> CouplingSet:
        nonlocal couplings
        if couplings is None:
            couplings = compute_couplings(config.window, config.profile, config.beam)
        return couplings

    for task in tasks:
        if task == "profile":
            path = outdir / "profile.json"
            path.write_text(
                json.dumps(config.profile.to_dict(), indent=2, sort_keys=True) + "\n"
            )
            written.append(path)
        elif task == "couplings":
            written.extend(write_couplings(need_couplings(), outdir))
        elif task == "heatmap":
            written.append(write_heatmap(need_couplings(), outdir / "heatmap.csv"))
        elif task == "uniformity":
            path = outdir / "uniformity.csv"
            write_uniformity(need_couplings(), path)
            written.append(path)
        elif task == "fit":
            path = outdir / "fit_report.csv"
            write_fit_report(fit_power_law(need_couplings()), path)
            written.append(path)
        elif task == "fluxes":
            path = outdir / "flux_report.csv"
            write_flux_report(need_couplings(), path)
            written.append(path)
        elif task == "diagonalize":
            operator = build_hamiltonian(need_couplings(), config.particles)
            values, vectors = eigensolve(operator, config.n_states)
            write_eigenvalues(values, outdir / "eigenvalues.csv")
            write_occupations(operator.basis, vectors, outdir / "occupations.csv")
            written.extend([outdir / "eigenvalues.csv", outdir / "occupations.csv"])
        else:
            raise ConfigError(f"unknown task {task!r}")
    return written


ORACLE_RTOL = 1e-6
ORACLE_FLOOR = 1e-9
FLUX_ATOL = 1e-8


GAUGE_CHECK_ANGLE = 0.37
GAUGE_T_ATOL = 1e-10
GAUGE_SPECTRUM_RTOL = 1e-9
ORTHONORMALITY_ATOL = 1e-8


def check(config: RunConfig, outdir: Path, seed: int) -> dict:
    """Verification pass: mode orthonormality, factorized couplings against
    the 2D quadrature, selection rules, Hermiticity, gauge invariance under
    profile rotation, and (for flux designs) the realized plaquette fluxes.
    Writes check_report.json; raises CheckFailed if any check fails."""
    rng = np.random.default_rng(seed)
    couplings = compute_couplings(config.window, config.profile, config.beam)
    modes = config.window.modes
    ls = np.array([m.l for m in modes])
    checks = []

    # Gram matrix of the window's modes over the full plane. Different l are
    # orthogonal identically by the azimuthal integral; same-l pairs reduce
    # to radial overlaps, taken on a wide disk to stand in for infinity.
    wide_t, _, _ = radial_overlap_matrices(modes, 12.0, config.beam)
    gram_err = np.abs(2.0 * np.pi * wide_t - np.eye(len(modes)))
    worst = float(np.max(gram_err[ls[:, None] == ls[None, :]]))
    checks.append({"name": "orthonormality", "passed": bool(worst <= ORTHONORMALITY_ATOL), "detail": float(worst)})

    herm = float(np.max(np.abs(couplings.t - couplings.t.conj().T)))
    checks.append({"name": "hermitian", "passed": bool(herm == 0.0), "detail": float(herm)})

    active = set(config.profile.active_orders)
    worst = 0.0
    for i in range(len(modes)):
        for j in range(len(modes)):
            dl = abs(modes[i].l - modes[j].l)
            if i != j and dl not in active and dl != 0:
                worst = max(worst, abs(couplings.t[i, j]))
    checks.append({"name": "selection_rule", "passed": bool(worst == 0.0), "detail": float(worst)})

    # a hop needs two distinct modes, so a one-mode window samples u and mu
    kinds = ("t", "u", "mu") if len(modes) > 1 else ("u", "mu")
    worst = 0.0
    samples = 0
    for _ in range(min(6, len(modes) * len(modes))):
        kind = kinds[int(rng.integers(0, len(kinds)))]
        i = int(rng.integers(0, len(modes)))
        if kind == "t":
            j = (i + int(rng.integers(1, len(modes)))) % len(modes)
        else:
            j = int(rng.integers(0, len(modes)))
        n, m = modes[i], modes[j]
        brute = brute_force_coupling(n, m, kind, config.profile, config.beam)
        if kind == "t":
            fast = couplings.t[i, j]
        elif kind == "u":
            fast = couplings.u[i, j]
        else:
            fast = couplings.mu[i] - mode_detuning(n, config.beam)
        # selection-rule zeros meet quadrature noise here; the floor keeps
        # the comparison meaningful for entries that are exactly zero
        scale = max(abs(fast), abs(brute), ORACLE_FLOOR)
        worst = max(worst, abs(fast - brute) / scale)
        samples += 1
    checks.append({"name": "oracle", "passed": bool(worst <= ORACLE_RTOL), "detail": float(worst), "samples": samples})

    # rotating the cloud is a gauge transformation: hoppings pick up
    # e^{-i(l-l') alpha} and the single-particle spectrum must not move
    alpha = GAUGE_CHECK_ANGLE
    turned = compute_couplings(config.window, rotate(config.profile, alpha), config.beam)
    expected = couplings.t * np.exp(-1j * alpha * (ls[:, None] - ls[None, :]))
    t_err = float(np.max(np.abs(turned.t - expected)))
    before = np.linalg.eigvalsh(single_particle_matrix(couplings))
    after = np.linalg.eigvalsh(single_particle_matrix(turned))
    spec_scale = max(float(np.max(np.abs(before))), 1.0)
    spec_err = float(np.max(np.abs(after - before))) / spec_scale
    gauge_ok = t_err <= GAUGE_T_ATOL and spec_err <= GAUGE_SPECTRUM_RTOL
    checks.append({"name": "gauge", "passed": bool(gauge_ok), "detail": float(max(t_err, spec_err))})

    if config.design is not None and config.design.get("kind") == "fluxes":
        targets = [("narrow", wrap_angle(float(config.design["narrow"])))]
        if "wide" in config.design:
            targets.append(("wide", wrap_angle(float(config.design["wide"]))))
        worst = 0.0
        for kind, target in targets:
            for _, _, flux in plaquette_fluxes(couplings, kind):
                error = abs(wrap_angle(flux - target))
                worst = max(worst, error)
        checks.append({"name": "flux_roundtrip", "passed": bool(worst <= FLUX_ATOL), "detail": float(worst)})

    passed = all(c["passed"] for c in checks)
    report = {"passed": passed, "checks": checks}
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "check_report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n"
    )
    for c in checks:
        print(f"{'PASS' if c['passed'] else 'FAIL'} {c['name']} ({c['detail']:.3e})")
    if not passed:
        raise CheckFailed("verification failed; see check_report.json")
    return report


_EPILOG = """\
exit codes:
  0  success
  1  unexpected error
  2  config parse error (bad JSON, unknown key, wrong type, bad flag)
  3  validation error (unphysical density or parameters)
  4  quadrature failed to converge
  5  Fock basis over the size cap
  6  flux requested through a broken plaquette
  7  verification check failed
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lglattice",
        description="Lattice models for twisted light scattered off shaped clouds.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("compute", "compute coupling matrices and reports"),
        ("design", "resolve a design section and report what it realizes"),
        ("diagonalize", "build and diagonalize the many-body Hamiltonian"),
        ("check", "verify couplings against the independent 2D quadrature"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--out", default="out", help="output directory (default: out)")
        p.add_argument("--threads", type=int, default=None, help="accepted and validated for compatibility; has no effect")
        p.add_argument("--seed", type=int, default=0, help="seed for sampled verification (check only)")
    return parser


def _resolve_threads(flag: int | None, config: RunConfig) -> int:
    if flag is not None:
        if flag < 1:
            raise ValidationError("threads must be at least 1")
        return flag
    env = os.environ.get("LGLATTICE_THREADS")
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            raise ConfigError(f"LGLATTICE_THREADS must be an integer, got {env!r}") from None
        if value < 1:
            raise ValidationError("LGLATTICE_THREADS must be at least 1")
        return value
    return config.threads


def _default_tasks(command: str, config: RunConfig) -> list[str]:
    if command == "compute":
        if config.tasks:
            return config.tasks
        return ["couplings", "heatmap", "uniformity"]
    if command == "design":
        tasks = ["profile"]
        kind = (config.design or {}).get("kind")
        if kind == "power_law":
            tasks.append("fit")
        elif kind == "fluxes":
            tasks.append("fluxes")
        return tasks
    if command == "diagonalize":
        return ["couplings", "diagonalize"]
    raise ValueError(command)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    outdir = Path(args.out)
    try:
        config = parse_config(args.config)
        # validated so a bad value keeps its exit code; nothing uses it
        _resolve_threads(args.threads, config)
        if args.command == "check":
            check(config, outdir, seed=args.seed)
        else:
            run(config, _default_tasks(args.command, config), outdir)
        return EXIT_CODES["ok"]
    except ConfigError as exc:
        return _fail(outdir, exc, EXIT_CODES["parse"])
    except ValidationError as exc:
        return _fail(outdir, exc, EXIT_CODES["validation"])
    except QuadratureNotConverged as exc:
        return _fail(outdir, exc, EXIT_CODES["quadrature"])
    except BasisTooLarge as exc:
        return _fail(outdir, exc, EXIT_CODES["basis"])
    except BrokenPlaquette as exc:
        return _fail(outdir, exc, EXIT_CODES["plaquette"])
    except CheckFailed as exc:
        return _fail(outdir, exc, EXIT_CODES["check"])
    except Exception as exc:  # pragma: no cover - last resort
        return _fail(outdir, exc, EXIT_CODES["generic"])


def _fail(outdir: Path, exc: Exception, code: int) -> int:
    record = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "error.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    except OSError:
        pass
    print(f"error: {exc}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
