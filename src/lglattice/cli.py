"""Command line front end.

Configs are strict JSON: unknown keys anywhere are rejected so typos fail
loudly instead of silently running defaults. All outputs are deterministic
(no timestamps, fixed float formatting, sorted JSON keys) so reruns are
byte-identical and diffable.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .couplings import (
    CouplingSet,
    ModeWindow,
    QuadratureNotConverged,
    _oracle_integrals,
    compute_couplings,
    radial_overlap_matrices,
    write_couplings,
    write_heatmap,
    write_uniformity,
)
from .density import DensityProfile, Harmonic, NonPhysicalDensity, rotate, validate_nonnegative
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
from .io import write_json
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

TASKS = ("profile", "couplings", "heatmap", "uniformity", "fit", "fluxes", "diagonalize")


class ConfigError(ValueError):
    """Config file malformed: bad JSON, unknown key, wrong type."""


class ValidationError(ValueError):
    """Config well-formed but physically inconsistent."""


class CheckFailed(RuntimeError):
    """One or more verification checks did not pass."""


# (exit code, failure it reports, --help line): main maps failures and the
# --help epilog lists the codes from this one table
EXIT_CODES = (
    (0, None, "success"),
    (1, Exception, "unexpected error"),
    (2, ConfigError, "config parse error (bad JSON, unknown key, wrong type, bad flag)"),
    (3, ValidationError, "validation error (unphysical density or parameters)"),
    (4, QuadratureNotConverged, "quadrature failed to converge"),
    (5, BasisTooLarge, "Fock basis over the size cap"),
    (6, BrokenPlaquette, "flux requested through a broken plaquette"),
    (7, CheckFailed, "verification check failed"),
)


@dataclass
class RunConfig:
    window: ModeWindow
    beam: BeamParameters
    profile: DensityProfile
    design: dict | None = None
    particles: int = 1
    n_states: int | None = None
    tasks: list[str] = field(default_factory=list)


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


def _numbers(section: dict, keys, where: str) -> dict:
    """The numbers among `keys` that `section` holds; absent keys keep the
    defaults of the class they are passed to."""
    return {key: _number(section, key, where) for key in keys if key in section}


def _parse_window(section) -> ModeWindow:
    if not isinstance(section, dict):
        raise ConfigError("window must be an object")
    _check_keys(section, ("l_min", "l_max", "p_values"), "window")
    window = {key: _integer(section, key, "window") for key in ("l_min", "l_max")}
    if "p_values" in section:
        p_values = section["p_values"]
        if not isinstance(p_values, list) or not all(
            isinstance(p, int) and not isinstance(p, bool) for p in p_values
        ):
            raise ConfigError("window.p_values must be a list of integers")
        window["p_values"] = tuple(p_values)
    return ModeWindow(**window)


def _parse_beam(section) -> BeamParameters:
    if not isinstance(section, dict):
        raise ConfigError("beam must be an object")
    numbers = ("waist", "gouy_rate", "longitudinal_fill", "first_order_scale", "second_order_scale")
    _check_keys(section, (*numbers, "interaction_sign"), "beam")
    if not isinstance(section.get("interaction_sign", ""), str):
        raise ConfigError("beam.interaction_sign must be a string")
    beam = _numbers(section, numbers, "beam")
    if "interaction_sign" in section:
        beam["interaction_sign"] = section["interaction_sign"]
    return BeamParameters(**beam)


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
        phase = _numbers(h, ("phase",), where)
        parsed.append(Harmonic(k=_integer(h, "k", where), c=_number(h, "c", where), **phase))
    return DensityProfile(harmonics=tuple(parsed), **_numbers(section, ("radius",), "profile"))


_DESIGN_KEYS = {
    "preset": ("name", "params"),
    "power_law": ("beta", "max_range", "calibrate"),
    "fluxes": ("narrow", "wide", "gauge"),
}


def _resolve_design(section, window: ModeWindow, beam: BeamParameters) -> DensityProfile:
    if not isinstance(section, dict):
        raise ConfigError("design must be an object")
    kind = section.get("kind")
    if not isinstance(kind, str) or kind not in _DESIGN_KEYS:
        raise ConfigError("design.kind must be 'preset', 'power_law' or 'fluxes'")
    _check_keys(section, ("kind", "radius", *_DESIGN_KEYS[kind]), "design")
    radius = _number(section, "radius", "design", 4.0 * beam.waist)
    if kind == "preset":
        name = section.get("name")
        if not isinstance(name, str):
            raise ConfigError("design.name must be a string")
        params = section.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError("design.params must be an object")
        params = {key: _number(params, key, "design.params") for key in params}
        try:
            return preset_profile(name, radius=radius, **params)
        except TypeError as exc:
            raise ConfigError(f"bad design.params: {exc}") from exc
    if kind == "power_law":
        calibrate = section.get("calibrate", True)
        if not isinstance(calibrate, bool):
            raise ConfigError("design.calibrate must be a boolean")
        beta = _number(section, "beta", "design")
        max_range = _integer(section, "max_range", "design")
        return design_power_law(beta, max_range, window, beam, calibrate, radius)
    narrow = _number(section, "narrow", "design")
    names = {"wide": "wide_flux", "gauge": "gauge_phase"}
    optional = {names[key]: value for key, value in _numbers(section, names, "design").items()}
    return design_fluxes(narrow, radius=radius, **optional)


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
    allowed = ("window", "beam", "profile", "design", "particles", "n_states", "tasks")
    _check_keys(raw, allowed, "config")
    if "window" not in raw:
        raise ConfigError("config is missing required key 'window'")
    design = raw.get("design")
    # the constructors and designers reject unphysical values with ValueError;
    # ConfigError is one too, and passes through as a schema error
    try:
        window = _parse_window(raw["window"])
        beam = _parse_beam(raw.get("beam", {}))
        if ("profile" in raw) == ("design" in raw):
            raise ConfigError("config needs exactly one of 'profile' or 'design'")
        if "profile" in raw:
            profile = _parse_profile(raw["profile"])
        else:
            profile = _resolve_design(design, window, beam)
        validate_nonnegative(profile)
    except ConfigError:
        raise
    except NonPhysicalDensity as exc:
        raise ValidationError(f"density profile is not physical: {exc}") from exc
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    particles = _integer(raw, "particles", "config", 1)
    if particles < 0:
        raise ValidationError("particles must be non-negative")
    n_states = None
    if "n_states" in raw:
        n_states = _integer(raw, "n_states", "config")
        if n_states < 1:
            raise ValidationError("n_states must be positive")
        dim = math.comb(particles + window.size - 1, particles)
        if n_states > dim:
            raise ValidationError(f"n_states {n_states} exceeds the Fock dimension {dim}")
    tasks = raw.get("tasks", [])
    if not isinstance(tasks, list) or not all(isinstance(t, str) for t in tasks):
        raise ConfigError("tasks must be a list of strings")
    for task in tasks:
        if task not in TASKS:
            known = ", ".join(TASKS)
            raise ConfigError(f"unknown task {task!r} (known: {known})")
    return RunConfig(
        window=window,
        beam=beam,
        profile=profile,
        design=design,
        particles=particles,
        n_states=n_states,
        tasks=list(tasks),
    )


def run(config: RunConfig, tasks, outdir: Path) -> list[Path]:
    """Execute a task list, computing couplings once and reusing them."""
    outdir = Path(outdir)
    written: list[Path] = []
    couplings: CouplingSet | None = None

    def need_couplings() -> CouplingSet:
        nonlocal couplings
        if couplings is None:
            couplings = compute_couplings(config.window, config.profile, config.beam)
        return couplings

    for task in tasks:
        if task == "profile":
            written.append(write_json(outdir / "profile.json", config.profile.to_dict()))
        elif task == "couplings":
            written.extend(write_couplings(need_couplings(), outdir))
        elif task == "heatmap":
            written.append(write_heatmap(need_couplings(), outdir / "heatmap.csv"))
        elif task == "uniformity":
            written.append(write_uniformity(need_couplings(), outdir / "uniformity.csv"))
        elif task == "fit":
            written.append(write_fit_report(fit_power_law(need_couplings()), outdir / "fit_report.csv"))
        elif task == "fluxes":
            written.append(write_flux_report(need_couplings(), outdir / "flux_report.csv"))
        elif task == "diagonalize":
            operator = build_hamiltonian(need_couplings(), config.particles)
            values, vectors = eigensolve(operator, config.n_states)
            written.append(write_eigenvalues(values, outdir / "eigenvalues.csv"))
            written.append(write_occupations(operator.basis, vectors, outdir / "occupations.csv"))
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


def _coupling_checks(config: RunConfig, couplings: CouplingSet) -> list[dict]:
    """The selection rule and the 2D quadrature oracle, over every entry.

    Forbidden hops must be exact zeros. mu, u and allowed t entries must match
    the oracle within ORACLE_RTOL relative to max(|fast|, |oracle|,
    ORACLE_FLOOR); at a forbidden hop the oracle must stay within ORACLE_RTOL
    of the Cauchy-Schwarz bound sqrt(T_nn T_mm) of a non-negative density.
    """
    modes = config.window.modes
    ls = np.array([mode.l for mode in modes])
    dl = np.abs(ls[:, None] - ls[None, :])
    forbidden = (dl != 0) & ~np.isin(dl, config.profile.active_orders)
    t = couplings.t[forbidden]
    # hypot is the scalar abs() bit for bit, so detail is the exact max |t|
    leak = float(np.max(np.hypot(t.real, t.imag), initial=0.0))
    selection = {"name": "selection_rule", "passed": bool(leak == 0.0), "detail": leak}

    ref_t, ref_u, order, n_phi = _oracle_integrals(modes, config.profile, config.beam)
    detuning = [mode_detuning(mode, config.beam) for mode in modes]
    fast = np.concatenate([(couplings.t + np.diag(couplings.mu - detuning))[~forbidden], couplings.u.ravel()])
    ref = np.concatenate([ref_t[~forbidden], ref_u.ravel()])
    scale = np.maximum(np.maximum(np.abs(fast), np.abs(ref)), ORACLE_FLOOR)
    worst = float(np.max(np.abs(fast - ref) / scale))
    diag = ref_t.diagonal().real
    leaks, bounds = np.abs(ref_t[forbidden]), np.sqrt(np.outer(diag, diag))[forbidden]
    # the bound is 0 only where a mode underflows to 0 on the whole disk
    ratios = np.divide(leaks, bounds, out=np.where(leaks > 0.0, np.inf, 0.0), where=bounds > 0.0)
    worst_forbidden = float(np.max(ratios, initial=0.0))
    oracle = {
        "name": "oracle",
        "passed": bool(worst <= ORACLE_RTOL and worst_forbidden <= ORACLE_RTOL),
        "detail": worst,
        "entries": {"mu": len(modes), "t_allowed": int((~forbidden).sum()) - len(modes),
                    "t_forbidden": int(forbidden.sum()), "u": len(modes) ** 2},
        "forbidden_ratio": worst_forbidden,
        "radial_order": order,
        "n_phi": n_phi,
    }
    return [selection, oracle]


def check(config: RunConfig, outdir: Path) -> dict:
    """Verification pass: mode orthonormality, every coupling entry against
    the 2D quadrature, selection rules, Hermiticity, gauge invariance under
    profile rotation, and (for flux designs) the realized plaquette fluxes.
    Writes check_report.json; raises CheckFailed if any check fails."""
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

    checks.extend(_coupling_checks(config, couplings))

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
    write_json(Path(outdir) / "check_report.json", report)
    for c in checks:
        print(f"{'PASS' if c['passed'] else 'FAIL'} {c['name']} ({c['detail']:.3e})")
    if not passed:
        raise CheckFailed("verification failed; see check_report.json")
    return report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lglattice",
        description="Lattice models for twisted light scattered off shaped clouds.",
        epilog="exit codes:\n" + "".join(f"  {code}  {text}\n" for code, _, text in EXIT_CODES),
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
        p.add_argument("--threads", type=int, default=1, help="accepted and validated for compatibility; has no effect")
        p.add_argument("--seed", type=int, default=0, help="accepted for compatibility; has no effect")
    return parser


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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first call and reused by every later main() in the process
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    outdir = Path(args.out)
    try:
        config = parse_config(args.config)
        # validated so a bad value keeps its exit code; nothing uses it
        if args.threads < 1:
            raise ValidationError("threads must be at least 1")
        if args.command == "check":
            check(config, outdir)
        else:
            run(config, _default_tasks(args.command, config), outdir)
        return 0
    except Exception as exc:  # every failure is reported through EXIT_CODES
        return _fail(outdir, exc)


def _fail(outdir: Path, exc: Exception) -> int:
    # Exception (code 1) matches every failure and the other classes are
    # disjoint, so the highest matching code is the specific one
    code = max(code for code, kind, _ in EXIT_CODES[1:] if isinstance(exc, kind))
    record = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
    try:
        write_json(outdir / "error.json", record)
    except OSError:
        pass
    print(f"error: {exc}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
