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
    hopping_uniformity,
    radial_overlap_matrices,
)
from .density import DEFAULT_RADIUS, DensityProfile, Harmonic, NonPhysicalDensity, rotate, validate_nonnegative
from .design import (
    TRIANGLES,
    BrokenPlaquette,
    design_fluxes,
    design_power_law,
    fit_power_law,
    plaquette_fluxes,
    preset_profile,
    wrap_angle,
)
from .io import write_json, write_table
from .manybody import (
    BasisTooLarge, EigenCertificateFailed, build_hamiltonian, eigensolve, occupations, single_particle_matrix,
)
from .modes import BEAM_NUMBERS, BeamParameters, mode_detuning

__all__ = ["ConfigError", "ValidationError", "CheckFailed", "RunConfig", "parse_config", "run", "check", "main"]


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
    (8, EigenCertificateFailed, "eigenpair residual over its tolerance"),
)


@dataclass
class RunConfig:
    window: ModeWindow
    beam: BeamParameters
    profile: DensityProfile
    design: dict | None = None  # the checked design section
    particles: int = 1
    n_states: int | None = None
    tasks: list[str] = field(default_factory=list)


# Each config section: its keys with their kinds, then its required keys. A
# kind is int, float (any finite JSON number), bool, str or dict, or a
# one-element tuple for a list of that kind. Each design kind lists its keys
# besides `kind` and `radius`, and names the report task `design` writes.
SCHEMA = {
    "config": ({"window": dict, "beam": dict, "profile": dict, "design": dict,
                "particles": int, "n_states": int, "tasks": (str,)}, ("window",)),
    "window": ({"l_min": int, "l_max": int, "p_values": (int,)}, ("l_min", "l_max")),
    "beam": ({**dict.fromkeys(BEAM_NUMBERS, float), "interaction_sign": str}, ()),
    "profile": ({"radius": float, "harmonics": (dict,)}, ()),
    "harmonics[i]": ({"k": int, "c": float, "phase": float}, ("k", "c")),
    "design": {
        "preset": ({"name": str, "params": dict}, ("name",), None),
        "power_law": ({"beta": float, "max_range": int, "calibrate": bool}, ("beta", "max_range"), "fit"),
        "fluxes": ({"narrow": float, "wide": float, "gauge": float}, ("narrow",), "fluxes"),
    },
}
_KIND_NAMES = {int: "an integer", float: "a finite number", bool: "a boolean", str: "a string", dict: "an object"}


def _value(value, kind, where: str):
    """`value` checked against a schema kind; a float kind gives a float."""
    if isinstance(kind, tuple):
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a list")
        return [_value(item, kind[0], f"{where}[{i}]") for i, item in enumerate(value)]
    if isinstance(value, bool) and kind is not bool:
        pass  # JSON true and false are no numbers, though Python's bool is an int
    elif kind is float and isinstance(value, (int, float)):
        try:
            value = float(value)
        except OverflowError:  # an integer literal past the float range
            value = math.inf
        if math.isfinite(value):
            return value
    elif isinstance(value, kind):
        return value
    raise ConfigError(f"{where} must be {_KIND_NAMES[kind]}")


def _section(section, where: str, fields: dict, required=()) -> dict:
    """The keys `section` holds, each checked against its kind in `fields`.
    Absent keys stay absent, so they keep the defaults of the class the
    section feeds."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(section) - set(fields)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")
    for key in required:
        if key not in section:
            raise ConfigError(f"{where} is missing required key {key!r}")
    return {key: _value(value, fields[key], f"{where}.{key}") for key, value in section.items()}


def _profile(section) -> DensityProfile:
    profile = _section(section, "profile", *SCHEMA["profile"])
    harmonics = enumerate(profile.pop("harmonics", []))
    parsed = [Harmonic(**_section(h, f"profile.harmonics[{i}]", *SCHEMA["harmonics[i]"])) for i, h in harmonics]
    return DensityProfile(harmonics=tuple(parsed), **profile)


def _design(section: dict, window: ModeWindow, beam: BeamParameters) -> tuple[dict, DensityProfile]:
    """The checked design section and the profile it resolves to."""
    kinds = SCHEMA["design"]
    kind = section.get("kind")
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"design.kind must be one of {', '.join(map(repr, kinds))}")
    fields, required, _ = kinds[kind]
    design = _section(section, "design", {"kind": str, "radius": float, **fields}, required)
    radius = design.get("radius", DEFAULT_RADIUS * beam.waist)
    if kind == "preset":
        params = {key: _value(value, float, f"design.params.{key}") for key, value in design.get("params", {}).items()}
        try:
            return design, preset_profile(design["name"], radius=radius, **params)
        except TypeError as exc:
            raise ConfigError(f"bad design.params: {exc}") from exc
    # each key is its builder's keyword; an absent key keeps the builder's default
    params = {key: design[key] for key in fields if key in design}
    if kind == "power_law":
        return design, design_power_law(window=window, beam=beam, radius=radius, **params)
    return design, design_fluxes(radius=radius, **params)


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
    raw = _section(raw, "config", *SCHEMA["config"])
    if ("profile" in raw) == ("design" in raw):
        raise ConfigError("config needs exactly one of 'profile' or 'design'")
    for task in raw.get("tasks", []):
        if task not in TASKS:
            raise ConfigError(f"unknown task {task!r} (known: {', '.join(TASKS)})")
    design = None
    # the constructors and designers reject unphysical values with ValueError;
    # ConfigError is one too, and passes through as a schema error
    try:
        window = ModeWindow(**_section(raw["window"], "window", *SCHEMA["window"]))
        beam = BeamParameters(**_section(raw.get("beam", {}), "beam", *SCHEMA["beam"]))
        if "profile" in raw:
            profile = _profile(raw["profile"])
        else:
            design, profile = _design(raw["design"], window, beam)
        validate_nonnegative(profile)
    except ConfigError:
        raise
    except NonPhysicalDensity as exc:
        raise ValidationError(f"density profile is not physical: {exc}") from exc
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    options = {key: raw[key] for key in ("particles", "n_states", "tasks") if key in raw}
    config = RunConfig(window=window, beam=beam, profile=profile, design=design, **options)
    if config.particles < 0:
        raise ValidationError("particles must be non-negative")
    if config.n_states is not None:
        if config.n_states < 1:
            raise ValidationError("n_states must be positive")
        dim = math.comb(config.particles + window.size - 1, config.particles)
        if config.n_states > dim:
            raise ValidationError(f"n_states {config.n_states} exceeds the Fock dimension {dim}")
    return config


def _pair_columns(modes) -> list[np.ndarray]:
    """l, p, l', p' columns of every ordered mode pair, row-major in the window."""
    ls = np.array([m.l for m in modes])
    ps = np.array([m.p for m in modes])
    n = len(modes)
    return [np.repeat(ls, n), np.repeat(ps, n), np.tile(ls, n), np.tile(ps, n)]


def _coupling_files(config: RunConfig, couplings: CouplingSet) -> dict:
    modes = couplings.window.modes
    pairs = _pair_columns(modes)
    t = couplings.t.ravel()
    return {
        "mu.csv": ("l,p,mu", [[m.l for m in modes], [m.p for m in modes], couplings.mu]),
        "t_matrix.csv": ("l,p,l',p',re,im", [*pairs, t.real, t.imag]),
        "u_matrix.csv": ("l,p,l',p',value", [*pairs, couplings.u.ravel()]),
        "summary.json": {**couplings.metadata, "interaction_sign": couplings.interaction_sign},
    }


def _heatmap(config: RunConfig, couplings: CouplingSet) -> dict:
    """|t| and arg t per mode pair, for banded-structure plots."""
    t = couplings.t.ravel()
    # hypot matches the scalar abs() bit for bit; np.abs on complex does not
    columns = [*_pair_columns(couplings.window.modes), np.hypot(t.real, t.imag), np.angle(t)]
    return {"heatmap.csv": ("l,p,l',p',abs,arg", columns)}


def _uniformity(config: RunConfig, couplings: CouplingSet) -> dict:
    report = hopping_uniformity(couplings)
    ks = sorted(report)
    columns = [ks] + [[report[k][key] for k in ks] for key in ("mean", "min", "max", "rel_spread")]
    return {"uniformity.csv": ("k,mean,min,max,rel_spread", columns)}


def _fit_report(config: RunConfig, couplings: CouplingSet) -> dict:
    """Long format: the per-range values, then the fitted slopes and residuals."""
    fit = fit_power_law(couplings)
    summary = ("coefficient_slope", "hopping_slope", "coefficient_residual", "hopping_residual")
    n = len(fit.ks)
    quantity = ["coefficient"] * n + ["hopping"] * n + list(summary)
    k = [*fit.ks, *fit.ks] + [""] * len(summary)
    value = [*fit.coefficients, *fit.hoppings] + [getattr(fit, name) for name in summary]
    return {"fit_report.csv": ("quantity,k,value", [quantity, k, value])}


def _flux_report(config: RunConfig, couplings: CouplingSet) -> dict:
    """Every interior plaquette flux, narrow triangles then wide.

    A triangle kind is reported only when the profile carries all of its
    hopping ranges (narrow: 1 and 2; wide: 1, 2 and 3) and the window is
    wide enough to hold one. If the window holds a triangle but the profile
    completes none, no loop carries flux and BrokenPlaquette is raised.
    """
    active = set(config.profile.active_orders)
    span = config.window.l_max - config.window.l_min
    fitting = {kind: (mid, far) for kind, (mid, far) in TRIANGLES.items() if span >= far}
    closed = [kind for kind, (mid, far) in fitting.items() if {mid, far - mid, far} <= active]
    if fitting and not closed:
        raise BrokenPlaquette(
            f"the profile's hopping ranges {sorted(active)} close no "
            f"{' or '.join(fitting)} triangle; there is no flux to report"
        )
    rows = [(kind, *row) for kind in closed for row in plaquette_fluxes(couplings, kind)]
    # with no rows there are no columns, and the table is its header alone
    return {"flux_report.csv": ("triangle,l,p,flux", list(zip(*rows)))}


def _diagonalize(config: RunConfig, couplings: CouplingSet) -> dict:
    """The eigenvalues, and each eigenstate's mode occupations, one row per (state, mode)."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected below
        operator = build_hamiltonian(couplings, config.particles)
    if not math.isfinite(operator.norm_one()):
        raise ValidationError("H's one-norm is not finite: the couplings overflow the many-body Hamiltonian")
    values, vectors = eigensolve(operator, config.n_states)
    basis, n_states = operator.basis, vectors.shape[1]
    occ = np.array([occupations(basis, vectors[:, s]) for s in range(n_states)])
    columns = [
        np.repeat(np.arange(n_states), len(basis.modes)),
        np.tile([m.l for m in basis.modes], n_states),
        np.tile([m.p for m in basis.modes], n_states),
        occ.ravel(),
    ]
    return {
        "eigenvalues.csv": ("index,value", [np.arange(values.size), values]),
        "occupations.csv": ("state,l,p,occupation", columns),
    }


# Every output file of run(), by task: each maps (config, couplings) to the
# files it writes, a file name to its JSON document or to the header and
# columns of its CSV table. profile alone reads no couplings: run() passes
# None when no earlier task has computed them.
TASKS = {
    "profile": lambda config, couplings: {"profile.json": config.profile.to_dict()},
    "couplings": _coupling_files,
    "heatmap": _heatmap,
    "uniformity": _uniformity,
    "fit": _fit_report,
    "fluxes": _flux_report,
    "diagonalize": _diagonalize,
}


def _couplings(config: RunConfig, profile: DensityProfile) -> CouplingSet:
    try:  # a ValueError here is a coupling matrix past the float range
        return compute_couplings(config.window, profile, config.beam)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


def run(config: RunConfig, tasks, outdir: Path) -> list[Path]:
    """Execute a task list and write its files through lglattice.io.

    The couplings are computed once, at the first task that needs them."""
    outdir = Path(outdir)
    written: list[Path] = []
    couplings: CouplingSet | None = None
    for task in tasks:
        if task not in TASKS:
            raise ConfigError(f"unknown task {task!r}")
        if couplings is None and task != "profile":
            couplings = _couplings(config, config.profile)
        for name, content in TASKS[task](config, couplings).items():
            if isinstance(content, tuple):
                written.append(write_table(outdir / name, *content))
            else:
                written.append(write_json(outdir / name, content))
    return written


ORACLE_RTOL = 1e-6
ORACLE_FLOOR = 1e-9
FLUX_ATOL = 1e-8
GAUGE_CHECK_ANGLE = 0.37
GAUGE_T_RTOL = 1e-10
GAUGE_SPECTRUM_RTOL = 1e-9
ORTHONORMALITY_ATOL = 1e-8


def _hops(config: RunConfig) -> tuple[np.ndarray, np.ndarray]:
    """l_n - l_m of every mode pair, and the pairs no harmonic of the profile links."""
    ls = np.array([mode.l for mode in config.window.modes])
    dl = ls[:, None] - ls[None, :]
    return dl, (dl != 0) & ~np.isin(np.abs(dl), config.profile.active_orders)


def _orthonormality(config: RunConfig, couplings: CouplingSet) -> dict:
    # Gram matrix of the window's modes over the full plane. Different l are
    # orthogonal identically by the azimuthal integral; same-l pairs reduce
    # to radial overlaps on an unbounded disk, integrated to where the modes end.
    wide_t, _, _ = radial_overlap_matrices(config.window.modes, math.inf)
    gram_err = np.abs(2.0 * np.pi * wide_t - np.eye(config.window.size))
    worst = float(np.max(gram_err[_hops(config)[0] == 0]))
    return {"passed": worst <= ORTHONORMALITY_ATOL, "detail": worst}


def _exact_zero(values: np.ndarray) -> dict:
    # hypot is the scalar abs() bit for bit, so detail is the exact max |value|
    worst = float(np.max(np.hypot(values.real, values.imag), initial=0.0))
    return {"passed": worst == 0.0, "detail": worst}


def _oracle(config: RunConfig, couplings: CouplingSet) -> dict:
    """Every entry against the 2D quadrature. Each mu (with its detuning), u
    and allowed t entry must match within ORACLE_RTOL of max(|fast|, |oracle|),
    floored at ORACLE_FLOOR times the largest oracle entry of its matrix, T or
    U; at a forbidden hop the oracle must stay within ORACLE_RTOL of the
    Cauchy-Schwarz bound sqrt(T_nn T_mm) of a non-negative density."""
    modes = config.window.modes
    forbidden = _hops(config)[1]
    ref_t, ref_u, order, n_phi = _oracle_integrals(modes, config.profile, config.beam)
    detuning = np.diag([mode_detuning(mode, config.beam) for mode in modes])
    fast_mu_t, ref_mu_t = (couplings.t + np.diag(couplings.mu))[~forbidden], (ref_t + detuning)[~forbidden]
    errors = []
    for fast, ref, bare in ((fast_mu_t, ref_mu_t, ref_t[~forbidden]), (couplings.u, ref_u, ref_u)):
        floor = max(ORACLE_FLOOR * float(np.max(np.abs(bare))), np.finfo(float).tiny)
        with np.errstate(invalid="ignore"):  # an oracle entry past the float range reads nan, and fails
            errors.append(np.max(np.abs(fast - ref) / np.maximum(np.maximum(np.abs(fast), np.abs(ref)), floor)))
    worst = float(np.max(errors))
    diag = np.abs(ref_t.diagonal().real)  # a negative scale flips every T_nn
    with np.errstate(over="ignore"):
        product, root = np.outer(diag, diag), np.sqrt(diag)
    # where T_nn T_mm leaves the float range, the product of the roots is the bound
    bounds = np.where((product > 0.0) & (product < np.inf), np.sqrt(product), np.outer(root, root))[forbidden]
    leaks = np.abs(ref_t[forbidden])
    # the bound is 0 only where a mode is 0 on the whole disk
    ratios = np.divide(leaks, bounds, out=np.where(leaks > 0.0, np.inf, 0.0), where=bounds > 0.0)
    worst_forbidden = float(np.max(ratios, initial=0.0))
    return {
        "passed": worst <= ORACLE_RTOL and worst_forbidden <= ORACLE_RTOL,
        "detail": worst,
        "entries": {"mu": len(modes), "t_allowed": int((~forbidden).sum()) - len(modes),
                    "t_forbidden": int(forbidden.sum()), "u": len(modes) ** 2},
        "forbidden_ratio": worst_forbidden,
        "radial_order": order,
        "n_phi": n_phi,
    }


def _gauge(config: RunConfig, couplings: CouplingSet) -> dict:
    # rotating the cloud is a gauge transformation: hoppings pick up
    # e^{-i(l-l') alpha} and the single-particle spectrum must not move
    alpha = GAUGE_CHECK_ANGLE
    turned = _couplings(config, rotate(config.profile, alpha))
    expected = couplings.t * np.exp(-1j * alpha * _hops(config)[0])
    t_err = float(np.max(np.abs(turned.t - expected)))
    # below the smallest normal float, rounding of t is absolute, not relative
    t_max = max(float(np.max(np.abs(couplings.t))), np.finfo(float).tiny)
    before = np.linalg.eigvalsh(single_particle_matrix(couplings))
    after = np.linalg.eigvalsh(single_particle_matrix(turned))
    spec_err = float(np.max(np.abs(after - before))) / max(float(np.max(np.abs(before))), 1.0)
    passed = t_err <= GAUGE_T_RTOL * t_max and spec_err <= GAUGE_SPECTRUM_RTOL
    return {"passed": passed, "detail": max(t_err, spec_err)}


def _flux_roundtrip(config: RunConfig, couplings: CouplingSet) -> dict | None:
    if config.design is None or config.design["kind"] != "fluxes":
        return None
    errors = [
        abs(wrap_angle(flux - wrap_angle(config.design[kind])))
        for kind in ("narrow", "wide") if kind in config.design
        for _, _, flux in plaquette_fluxes(couplings, kind)
    ]
    worst = float(max(errors, default=0.0))
    return {"passed": worst <= FLUX_ATOL, "detail": worst, "plaquettes": len(errors)}


# Every entry of check_report.json, by name: each maps (config, couplings)
# to its passed, detail and own fields, or to None where it does not apply.
# Each judges its matrix at that matrix's own scale: the Gram matrix against
# 1, t against max|t|, an oracle entry against itself floored at its matrix
# T or U, a flux in radians.
CHECKS = {
    "orthonormality": _orthonormality,
    "hermitian": lambda config, couplings: _exact_zero(couplings.t - couplings.t.conj().T),
    "selection_rule": lambda config, couplings: _exact_zero(couplings.t[_hops(config)[1]]),
    "oracle": _oracle,
    "gauge": _gauge,
    "flux_roundtrip": _flux_roundtrip,
}


def check(config: RunConfig, outdir: Path) -> dict:
    """Verification pass: every row of CHECKS on couplings computed once.
    Writes check_report.json; raises CheckFailed if any check fails."""
    couplings = _couplings(config, config.profile)
    entries = ((name, rule(config, couplings)) for name, rule in CHECKS.items())
    checks = [{"name": name, **entry} for name, entry in entries if entry is not None]
    passed = all(c["passed"] for c in checks)
    report = {"passed": passed, "checks": checks}
    write_json(Path(outdir) / "check_report.json", report)
    for c in checks:
        print(f"{'PASS' if c['passed'] else 'FAIL'} {c['name']} ({c['detail']:.3e})")
    if not passed:
        raise CheckFailed("verification failed; see check_report.json")
    return report


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # built on the first call and reused by every later main() in the process
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
        report = config.design and SCHEMA["design"][config.design["kind"]][2]
        return ["profile", report] if report else ["profile"]
    if command == "diagonalize":
        return ["couplings", "diagonalize"]
    raise ValueError(command)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
