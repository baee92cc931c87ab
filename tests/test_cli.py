import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lglattice.cli as cli
from lglattice.cli import (
    EXIT_CODES,
    ConfigError,
    ValidationError,
    build_parser,
    main,
    parse_config,
)


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.json"))

BASE = {
    "window": {"l_min": -2, "l_max": 2},
    "beam": {"second_order_scale": 0.1},
    "design": {"kind": "preset", "name": "chain"},
    "particles": 1,
}


class TestParseConfig:
    def test_minimal(self):
        config = parse_config({"window": {"l_min": 0, "l_max": 1}, "profile": {}})
        assert config.window.size == 2
        assert config.profile.harmonic(0).c == 1.0
        assert config.particles == 1

    def test_full(self, tmp_path):
        payload = dict(BASE, tasks=["couplings", "heatmap"], n_states=4)
        config = parse_config(write_config(tmp_path, payload))
        assert config.tasks == ["couplings", "heatmap"]
        assert config.n_states == 4
        assert config.design["kind"] == "preset"

    @pytest.mark.parametrize("mutate", [
        lambda c: c.update(bogus=1),
        lambda c: c["window"].update(spin=2),
        lambda c: c["beam"].update(color="red"),
        lambda c: c.update(tasks=["transmogrify"]),
        lambda c: c.update(tasks="couplings"),
        lambda c: c["window"].update(l_min="zero"),
        lambda c: c.pop("window"),
        # non-finite numbers (json.loads accepts NaN and Infinity)
        lambda c: c["profile"].update(harmonics=[{"k": 1, "c": math.nan}]),
        lambda c: c["profile"].update(harmonics=[{"k": 1, "c": 0.5, "phase": math.inf}]),
        lambda c: c["profile"].update(radius=math.nan),
        lambda c: c["beam"].update(waist=math.nan),
        lambda c: c["beam"].update(waist=10**400),
        lambda c: c.update(profile=None, design={"kind": "power_law", "beta": math.nan, "max_range": 1}),
        lambda c: c.update(profile=None, design={
            "kind": "preset", "name": "triangular_ladder", "params": {"ratio": -math.inf}}),
        # a wrong type inside a section that also validates physics
        lambda c: c["beam"].update(waist="wide"),
        # threads is a command line flag only
        lambda c: c.update(threads=0),
        lambda c: c.update(beam=None),
        lambda c: c.update(profile=None, design={
            "kind": "preset", "name": "chain", "params": {"strength": True}}),
        lambda c: c.update(profile=None, design={
            "kind": "preset", "name": "chain", "params": {"phase": "x"}}),
    ])
    def test_schema_violations(self, mutate):
        payload = {
            "window": {"l_min": 0, "l_max": 1},
            "beam": {},
            "profile": {},
            "tasks": [],
        }
        mutate(payload)
        if payload["profile"] is None:
            del payload["profile"]
        with pytest.raises(ConfigError):
            parse_config(payload)

    def test_profile_and_design_exclusive(self):
        with pytest.raises(ConfigError):
            parse_config({
                "window": {"l_min": 0, "l_max": 1},
                "profile": {},
                "design": {"kind": "preset", "name": "chain"},
            })
        with pytest.raises(ConfigError):
            parse_config({"window": {"l_min": 0, "l_max": 1}})

    def test_unphysical_profile_wraps_cause(self):
        payload = {
            "window": {"l_min": 0, "l_max": 1},
            "profile": {"harmonics": [{"k": 1, "c": 1.5}]},
        }
        with pytest.raises(ValidationError) as excinfo:
            parse_config(payload)
        from lglattice import NonPhysicalDensity

        assert isinstance(excinfo.value.__cause__, NonPhysicalDensity)

    @pytest.mark.parametrize("payload", [
        {"window": {"l_min": 2, "l_max": 0}, "profile": {}},
        {"window": {"l_min": 0, "l_max": 1}, "profile": {},
         "beam": {"waist": -1.0}},
        {"window": {"l_min": 0, "l_max": 1}, "profile": {},
         "beam": {"interaction_sign": "sideways"}},
        {"window": {"l_min": 0, "l_max": 1}, "profile": {}, "particles": -1},
        {"window": {"l_min": 0, "l_max": 1}, "profile": {}, "n_states": 0},
    ])
    def test_validation_errors(self, payload):
        with pytest.raises(ValidationError):
            parse_config(payload)

    def test_design_resolution(self):
        config = parse_config({
            "window": {"l_min": -3, "l_max": 3},
            "design": {"kind": "power_law", "beta": 1.0, "max_range": 3},
        })
        assert config.profile.active_orders == (1, 2, 3)

    def test_bad_json_string(self):
        with pytest.raises(ConfigError):
            parse_config("{not json")

    def test_json_string_past_filename_limit(self):
        # longer than any file name the OS accepts: must be parsed, not stat'ed
        payload = {"window": {"l_min": 0, "l_max": 1}, "profile": {}}
        text = json.dumps(payload) + " " * 5000
        assert parse_config(text).window.size == 2
        with pytest.raises(ConfigError, match="not valid JSON"):
            parse_config("{" + " " * 5000)

    def test_missing_file_reported_as_missing(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(str(tmp_path / "absent.json"))
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "absent.json")

    def test_unreadable_path_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config("x" * 5000)
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config(str(tmp_path))


class TestExitCodes:
    def test_success(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        assert main(["compute", "--config", cfg, "--out", str(tmp_path / "out")]) == 0

    def test_parse_error_is_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        out = tmp_path / "out"
        assert main(["compute", "--config", str(bad), "--out", str(out)]) == 2
        record = json.loads((out / "error.json").read_text())
        assert record["exit_code"] == 2
        assert record["error"] == "ConfigError"

    def test_validation_error_is_3(self, tmp_path):
        payload = {
            "window": {"l_min": 0, "l_max": 1},
            "profile": {"harmonics": [{"k": 1, "c": 1.5}]},
        }
        cfg = write_config(tmp_path, payload)
        assert main(["compute", "--config", cfg, "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("particles, dim", [(3, 286), (5, 3003)])
    def test_n_states_past_fock_dimension_is_3(self, tmp_path, particles, dim):
        # one rule on both sides of the dense/Lanczos switch
        payload = {
            "window": {"l_min": -5, "l_max": 5},
            "design": {"kind": "preset", "name": "chain"},
            "particles": particles,
            "n_states": 5000,
        }
        with pytest.raises(ValidationError, match=f"Fock dimension {dim}$"):
            parse_config(payload)
        assert parse_config(dict(payload, n_states=dim)).n_states == dim
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["diagonalize", "--config", cfg, "--out", str(out)]) == 3
        assert json.loads((out / "error.json").read_text())["error"] == "ValidationError"

    def test_basis_cap_is_5(self, tmp_path):
        payload = {
            "window": {"l_min": -30, "l_max": 30},
            "profile": {},
            "particles": 8,
            "tasks": ["diagonalize"],
        }
        cfg = write_config(tmp_path, payload)
        assert main(["compute", "--config", cfg, "--out", str(tmp_path / "o")]) == 5

    def test_non_finite_number_is_2(self, tmp_path):
        payload = dict(BASE, design={"kind": "power_law", "beta": math.nan, "max_range": 2})
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["compute", "--config", cfg, "--out", str(out)]) == 2
        record = json.loads((out / "error.json").read_text())
        assert record["error"] == "ConfigError"
        assert "finite" in record["message"]

    @pytest.mark.parametrize("source", ["missing.json", "x" * 5000], ids=["missing", "too_long"])
    def test_unreadable_config_is_2(self, tmp_path, monkeypatch, source):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "out"
        assert main(["compute", "--config", source, "--out", str(out)]) == 2
        record = json.loads((out / "error.json").read_text())
        assert record["error"] == "ConfigError"

    @pytest.mark.parametrize("command", ["compute", "design", "diagonalize", "check"])
    @pytest.mark.parametrize("config", CONFIGS, ids=lambda path: path.stem)
    def test_shipped_configs_succeed(self, tmp_path, config, command):
        assert main([command, "--config", str(config), "--out", str(tmp_path / "o")]) == 0

    def test_broken_plaquette_is_6(self, tmp_path):
        payload = dict(BASE, tasks=["fluxes"])
        cfg = write_config(tmp_path, payload)
        assert main(["compute", "--config", cfg, "--out", str(tmp_path / "o")]) == 6

    def test_failing_check_is_7(self, tmp_path, monkeypatch):
        # sabotage the flux comparison so the check must fail
        import lglattice.cli as cli

        payload = {
            "window": {"l_min": -2, "l_max": 2},
            "design": {"kind": "fluxes", "narrow": 1.0},
        }
        cfg = write_config(tmp_path, payload)
        monkeypatch.setattr(cli, "FLUX_ATOL", -1.0)
        out = tmp_path / "o"
        assert main(["check", "--config", cfg, "--out", str(out)]) == 7
        report = json.loads((out / "check_report.json").read_text())
        assert report["passed"] is False

    def test_check_passes(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        out = tmp_path / "o"
        assert main(["check", "--config", cfg, "--out", str(out), "--seed", "5"]) == 0
        report = json.loads((out / "check_report.json").read_text())
        assert report["passed"] is True
        names = {c["name"] for c in report["checks"]}
        assert {"orthonormality", "hermitian", "selection_rule", "oracle", "gauge"} <= names

    # every entry is compared, whatever the seed: at least the min(6, modes^2)
    # samples a seeded draw would take. A chain profile (order 1) allows the
    # 2 (modes - 1) nearest-neighbour hops and forbids the rest; a one-mode
    # window has no hop at all
    @pytest.mark.parametrize("window, samples", [((-2, 2), 6), ((0, 0), 1)])
    @pytest.mark.parametrize("seed", range(6))
    def test_check_oracle_compares_every_sample(self, tmp_path, window, samples, seed):
        payload = dict(BASE, window={"l_min": window[0], "l_max": window[1]})
        cfg = write_config(tmp_path, payload)
        reports = []
        for s in (seed, seed + 1):
            out = tmp_path / f"seed{s}"
            assert main(["check", "--config", cfg, "--out", str(out), "--seed", str(s)]) == 0
            reports.append((out / "check_report.json").read_bytes())
        assert reports[0] == reports[1]
        oracle = next(c for c in json.loads(reports[0])["checks"] if c["name"] == "oracle")
        modes = window[1] - window[0] + 1
        assert oracle["entries"] == {
            "mu": modes,
            "t_allowed": 2 * (modes - 1),
            "t_forbidden": (modes - 1) * (modes - 2),
            "u": modes * modes,
        }
        assert sum(oracle["entries"].values()) >= samples
        assert oracle["detail"] <= 1e-6 and oracle["forbidden_ratio"] <= 1e-6
        assert oracle["n_phi"] == modes + 1
        assert oracle["radial_order"] >= 32
        assert "samples" not in oracle

    def test_wrong_hopping_phase_fails_check(self, tmp_path, monkeypatch):
        # conjugate every hopping factor: u, mu and the selection rule stay
        # right, so only the comparison with the 2D quadrature can see it
        import lglattice.couplings as couplings

        factor = couplings.azimuthal_factor
        monkeypatch.setattr(couplings, "azimuthal_factor", lambda dl, profile: factor(-dl, profile))
        cfg = write_config(tmp_path, BASE)
        out = tmp_path / "o"
        assert main(["check", "--config", cfg, "--out", str(out)]) == 7
        checks = json.loads((out / "check_report.json").read_text())["checks"]
        oracle = next(c for c in checks if c["name"] == "oracle")
        assert oracle["passed"] is False
        assert {c["name"] for c in checks if c["passed"]} >= {"hermitian", "selection_rule"}

    def test_help_documents_exit_codes(self, tmp_path, monkeypatch):
        # --help lists the table main maps failures with, row for row
        text = build_parser().format_help()
        assert "exit codes" in text
        assert [code for code, _, _ in EXIT_CODES] == list(range(8))
        for code, kind, line in EXIT_CODES:
            assert f"  {code}  {line}\n" in text
            if kind is None:
                continue
            failure = kind.__new__(kind)

            def fail(source):
                raise failure

            monkeypatch.setattr(cli, "parse_config", fail)
            out = tmp_path / str(code)
            assert main(["compute", "--config", "unused.json", "--out", str(out)]) == code
            record = json.loads((out / "error.json").read_text())
            assert (record["error"], record["exit_code"]) == (kind.__name__, code)

    def test_process_exit_codes(self, tmp_path):
        # the status the shell sees, which in-process calls only see as SystemExit
        path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))

        def status(*flags):
            command = [sys.executable, "-m", "lglattice.cli", "compute", "--config", str(CONFIGS[0]),
                       "--out", str(tmp_path / "out"), *flags]
            return subprocess.run(command, env=env, cwd=tmp_path, capture_output=True, timeout=120).returncode

        assert status("--threads", "2", "--seed", "3") == 0
        assert status("--threads", "x") == 2
        assert status("--threads", "0") == 3
        record = json.loads((tmp_path / "out" / "error.json").read_text())
        assert (record["error"], record["exit_code"]) == ("ValidationError", 3)


class TestOutputs:
    def test_compute_default_tasks(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        out = tmp_path / "out"
        assert main(["compute", "--config", cfg, "--out", str(out)]) == 0
        names = {p.name for p in out.iterdir()}
        assert {"mu.csv", "t_matrix.csv", "u_matrix.csv", "summary.json",
                "heatmap.csv", "uniformity.csv"} <= names

    def test_config_tasks_override_compute(self, tmp_path):
        payload = dict(BASE, tasks=["profile"])
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["compute", "--config", cfg, "--out", str(out)]) == 0
        assert {p.name for p in out.iterdir()} == {"profile.json"}

    def test_design_emits_fit_report(self, tmp_path):
        payload = {
            "window": {"l_min": -3, "l_max": 3},
            "design": {"kind": "power_law", "beta": 1.0, "max_range": 3},
        }
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["design", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "profile.json").exists()
        assert (out / "fit_report.csv").exists()

    def test_design_emits_flux_report(self, tmp_path):
        payload = {
            "window": {"l_min": -3, "l_max": 3},
            "design": {"kind": "fluxes", "narrow": 2.0, "wide": 0.5},
        }
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["design", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "flux_report.csv").exists()

    def test_diagonalize_outputs(self, tmp_path):
        payload = dict(BASE, particles=2, n_states=3)
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["diagonalize", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "eigenvalues.csv").read_text().splitlines()
        assert len(lines) == 4
        assert (out / "occupations.csv").exists()

    @pytest.mark.parametrize("command", ["compute", "design", "diagonalize", "check"])
    @pytest.mark.parametrize("config", CONFIGS, ids=lambda path: path.stem)
    def test_reruns_byte_identical(self, tmp_path, config, command):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main([command, "--config", str(config), "--out", str(out_a)]) == 0
        assert main([command, "--config", str(config), "--out", str(out_b)]) == 0
        names = sorted(p.name for p in out_a.iterdir())
        assert names and names == sorted(p.name for p in out_b.iterdir())
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_profile_json_round_trips(self, tmp_path):
        payload = dict(BASE, tasks=["profile"])
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        main(["compute", "--config", cfg, "--out", str(out)])
        from lglattice import DensityProfile

        data = json.loads((out / "profile.json").read_text())
        profile = DensityProfile.from_dict(data)
        assert profile.active_orders == (1,)


class TestThreads:
    def test_threaded_output_matches_serial(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["compute", "--config", cfg, "--out", str(out_a),
                     "--threads", "1"]) == 0
        assert main(["compute", "--config", cfg, "--out", str(out_b),
                     "--threads", "4"]) == 0
        for path in sorted(out_a.iterdir()):
            assert path.read_bytes() == (out_b / path.name).read_bytes()
