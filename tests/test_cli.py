import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import lglattice.cli as cli
import lglattice.couplings as couplings
import lglattice.manybody as manybody
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
# sha256 of every file each shipped config writes under each subcommand,
# keyed "config/command", with the numpy and scipy versions that wrote them
GOLDEN = json.loads((Path(__file__).parent / "golden_outputs.json").read_text())
FLUX_CONFIG = json.loads((ROOT / "configs" / "flux_pi_halfpi.json").read_text())

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
        # a keyword the preset does not take
        lambda c: c.update(profile=None, design={
            "kind": "preset", "name": "triangular_ladder", "params": {"rato": 0.5}}),
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
        # |l| + p of the window's farthest mode is past its cap, MAX_MODE_ORDER
        {"window": {"l_min": -1, "l_max": 1, "p_values": [1000001]}, "profile": {}},
    ])
    def test_validation_errors(self, payload):
        with pytest.raises(ValidationError):
            parse_config(payload)

    @pytest.mark.parametrize("section, message", [
        ({"window": []}, "config.window must be an object"),
        ({"window": {"l_min": 0, "l_max": 1, "p_values": [0, "1"]}}, r"window.p_values\[1\] must be an integer"),
        ({"profile": {"harmonics": [{"k": 1.0, "c": 0.5}]}}, r"profile.harmonics\[0\].k must be an integer"),
        ({"profile": {"harmonics": [{"k": 1}]}}, r"profile.harmonics\[0\] is missing required key 'c'"),
        ({"tasks": ["profile", 3]}, r"config.tasks\[1\] must be a string"),
        ({"profile": None, "design": {"kind": "lattice"}},
         "design.kind must be one of 'preset', 'power_law', 'fluxes'"),
        ({"profile": None, "design": {"kind": "fluxes", "narrow": 1.0, "calibrate": True}},
         "unknown key.* in design: calibrate"),
        ({"profile": None, "design": {"kind": "power_law", "beta": 1.0, "max_range": 2, "calibrate": 1}},
         "design.calibrate must be a boolean"),
    ], ids=["window", "p_values", "harmonic_k", "harmonic_c", "task", "design_kind", "design_key", "calibrate"])
    def test_messages_name_the_path(self, section, message):
        payload = dict({"window": {"l_min": 0, "l_max": 1}, "profile": {}}, **section)
        if payload["profile"] is None:
            del payload["profile"]
        with pytest.raises(ConfigError, match=message):
            parse_config(payload)

    def test_kinds_before_physics(self):
        # a wrong kind at the top level is a config error even where a
        # section also describes unphysical values
        payload = {"window": {"l_min": 2, "l_max": 0}, "profile": {}}
        with pytest.raises(ValidationError):
            parse_config(payload)
        with pytest.raises(ConfigError, match="config.particles must be an integer"):
            parse_config(dict(payload, particles="x"))

    def test_design_section_is_checked(self):
        config = parse_config({"window": {"l_min": -2, "l_max": 2}, "design": {"kind": "fluxes", "narrow": 1}})
        assert config.design == {"kind": "fluxes", "narrow": 1.0}
        assert type(config.design["narrow"]) is float

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
        payloads = [
            {"window": {"l_min": 0, "l_max": 1}, "profile": {"harmonics": [{"k": 1, "c": 1.5}]}},
            # a power-law range past the harmonic order cap
            {"window": {"l_min": -3, "l_max": 3}, "design": {"kind": "power_law", "beta": 1.0, "max_range": 10**12}},
            # negative on half the plane at amplitudes of 1e-150: judged at max|c_k|, not at 1e-9
            {"window": {"l_min": -3, "l_max": 3},
             "profile": {"radius": 0.5, "harmonics": [{"k": 0, "c": 0.0}, {"k": 2, "c": 1e-150},
                                                      {"k": 4, "c": 1e-150, "phase": 0.5}]}},
        ]
        for i, payload in enumerate(payloads):
            cfg = write_config(tmp_path, payload, name=f"config{i}.json")
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

    def test_all_but_one_state_past_the_cutoff(self, tmp_path, capsys, monkeypatch):
        # dim 35 and a complex H: n_states = dim - 1 takes the dense path
        monkeypatch.setattr(manybody, "DENSE_CUTOFF", 10)
        payload = {
            "window": {"l_min": -2, "l_max": 2},
            "design": {"kind": "preset", "name": "triangular_ladder"},
            "particles": 3,
            "n_states": 34,
        }
        out = tmp_path / "out"
        assert main(["diagonalize", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 0
        assert len((out / "eigenvalues.csv").read_text().splitlines()) == 35  # header and 34 rows
        assert capsys.readouterr().err == ""

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
        out = tmp_path / "o"
        assert main([command, "--config", str(config), "--out", str(out)]) == 0
        versions = {"numpy": np.__version__, "scipy": scipy.__version__}
        if versions != {key: GOLDEN[key] for key in versions}:
            # LAPACK's last digits differ between builds; the exit code above still counts
            pytest.skip(f"golden digests are from numpy {GOLDEN['numpy']}, scipy {GOLDEN['scipy']}; "
                        f"running numpy {versions['numpy']}, scipy {versions['scipy']}")
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
        assert digests == GOLDEN["outputs"][f"{config.stem}/{command}"]

    @pytest.mark.parametrize("command", ["compute", "diagonalize", "check"])
    @pytest.mark.parametrize("payload", [
        dict(BASE, beam={"first_order_scale": 1e308}),
        dict(BASE, beam={"gouy_rate": 1e308}),
        {"window": BASE["window"], "profile": {"harmonics": [{"k": 0, "c": 1e308}, {"k": 1, "c": 1e308}]}},
    ], ids=["first_order_scale", "gouy_rate", "harmonics"])
    def test_overflowing_couplings_are_3(self, tmp_path, payload, command):
        out = tmp_path / "o"
        assert main([command, "--config", write_config(tmp_path, payload), "--out", str(out)]) == 3
        # rejected before any coupling file is written
        assert [p.name for p in out.iterdir()] == ["error.json"]
        record = json.loads((out / "error.json").read_text())
        assert record["error"] == "ValidationError"
        assert record["message"].startswith("mu is not finite")

    @pytest.mark.parametrize("command", ["compute", "check"])
    @pytest.mark.parametrize("payload", [
        {"window": BASE["window"], "beam": {"waist": 1e-300}, "profile": {}},
        dict(BASE, beam={"second_order_scale": 0.1, "waist": 1e-200}),
    ], ids=["tiny_waist", "chain"])
    def test_tiny_waist_overflows_u_is_3(self, tmp_path, capsys, payload, command):
        # T is scale-free, but U carries 1 / w^2, past the float range here
        out = tmp_path / "o"
        assert main([command, "--config", write_config(tmp_path, payload), "--out", str(out)]) == 3
        assert [p.name for p in out.iterdir()] == ["error.json"]
        record = json.loads((out / "error.json").read_text())
        assert record["error"] == "ValidationError"
        assert record["message"].startswith("u is not finite")
        # no numpy warning reaches stderr, only the error line
        assert capsys.readouterr().err == f"error: {record['message']}\n"

    def test_power_law_at_underflowing_radius_is_3(self, tmp_path):
        # the central overlaps underflow to 0 on this disk: the calibration
        # has nothing to divide by and names the radius
        payload = {
            "window": {"l_min": -3, "l_max": 3},
            "design": {"kind": "power_law", "beta": 1.0, "max_range": 2, "radius": 1e-120},
        }
        out = tmp_path / "o"
        assert main(["design", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 3
        record = json.loads((out / "error.json").read_text())
        assert record["error"] == "ValidationError"
        assert "radius 1e-120" in record["message"]

    def test_fit_of_underflowing_hoppings_is_nan(self, tmp_path):
        # every hopping is 0 on this disk: no log-log fit, and no numpy
        # warning from a log of 0
        payload = {
            "window": {"l_min": -2, "l_max": 2},
            "profile": {"radius": 1e-200, "harmonics": [{"k": 1, "c": 0.5}, {"k": 2, "c": 0.3}]},
            "tasks": ["fit"],
        }
        out = tmp_path / "o"
        assert main(["compute", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 0
        rows = [line.split(",") for line in (out / "fit_report.csv").read_text().splitlines()]
        values = {quantity: value for quantity, _, value in rows[1:]}
        assert math.isnan(float(values["hopping_slope"]))
        assert math.isnan(float(values["hopping_residual"]))

    @pytest.mark.parametrize("waist", [1e-100, 1e-150, 1e-154])
    def test_tiny_waist_keeps_scale_free_couplings(self, tmp_path, waist):
        # the design radius is 4 waists and mu and t depend on R / w alone:
        # the chain at a tiny waist writes the bytes it writes at waist 1
        written = []
        for w in (1.0, waist):
            payload = dict(BASE, beam={"second_order_scale": 0.1, "waist": w}, tasks=["couplings"])
            out = tmp_path / f"w{w}"
            assert main(["compute", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 0
            written.append([(out / name).read_bytes() for name in ("mu.csv", "t_matrix.csv")])
        assert written[0] == written[1]

    def test_zero_interaction_scale_at_tiny_waist(self, tmp_path):
        # the scale multiplies before the 1 / w^2, so u is exactly zero at
        # any waist and the couplings are the bytes written at waist 1
        written = []
        for w in (1.0, 1e-200):
            payload = dict(BASE, beam={"second_order_scale": 0.0, "waist": w}, tasks=["couplings"])
            cfg = write_config(tmp_path, payload)
            out = tmp_path / f"w{w}"
            assert main(["compute", "--config", cfg, "--out", str(out)]) == 0
            assert main(["check", "--config", cfg, "--out", str(tmp_path / f"check{w}")]) == 0
            written.append([(out / name).read_bytes() for name in ("mu.csv", "t_matrix.csv", "u_matrix.csv")])
        assert written[0] == written[1]

    @pytest.mark.parametrize("radius", [1e5, 1e8])
    def test_cloud_wider_than_the_beam(self, tmp_path, radius):
        # the modes end within 12 waists, so a wider cloud couples them as
        # a disk of 12 waists does, though nodes spread over the whole cloud
        # would all miss them
        def payload(r):
            return {"window": {"l_min": -2, "l_max": 2},
                    "profile": {"radius": r, "harmonics": [{"k": 1, "c": 0.5, "phase": 0.3}]}}

        configs = [parse_config(payload(r)) for r in (radius, 12.0)]
        wide, disk = (couplings.compute_couplings(c.window, c.profile, c.beam) for c in configs)
        assert np.max(np.abs(wide.mu - disk.mu)) <= 1e-12
        assert np.max(np.abs(wide.t - disk.t)) <= 1e-12
        assert np.min(disk.mu) > 0.5
        out = tmp_path / "o"
        assert main(["check", "--config", write_config(tmp_path, payload(radius)), "--out", str(out)]) == 0

    @pytest.mark.parametrize("payload", [
        {"window": {"l_min": 410, "l_max": 412}, "design": {"kind": "preset", "name": "triangular_ladder"}},
    ], ids=["high_l"])
    def test_non_finite_radial_estimate_is_4(self, tmp_path, capsys, payload):
        out = tmp_path / "o"
        assert main(["compute", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 4
        record = json.loads((out / "error.json").read_text())
        assert record["error"] == "QuadratureNotConverged"
        assert "not finite at 16 nodes" in record["message"]
        assert "nan" not in record["message"]
        # no numpy warning reaches stderr, only the error line
        assert capsys.readouterr().err == f"error: {record['message']}\n"

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

    def test_check_passes_at_high_l(self, tmp_path):
        # the modes' ring lies near 10 waists, close to a 12-waist disk's
        # edge: the orthonormality test integrates to where the modes end
        payload = {"window": {"l_min": 200, "l_max": 202}, "design": {"kind": "preset", "name": "triangular_ladder"}}
        out = tmp_path / "o"
        assert main(["check", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 0

    @pytest.mark.parametrize("waist", [4.0, 5.0])
    def test_orthonormality_disk_scales_with_waist(self, tmp_path, waist):
        # the waist is the length unit: a disk of fixed absolute radius cuts
        # off wide modes and fails correct couplings
        payload = {
            "window": {"l_min": -3, "l_max": 3},
            "beam": {"waist": waist},
            "design": {"kind": "preset", "name": "triangular_ladder"},
        }
        out = tmp_path / "o"
        assert main(["check", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 0
        [gram] = [c for c in json.loads((out / "check_report.json").read_text())["checks"]
                  if c["name"] == "orthonormality"]
        assert gram["passed"] and gram["detail"] <= cli.ORTHONORMALITY_ATOL

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

    @pytest.mark.parametrize("window, plaquettes", [((0, 1), 0), ((-7, 7), 25)])
    def test_flux_roundtrip_counts_plaquettes(self, tmp_path, window, plaquettes):
        # l = -7..7 holds 13 narrow and 12 wide triangles; l = 0..1 holds none
        payload = {
            "window": {"l_min": window[0], "l_max": window[1]},
            "design": {"kind": "fluxes", "narrow": math.pi, "wide": 0.5 * math.pi},
        }
        out = tmp_path / "o"
        assert main(["check", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 0
        checks = json.loads((out / "check_report.json").read_text())["checks"]
        roundtrip = next(c for c in checks if c["name"] == "flux_roundtrip")
        assert roundtrip["plaquettes"] == plaquettes
        assert roundtrip["passed"] is True and roundtrip["detail"] <= cli.FLUX_ATOL

    def test_wrong_hopping_phase_fails_check(self, tmp_path, monkeypatch):
        # conjugate every hopping factor: u, mu and the selection rule stay
        # right, so only the comparison with the 2D quadrature can see it
        factor = couplings.azimuthal_factor
        monkeypatch.setattr(couplings, "azimuthal_factor", lambda dl, profile: factor(-dl, profile))
        cfg = write_config(tmp_path, BASE)
        out = tmp_path / "o"
        assert main(["check", "--config", cfg, "--out", str(out)]) == 7
        checks = json.loads((out / "check_report.json").read_text())["checks"]
        oracle = next(c for c in checks if c["name"] == "oracle")
        assert oracle["passed"] is False
        assert {c["name"] for c in checks if c["passed"]} >= {"hermitian", "selection_rule"}

    def test_wrong_hopping_phase_fails_check_at_any_scale(self, tmp_path, monkeypatch):
        # each oracle entry is floored at its own matrix's scale, so an
        # absolute floor cannot hide a conjugated hopping phase at small scales
        factor = couplings.azimuthal_factor
        monkeypatch.setattr(couplings, "azimuthal_factor", lambda dl, profile: factor(-dl, profile))
        for scale in (1e-16, 1e-100):
            payload = dict(BASE, beam={"first_order_scale": scale})
            out = tmp_path / str(scale)
            assert main(["check", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 7
            checks = json.loads((out / "check_report.json").read_text())["checks"]
            assert not next(c for c in checks if c["name"] == "oracle")["passed"]

    # each certificate judged at its own matrix's scale: every config here
    # failed before, with the exit code in its id, and none may warn
    @pytest.mark.parametrize("command, payload", [
        ("check", {"window": {"l_min": -5, "l_max": 5}, "beam": {"first_order_scale": 1000.0},
                   "design": {"kind": "preset", "name": "chain"}}),
        ("check", {"window": {"l_min": 0, "l_max": 2, "p_values": [0, 2]},
                   "profile": {"harmonics": [{"k": 0, "c": 1e30}, {"k": 1, "c": 5e29}]}}),
        ("check", {"window": {"l_min": -2, "l_max": 1, "p_values": [0, 1]},
                   "beam": {"waist": 0.5, "first_order_scale": 1e8},
                   "design": {"kind": "preset", "name": "extended_triangle", "radius": 1e30}}),
        ("check", {"window": {"l_min": -1, "l_max": 0, "p_values": [1, 2]},
                   "beam": {"waist": 3.0, "first_order_scale": 1e12},
                   "design": {"kind": "fluxes", "narrow": 1.0, "radius": 1.0}}),
        ("check", {"window": {"l_min": -3, "l_max": 3, "p_values": [0, 1]}, "beam": {"gouy_rate": 1e12},
                   "design": {"kind": "preset", "name": "triangular_ladder", "radius": 1.5}}),
        ("check", {"window": {"l_min": -3, "l_max": 3, "p_values": [0, 2]}, "profile": {"radius": 1e-30}}),
        ("check", {"window": {"l_min": 0, "l_max": 4, "p_values": [1, 2]},
                   "beam": {"longitudinal_fill": 1e-30, "first_order_scale": 1e-8},
                   "design": {"kind": "preset", "name": "chain", "radius": 1e-30}}),
        ("check", {"window": {"l_min": -3, "l_max": 3}, "profile": {"harmonics": [{"k": 1, "c": 0.5, "phase": 1e300}]}}),
        ("diagonalize", {"window": {"l_min": -4, "l_max": 4}, "beam": {"gouy_rate": 1e300},
                         "design": {"kind": "preset", "name": "chain"}, "particles": 2}),
        ("check", dict(FLUX_CONFIG, beam={"first_order_scale": 2.0**-40})),
    ], ids=["oracle_at_first_order_scale_1e3_was_4", "oracle_at_density_amplitude_1e30_was_4",
            "oracle_at_first_order_scale_1e8_was_4", "gauge_at_first_order_scale_1e12_was_7",
            "oracle_at_gouy_rate_1e12_was_7", "forbidden_bound_on_disk_of_1e-30_was_7",
            "forbidden_bound_at_underflowing_scales_was_7", "phase_of_1e300_was_7",
            "residual_at_gouy_rate_1e300_was_1", "flux_legs_at_first_order_scale_2^-40_was_6"])
    def test_certificates_at_their_own_scale(self, tmp_path, capsys, command, payload):
        out = tmp_path / "o"
        assert main([command, "--config", write_config(tmp_path, payload), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        if command == "check":
            report = json.loads((out / "check_report.json").read_text())
            oracle = next(c for c in report["checks"] if c["name"] == "oracle")
            assert report["passed"] and oracle["forbidden_ratio"] <= cli.ORACLE_RTOL

    def test_gauge_detail_is_scale_free(self, tmp_path):
        # one comparison at t's own scale: the beam scale moves no bit of it
        details = []
        for scale in (2.0**-40, 1.0, 2.0**40):
            payload = {"window": {"l_min": -3, "l_max": 3}, "beam": {"first_order_scale": scale},
                       "design": {"kind": "preset", "name": "triangular_ladder"}}
            out = tmp_path / str(scale)
            assert main(["check", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 0
            checks = json.loads((out / "check_report.json").read_text())["checks"]
            details.append(next(c for c in checks if c["name"] == "gauge")["detail"])
        assert details[0] == details[1] == details[2] < cli.GAUGE_T_RTOL

    def test_flux_report_is_scale_free(self, tmp_path):
        # each leg is judged against max|t|, so no scale breaks a plaquette;
        # every scale below 1 here exited 6 with the absolute 1e-12 leg floor
        reports = []
        for scale in (1.0, 1e-12, 2.0**-40, 1e-20):
            payload = dict(FLUX_CONFIG, beam={"first_order_scale": scale})
            out = tmp_path / str(scale)
            assert main(["design", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 0
            reports.append((out / "flux_report.csv").read_bytes())
        assert reports[1:] == reports[:1] * 3

    def test_overflowing_hamiltonian_is_3(self, tmp_path, capsys):
        # u is finite, but three particles in one mode carry 45 u past the float range
        payload = {"window": {"l_min": 0, "l_max": 0}, "beam": {"waist": 0.25, "second_order_scale": 1e306},
                   "profile": {}, "particles": 3}
        out = tmp_path / "o"
        assert main(["diagonalize", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 3
        record = json.loads((out / "error.json").read_text())
        assert record["error"] == "ValidationError" and "one-norm is not finite" in record["message"]
        assert capsys.readouterr().err == f"error: {record['message']}\n"

    def test_help_documents_exit_codes(self, tmp_path, monkeypatch):
        # --help lists the table main maps failures with, row for row
        text = build_parser().format_help()
        assert "exit codes" in text
        assert [code for code, _, _ in EXIT_CODES] == list(range(9))
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
        # only compute reads the config's tasks; diagonalize writes its own files
        payload = dict(BASE, tasks=["profile"])
        cfg = write_config(tmp_path, payload)
        diagonalized = {"mu.csv", "t_matrix.csv", "u_matrix.csv", "summary.json", "eigenvalues.csv", "occupations.csv"}
        for command, names in (("compute", {"profile.json"}), ("diagonalize", diagonalized)):
            out = tmp_path / command
            assert main([command, "--config", cfg, "--out", str(out)]) == 0
            assert {p.name for p in out.iterdir()} == names

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
        # a cold run against a warm one: the second reads the first's radial overlaps
        couplings._radial_overlaps.cache_clear()
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
