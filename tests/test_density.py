import json
import math

import numpy as np
import pytest

import lglattice.density as density
from lglattice import (
    DensityProfile,
    Harmonic,
    NonPhysicalDensity,
    angular_density,
    compute_couplings,
    density_at,
    rotate,
    validate_nonnegative,
)
from lglattice.cli import check, main, parse_config
from conftest import random_profile


class TestProfileConstruction:
    def test_mean_term_added_automatically(self):
        profile = DensityProfile(harmonics=(Harmonic(1, 0.5, 0.2),))
        assert profile.harmonic(0) == Harmonic(0, 1.0, 0.0)

    def test_explicit_mean_term_kept(self):
        profile = DensityProfile(harmonics=(Harmonic(0, 2.0, 0.0),))
        assert profile.harmonic(0).c == 2.0

    def test_harmonics_sorted_by_order(self):
        profile = DensityProfile(harmonics=(Harmonic(3, 0.1), Harmonic(1, 0.2)))
        assert [h.k for h in profile.harmonics] == [0, 1, 3]

    def test_duplicate_orders_rejected(self):
        with pytest.raises(ValueError):
            DensityProfile(harmonics=(Harmonic(2, 0.1), Harmonic(2, 0.2)))

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            DensityProfile(harmonics=(Harmonic(-1, 0.1),))

    @pytest.mark.parametrize("k", [257, 10**6, 10**20])
    def test_order_past_cap_rejected_before_any_solve(self, k, monkeypatch, tmp_path):
        def no_solve(profile):
            raise AssertionError("root solve reached")

        monkeypatch.setattr(density, "angular_minimum", no_solve)
        assert DensityProfile(harmonics=(Harmonic(256, 0.1),)).active_orders == (256,)
        with pytest.raises(ValueError, match="exceeds supported cap 256"):
            DensityProfile(harmonics=(Harmonic(k, 0.1),))
        payload = {"window": {"l_min": 0, "l_max": 1}, "profile": {"harmonics": [{"k": k, "c": 0.1}]}}
        out = tmp_path / "out"
        assert main(["compute", "--config", json.dumps(payload), "--out", str(out)]) == 3
        assert json.loads((out / "error.json").read_text())["error"] == "ValidationError"

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(ValueError):
            DensityProfile(radius=0.0)

    @pytest.mark.parametrize("radius, c, phase", [
        (math.nan, 0.5, 0.0),
        (math.inf, 0.5, 0.0),
        (4.0, math.nan, 0.0),
        (4.0, -math.inf, 0.0),
        (4.0, 0.5, math.nan),
        (4.0, 0.5, math.inf),
    ])
    def test_non_finite_numbers_rejected(self, radius, c, phase):
        with pytest.raises(ValueError, match="finite"):
            DensityProfile(radius=radius, harmonics=(Harmonic(1, c, phase),))

    def test_phases_reduced_within_one_turn(self):
        # fmod is exact: a phase within one turn keeps its bits, a larger one
        # is reduced once, so the density never evaluates cos of a huge angle
        phases = (0.0, -0.0, 5e-324, math.pi, -6.283, 6.283, 7.0, -1e300, 1e300)
        harmonics = tuple(Harmonic(k, 0.01, phase) for k, phase in enumerate(phases, start=1))
        kept = [h.phase for h in DensityProfile(harmonics=harmonics).harmonics[1:]]
        assert [math.copysign(1.0, p) for p in kept] == [math.copysign(1.0, p) for p in phases]
        assert kept == [math.fmod(p, math.tau) for p in phases] and kept[:6] == list(phases[:6])
        assert all(abs(p) < math.tau for p in kept)

    def test_active_orders_skips_zero_amplitude(self):
        profile = DensityProfile(
            harmonics=(Harmonic(1, 0.4), Harmonic(2, 0.0), Harmonic(3, 0.1))
        )
        assert profile.active_orders == (1, 3)

    def test_dict_round_trip(self):
        profile = DensityProfile(
            radius=3.5, harmonics=(Harmonic(1, 0.3, 0.7), Harmonic(4, 0.2, -1.1))
        )
        assert DensityProfile.from_dict(profile.to_dict()) == profile


class TestEvaluation:
    def test_angular_density_is_cosine_sum(self, rng):
        profile = DensityProfile(
            harmonics=(Harmonic(1, 0.3, 0.5), Harmonic(2, 0.2, -0.4))
        )
        phi = rng.uniform(0, 2 * np.pi, size=32)
        expected = 1.0 + 0.3 * np.cos(phi + 0.5) + 0.2 * np.cos(2 * phi - 0.4)
        np.testing.assert_allclose(angular_density(profile, phi), expected, rtol=1e-14)

    def test_vanishes_outside_support(self):
        profile = DensityProfile(radius=2.0, harmonics=(Harmonic(1, 0.5),))
        assert density_at(profile, 2.5, 0.3) == 0.0
        assert density_at(profile, 1.9, 0.3) > 0.0

    def test_support_edge_included(self):
        profile = DensityProfile(radius=2.0, harmonics=())
        assert density_at(profile, 2.0, 0.0) == 1.0

    def test_broadcasting(self):
        profile = DensityProfile(harmonics=(Harmonic(1, 0.5),))
        r = np.linspace(0, 5, 7)[:, None]
        phi = np.linspace(0, 2 * np.pi, 5)[None, :]
        out = density_at(profile, r, phi)
        assert out.shape == (7, 5)


class TestValidation:
    def test_chain_touches_zero(self):
        profile = DensityProfile(harmonics=(Harmonic(1, 1.0, 0.9 * math.pi),))
        assert validate_nonnegative(profile) == pytest.approx(0.0, abs=1e-12)

    def test_overdriven_harmonic_rejected(self):
        profile = DensityProfile(harmonics=(Harmonic(1, 1.5, 0.0),))
        with pytest.raises(NonPhysicalDensity) as excinfo:
            validate_nonnegative(profile)
        # min of 1 + 1.5 cos(phi) is exactly -0.5
        assert excinfo.value.minimum == pytest.approx(-0.5, abs=1e-9)

    def test_huge_amplitude_does_not_overflow(self):
        # 8 * 1e308 overflows; the root solve must see scaled coefficients
        profile = DensityProfile(harmonics=(Harmonic(8, 1e308, 0.3),))
        with pytest.raises(NonPhysicalDensity) as excinfo:
            validate_nonnegative(profile)
        assert excinfo.value.minimum == pytest.approx(-1e308, rel=1e-12)

    def test_zero_phase_minimum_is_exact(self):
        # 1 + 0.3 cos(phi) + 0.5 cos(2 phi) bottoms out at cos(phi) = -0.15,
        # above the bound 1 - 0.3 - 0.5 = 0.2
        profile = DensityProfile(harmonics=(Harmonic(1, 0.3), Harmonic(2, 0.5)))
        assert validate_nonnegative(profile) == pytest.approx(0.4775, abs=1e-12)

    def test_ladder_preset_minimum(self):
        # frozen: minimum of the default two-harmonic preset
        from lglattice import preset_profile

        minimum = validate_nonnegative(preset_profile("triangular_ladder"))
        assert minimum == pytest.approx(0.04714314332401401, abs=1e-10)

    def test_constant_profile(self):
        profile = DensityProfile(harmonics=())
        assert validate_nonnegative(profile) == 1.0

    def test_random_valid_profiles_pass(self, rng):
        for _ in range(20):
            profile = random_profile(rng)
            minimum = validate_nonnegative(profile)
            assert minimum >= -1e-9

    def test_subnormal_top_amplitude(self, tmp_path):
        # a k c_k this small only overflows the root solve; the minimum is
        # that of the k = 1 term alone, and the CLI accepts the profile
        harmonics = [{"k": 1, "c": 0.25}, {"k": 2, "c": 2.225073858507e-311}]
        profile = DensityProfile(harmonics=tuple(Harmonic(h["k"], h["c"]) for h in harmonics))
        assert validate_nonnegative(profile) == 0.75
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"window": {"l_min": 0, "l_max": 1}, "profile": {"harmonics": harmonics}}))
        assert main(["compute", "--config", str(config), "--out", str(tmp_path / "out")]) == 0

    def test_grid_path_catches_narrow_dip(self):
        # the bound 1 - sum |c_k| fails but the true minimum stays positive
        profile = DensityProfile(
            harmonics=(Harmonic(1, 0.7, 0.0), Harmonic(2, 0.6, 0.5))
        )
        minimum = validate_nonnegative(profile)
        phi = np.linspace(0, 2 * np.pi, 200001)
        brute = float(np.min(angular_density(profile, phi)))
        assert minimum == pytest.approx(brute, abs=1e-8)


class TestValidatedOnce:
    """The frozen profile keeps its minimum: one root solve per instance."""

    CONFIG = {"window": {"l_min": -1, "l_max": 1},
              "profile": {"harmonics": [{"k": 1, "c": 0.5, "phase": 0.3}, {"k": 2, "c": 0.2}]}}

    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []
        solve = density.angular_minimum

        def counted(profile):
            calls.append(profile)
            return solve(profile)

        monkeypatch.setattr(density, "angular_minimum", counted)
        return calls

    def test_one_solve_through_parse_and_couplings(self, solves):
        config = parse_config(self.CONFIG)
        compute_couplings(config.window, config.profile, config.beam)
        validate_nonnegative(config.profile)
        assert solves == [config.profile]

    def test_rotated_copy_solves_afresh(self, solves):
        profile = parse_config(self.CONFIG).profile
        turned = rotate(profile, 0.9)
        assert "minimum" not in vars(turned)
        assert validate_nonnegative(turned) == pytest.approx(profile.minimum, abs=1e-12)
        assert solves == [profile, turned]

    def test_check_solves_the_profile_and_its_rotation(self, solves, tmp_path, capsys):
        check(parse_config(self.CONFIG), tmp_path)
        assert len(solves) == 2 and solves[0] != solves[1]

    def test_cached_minimum_leaves_equality_alone(self):
        profile = parse_config(self.CONFIG).profile
        fresh = parse_config(self.CONFIG).profile
        validate_nonnegative(profile)
        assert profile == fresh and hash(profile) == hash(fresh)

    def test_unphysical_profile_still_rejected(self, tmp_path):
        profile = DensityProfile(harmonics=(Harmonic(1, 1.5),))
        for _ in range(2):  # the cached minimum fails the gate every time
            with pytest.raises(NonPhysicalDensity):
                validate_nonnegative(profile)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"window": {"l_min": 0, "l_max": 1}, "profile": profile.to_dict()}))
        assert main(["compute", "--config", str(config), "--out", str(tmp_path / "out")]) == 3


class TestRotation:
    def test_rotation_moves_density(self, rng):
        for _ in range(10):
            profile = random_profile(rng)
            alpha = float(rng.uniform(-np.pi, np.pi))
            rotated = rotate(profile, alpha)
            r = rng.uniform(0, profile.radius, size=8)
            phi = rng.uniform(0, 2 * np.pi, size=8)
            np.testing.assert_allclose(
                density_at(rotated, r, phi),
                density_at(profile, r, phi - alpha),
                rtol=1e-12, atol=1e-14,
            )

    def test_rotations_compose(self, rng):
        profile = random_profile(rng)
        once = rotate(rotate(profile, 0.4), 0.7)
        direct = rotate(profile, 1.1)
        for h1, h2 in zip(once.harmonics, direct.harmonics):
            assert h1.k == h2.k
            assert h1.c == pytest.approx(h2.c, rel=1e-15)
            assert math.cos(h1.phase - h2.phase) == pytest.approx(1.0, abs=1e-12)

    def test_rotation_keeps_validity(self, rng):
        profile = random_profile(rng)
        baseline = validate_nonnegative(profile)
        rotated = validate_nonnegative(rotate(profile, 2.13))
        assert rotated == pytest.approx(baseline, abs=1e-9)

    def test_mean_term_unchanged(self):
        profile = DensityProfile(harmonics=(Harmonic(1, 0.5, 0.3),))
        assert rotate(profile, 1.0).harmonic(0) == profile.harmonic(0)
