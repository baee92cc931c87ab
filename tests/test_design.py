import math
import warnings

import numpy as np
import pytest

from lglattice import (
    BrokenPlaquette,
    DensityProfile,
    Harmonic,
    ModeWindow,
    NonPhysicalDensity,
    compute_couplings,
    design_fluxes,
    design_power_law,
    fit_power_law,
    loop_flux,
    plaquette_fluxes,
    preset_profile,
    validate_nonnegative,
    wrap_angle,
)
from lglattice.cli import RunConfig, run


class TestWrapAngle:
    @pytest.mark.parametrize("x,expected", [
        (0.0, 0.0),
        (math.pi, math.pi),
        (-math.pi, math.pi),
        (3.0 * math.pi, math.pi),
        (2.0 * math.pi, 0.0),
        (-0.5, -0.5),
    ])
    def test_known_values(self, x, expected):
        assert wrap_angle(x) == pytest.approx(expected, abs=1e-12)

    def test_range(self, rng):
        for x in rng.uniform(-30, 30, size=200):
            w = wrap_angle(float(x))
            assert -math.pi < w <= math.pi
            assert math.cos(w - x) == pytest.approx(1.0, abs=1e-9)


class TestPresets:
    def test_lookup_and_unknown(self):
        assert preset_profile("chain") == DensityProfile(harmonics=(Harmonic(1, 1.0, 0.9 * math.pi),))
        with pytest.raises(ValueError):
            preset_profile("moebius")

    def test_all_presets_valid(self):
        for name in ("chain", "triangular_ladder", "extended_triangle"):
            validate_nonnegative(preset_profile(name))

    def test_chain_single_range(self, beam):
        couplings = compute_couplings(ModeWindow(-3, 3), preset_profile("chain"), beam)
        window = couplings.window
        for i in range(window.size):
            for j in range(window.size):
                dl = abs(window.modes[i].l - window.modes[j].l)
                if dl == 1:
                    assert couplings.t[i, j] != 0j
                elif i != j:
                    assert couplings.t[i, j] == 0j

    def test_ladder_two_ranges(self, beam):
        couplings = compute_couplings(
            ModeWindow(-3, 3), preset_profile("triangular_ladder"), beam
        )
        assert abs(couplings.t[2, 1]) > 0
        assert abs(couplings.t[3, 1]) > 0
        assert couplings.t[4, 1] == 0j

    def test_ladder_ratio_moves_leverage(self, beam):
        window = ModeWindow(-2, 2)
        weak = compute_couplings(
            window, preset_profile("triangular_ladder", ratio=0.2), beam
        )
        strong = compute_couplings(
            window, preset_profile("triangular_ladder", ratio=1.0), beam
        )
        ratio_weak = abs(weak.t[0, 2]) / abs(weak.t[0, 1])
        ratio_strong = abs(strong.t[0, 2]) / abs(strong.t[0, 1])
        assert ratio_strong > 2.0 * ratio_weak

    def test_ladder_signs_tunable_by_phases(self, beam):
        window = ModeWindow(0, 2)
        flipped = compute_couplings(
            window, preset_profile("triangular_ladder", phase1=math.pi, phase2=0.0), beam
        )
        aligned = compute_couplings(
            window, preset_profile("triangular_ladder", phase1=0.0, phase2=math.pi), beam
        )
        # hop 0 -> 1 carries exp(i phase1)
        assert flipped.t[1, 0].real < 0
        assert aligned.t[1, 0].real > 0
        assert flipped.t[2, 0].real > 0
        assert aligned.t[2, 0].real < 0

    def test_extended_three_ranges(self, beam):
        couplings = compute_couplings(
            ModeWindow(-4, 4), preset_profile("extended_triangle"), beam
        )
        window = couplings.window
        for i, a in enumerate(window.modes):
            for j, b in enumerate(window.modes):
                dl = abs(a.l - b.l)
                if 1 <= dl <= 3:
                    assert couplings.t[i, j] != 0j
                elif i != j:
                    assert couplings.t[i, j] == 0j

    def test_ladder_rejects_nonpositive_ratio(self):
        with pytest.raises(ValueError):
            preset_profile("triangular_ladder", ratio=0.0)

    def test_extended_default_is_uniform(self):
        profile = preset_profile("extended_triangle")
        assert [h.c for h in profile.harmonics if h.k > 0] == pytest.approx(
            [1 / 3, 1 / 3, 1 / 3]
        )


class TestPowerLaw:
    def test_uncalibrated_coefficients_follow_law(self):
        profile = design_power_law(1.5, 5, calibrate=False)
        cs = [profile.harmonic(k).c for k in range(1, 6)]
        for k in range(2, 6):
            assert cs[k - 1] / cs[0] == pytest.approx(float(k) ** -1.5, rel=1e-12)

    def test_amplitude_at_validity_boundary(self):
        profile = design_power_law(1.0, 4, calibrate=False)
        validate_nonnegative(profile)
        pushed = DensityProfile(
            radius=profile.radius,
            harmonics=tuple(
                Harmonic(h.k, 1.02 * h.c, h.phase)
                for h in profile.harmonics if h.k > 0
            ),
        )
        with pytest.raises(NonPhysicalDensity):
            validate_nonnegative(pushed)

    def test_calibrated_slope_matches_target(self, beam):
        window = ModeWindow(-4, 4)
        profile = design_power_law(1.2, 4, window=window, beam=beam)
        couplings = compute_couplings(window, profile, beam)
        fit = fit_power_law(couplings)
        assert fit.hopping_slope == pytest.approx(-1.2, abs=1e-6)

    def test_uncalibrated_slope_differs(self, beam):
        window = ModeWindow(-4, 4)
        profile = design_power_law(1.2, 4, calibrate=False)
        couplings = compute_couplings(window, profile, beam)
        fit = fit_power_law(couplings)
        assert fit.coefficient_slope == pytest.approx(-1.2, abs=1e-9)
        assert abs(fit.hopping_slope + 1.2) > 0.05

    def test_calibration_needs_window(self):
        with pytest.raises(ValueError):
            design_power_law(1.0, 3, calibrate=True)

    def test_range_must_fit_window(self, beam):
        with pytest.raises(ValueError):
            design_power_law(1.0, 9, window=ModeWindow(-2, 2), beam=beam)

    def test_calibration_at_underflowing_radius_rejected(self, beam):
        with pytest.raises(ValueError, match="radius 1e-120"):
            design_power_law(1.0, 2, window=ModeWindow(-3, 3), beam=beam, radius=1e-120)

    def test_single_range_fit_degenerates(self, beam):
        window = ModeWindow(-2, 2)
        profile = design_power_law(2.0, 1, window=window, beam=beam)
        fit = fit_power_law(compute_couplings(window, profile, beam))
        assert math.isnan(fit.hopping_slope)
        assert fit.ks == (1,)

    def test_fit_of_negative_coefficient(self, beam):
        # a negative c_k is the same harmonic with phase + pi: the fit takes
        # |c_k| and the report keeps the sign
        window = ModeWindow(-3, 3)
        fits = []
        for sign in (1.0, -1.0):
            profile = DensityProfile(harmonics=(Harmonic(1, sign * 0.3), Harmonic(2, 0.2)))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                fits.append(fit_power_law(compute_couplings(window, profile, beam)))
        positive, negative = fits
        assert negative.coefficients == (-0.3, 0.2)
        assert math.isfinite(negative.coefficient_slope)
        assert negative.coefficient_slope == positive.coefficient_slope
        assert negative.hopping_slope == positive.hopping_slope

    # a range past the harmonic order cap is refused before any per-range list is built
    @pytest.mark.parametrize("bad", [(-0.5, 3), (1.0, 0), (math.nan, 1), (1.0, 10**12)])
    def test_rejects_bad_parameters(self, bad):
        beta, max_range = bad
        with pytest.raises(ValueError):
            design_power_law(beta, max_range, calibrate=False)


def flux_at(couplings, l, kind):
    """The plaquette_fluxes row of the triangle based at l in the first sector."""
    p = couplings.window.p_values[0]
    [flux] = [f for base, sector, f in plaquette_fluxes(couplings, kind) if (base, sector) == (l, p)]
    return flux


class TestFluxes:
    def test_round_trip_narrow_only(self, beam):
        profile = design_fluxes(1.1)
        couplings = compute_couplings(ModeWindow(-3, 3), profile, beam)
        for _, _, flux in plaquette_fluxes(couplings, "narrow"):
            assert wrap_angle(flux - 1.1) == pytest.approx(0.0, abs=1e-10)

    def test_round_trip_random_targets(self, beam, rng):
        window = ModeWindow(-3, 3)
        for _ in range(5):
            narrow = float(rng.uniform(-math.pi, math.pi))
            wide = float(rng.uniform(-math.pi, math.pi))
            profile = design_fluxes(narrow, wide)
            validate_nonnegative(profile)
            couplings = compute_couplings(window, profile, beam)
            for _, _, flux in plaquette_fluxes(couplings, "narrow"):
                assert wrap_angle(flux - narrow) == pytest.approx(0.0, abs=1e-9)
            for _, _, flux in plaquette_fluxes(couplings, "wide"):
                assert wrap_angle(flux - wide) == pytest.approx(0.0, abs=1e-9)

    def test_gauge_phase_does_not_move_flux(self, beam):
        window = ModeWindow(-2, 2)
        for gauge in (0.1, 1.0, 2.5):
            profile = design_fluxes(0.8, -0.4, gauge=gauge)
            couplings = compute_couplings(window, profile, beam)
            flux = flux_at(couplings, -2, "narrow")
            assert wrap_angle(flux - 0.8) == pytest.approx(0.0, abs=1e-9)

    def test_broken_plaquette_raises(self, beam):
        couplings = compute_couplings(ModeWindow(0, 3), preset_profile("chain"), beam)
        with pytest.raises(BrokenPlaquette):
            plaquette_fluxes(couplings, "narrow")

    def test_plaquette_counts(self, beam):
        profile = preset_profile("extended_triangle")
        couplings = compute_couplings(ModeWindow(-3, 3, p_values=(0, 1)), profile, beam)
        assert len(plaquette_fluxes(couplings, "narrow")) == 2 * 5
        assert len(plaquette_fluxes(couplings, "wide")) == 2 * 4

    def test_rejects_unknown_triangle(self, beam):
        couplings = compute_couplings(ModeWindow(0, 3), preset_profile("extended_triangle"), beam)
        with pytest.raises(ValueError):
            plaquette_fluxes(couplings, "obtuse")


class TestLoopFlux:
    def test_matches_triangle_helper(self, beam):
        profile = design_fluxes(0.7, -1.3)
        couplings = compute_couplings(ModeWindow(-2, 3), profile, beam)
        narrow = loop_flux(couplings, [(0, 0), (1, 0), (2, 0)])
        wide = loop_flux(couplings, [(0, 0), (1, 0), (3, 0)])
        assert narrow == pytest.approx(flux_at(couplings, 0, "narrow"), abs=1e-12)
        assert wide == pytest.approx(flux_at(couplings, 0, "wide"), abs=1e-12)

    def test_reversed_cycle_negates(self, beam):
        profile = design_fluxes(0.7, -1.3)
        couplings = compute_couplings(ModeWindow(-2, 3), profile, beam)
        forward = loop_flux(couplings, [(0, 0), (1, 0), (3, 0)])
        backward = loop_flux(couplings, [(3, 0), (1, 0), (0, 0)])
        assert wrap_angle(forward + backward) == pytest.approx(0.0, abs=1e-12)

    def test_all_real_positive_hops_give_zero(self, beam):
        profile = DensityProfile(harmonics=(Harmonic(1, 0.3), Harmonic(2, 0.2)))
        couplings = compute_couplings(ModeWindow(-2, 2), profile, beam)
        assert loop_flux(couplings, [(-1, 0), (0, 0), (1, 0)]) == 0.0

    def test_translation_invariant_phases_cancel_on_rhombus(self, beam):
        profile = preset_profile("triangular_ladder")
        couplings = compute_couplings(ModeWindow(-1, 4), profile, beam)
        # legs +2, +1, -2, -1: the per-range phases cancel pairwise
        flux = loop_flux(couplings, [(0, 0), (2, 0), (3, 0), (1, 0)])
        assert abs(flux) < 1e-10

    def test_needs_two_modes(self, beam):
        profile = preset_profile("triangular_ladder")
        couplings = compute_couplings(ModeWindow(0, 2), profile, beam)
        with pytest.raises(ValueError):
            loop_flux(couplings, [(0, 0)])

    def test_dead_leg_raises(self, beam):
        profile = preset_profile("chain")
        couplings = compute_couplings(ModeWindow(0, 3), profile, beam)
        with pytest.raises(BrokenPlaquette):
            loop_flux(couplings, [(0, 0), (1, 0), (3, 0)])


class TestReports:
    # the fit and fluxes tasks of the CLI's task table, written through run()
    def test_fit_report_file(self, beam, tmp_path):
        window = ModeWindow(-3, 3)
        profile = design_power_law(1.0, 3, window=window, beam=beam)
        [path] = run(RunConfig(window=window, beam=beam, profile=profile), ["fit"], tmp_path)
        assert path == tmp_path / "fit_report.csv"
        lines = path.read_text().splitlines()
        assert lines[0] == "quantity,k,value"
        assert any(line.startswith("hopping_slope,") for line in lines)

    def test_flux_report_file(self, beam, tmp_path):
        config = RunConfig(window=ModeWindow(-3, 3), beam=beam, profile=design_fluxes(0.5, 0.25))
        [path] = run(config, ["fluxes"], tmp_path)
        assert path == tmp_path / "flux_report.csv"
        lines = path.read_text().splitlines()
        assert lines[0] == "triangle,l,p,flux"
        kinds = {line.split(",")[0] for line in lines[1:]}
        assert kinds == {"narrow", "wide"}

    def test_flux_report_skips_incomplete_triangles(self, beam, tmp_path):
        # ranges 1 and 2 only: the wide triangle's range-3 leg is missing
        config = RunConfig(window=ModeWindow(-3, 3), beam=beam, profile=preset_profile("triangular_ladder"))
        [path] = run(config, ["fluxes"], tmp_path)
        kinds = {line.split(",")[0] for line in path.read_text().splitlines()[1:]}
        assert kinds == {"narrow"}

    def test_flux_report_without_any_triangle_raises(self, beam, tmp_path):
        config = RunConfig(window=ModeWindow(-3, 3), beam=beam, profile=preset_profile("chain"))
        with pytest.raises(BrokenPlaquette, match=r"ranges \[1\] close no narrow or wide triangle"):
            run(config, ["fluxes"], tmp_path)
