import math

import numpy as np
import pytest
from scipy import integrate, special

from lglattice import (
    BeamParameters,
    DensityProfile,
    Harmonic,
    ModeIndex,
    ModeWindow,
    compute_couplings,
    mode_detuning,
    normalization_constant,
    radial_profiles,
)
from lglattice.modes import MAX_MODE_ORDER, _laguerre_rows


def laguerre(p, a, x):
    """L_p^a(x) as the one row of the batched recurrence."""
    return _laguerre_rows(np.array([p]), np.array([a]), np.asarray(x, dtype=float))[0]


def amplitude(mode, rho, phi):
    """Full profile g(rho) exp(-i l phi) of one mode, rho in waists."""
    return radial_profiles((mode,), rho)[0] * np.exp(-1j * mode.l * np.asarray(phi, dtype=float))


class TestModeIndex:
    def test_fields_and_order(self):
        mode = ModeIndex(-3, 2)
        assert (mode.l, mode.p) == (-3, 2)
        assert mode.order == 7

    def test_default_radial_index(self):
        assert ModeIndex(4).p == 0

    def test_negative_radial_index_rejected(self):
        with pytest.raises(ValueError):
            ModeIndex(0, -1)

    def test_order_cap(self):
        # the cap bounds |l| + p, the largest lgamma argument the norm takes
        assert ModeIndex(-MAX_MODE_ORDER, 0).l == -MAX_MODE_ORDER
        assert ModeIndex(1, MAX_MODE_ORDER - 1).p == MAX_MODE_ORDER - 1
        for l, p in ((MAX_MODE_ORDER + 1, 0), (1, MAX_MODE_ORDER)):
            with pytest.raises(ValueError, match="exceeds supported cap"):
                ModeIndex(l, p)

    def test_hashable_and_comparable(self):
        assert ModeIndex(1, 0) == ModeIndex(1, 0)
        assert len({ModeIndex(1, 0), ModeIndex(1, 0), ModeIndex(2, 0)}) == 2


class TestBeamParameters:
    @pytest.mark.parametrize("field,value", [
        ("waist", 0.0),
        ("waist", -1.0),
        ("longitudinal_fill", 0.0),
        ("longitudinal_fill", 1.5),
        ("second_order_scale", -0.1),
        # non-finite values in every float field
        ("waist", math.nan),
        ("waist", math.inf),
        ("gouy_rate", math.nan),
        ("gouy_rate", math.inf),
        ("gouy_rate", -math.inf),
        ("longitudinal_fill", math.nan),
        ("first_order_scale", math.nan),
        ("first_order_scale", -math.inf),
        ("second_order_scale", math.nan),
        ("second_order_scale", math.inf),
    ])
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError):
            BeamParameters(**{field: value})

    def test_rejects_bad_interaction_sign(self):
        with pytest.raises(ValueError):
            BeamParameters(interaction_sign="sideways")


class TestLaguerre:
    # recurrence against the scipy implementation, which is independent code
    @pytest.mark.parametrize("p", [0, 1, 2, 3, 7, 12])
    def test_matches_scipy(self, p, rng):
        a = float(rng.integers(0, 9))
        x = rng.uniform(0.0, 30.0, size=40)
        mine = laguerre(p, a, x)
        ref = special.eval_genlaguerre(p, a, x)
        np.testing.assert_allclose(mine, ref, rtol=1e-12, atol=1e-12)

    def test_scalar_in_scalar_out(self):
        out = laguerre(3, 2.0, 1.5)
        assert isinstance(out, float)

    def test_low_orders_closed_form(self):
        x = 0.731
        assert laguerre(0, 4.0, x) == 1.0
        assert laguerre(1, 2.0, x) == pytest.approx(3.0 - x, rel=1e-15)

    def test_three_term_recurrence_residual(self, rng):
        for _ in range(60):
            p = int(rng.integers(1, 30))
            a = float(rng.integers(0, 8))
            x = float(rng.uniform(0.0, 50.0))
            lhs = (p + 1) * laguerre(p + 1, a, x)
            rhs = (2 * p + a + 1 - x) * laguerre(p, a, x) - (p + a) * laguerre(p - 1, a, x)
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)


class TestNormalization:
    def test_against_factorial_formula(self):
        for l in (-4, -1, 0, 2, 5):
            for p in (0, 1, 3):
                expected = math.sqrt(
                    2.0 * math.factorial(p) / (math.pi * math.factorial(p + abs(l)))
                )
                assert normalization_constant(ModeIndex(l, p)) == pytest.approx(
                    expected, rel=1e-14
                )

    def test_huge_order_rejected(self):
        with pytest.raises(ValueError):
            normalization_constant(ModeIndex(2_000_000, 0))

    @pytest.mark.parametrize("l,p", [(0, 0), (3, 0), (-5, 1), (7, 2), (1, 3)])
    def test_unit_transverse_norm(self, l, p):
        # 2 pi int g^2 rho d rho = 1; quad over the full support is the oracle
        mode = ModeIndex(l, p)
        val, err = integrate.quad(
            lambda rho: radial_profiles((mode,), rho)[0] ** 2 * rho, 0.0, 12.0,
            epsabs=1e-13, epsrel=1e-13, limit=200,
        )
        assert 2.0 * math.pi * val == pytest.approx(1.0, abs=1e-10)

    def test_waist_scaling(self, rng):
        # g(r; w) = (1/w) h(r/w), so quadrupling the waist and the radius
        # keeps mu and t and divides u by sixteen
        narrow = BeamParameters(waist=0.5)
        wide = BeamParameters(waist=2.0)
        window = ModeWindow(-1, 3, (0, 1, 2))
        radius = float(rng.uniform(0.5, 3.0))
        harmonics = (Harmonic(1, 0.3, 0.4), Harmonic(2, 0.2))
        small = compute_couplings(window, DensityProfile(radius, harmonics), narrow)
        large = compute_couplings(window, DensityProfile(4.0 * radius, harmonics), wide)
        np.testing.assert_allclose(small.mu, large.mu, rtol=1e-12)
        np.testing.assert_allclose(small.t, large.t, rtol=1e-12)
        np.testing.assert_allclose(small.u, 16.0 * large.u, rtol=1e-12)


class TestModeAmplitude:
    # the full profile is a row of radial_profiles times exp(-i l phi)
    def test_scalar_returns_complex(self):
        out = amplitude(ModeIndex(2, 0), 1.0, 0.3)
        assert isinstance(out, complex)

    def test_azimuthal_phase_winding(self):
        mode = ModeIndex(-3, 1)
        phi = 0.811
        at0 = amplitude(mode, 1.2, 0.0)
        at_phi = amplitude(mode, 1.2, phi)
        assert at_phi == pytest.approx(at0 * np.exp(-1j * mode.l * phi), rel=1e-12)

    def test_magnitude_is_radial_profile(self, rng):
        mode = ModeIndex(4, 2)
        rho = rng.uniform(0.05, 4.0, size=25)
        phi = rng.uniform(0.0, 2.0 * np.pi, size=25)
        np.testing.assert_allclose(
            np.abs(amplitude(mode, rho, phi)),
            np.abs(radial_profiles((mode,), rho)[0]),
            rtol=1e-13,
        )

    def test_azimuthal_sign_convention(self):
        # positive l winds clockwise in phase: exp(-i l phi)
        plus = amplitude(ModeIndex(1, 0), 1.0, 0.25)
        minus = amplitude(ModeIndex(-1, 0), 1.0, 0.25)
        assert plus == pytest.approx(minus.conjugate(), rel=1e-14)


def test_mode_detuning_linear_in_order():
    beam = BeamParameters(gouy_rate=0.37)
    assert mode_detuning(ModeIndex(0, 0), beam) == 0.0
    assert mode_detuning(ModeIndex(-2, 1), beam) == pytest.approx(0.37 * 4, rel=1e-15)
    flat = BeamParameters(gouy_rate=0.0)
    assert mode_detuning(ModeIndex(5, 3), flat) == 0.0
