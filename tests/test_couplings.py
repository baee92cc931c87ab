import math

import numpy as np
import pytest

from lglattice import (
    BeamParameters,
    DensityProfile,
    Harmonic,
    ModeIndex,
    ModeWindow,
    NonPhysicalDensity,
    QuadratureNotConverged,
    azimuthal_factor,
    brute_force_coupling,
    compute_couplings,
    hopping_uniformity,
    mode_detuning,
    preset_profile,
    radial_overlap_matrices,
)
from lglattice.cli import ORACLE_RTOL, RunConfig, run
import lglattice.couplings as couplings
from lglattice.couplings import MAX_RADIAL_ORDER, MIN_RADIAL_ORDER, _adaptive_radial
from conftest import forbidden_leak, random_profile

BARE = DensityProfile(radius=4.0, harmonics=())


class TestModeWindow:
    def test_enumeration_order(self):
        window = ModeWindow(-1, 1, p_values=(0, 2))
        assert window.modes == (
            ModeIndex(-1, 0), ModeIndex(0, 0), ModeIndex(1, 0),
            ModeIndex(-1, 2), ModeIndex(0, 2), ModeIndex(1, 2),
        )
        assert window.size == 6

    def test_index_round_trip(self):
        window = ModeWindow(-3, 3, p_values=(0, 1))
        for i, mode in enumerate(window.modes):
            assert window.index_of(mode) == i

    def test_index_of_outside_mode(self):
        window = ModeWindow(0, 2)
        with pytest.raises(KeyError):
            window.index_of(ModeIndex(5, 0))
        assert ModeIndex(1, 0) in window
        assert ModeIndex(1, 1) not in window

    def test_central_mode(self):
        assert ModeWindow(-7, 7).central_mode == ModeIndex(0, 0)
        assert ModeWindow(0, 5, p_values=(1, 0)).central_mode == ModeIndex(2, 1)

    @pytest.mark.parametrize("kwargs", [
        dict(l_min=2, l_max=1),
        dict(l_min=0, l_max=1, p_values=()),
        dict(l_min=0, l_max=1, p_values=(0, 0)),
        dict(l_min=0, l_max=1, p_values=(-1,)),
    ])
    def test_invalid_windows(self, kwargs):
        with pytest.raises(ValueError):
            ModeWindow(**kwargs)


class TestAzimuthalFactor:
    def test_against_numeric_quadrature(self, rng):
        # dense trapezoid integral of rho_ang * exp(-i dl phi) is the oracle
        phi = np.linspace(0.0, 2.0 * np.pi, 2**16, endpoint=False)
        step = 2.0 * np.pi / len(phi)
        for _ in range(8):
            profile = random_profile(rng)
            from lglattice import angular_density

            values = angular_density(profile, phi)
            for dl in range(-5, 6):
                numeric = np.sum(values * np.exp(-1j * dl * phi)) * step
                assert azimuthal_factor(dl, profile) == pytest.approx(
                    numeric, abs=1e-10
                )

    def test_mean_component(self):
        profile = DensityProfile(harmonics=(Harmonic(0, 0.8, 0.5), Harmonic(2, 0.1)))
        expected = 2.0 * math.pi * 0.8 * math.cos(0.5)
        assert azimuthal_factor(0, profile) == pytest.approx(expected, rel=1e-15)

    def test_conjugate_symmetry(self, rng):
        profile = random_profile(rng)
        for dl in (1, 2, 3):
            assert azimuthal_factor(-dl, profile) == pytest.approx(
                azimuthal_factor(dl, profile).conjugate(), rel=1e-15
            )

    def test_inactive_orders_exactly_zero(self):
        profile = DensityProfile(harmonics=(Harmonic(1, 0.5), Harmonic(3, 0.2)))
        assert azimuthal_factor(2, profile) == 0j
        assert azimuthal_factor(-2, profile) == 0j
        assert azimuthal_factor(7, profile) == 0j

    def test_hop_phase_sign(self):
        # raising l by k picks up +phase_k
        profile = DensityProfile(harmonics=(Harmonic(2, 0.4, 0.77),))
        factor = azimuthal_factor(2, profile)
        assert np.angle(factor) == pytest.approx(0.77, abs=1e-15)


def overlap(kind, n, m, rho):
    """One entry of radial_overlap_matrices for the pair (n, m) on a disk of rho waists."""
    overlap_t, overlap_u, _ = radial_overlap_matrices((n, m), rho)
    return float((overlap_t if kind == "t" else overlap_u)[0, 1])


class TestRadialOverlaps:
    def test_diagonal_norm_large_radius(self):
        for mode in (ModeIndex(0, 0), ModeIndex(-4, 1), ModeIndex(6, 2)):
            val = overlap("t", mode, mode, 40.0)
            assert 2.0 * math.pi * val == pytest.approx(1.0, abs=1e-10)

    def test_radial_orthogonality_large_radius(self):
        val = overlap("t", ModeIndex(3, 0), ModeIndex(3, 2), 40.0)
        assert abs(val) < 1e-12

    def test_symmetry(self):
        a, b = ModeIndex(1, 0), ModeIndex(4, 1)
        assert overlap("t", a, b, 4.0) == overlap("t", b, a, 4.0)
        assert overlap("u", a, b, 4.0) == overlap("u", b, a, 4.0)

    def test_frozen_values(self):
        # scipy.integrate.quad references, frozen at R / w = 4
        assert overlap("t", ModeIndex(0, 0), ModeIndex(1, 0), 4.0) == (
            pytest.approx(0.14104739588692755, rel=1e-12)
        )
        assert overlap("u", ModeIndex(1, 0), ModeIndex(2, 0), 4.0) == (
            pytest.approx(0.01899772193293836, rel=1e-12)
        )

    def test_interaction_overlap_positive(self, rng):
        for _ in range(4):
            l = int(rng.integers(-5, 6))
            p = int(rng.integers(0, 2))
            val = overlap("u", ModeIndex(l, p), ModeIndex(0, 0), 4.0)
            assert val > 0.0

    @pytest.mark.parametrize("rho", [-1.0, math.nan])
    def test_rejects_negative_or_nan_rho(self, rho):
        with pytest.raises(ValueError, match="rho must be non-negative"):
            radial_overlap_matrices((ModeIndex(0, 0),), rho)

    def test_zero_rho_gives_zero_overlaps(self):
        overlap_t, overlap_u, _ = radial_overlap_matrices((ModeIndex(0, 0), ModeIndex(2, 1)), 0.0)
        assert not overlap_t.any() and not overlap_u.any()

    def test_infinite_rho_is_a_disk_past_the_extent(self):
        modes = (ModeIndex(-3, 0), ModeIndex(1, 2), ModeIndex(5, 1))
        unbounded = radial_overlap_matrices(modes, math.inf)
        past = radial_overlap_matrices(modes, couplings._extent(modes) + 1.0)
        assert np.array_equal(unbounded[0], past[0]) and np.array_equal(unbounded[1], past[1])
        assert unbounded[2] == past[2]


def test_adaptive_quadrature_rejects_nonconverging():
    calls = {"count": 0}

    def hostile(r, wr):
        # different estimate on every refinement; can never settle
        calls["count"] += 1
        return np.array([float(calls["count"])])

    with pytest.raises(QuadratureNotConverged) as excinfo:
        _adaptive_radial(hostile, 4.0)
    assert excinfo.value.order == MAX_RADIAL_ORDER
    assert excinfo.value.delta > 0


def test_adaptive_quadrature_stops_at_first_non_finite_estimate():
    calls = {"count": 0}

    def overflowing(r, wr):
        calls["count"] += 1
        return np.array([1.0, np.exp(800.0)])  # overflows, with the warning off

    with pytest.raises(QuadratureNotConverged, match="not finite at 16 nodes") as excinfo:
        _adaptive_radial(overflowing, 4.0)
    assert calls["count"] == 1
    assert excinfo.value.order == MIN_RADIAL_ORDER
    assert "nan" not in str(excinfo.value)


@pytest.mark.parametrize("scale, matrix", [("first_order_scale", "mu"), ("second_order_scale", "u")])
def test_overflowing_couplings_name_the_matrix(scale, matrix):
    beam = BeamParameters(**{scale: 1e308})
    with pytest.raises(ValueError, match=f"^{matrix} is not finite"):
        compute_couplings(ModeWindow(-2, 2), DensityProfile(harmonics=(Harmonic(1, 0.5),)), beam)


def test_nonconverging_overlaps_are_not_memoized(monkeypatch):
    modes = (ModeIndex(0, 0), ModeIndex(2, 1))
    couplings._radial_overlaps.cache_clear()
    # one order allowed: the first estimate has nothing to settle against
    monkeypatch.setattr(couplings, "MAX_RADIAL_ORDER", 16)
    for _ in range(2):
        with pytest.raises(QuadratureNotConverged):
            radial_overlap_matrices(modes, 4.0)
    assert couplings._radial_overlaps.cache_info().currsize == 0
    monkeypatch.undo()
    overlap_t, _, order = radial_overlap_matrices(modes, 4.0)
    assert order > 16 and np.isfinite(overlap_t).all()


def test_zero_interaction_scale_gives_zero_u_at_any_waist():
    beam = BeamParameters(waist=1e-200, second_order_scale=0.0)
    result = compute_couplings(ModeWindow(-2, 2), preset_profile("chain", radius=4e-200), beam)
    assert np.isfinite(result.mu).all() and np.isfinite(result.t).all()
    assert not result.u.any()


class TestComputeCouplings:
    def test_validates_profile_first(self, beam):
        bad = DensityProfile(harmonics=(Harmonic(1, 2.0),))
        with pytest.raises(NonPhysicalDensity):
            compute_couplings(ModeWindow(0, 1), bad, beam)

    def test_hermitian_with_zero_diagonal(self, beam, rng):
        profile = random_profile(rng)
        couplings = compute_couplings(ModeWindow(-2, 2), profile, beam)
        t = couplings.t
        assert np.array_equal(t, t.conj().T)
        assert np.all(np.diag(t) == 0j)
        assert np.array_equal(couplings.u, couplings.u.T)
        assert np.all(couplings.u >= 0.0)

    def test_linear_in_density_weights(self, rng):
        # every coefficient is a single integral against the density, so
        # doubling the cloud doubles mu - delta, t and u entry for entry
        beam = BeamParameters(gouy_rate=0.2, second_order_scale=0.1)
        window = ModeWindow(-2, 2)
        profile = random_profile(rng)
        doubled = DensityProfile(
            radius=profile.radius,
            harmonics=tuple(Harmonic(h.k, 2.0 * h.c, h.phase) for h in profile.harmonics),
        )
        one = compute_couplings(window, profile, beam)
        two = compute_couplings(window, doubled, beam)
        delta = np.array([mode_detuning(m, beam) for m in window.modes])
        assert np.array_equal(two.t, 2.0 * one.t)
        assert np.array_equal(two.u, 2.0 * one.u)
        np.testing.assert_allclose(two.mu - delta, 2.0 * (one.mu - delta), rtol=1e-13)

    def test_selection_rule_zeros_are_exact(self, beam):
        profile = DensityProfile(harmonics=(Harmonic(1, 0.4), Harmonic(3, 0.3)))
        window = ModeWindow(-3, 3)
        couplings = compute_couplings(window, profile, beam)
        modes = window.modes
        for i, a in enumerate(modes):
            for j, b in enumerate(modes):
                dl = abs(a.l - b.l)
                if i != j and dl in (2, 4, 5, 6):
                    assert couplings.t[i, j] == 0j

    def test_detuning_enters_chemical_potential(self):
        flat = BeamParameters(gouy_rate=0.0)
        tilted = BeamParameters(gouy_rate=0.25)
        window = ModeWindow(-2, 2, p_values=(0, 1))
        base = compute_couplings(window, BARE, flat)
        shifted = compute_couplings(window, BARE, tilted)
        for i, mode in enumerate(window.modes):
            delta = shifted.mu[i] - base.mu[i]
            assert delta == pytest.approx(0.25 * mode.order, rel=1e-12, abs=1e-15)
        np.testing.assert_array_equal(base.t, shifted.t)

    def test_scales_and_fill_factor(self, rng):
        profile = random_profile(rng)
        window = ModeWindow(-1, 1)
        one = compute_couplings(window, profile, BeamParameters())
        filled = compute_couplings(
            window, profile,
            BeamParameters(longitudinal_fill=0.5, first_order_scale=2.0,
                           second_order_scale=0.3),
        )
        # first order picks up scale * fill = 1, second order 0.3 * 0.5
        np.testing.assert_allclose(filled.t, one.t, rtol=1e-14)
        np.testing.assert_allclose(filled.u, 1.5 * one.u, rtol=1e-14)

    def test_metadata_records_provenance(self, beam, rng):
        profile = random_profile(rng)
        couplings = compute_couplings(ModeWindow(0, 2), profile, beam)
        meta = couplings.metadata
        assert meta["profile"] == profile.to_dict()
        assert meta["beam"]["interaction_sign"] == "attractive"
        assert meta["quadrature"]["radial_orders"]
        assert "hopping_phase" in meta["conventions"]


class TestBruteForceOracle:
    def test_randomized_equivalence(self, beam, rng):
        window = ModeWindow(-4, 4, p_values=(0, 1))
        for _ in range(6):
            profile = random_profile(rng)
            couplings = compute_couplings(window, profile, beam)
            modes = window.modes
            i, j = (int(x) for x in rng.integers(0, len(modes), size=2))
            kind = ("t", "u", "mu")[int(rng.integers(0, 3))]
            brute = brute_force_coupling(modes[i], modes[j], kind, profile, beam)
            if kind == "t":
                fast = couplings.t[i, j] if i != j else None
                if fast is None:
                    continue
                leak = forbidden_leak(modes[i], modes[j], profile, beam, brute)
                if leak is not None:
                    assert fast == 0 and leak <= ORACLE_RTOL
                    continue
            elif kind == "u":
                fast = couplings.u[i, j]
            else:
                fast = couplings.mu[i] - mode_detuning(modes[i], beam)
            scale = max(abs(fast), abs(brute), 1e-9)
            assert abs(fast - brute) / scale < 1e-6

    def test_rejects_unknown_kind(self, beam, rng):
        profile = random_profile(rng)
        with pytest.raises(ValueError):
            brute_force_coupling(ModeIndex(0), ModeIndex(1), "x", profile, beam)

    def test_interaction_kind_is_nonnegative_real(self, beam, rng):
        for _ in range(3):
            profile = random_profile(rng)
            value = complex(brute_force_coupling(ModeIndex(1), ModeIndex(-2), "u", profile, beam))
            assert abs(value.imag) <= 1e-12
            assert value.real >= -1e-12

    def test_inactive_order_integrates_to_zero(self, beam):
        # constant cloud: angular orthogonality alone kills the hopping
        value = complex(brute_force_coupling(ModeIndex(2), ModeIndex(0), "t", BARE, beam))
        assert abs(value) <= 1e-10


class TestUniformity:
    def test_report_shape(self, beam):
        profile = DensityProfile(
            harmonics=(Harmonic(1, 0.6, 0.3), Harmonic(2, 0.3, -0.5))
        )
        couplings = compute_couplings(ModeWindow(-4, 4), profile, beam)
        report = hopping_uniformity(couplings)
        assert set(report) == {1, 2}
        for stats in report.values():
            assert stats["min"] <= stats["mean"] <= stats["max"]
            assert stats["rel_spread"] >= 0.0

    def test_matches_per_entry_loop(self, beam, rng):
        # reference: |t[n, n+k]| gathered entry by entry, sector by sector
        window = ModeWindow(-3, 2, p_values=(2, 0, 1))
        couplings = compute_couplings(window, random_profile(rng, max_order=4), beam)
        report = hopping_uniformity(couplings)
        for k in range(1, 6):
            mags = np.array([
                abs(couplings.t[window.index_of(ModeIndex(l, p)), window.index_of(ModeIndex(l + k, p))])
                for p in window.p_values
                for l in range(window.l_min, window.l_max - k + 1)
            ])
            if not mags.any():
                assert k not in report
                continue
            expected = {"mean": mags.mean(), "min": mags.min(), "max": mags.max(),
                        "rel_spread": (mags.max() - mags.min()) / mags.mean()}
            assert report[k] == {key: float(value) for key, value in expected.items()}

    def test_inactive_ranges_absent(self, beam):
        profile = DensityProfile(harmonics=(Harmonic(1, 0.9, 0.1),))
        couplings = compute_couplings(ModeWindow(-3, 3), profile, beam)
        assert set(hopping_uniformity(couplings)) == {1}


class TestWriters:
    # the coupling tasks of the CLI's task table, written through run()
    @pytest.fixture
    def config(self, beam, rng) -> RunConfig:
        return RunConfig(window=ModeWindow(-1, 1), beam=beam, profile=random_profile(rng))

    def test_files_and_headers(self, config, tmp_path):
        written = run(config, ["couplings"], tmp_path)
        names = {p.name for p in written}
        assert names == {"mu.csv", "t_matrix.csv", "u_matrix.csv", "summary.json"}
        assert (tmp_path / "mu.csv").read_text().splitlines()[0] == "l,p,mu"
        t_lines = (tmp_path / "t_matrix.csv").read_text().splitlines()
        assert t_lines[0] == "l,p,l',p',re,im"
        assert len(t_lines) == 1 + config.window.size**2

    def test_heatmap_columns(self, config, tmp_path):
        [path] = run(config, ["heatmap"], tmp_path)
        assert path == tmp_path / "heatmap.csv"
        header = path.read_text().splitlines()[0]
        assert header == "l,p,l',p',abs,arg"

    def test_reruns_byte_identical(self, config, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        run(config, ["couplings", "uniformity"], a)
        run(config, ["couplings", "uniformity"], b)
        for name in ("mu.csv", "t_matrix.csv", "u_matrix.csv", "summary.json", "uniformity.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
