import re
from dataclasses import replace

import numpy as np
import pytest
import scipy.constants

import fluxspot as fs
from fluxspot.exceptions import DegenerateGapError, InvalidParameterError
from fluxspot.units import KB_OVER_HBAR_RAD_PER_US_PER_K, TWO_PI

from conftest import random_drive, solve_drive, weight_rows


def mpmath_spectral_density(noise, omega):
    """Arbitrary-precision oracle for the spectral density."""
    import mpmath as mp

    mp.mp.dps = 50
    om = mp.mpf(float(omega))
    if abs(om) > mp.mpf(float(noise.omega_uv)):
        return 0.0
    if abs(om) < noise.omega_ir:
        om = mp.mpf(float(noise.omega_ir)) * (1 if omega >= 0 else -1)
    theta = mp.mpf(float(KB_OVER_HBAR_RAD_PER_US_PER_K)) * mp.mpf(
        float(noise.temperature)
    )
    kappa = abs(mp.coth(om / (2 * theta)) + 1) / 2
    s = mp.mpf(float(noise.a_f)) ** 2 * abs(2 * mp.pi / om)
    s += kappa * mp.mpf(float(noise.a_d)) * (om / (2 * mp.pi)) ** 2
    return float(s)


def test_kb_over_hbar_equals_scipy_constants():
    expected = scipy.constants.k / scipy.constants.hbar * 1e-6
    assert KB_OVER_HBAR_RAD_PER_US_PER_K == expected


@pytest.mark.parametrize("name", ["dephasing_log_factor", "dephasing_scale"])
def test_negative_dephasing_factor_is_rejected(noise, name):
    # a negative factor would turn the dephasing rate negative: Tphi = inf
    with pytest.raises(InvalidParameterError, match=f"{name} must be >= 0, got -4.0"):
        replace(noise, **{name: -4.0})
    off = replace(noise, **{name: 0.0})
    assert getattr(off, name) == 0.0


class TestSpectralDensity:
    def test_flux_only_unit_value(self):
        noise = fs.NoiseModel(a_f=1.0, a_d=0.0)
        assert fs.spectral_density(noise, TWO_PI) == pytest.approx(1.0, rel=1e-12)

    def test_zero_temperature_limit_absorption_side(self, noise):
        # far on the negative-frequency side the dielectric part vanishes
        flux_free = fs.NoiseModel(a_f=0.0, a_d=noise.a_d, temperature=noise.temperature)
        omega = -50.0 * KB_OVER_HBAR_RAD_PER_US_PER_K * noise.temperature
        assert fs.spectral_density(flux_free, omega) < 1e-18

    def test_matches_arbitrary_precision_oracle(self, noise, qubit):
        for omega in (qubit.delta, -qubit.delta, 123.456, -3210.9, 17000.0):
            expected = mpmath_spectral_density(noise, omega)
            assert fs.spectral_density(noise, omega) == pytest.approx(
                expected, rel=1e-13
            )

    def test_ir_clamp_and_uv_cutoff(self, noise):
        assert fs.spectral_density(noise, 0.0) == fs.spectral_density(
            noise, noise.omega_ir / 10.0
        )
        assert fs.spectral_density(noise, noise.omega_uv * 1.01) == 0.0

    def test_nonnegative_and_even_flux_part(self, noise):
        omegas = np.linspace(-2e4, 2e4, 101)
        vals = fs.spectral_density(noise, omegas)
        assert np.all(vals >= 0.0)
        flux_only = fs.NoiseModel(a_f=noise.a_f, a_d=0.0)
        assert np.allclose(
            fs.spectral_density(flux_only, omegas),
            fs.spectral_density(flux_only, -omegas),
        )


class TestDecoherenceRates:
    def test_zero_noise_means_infinite_times(self):
        noise = fs.NoiseModel(a_f=0.0, a_d=0.0)
        g_pm = np.array([[0, 0, 1, 0, 0]], dtype=complex)
        gammas = fs.decoherence_rates(
            np.zeros_like(g_pm), g_pm, g_pm, np.array([5.0]), np.array([10.0]), noise
        )
        rates = fs.RateReport(*(float(g[0]) for g in gammas))
        assert rates.gamma_1 == 0.0 and rates.t1 == np.inf
        assert rates.gamma_z == 0.0 and rates.t_phi == np.inf

    def test_gamma_1_is_sum_of_branch_rates(self, noise, context):
        rng = np.random.default_rng(3)
        d = random_drive(rng, context)
        sol, w = solve_drive(d, context)
        gap, omega_d = np.array([sol.omega_gap]), np.array([d.omega_d])
        gammas = fs.decoherence_rates(*weight_rows(w), gap, omega_d, noise)
        r = fs.RateReport(*(float(g[0]) for g in gammas))
        assert r.gamma_1 == r.gamma_plus + r.gamma_minus
        assert r.t1 == pytest.approx(1.0 / r.gamma_1)

    def test_amplitude_scaling_monotonicity(self, noise, context):
        rng = np.random.default_rng(9)
        d = random_drive(rng, context)
        sol, w = solve_drive(d, context)
        gap, omega_d = np.array([sol.omega_gap]), np.array([d.omega_d])
        base_z, base_plus, base_minus = fs.decoherence_rates(
            *weight_rows(w), gap, omega_d, noise
        )
        for c in (1.5, 3.0):
            scaled = fs.NoiseModel(
                a_f=c * noise.a_f,
                a_d=c**2 * noise.a_d,
                temperature=noise.temperature,
                dephasing_log_factor=noise.dephasing_log_factor,
                dephasing_scale=noise.dephasing_scale,
            )
            gamma_z, gamma_plus, gamma_minus = fs.decoherence_rates(
                *weight_rows(w), gap, omega_d, scaled
            )
            gamma_1, base_1 = gamma_plus + gamma_minus, base_plus + base_minus
            assert gamma_1 == pytest.approx(c**2 * base_1, rel=1e-9)
            assert gamma_1 > base_1
            assert gamma_z > base_z


class TestStaticWorkingPoints:
    def test_static_sweet_spot_t1(self, context, noise):
        zero = fs.Genome(p0=0.0, p_re=(0.0,) * 4, p_im=(0.0,) * 4, omega_d_frac=1.3)
        ctx = replace(fs.build_context(fs.REFERENCE), phi_dc=np.pi)
        (g1, gz), point = fs.evaluate_genome(zero, ctx)
        assert 1.0 / g1 == pytest.approx(430.0, rel=0.15)
        assert gz == 0.0
        assert abs(point.weights.g_z0) < 1e-14

    def test_biased_static_point_dephasing(self, context):
        zero = fs.Genome(p0=0.0, p_re=(0.0,) * 4, p_im=(0.0,) * 4, omega_d_frac=1.3)
        (g1, gz), _ = fs.evaluate_genome(zero, context)
        assert 1.0 / gz == pytest.approx(1.0, rel=0.30)


class TestBenchmarkReproduction:
    @pytest.mark.parametrize("name", ["dss-1", "dss-2", "dss-3"])
    def test_times_within_tolerance(self, benchmark_results, name):
        bench, _, point = benchmark_results[name]
        t1_ref, tphi_ref = bench.times_us
        assert point.rates.t1 == pytest.approx(t1_ref, rel=0.15)
        assert point.rates.t_phi == pytest.approx(tphi_ref, rel=0.15)

    @pytest.mark.parametrize("name", ["dss-1", "dss-2", "dss-3"])
    def test_sit_on_their_sweet_spot(self, benchmark_results, name):
        _, _, point = benchmark_results[name]
        assert abs(point.weights.g_z0) < 1e-4

    @pytest.mark.parametrize("name", ["dss-1", "dss-2", "dss-3"])
    def test_calibration_recovers_stored_amplitudes(self, benchmark_results, name):
        bench, ctx, _ = benchmark_results[name]
        recovered = fs.calibrate_amplitude(bench.genome, ctx)
        assert recovered == pytest.approx(bench.phi_ac, abs=1e-9)

    @pytest.mark.parametrize("xtol", [0.0, -1e-12, float("nan")])
    def test_calibration_rejects_a_tolerance_that_is_not_positive(
        self, benchmark_results, xtol
    ):
        bench, ctx, _ = benchmark_results["dss-2"]
        with pytest.raises(InvalidParameterError, match="xtol must be positive"):
            fs.calibrate_amplitude(bench.genome, ctx, xtol=xtol)

    @pytest.mark.parametrize(
        "bracket", [(0.08, 0.02), (0.05, 0.05), (float("nan"), 0.08), (0.02, float("inf"))]
    )
    def test_calibration_rejects_a_bracket_that_is_not_finite_and_increasing(
        self, benchmark_results, bracket, monkeypatch
    ):
        bench, ctx, _ = benchmark_results["dss-2"]

        def unreachable(*args):
            raise AssertionError("evaluated before the bracket was checked")

        monkeypatch.setattr(fs.reference, "evaluate_population", unreachable)
        with pytest.raises(InvalidParameterError, match=re.escape(f"bracket {bracket}")):
            fs.calibrate_amplitude(bench.genome, ctx, bracket=bracket)

    def test_calibration_raises_where_the_genome_is_infeasible(self):
        # at k_max = 1 and phi_ac = 0.2 this genome's gap is labeled beyond
        # omega_d (see test_evaluation); no g_z is read off that row
        ctx = replace(fs.build_context(fs.REFERENCE), k_max=1)
        lo, hi = fs.Genome.bounds(1)
        vector = np.random.default_rng(1).uniform(lo, hi, (5, lo.size))[2]
        genome = fs.Genome.from_vector(vector)
        with pytest.raises(DegenerateGapError, match="at phi_ac=0.2, the genome is"):
            fs.calibrate_amplitude(genome, ctx, bracket=(0.2, 0.3))

    def test_calibration_rejects_a_bracket_without_a_crossing(self, benchmark_results):
        bench, ctx, _ = benchmark_results["dss-2"]
        with pytest.raises(InvalidParameterError, match="no sweet-spot crossing"):
            fs.calibrate_amplitude(bench.genome, ctx, bracket=(0.02, 0.03))


@pytest.mark.parametrize(
    "gammas",
    [(0.0, 0.0, 0.0), (-1e-3, -2e-3, 1e-3)],
    ids=["zero", "negative"],
)
def test_times_of_non_positive_rates_are_infinite(gammas):
    rates = fs.RateReport(*gammas)
    assert rates.gamma_1 == gammas[1] + gammas[2]
    assert rates.t1 == np.inf and rates.t_phi == np.inf
