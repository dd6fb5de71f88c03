from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fluxspot as fs
from fluxspot.circuit import EffectiveCoefficients
from fluxspot.dss import DSS_THRESHOLD
from fluxspot.evaluation import _row_point
from fluxspot.exceptions import DegenerateGapError
from fluxspot.floquet import FilterWeights
from fluxspot.pareto import Individual

from conftest import box_drives, random_drive, solve_drive, weight_rows
from oracles import StencilCrossingError, quasienergy_sensitivity_fd


def static_drive(omega_d=10.0):
    return fs.DriveSpec(omega_d=omega_d, p=(0.0,))


class TestDistanceToNearestInteger:
    def test_values(self):
        assert fs.distance_to_nearest_integer(0.5) == 0.5
        assert fs.distance_to_nearest_integer(1.2) == pytest.approx(0.2)
        assert fs.distance_to_nearest_integer(-3.0) == 0.0


class TestUpperBounds:
    def make_static_weights(self):
        g = np.zeros(5, dtype=complex)
        g[2] = 1.0
        return FilterWeights(
            g_z=np.zeros(5, dtype=complex), g_plus=g, g_minus=g.copy(), k_max=2
        )

    def test_general_bound_exceeds_t1_at_sweet_spot(self, qubit, noise):
        w = self.make_static_weights()
        omega_d = 1.3 * qubit.delta
        _, gamma_plus, gamma_minus = fs.decoherence_rates(
            *weight_rows(w), np.array([qubit.delta]), np.array([omega_d]), noise
        )
        ub = fs.t1_upper_bound_general(w, qubit.delta, omega_d, noise)
        assert np.isfinite(ub)
        assert ub >= 1.0 / (gamma_plus[0] + gamma_minus[0])

    def test_general_bound_against_arbitrary_precision(self, qubit, noise):
        import mpmath as mp

        mp.mp.dps = 40
        w = self.make_static_weights()
        omega_d = 1.3 * qubit.delta
        dist = fs.distance_to_nearest_integer(qubit.delta / omega_d)
        expected = mp.sqrt(mp.pi) / (
            2
            * mp.mpf(float(noise.a_f))
            * mp.sqrt(mp.mpf(float(noise.a_d)) * mp.mpf(float(omega_d)))
            * mp.sqrt(mp.mpf(float(dist)))
            * 2.0   # sum |g_+|^2 over both stored branches is 1 each
        )
        # our weights carry sum |g_+|^2 = 1
        expected = float(expected * 2.0)
        got = fs.t1_upper_bound_general(w, qubit.delta, omega_d, noise)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_resonant_fold_gives_infinity(self, noise):
        w = self.make_static_weights()
        assert fs.t1_upper_bound_general(w, 10.0, 10.0, noise) == np.inf

    def test_missing_channel_gives_infinity_without_a_warning(self):
        # the condition belongs to the run, not the row: the bounds verb
        # reports it once, and a per-row call stays silent (pytest turns a
        # UserWarning into an error)
        w = self.make_static_weights()
        flux_only = fs.NoiseModel(a_f=1.0, a_d=0.0)
        assert fs.t1_upper_bound_general(w, 3.0, 10.0, flux_only) == np.inf
        assert fs.t1_upper_bound_dss(3.0, 4.0, 10.0, flux_only) == np.inf

    def test_dss_bound_singularity(self, noise):
        delta = 3.0
        omega_d = np.pi * delta / np.sqrt(3.0)
        assert fs.t1_upper_bound_dss(delta, 0.4 * omega_d, omega_d, noise) == np.inf

    def test_dss_bound_scales_inversely_with_flux_noise(self, noise):
        ub = fs.t1_upper_bound_dss(3.0, 4.0, 10.0, noise)
        doubled = fs.NoiseModel(
            a_f=2 * noise.a_f, a_d=noise.a_d, temperature=noise.temperature
        )
        assert fs.t1_upper_bound_dss(3.0, 4.0, 10.0, doubled) == pytest.approx(
            ub / 2.0, rel=1e-12
        )

    def test_bounds_hold_on_benchmarks(self, benchmark_results):
        for name, (bench, ctx, point) in benchmark_results.items():
            report = fs.evaluate_bounds(point, ctx.noise, ctx.qubit.delta)
            assert report.margin_general >= 1.0, name
            assert report.margin_dss >= 1.0, name

    def test_bounds_hold_on_random_drives(self, context, noise):
        rng = np.random.default_rng(61)
        for _ in range(25):
            d = random_drive(rng, context)
            sol, w = solve_drive(d, context)
            _, gamma_plus, gamma_minus = fs.decoherence_rates(
                *weight_rows(w), np.array([sol.omega_gap]), np.array([d.omega_d]), noise
            )
            ub = fs.t1_upper_bound_general(w, sol.omega_gap, d.omega_d, noise)
            assert 1.0 / (gamma_plus[0] + gamma_minus[0]) <= ub * (1 + 1e-9)

    def test_dimensional_rescaling(self, noise):
        # rescaling all frequencies by c rescales both bounds by 1/c^... the
        # general bound carries 1/(a_f sqrt(a_d w)) -> times 1/(c sqrt(1))
        c = 2.0
        w = self.make_static_weights()
        base = fs.t1_upper_bound_general(w, 3.0, 10.0, noise)
        scaled_noise = fs.NoiseModel(
            a_f=c * noise.a_f, a_d=noise.a_d / c, temperature=noise.temperature
        )
        scaled = fs.t1_upper_bound_general(w, c * 3.0, c * 10.0, scaled_noise)
        assert scaled == pytest.approx(base / c, rel=1e-12)


class TestVerdict:
    """``BoundReport.ok``: every point keeps the general bound, and a point
    with |g_z0| below ``DSS_THRESHOLD`` also keeps the DSS bound, each up to
    a relative 1e-9 of round-off."""

    @pytest.mark.parametrize("excess", [0.5e-9, 2e-9], ids=["inside", "beyond"])
    @pytest.mark.parametrize("bound", ["general", "dss"])
    @pytest.mark.parametrize("gz0_scale", [0.5, 2.0], ids=["dss-row", "plain-row"])
    def test_ok_counts_the_dss_bound_only_below_the_threshold(
        self, benchmark_results, gz0_scale, bound, excess
    ):
        _, ctx, point = benchmark_results["dss-1"]
        w = point.weights
        g_z = w.g_z.copy()
        g_z[w.k_max] = gz0_scale * DSS_THRESHOLD
        # weaker relaxation weights lift the general bound above the DSS bound
        g_plus = w.g_plus if bound == "general" else 0.1 * w.g_plus
        point = replace(point, weights=replace(w, g_z=g_z, g_plus=g_plus))
        at = fs.evaluate_bounds(point, ctx.noise, ctx.qubit.delta)
        bounds = (at.t_ub_general, at.t_ub_dss)
        limit, other = bounds if bound == "general" else bounds[::-1]
        assert other > 1.1 * limit   # T1 at the bound under test keeps the other
        rates = replace(point.rates, t1=limit * (1 + excess))
        report = fs.evaluate_bounds(replace(point, rates=rates), ctx.noise, ctx.qubit.delta)
        counted = bound == "general" or gz0_scale < 1
        assert report.ok == (excess < 1e-9 or not counted)


class TestSensitivity:
    def test_static_analytic_derivative(self):
        c = EffectiveCoefficients(delta=3.0, a_coef=0.0, b_coef=4.0)
        fd = quasienergy_sensitivity_fd(static_drive(), c, "dc")
        assert fd == pytest.approx(4.0 / 5.0, abs=1e-6)

    def test_static_sweet_spot_derivative_vanishes(self):
        c = EffectiveCoefficients(delta=3.0, a_coef=0.0, b_coef=0.0)
        fd = quasienergy_sensitivity_fd(static_drive(), c, "dc")
        assert abs(fd) < 1e-8

    def test_dc_derivative_equals_central_weight(self, context):
        rng = np.random.default_rng(67)
        for _ in range(5):
            d = random_drive(rng, context)
            sol, w = solve_drive(d, context)
            fd = quasienergy_sensitivity_fd(
                d, context.coefficients, "dc", k_max=sol.k_max
            )
            assert fd == pytest.approx(w.g_z0.real, rel=1e-5, abs=1e-8)

    def test_ac_derivative_matches_perturbative_sum(self, benchmark_results):
        for name, (bench, ctx, point) in benchmark_results.items():
            fd = quasienergy_sensitivity_fd(
                point.drive,
                ctx.coefficients,
                "ac",
                k_max=point.solution.k_max,
            )
            pert = fs.amplitude_sensitivity(point.weights, point.drive).real
            assert fd == pytest.approx(pert, rel=1e-6), name

    def test_classify_point_sensitivities_match_fd(self, benchmark_results, context):
        # the closed forms of classify_point against the continued-gap finite
        # differences: on the benchmark sweet spots and on the random drives
        # of test_dc_derivative_equals_central_weight (some with Re g_z0 < 0)
        rng = np.random.default_rng(67)
        cases = [(ctx, point) for _, ctx, point in benchmark_results.values()]
        drives = [random_drive(rng, context) for _ in range(5)]
        vectors = [
            [d.p[0].real, *(x.real for x in d.p[1:]), *(x.imag for x in d.p[1:]),
             d.omega_d / context.omega_ge]
            for d in drives
        ]
        _, rows = fs.evaluate_population(vectors, context)
        cases += [(context, _row_point(rows, r, context)) for r in range(5)]
        for ctx, point in cases:
            report = fs.classify_point(point, ctx)
            scale = 2.0 * ctx.e_l * ctx.qubit.phi_ge
            dc, ac = (
                quasienergy_sensitivity_fd(
                    point.drive, ctx.coefficients, which, k_max=point.solution.k_max
                )
                for which in ("dc", "ac")
            )
            assert report.d_omega_d_phi_dc / scale == pytest.approx(
                dc, rel=1e-5, abs=1e-8
            )
            assert report.d_omega_d_phi_ac / (0.5 * scale) == pytest.approx(
                ac, rel=1e-6
            )

    @settings(max_examples=100, deadline=None)
    @given(box_drives(), st.integers(0, 16), st.integers(0, 2**32 - 1))
    def test_amplitude_sensitivity_equals_loop_form(self, drive_k, k_w, seed):
        # weights truncated below, at and above the drive order
        d, _ = drive_k
        rng = np.random.default_rng(seed)
        g_z = rng.normal(size=2 * k_w + 1) + 1j * rng.normal(size=2 * k_w + 1)
        w = FilterWeights(g_z=g_z, g_plus=g_z, g_minus=g_z, k_max=k_w)
        p_full = np.zeros(w.ks.size, dtype=complex)
        for k_idx, k in enumerate(w.ks):
            if k == 0:
                p_full[k_idx] = d.p[0].real
            elif abs(k) <= d.n:
                p_full[k_idx] = d.p[k] if k > 0 else np.conj(d.p[-k])
        loop = complex(2.0 * np.sum(p_full * w.g_z))
        assert fs.amplitude_sensitivity(w, d) == loop

    def test_stencil_crossing_raises_on_absurd_step(self, benchmark_results):
        _, ctx, point = benchmark_results["dss-2"]
        with pytest.raises(StencilCrossingError):
            quasienergy_sensitivity_fd(
                point.drive,
                ctx.coefficients,
                "dc",
                step=2500.0,
                k_max=point.solution.k_max,
            )

    def test_which_validated(self, context):
        with pytest.raises(Exception):
            quasienergy_sensitivity_fd(static_drive(), context.coefficients, "sideways")


class TestClassification:
    def test_biased_static_point_is_plain(self, context):
        zero = fs.Genome(p0=0.0, p_re=(0.0,) * 4, p_im=(0.0,) * 4, omega_d_frac=1.3)
        _, point = fs.evaluate_genome(zero, context)
        report = fs.classify_point(point, context)
        assert report.label == "plain"
        assert report.gz0_abs > 1e-1

    @pytest.mark.parametrize("name", ["dss-1", "dss-2", "dss-3"])
    def test_benchmarks_are_single_sweet_spots(self, benchmark_results, name):
        _, ctx, point = benchmark_results[name]
        report = fs.classify_point(point, ctx)
        assert report.label == "dss"
        assert report.gz0_abs < 1e-4
        assert report.double_dss_metric >= 0.1

    def test_undriven_sweet_spot_is_doubly_insensitive(self):
        ctx = fs.reference_context(phi_dc=np.pi)
        zero = fs.Genome(p0=0.0, p_re=(0.0,) * 4, p_im=(0.0,) * 4, omega_d_frac=1.3)
        _, point = fs.evaluate_genome(zero, ctx)
        report = fs.classify_point(point, ctx)
        assert report.label == "double_dss"
        assert report.gz0_abs < 1e-12
        assert report.double_dss_metric < 1e-12

    def test_classify_front_annotates_all_points(self, context):
        genomes = [
            fs.Genome(p0=0.0, p_re=(0.0,) * 4, p_im=(0.0,) * 4, omega_d_frac=1.3),
            fs.Genome(
                p0=0.2, p_re=(0.3, 0.0, 0.0, 0.0), p_im=(0.1, 0, 0, 0),
                omega_d_frac=1.1,
            ),
        ]
        points = []
        for g in genomes:
            objs, pt = fs.evaluate_genome(g, context)
            points.append(Individual(genome=g, objectives=objs, point=pt))
        front = tuple(points)
        annotated = fs.classify_front(front, context)
        assert len(annotated) == 2
        for ind, report, bounds in annotated:
            assert report.label in ("plain", "dss", "double_dss")
            assert np.isfinite(report.d_omega_d_phi_dc)
            assert bounds == fs.evaluate_bounds(ind.point, context.noise, context.qubit.delta)

    def test_classify_front_evaluates_uncached_members(self, context):
        genomes = [
            fs.Genome(p0=0.2, p_re=(0.3, 0.1, 0, 0), p_im=(0.1, 0, 0, 0), omega_d_frac=f)
            for f in (0.9, 1.1, 1.2)
        ]
        cached = [
            Individual(genome=g, objectives=o, point=pt)
            for g, (o, pt) in ((g, fs.evaluate_genome(g, context)) for g in genomes)
        ]
        bare = [Individual(genome=g, objectives=ind.objectives) for g, ind in zip(genomes, cached)]
        mixed = (bare[0], cached[1], bare[2])
        cached_front = tuple(cached)
        want = [(r, b) for _, r, b in fs.classify_front(cached_front, context)]
        assert [(r, b) for _, r, b in fs.classify_front(mixed, context)] == want
        # an undriven member at omega_d = omega_ge has its gap on the zone edge
        ctx = fs.reference_context(phi_dc=np.pi)
        edge = fs.Genome(p0=0.0, p_re=(0.0,) * 4, p_im=(0.0,) * 4, omega_d_frac=1.0)
        front = (bare[0], Individual(genome=edge, objectives=(1.0, 1.0)))
        with pytest.raises(DegenerateGapError, match="front row 1"):
            fs.classify_front(front, ctx)

    def test_dc_filter_orders_flux_sensitivity(self, context):
        # points passing the sweet-spot filter have smaller measured DC
        # sensitivity than typical random drives
        rng = np.random.default_rng(71)
        sample = []
        for _ in range(20):
            d = random_drive(rng, context)
            fd = quasienergy_sensitivity_fd(
                d, context.coefficients, "dc", k_max=15
            )
            sol, w = solve_drive(d, context)
            sample.append((abs(w.g_z0), abs(fd)))
        gz, fds = np.array(sample).T
        order = np.argsort(gz)
        median = np.median(fds)
        assert np.all(fds[order[:3]] <= median)
        corr = np.corrcoef(gz, fds)[0, 1]
        assert corr > 0.9
