"""The stacked population path against single-genome evaluation."""

import math
from dataclasses import replace

import numpy as np
import pytest

import fluxspot as fs
from fluxspot.evaluation import _row_point
from fluxspot.exceptions import InvalidParameterError, TruncationError


def random_vectors(count, n=4, seed=0):
    lo, hi = fs.Genome.bounds(n)
    return np.random.default_rng(seed).uniform(lo, hi, (count, lo.size))


def population(vectors, context):
    """:func:`evaluate_population` as one ``(objectives, point)`` per row,
    the form :func:`evaluate_genome` returns."""
    objs, rows = fs.evaluate_population(vectors, context)
    return [
        ((float(o[0]), float(o[1])), _row_point(rows, r, context))
        for r, o in enumerate(objs)
    ]


def assert_same_bits(got, want):
    (objs_got, a), (objs_want, b) = got, want
    assert objs_got == objs_want
    assert a.drive == b.drive and a.rates == b.rates
    for name in ("eps_plus", "eps_minus", "omega_gap", "k_max"):
        assert getattr(a.solution, name) == getattr(b.solution, name), name
    for name in ("harmonics_plus", "harmonics_minus"):
        assert np.array_equal(getattr(a.solution, name), getattr(b.solution, name))
    for name in ("g_z", "g_plus", "g_minus"):
        assert np.array_equal(getattr(a.weights, name), getattr(b.weights, name))
    assert a.weights.k_max == b.weights.k_max


def test_rows_do_not_depend_on_batch_size_or_position(context):
    vectors = random_vectors(37, seed=41)
    whole = population(vectors, context)
    assert all(point is not None for _, point in whole)
    for i, vector in enumerate(vectors):
        alone = population(vectors[i : i + 1], context)[0]
        assert_same_bits(whole[i], alone)
        genome = fs.Genome.from_vector(vector)
        assert_same_bits(whole[i], fs.evaluate_genome(genome, context))


def test_zone_edge_row_alone_is_infeasible():
    # an undriven genome at omega_d = omega_ge has its gap at omega_d
    ctx = replace(fs.build_context(fs.REFERENCE), phi_dc=np.pi)
    vectors = random_vectors(30, seed=43)
    undriven = fs.Genome(p0=0.0, p_re=(0.0,) * 4, p_im=(0.0,) * 4, omega_d_frac=1.0)
    vectors[17] = undriven.to_vector()
    objs, rows = fs.evaluate_population(vectors, ctx)
    assert np.flatnonzero(~rows["ok"]).tolist() == [17]
    assert _row_point(rows, 17, ctx) is None
    assert objs[17].tolist() == [np.inf, np.inf]
    assert np.all(np.isfinite(np.delete(objs, 17, axis=0)))


def test_empty_population_and_malformed_width(context):
    # one array holds one order; a width that is not 2 n + 2 names no order
    for shape in ((0, 10), (2, 9), (2, 1), (10,)):
        with pytest.raises(InvalidParameterError, match="2 n \\+ 2"):
            fs.evaluate_population(np.full(shape, 0.5), context)


@pytest.mark.parametrize(
    "column, value",
    [(0, 1.5), (0, -0.1), (2, math.nan), (6, -1.2), (9, math.inf), (9, -0.3)],
    ids=["p0-above", "p0-below", "p2-nan", "im-p1-outside", "omega-inf", "omega-neg"],
)
def test_array_checks_raise_as_the_drive_does(context, column, value):
    # the population's box and finiteness checks are DriveSpec's: the same
    # exception with the same message, for the first bad row
    vectors = random_vectors(6, seed=47)
    vectors[[2, 4], column] = value
    g = fs.Genome.from_vector(vectors[2])
    p = [complex(g.p0, 0.0)] + [complex(r, i) for r, i in zip(g.p_re, g.p_im)]
    with pytest.raises(InvalidParameterError) as alone:
        fs.DriveSpec(g.omega_d_frac * context.omega_ge, tuple(p))
    with pytest.raises(InvalidParameterError) as stacked:
        fs.evaluate_population(vectors, context)
    assert str(stacked.value) == str(alone.value)


@pytest.mark.parametrize(
    "working_point, message",
    [
        ({"phi_dc": math.nan}, "phi_dc must be finite, got nan"),
        ({"phi_ac": -math.inf}, "phi_ac must be finite, got -inf"),
    ],
)
def test_non_finite_working_point_rejected(context, working_point, message):
    # the working point lives in the context, not in the drive: a population
    # evaluated on a context with a non-finite one raises before any solve
    with pytest.raises(InvalidParameterError, match=message):
        fs.evaluate_population(random_vectors(3), replace(context, **working_point))


@pytest.mark.parametrize("n, k_max", [(1, None), (4, None), (2, 5), (4, 4)])
def test_truncation_is_the_override_or_three_times_the_rows_order(context, n, k_max):
    _, rows = fs.evaluate_population(random_vectors(3, n=n), replace(context, k_max=k_max))
    assert rows["h_plus"].shape[1] == 2 * (3 * n if k_max is None else k_max) + 1


def test_an_override_below_the_rows_order_raises(context):
    with pytest.raises(TruncationError, match="k_max=3 would drop drive harmonics"):
        fs.evaluate_population(random_vectors(2, n=4), replace(context, k_max=3))


def test_gap_beyond_omega_d_row_alone_is_infeasible():
    # a strong drive on a k_max = 1 truncation can label a gap above omega_d:
    # the solve passes its mode, the gap check rejects the row, and the
    # genome is infeasible, alone and in a population
    ctx = replace(fs.build_context(fs.REFERENCE, 0.2), k_max=1)
    vectors = random_vectors(5, n=1, seed=1)
    genomes = [fs.Genome.from_vector(v) for v in vectors]
    _, rows = fs.evaluate_population(vectors, ctx)
    omega_d, p = rows["omega_d"][2:3], rows["p"][2:3]
    assert rows["gap"][2] > omega_d[0]
    stack = fs.assemble_floquet_matrix(omega_d, p, ctx.coefficients, 1)
    assert fs.solve_floquet(stack, omega_d)[-1].tolist() == [True]
    results = population(vectors, ctx)
    assert [i for i, (_, point) in enumerate(results) if point is None] == [2]
    assert results[2] == ((np.inf, np.inf), None) == fs.evaluate_genome(genomes[2], ctx)
    for i in (0, 1, 3, 4):
        assert_same_bits(results[i], fs.evaluate_genome(genomes[i], ctx))


STAGES = ("assemble_floquet_matrix", "solve_floquet", "compute_filter_weights",
          "decoherence_rates")


@pytest.fixture
def stage_calls(monkeypatch):
    """Calls of the four stage functions by the names ``fluxspot.evaluation``
    holds, the names the stacked path calls them by (and the benchmark's
    tracer wraps)."""
    calls = dict.fromkeys(STAGES, 0)
    for name in STAGES:
        def counted(*args, name=name, stage=getattr(fs.evaluation, name)):
            calls[name] += 1
            return stage(*args)

        monkeypatch.setattr(fs.evaluation, name, counted)
    return calls


def test_one_genome_calls_each_stage_once(context, stage_calls):
    genome = fs.Genome.from_vector(random_vectors(1, seed=53)[0])
    assert fs.evaluate_genome(genome, context)[1] is not None
    assert stage_calls == dict.fromkeys(STAGES, 1)


def test_a_population_calls_each_stage_once_per_slice(context, stage_calls):
    fs.evaluate_population(random_vectors(60, seed=59), context)
    assert stage_calls == dict.fromkeys(STAGES, math.ceil(60 / 25))


def test_derived_values_are_the_stage_outputs_bit_for_bit(context):
    # a point stores what the stages computed; its derived values (the gap,
    # both truncations, the minus mode, g_minus, gamma_1 and the times) equal
    # the stacked stages' own outputs, bit for bit
    vectors = random_vectors(7, seed=53)
    objs, rows = fs.evaluate_population(vectors, context)
    omega_d = rows["omega_d"]
    stack = fs.assemble_floquet_matrix(omega_d, rows["p"], context.coefficients, 12)
    eps_minus, eps_plus, h_plus, h_minus, ok = fs.solve_floquet(stack, omega_d)
    assert ok.all()
    g_z, g_plus, g_minus = fs.compute_filter_weights(h_plus, h_minus)
    gamma_z, gamma_plus, gamma_minus = fs.decoherence_rates(
        g_z, g_plus, g_minus, eps_plus - eps_minus, omega_d, context.noise
    )
    for r in range(len(vectors)):
        point = _row_point(rows, r, context)
        sol, weights, rates = point.solution, point.weights, point.rates
        assert sol.omega_gap == rows["gap"][r] == eps_plus[r] - eps_minus[r]
        assert sol.k_max == 12 and weights.k_max == 24
        assert np.array_equal(sol.harmonics_minus, h_minus[r])
        assert np.array_equal(weights.g_minus, g_minus[r])
        assert rates.gamma_1 == gamma_plus[r] + gamma_minus[r] == objs[r, 0]
        assert rates.t1 == 1.0 / (gamma_plus[r] + gamma_minus[r])
        assert rates.t_phi == 1.0 / gamma_z[r]
        assert point.objectives == (objs[r, 0], objs[r, 1])
