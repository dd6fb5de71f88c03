"""The stacked population path against single-genome evaluation."""

from dataclasses import replace

import numpy as np
import pytest

import fluxspot as fs
from fluxspot.exceptions import InvalidParameterError


def random_genomes(count, n=4, seed=0):
    lo, hi = fs.Genome.bounds(n)
    rng = np.random.default_rng(seed)
    return [fs.Genome.from_vector(v) for v in rng.uniform(lo, hi, (count, lo.size))]


def assert_same_bits(got, want):
    (objs_got, a), (objs_want, b) = got, want
    assert objs_got == objs_want
    assert a.drive == b.drive and a.rates == b.rates
    for name in ("eps_plus", "eps_minus", "omega_gap", "k_max", "omega_d"):
        assert getattr(a.solution, name) == getattr(b.solution, name), name
    for name in ("harmonics_plus", "harmonics_minus"):
        assert np.array_equal(getattr(a.solution, name), getattr(b.solution, name))
    for name in ("g_z", "g_plus", "g_minus"):
        assert np.array_equal(getattr(a.weights, name), getattr(b.weights, name))
    assert a.weights.k_max == b.weights.k_max


def test_rows_do_not_depend_on_batch_size_or_position(context):
    genomes = random_genomes(37, seed=41)
    whole = fs.evaluate_population(genomes, context)
    assert all(point is not None for _, point in whole)
    for i, genome in enumerate(genomes):
        alone = fs.evaluate_population(genomes[i : i + 1], context)[0]
        assert_same_bits(whole[i], alone)
        assert_same_bits(whole[i], fs.evaluate_genome(genome, context))


def test_zone_edge_row_alone_is_infeasible():
    # an undriven genome at omega_d = omega_ge has its gap at omega_d
    ctx = fs.reference_context(phi_dc=np.pi)
    genomes = random_genomes(30, seed=43)
    genomes[17] = fs.Genome(p0=0.0, p_re=(0.0,) * 4, p_im=(0.0,) * 4, omega_d_frac=1.0)
    results = fs.evaluate_population(genomes, ctx)
    infeasible = [i for i, (_, point) in enumerate(results) if point is None]
    assert infeasible == [17]
    assert results[17][0] == (np.inf, np.inf)
    assert all(np.all(np.isfinite(objs)) for i, (objs, _) in enumerate(results) if i != 17)


def test_empty_population_and_mixed_orders(context):
    assert fs.evaluate_population([], context) == []
    with pytest.raises(InvalidParameterError):
        fs.evaluate_population(random_genomes(2, n=4) + random_genomes(2, n=3), context)


def test_gap_beyond_omega_d_row_alone_is_infeasible():
    # a strong drive on a k_max = 1 truncation can label a gap above omega_d;
    # the rates reject that gap, and the genome is infeasible, alone and in
    # a population
    ctx = replace(fs.reference_context(n=1, phi_ac=0.2), k_max=1)
    genomes = random_genomes(5, n=1, seed=1)
    with pytest.raises(InvalidParameterError, match="omega_gap"):
        fs.evaluate_drive(fs.genome_to_drive(genomes[2], ctx), ctx)
    results = fs.evaluate_population(genomes, ctx)
    assert [i for i, (_, point) in enumerate(results) if point is None] == [2]
    assert results[2] == ((np.inf, np.inf), None) == fs.evaluate_genome(genomes[2], ctx)
    for i in (0, 1, 3, 4):
        assert_same_bits(results[i], fs.evaluate_genome(genomes[i], ctx))
