import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fluxspot as fs
from fluxspot.exceptions import EmptyInputError, InvalidParameterError
from fluxspot.pareto import (
    Individual,
    _IBEA_KAPPA,
    _dominance_matrix,
    _normalized,
    crowding_distance,
    spea2_fitness,
)

# Small integer coordinates make ties and duplicate rows common.
_coordinate = st.integers(0, 4).map(float) | st.floats(0.0, 1.0)
_pools = st.lists(st.tuples(_coordinate, _coordinate), min_size=1, max_size=40)


@st.composite
def _selection_pools(draw):
    """A pool of mostly mutually non-dominated rows (the first objective
    ascending, the second descending, ties and duplicates common) mixed with
    random and infeasible rows, and a survivor count ``m``."""
    n = draw(st.integers(1, 40))
    grid = st.lists(st.integers(0, 12), min_size=n, max_size=n).map(sorted)
    xs, ys = np.array(draw(grid)) / 4.0, np.array(draw(grid))[::-1] / 4.0
    extra = st.tuples(_coordinate | st.sampled_from([np.inf, np.nan]), _coordinate)
    rows = list(zip(xs, ys)) + draw(st.lists(extra, max_size=8))
    draw(st.randoms(use_true_random=False)).shuffle(rows)
    pool = np.array(rows)
    return pool, draw(st.integers(1, len(pool)))


def brute_force_ranks(objs):
    """O(n^2) peeling oracle for non-dominated sorting."""
    objs = [tuple(o) for o in objs]
    remaining = set(range(len(objs)))
    ranks = {}
    level = 0
    while remaining:
        front = {
            i
            for i in remaining
            if not any(fs.dominates(objs[j], objs[i]) for j in remaining if j != i)
        }
        for i in front:
            ranks[i] = level
        remaining -= front
        level += 1
    return [ranks[i] for i in range(len(objs))]


def moead_reference(objs, m):
    """Per-weight loop form of the MOEA/D greedy Tchebycheff assignment."""
    norm = _normalized(objs)
    ideal = norm.min(axis=0)
    taken, pool = [], set(range(len(objs)))
    for i in range(m):
        w1 = i / (m - 1) if m > 1 else 0.5
        lam = np.array([max(w1, 1e-6), max(1.0 - w1, 1e-6)])
        live = sorted(pool)
        scores = [np.max(lam * np.abs(norm[j] - ideal)) for j in live]
        best = live[int(np.argmin(scores))]
        taken.append(best)
        pool.remove(best)
    return sorted(taken)


def nsga2_reference(objs, m):
    """Loop form of NSGA-II selection: fronts from the peeling oracle, the
    first front that does not fit cut by descending crowding distance."""
    ranks = brute_force_ranks(objs.tolist())
    chosen = []
    for level in range(max(ranks) + 1):
        front = [i for i in range(len(objs)) if ranks[i] == level]
        if len(chosen) + len(front) <= m:
            chosen += front
            continue
        dist = crowding_distance(objs[front])
        by_distance = sorted(range(len(front)), key=lambda c: -dist[c])
        chosen += [front[c] for c in by_distance[: m - len(chosen)]]
        break
    return sorted(chosen)


def spea2_reference(objs, m):
    """Per-member loop form of SPEA2 selection: strength, raw fitness and
    k-th-neighbor density member by member; then the non-dominated archive,
    filled up by fitness, or truncated with the distances among the members
    left computed again after every removal."""
    n = len(objs)
    dom = _dominance_matrix(objs)
    norm = _normalized(objs)
    k = min(max(1, int(np.sqrt(n))), n - 1)
    fitness = []
    for i in range(n):
        raw = sum(dom[j].sum() for j in range(n) if dom[j, i])
        d2 = ((norm - norm[i]) ** 2).sum(axis=1)
        dist = sorted(np.sqrt(d2[j]) for j in range(n) if j != i) + [np.inf]
        fitness.append(raw + 1.0 / (dist[k - 1] + 2.0))
    archive = [i for i in range(n) if fitness[i] < 1.0]
    if len(archive) < m:
        rest = [i for i in np.argsort(fitness, kind="stable") if i not in archive]
        return sorted(archive + [int(i) for i in rest[: m - len(archive)]])
    protected = {int(np.argmin(objs[:, j])) for j in range(objs.shape[1])}
    keep = set(archive)
    while len(keep) > m:
        live = sorted(keep)
        profiles = []
        for c, i in enumerate(live):
            d2 = ((norm[live] - norm[i]) ** 2).sum(axis=1)
            profiles.append(sorted(np.delete(d2, c).tolist()))
        # Python compares lists lexicographically, and sorted is stable
        order = sorted(range(len(live)), key=lambda c: profiles[c])
        free = [live[c] for c in order if live[c] not in protected]
        keep.remove(free[0] if free else live[order[0]])
    return sorted(keep)


def ibea_reference(objs, m):
    """Per-member loop form of IBEA selection: one removal at a time, each
    survivor's fitness updated member by member."""
    norm = _normalized(objs)
    indicator = (norm[:, None, :] - norm[None, :, :]).max(axis=2)
    scale = np.abs(indicator).max() or 1.0
    expo = np.exp(-indicator / (_IBEA_KAPPA * scale))
    np.fill_diagonal(expo, 0.0)
    fitness = -expo.sum(axis=0)
    protected = {int(np.argmin(objs[:, j])) for j in range(objs.shape[1])}
    alive = set(range(len(objs)))
    while len(alive) > m:
        live = sorted(alive)
        order = np.argsort([fitness[i] for i in live], kind="stable")
        free = [live[c] for c in order if live[c] not in protected]
        victim = free[0] if free else live[order[0]]
        alive.remove(victim)
        for j in alive:
            fitness[j] += expo[victim, j]
    return sorted(alive)


REFERENCES = {
    "nsga2": nsga2_reference,
    "spea2": spea2_reference,
    "ibea": ibea_reference,
    "moead": moead_reference,
}


def select_reference(strategy, objs, m):
    """Per-member loop form of ``environmental_select``."""
    feasible = [i for i in range(len(objs)) if np.all(np.isfinite(objs[i]))]
    if len(feasible) < m:
        infeasible = [i for i in range(len(objs)) if i not in feasible]
        return sorted(feasible + infeasible[: m - len(feasible)])
    picked = REFERENCES[strategy](objs[feasible], m)
    return sorted(feasible[i] for i in picked)


def make_front(objs, stamp=("nsga2", 0)):
    genome = fs.Genome(p0=0.0, p_re=(0.0,) * 4, p_im=(0.0,) * 4, omega_d_frac=1.0)
    return tuple(
        Individual(genome=genome, objectives=tuple(o), provenance=stamp) for o in objs
    )


def objectives(front):
    """The ``(len(front), 2)`` objective array of a front."""
    return np.array([ind.objectives for ind in front], dtype=float)


class TestDominates:
    def test_strict(self):
        assert fs.dominates((1, 2), (2, 3))

    def test_incomparable(self):
        assert not fs.dominates((1, 3), (3, 1))
        assert not fs.dominates((3, 1), (1, 3))

    def test_tie(self):
        assert not fs.dominates((1, 2), (1, 2))


class TestNonDominatedSort:
    def test_small_example(self):
        objs = [(1, 1), (2, 2), (1, 3), (3, 1)]
        fronts = fs.non_dominated_sort(objs)
        assert fronts[0] == [0]
        assert sorted(fronts[1]) == [1, 2, 3]

    def test_identical_points_single_front(self):
        fronts = fs.non_dominated_sort([(2.0, 2.0)] * 5)
        assert fronts == [[0, 1, 2, 3, 4]]

    @pytest.mark.parametrize("objs", [[], np.empty((0, 2))])
    def test_empty_input_is_one_empty_front(self, objs):
        assert fs.non_dominated_sort(objs) == [[]]

    def test_against_brute_force(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            objs = rng.random((200, 2))
            fronts = fs.non_dominated_sort(objs)
            ranks = np.empty(len(objs), dtype=int)
            for level, front in enumerate(fronts):
                ranks[front] = level
            assert list(ranks) == brute_force_ranks(objs)


class TestDominanceProperties:
    @settings(max_examples=200, deadline=None)
    @given(_pools)
    def test_matrix_matches_predicate_and_sort_invariants(self, pool):
        objs = np.array(pool)
        n = len(objs)
        dom = _dominance_matrix(objs)
        for i in range(n):
            for j in range(n):
                assert dom[i, j] == fs.dominates(pool[i], pool[j])

        fronts = fs.non_dominated_sort(objs)
        assert sorted(i for front in fronts for i in front) == list(range(n))
        for front in fronts:
            assert front == sorted(front)
            assert not dom[np.ix_(front, front)].any()
        for upper, lower in zip(fronts, fronts[1:]):
            assert dom[np.ix_(upper, lower)].any(axis=0).all()

    @settings(max_examples=100, deadline=None)
    @given(_pools)
    def test_spea2_raw_and_moead_match_loop_forms(self, pool):
        objs = np.array(pool)
        n = len(objs)
        fit = spea2_fitness(objs)
        dom = _dominance_matrix(objs)
        raw = [fit["strength"][dom[:, i]].sum() for i in range(n)]
        assert fit["raw"].tolist() == raw
        m = max(1, n // 2)
        assert fs.pareto._select_moead(objs, m) == moead_reference(objs, m)

    @settings(max_examples=200, deadline=None)
    @given(_selection_pools())
    def test_environmental_select_matches_loop_forms(self, case):
        objs, m = case
        for strategy in fs.pareto.STRATEGIES:
            expected = select_reference(strategy, objs, m)
            assert fs.environmental_select(strategy, objs, m) == expected, strategy


class TestEnvironmentalSelect:
    def test_nsga2_identity_on_nondominated(self):
        rng = np.random.default_rng(5)
        xs = np.sort(rng.random(8))
        front = np.stack([xs, 1.0 - xs], axis=1)          # mutually non-dominated
        dominated = front + 0.5
        pool = np.vstack([front, dominated])
        keep = fs.environmental_select("nsga2", pool, 8)
        assert keep == list(range(8))

    def test_crowding_boundary_points_infinite(self):
        dist = crowding_distance(np.array([[0.0, 2.0], [1.0, 1.0], [2.0, 0.0]]))
        assert dist[0] == np.inf and dist[2] == np.inf
        assert np.isfinite(dist[1])

    def test_spea2_hand_computed_table(self):
        objs = np.array(
            [[1, 5], [2, 3], [3, 1], [4, 4], [5, 2], [2.5, 6]], dtype=float
        )
        fit = spea2_fitness(objs)
        assert list(fit["strength"]) == [1, 2, 2, 0, 0, 0]
        assert list(fit["raw"]) == [0, 0, 0, 4, 2, 3]
        # exactly the non-dominated members carry fitness < 1
        assert [i for i in range(6) if fit["fitness"][i] < 1] == [0, 1, 2]

    @pytest.mark.parametrize("strategy", fs.pareto.STRATEGIES)
    def test_size_and_feasibility_priority(self, strategy):
        rng = np.random.default_rng(7)
        pool = rng.random((20, 2))
        pool[3] = (np.inf, np.inf)
        keep = fs.environmental_select(strategy, pool, 10)
        assert len(keep) == 10
        assert 3 not in keep

    @pytest.mark.parametrize("strategy", ["nsga2", "spea2", "ibea"])
    def test_per_objective_best_survives(self, strategy):
        rng = np.random.default_rng(11)
        pool = rng.random((30, 2))
        keep = fs.environmental_select(strategy, pool, 6)
        assert int(np.argmin(pool[:, 0])) in keep
        assert int(np.argmin(pool[:, 1])) in keep

    @pytest.mark.parametrize("strategy", fs.pareto.STRATEGIES)
    def test_under_feasible_pool_keeps_every_feasible_row(self, strategy):
        rng = np.random.default_rng(3)
        pool = rng.random((12, 2))
        pool[[0, 2, 3, 5, 7, 8, 10]] = np.inf
        pool[4, 1] = np.nan
        # feasible rows 1, 6, 9 and 11, then infeasible rows 0, 2, 3 and 4
        assert fs.environmental_select(strategy, pool, 8) == [0, 1, 2, 3, 4, 6, 9, 11]

    @pytest.mark.parametrize("seed", range(4))
    def test_spea2_truncation_matches_loop_form(self, seed):
        # 40 rows of one front, duplicates among them, and 5 dominated rows:
        # the archive of 40 outgrows m
        rng = np.random.default_rng(seed)
        x = np.round(rng.random(40), 2)
        front = np.stack([x, 1.0 - x**2], axis=1)
        pool = rng.permutation(np.vstack([front, front[:5] + 0.5]))
        assert (spea2_fitness(pool)["fitness"] < 1.0).sum() == 40
        for strategy in ("spea2", "ibea"):
            keep = fs.environmental_select(strategy, pool, 12)
            assert keep == select_reference(strategy, pool, 12), strategy

    def test_unknown_strategy(self):
        with pytest.raises(InvalidParameterError):
            fs.environmental_select("annealing", np.zeros((4, 2)), 2)


class TestAggregate:
    def test_single_front_is_identity(self):
        front = make_front([(1, 2), (2, 1)])
        agg = fs.aggregate_fronts([front])
        assert objectives(agg).tolist() == [[1, 2], [2, 1]]

    def test_dominating_front_wins(self):
        strong = make_front([(1, 1), (0.5, 2)], stamp=("nsga2", 0))
        weak = make_front([(2, 2), (3, 3)], stamp=("spea2", 1))
        agg = fs.aggregate_fronts([strong, weak])
        assert sorted(map(tuple, objectives(agg).tolist())) == [(0.5, 2), (1, 1)]
        assert {ind.provenance for ind in agg} == {("nsga2", 0)}

    def test_matches_brute_force_union(self):
        rng = np.random.default_rng(23)
        fronts = []
        for s in range(4):
            objs = rng.random((15, 2))
            keep = fs.non_dominated_sort(objs)[0]
            fronts.append(make_front(objs[keep], stamp=("ibea", s)))
        agg = fs.aggregate_fronts(fronts)
        pool = np.vstack([objectives(f) for f in fronts])
        expected = sorted(map(tuple, pool[fs.non_dominated_sort(pool)[0]].tolist()))
        assert sorted(map(tuple, objectives(agg).tolist())) == expected

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            fs.aggregate_fronts([])


@pytest.fixture(scope="module")
def small_config():
    return dict(population_m=8, generations_n=6, seed=99)


class TestRunStage1:
    def test_front_is_mutually_non_dominated(self, context, small_config):
        cfg = fs.OptimizerConfig(strategy="nsga2", **small_config)
        front = fs.run_stage1(cfg, context)
        objs = objectives(front)
        for i in range(len(objs)):
            for j in range(len(objs)):
                if i != j:
                    assert not fs.dominates(objs[i], objs[j])

    def test_seed_determinism(self, context, small_config):
        cfg = fs.OptimizerConfig(strategy="spea2", **small_config)
        a = fs.run_stage1(cfg, context)
        b = fs.run_stage1(cfg, context)
        assert objectives(a).tobytes() == objectives(b).tobytes()
        assert all(
            x.genome == y.genome for x, y in zip(a, b)
        )

    @pytest.mark.parametrize("strategy", fs.pareto.STRATEGIES)
    def test_front_points_are_search_results(self, context, small_config, strategy):
        # the point classify_front builds for a front row reads the
        # objectives the search selected it by, bit for bit
        cfg = fs.OptimizerConfig(strategy=strategy, **small_config)
        front = fs.run_stage1(cfg, context)
        assert len(front) > 0
        for ind, point, _, _ in fs.classify_front(front, context):
            assert point.objectives == ind.objectives
            objectives, fresh = fs.evaluate_genome(ind.genome, context)
            assert objectives == ind.objectives
            assert fresh.drive == point.drive
            assert fresh.rates == point.rates
            for name in ("g_z", "g_plus", "g_minus"):
                assert np.array_equal(
                    getattr(fresh.weights, name), getattr(point.weights, name)
                )

    def test_objects_are_built_for_front_rows_only(
        self, context, small_config, monkeypatch
    ):
        # the search carries arrays: each front row, and no other row,
        # becomes one Genome, and no row a DriveSpec or a PointResult; then
        # classify_front builds one PointResult per front row, and no Genome
        built = {"Genome": 0, "DriveSpec": 0, "PointResult": 0}

        def counting(name, build):
            def wrapped(*args, **kwargs):
                built[name] += 1
                return build(*args, **kwargs)
            return wrapped

        for cls in (fs.Genome, fs.DriveSpec):
            check = counting(cls.__name__, cls.__post_init__)
            monkeypatch.setattr(cls, "__post_init__", check)
        monkeypatch.setattr(
            fs.evaluation, "PointResult", counting("PointResult", fs.PointResult)
        )
        cfg = fs.OptimizerConfig(strategy="nsga2", **small_config)
        front = fs.run_stage1(cfg, context)
        assert len(front) > 0
        assert built == {"Genome": len(front), "DriveSpec": 0, "PointResult": 0}
        fs.classify_front(front, context)
        assert built == dict.fromkeys(built, len(front))

    def test_bounds_preserved_and_elitism(self, context, small_config):
        best_gamma1 = []

        def hook(gen, objs):
            finite = objs[np.all(np.isfinite(objs), axis=1)]
            best_gamma1.append(finite[:, 0].min())

        cfg = fs.OptimizerConfig(strategy="nsga2", **small_config)
        front = fs.run_stage1(cfg, context, generation_hook=hook)
        lo, hi = fs.Genome.bounds(4)
        for ind in front:
            vec = ind.genome.to_vector()
            assert np.all(vec >= lo) and np.all(vec <= hi)
        assert np.all(np.diff(best_gamma1) <= 1e-15)

    def test_infeasible_genome_gets_inf(self):
        # at the unbiased sweet spot, a resonant undriven genome folds both
        # quasienergies onto the zone edge and cannot be branch-labeled
        ctx = replace(fs.build_context(fs.REFERENCE), phi_dc=np.pi)
        zero = fs.Genome(p0=0.0, p_re=(0.0,) * 4, p_im=(0.0,) * 4, omega_d_frac=1.0)
        objs, point = fs.evaluate_genome(zero, ctx)
        assert objs == (np.inf, np.inf)
        assert point is None

    def test_gap_beyond_omega_d_does_not_abort_the_search(self):
        # on a k_max = 1 truncation a strong drive labels gaps above omega_d
        # in the first generation; such genomes are infeasible
        ctx = replace(fs.build_context(fs.REFERENCE, 0.2), k_max=1)
        cfg = fs.OptimizerConfig(population_m=20, generations_n=3, seed=1, n=1)
        front = fs.run_stage1(cfg, ctx)
        assert front
        assert all(np.all(np.isfinite(ind.objectives)) for ind in front)
        # the genome box is the drive order of OptimizerConfig.n
        assert {ind.genome.n for ind in front} == {1}

    def test_zone_edge_genome_is_infeasible_under_one_and_two_blas_threads(self):
        # a resonant undriven n = 1 genome puts eps = -/+ omega_d / 2 on the
        # zone edge, where the BLAS thread count decides which replica pair
        # argsort picks; both must give the same infeasible result
        code = (
            "import fluxspot as fs\n"
            "g = fs.Genome(p0=0, p_re=(0,), p_im=(0,), omega_d_frac=1.0)\n"
            "objs, point = fs.evaluate_genome(g, fs.build_context(fs.REFERENCE))\n"
            "print(objs, point is None)\n"
        )
        src = str(Path(fs.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
                env[var] = threads
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            proc = subprocess.run(
                [sys.executable, "-c", code],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
                check=True,
            )
            outputs.append(proc.stdout.strip())
        assert outputs == ["(inf, inf) True"] * 2

    def test_config_validation(self):
        with pytest.raises(InvalidParameterError):
            fs.OptimizerConfig(population_m=7)
        with pytest.raises(InvalidParameterError):
            fs.OptimizerConfig(strategy="hill-climb")
        with pytest.raises(InvalidParameterError, match="generations_n must be >= 0"):
            fs.OptimizerConfig(generations_n=-1)
        with pytest.raises(InvalidParameterError, match="drive order n must be >= 0"):
            fs.OptimizerConfig(n=-1)
