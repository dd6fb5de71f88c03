"""Bi-objective evolutionary minimization of (gamma_1, gamma_z).

One generic generate-combine-select loop drives four interchangeable
environmental-selection strategies (``nsga2``, ``spea2``, ``ibea``,
``moead``).  Runs are deterministic under a fixed seed; run-level fronts are
aggregated across strategies and seeds by a final non-dominated sort.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evaluation import EvaluationContext, Genome, PointResult, evaluate_population
from .exceptions import EmptyInputError, InvalidParameterError

__all__ = [
    "STRATEGIES",
    "Individual",
    "OptimizerConfig",
    "ParetoFront",
    "dominates",
    "non_dominated_sort",
    "crowding_distance",
    "spea2_fitness",
    "environmental_select",
    "run_stage1",
    "aggregate_fronts",
]

STRATEGIES = ("nsga2", "spea2", "ibea", "moead")

_SBX_ETA = 15.0
_IBEA_KAPPA = 0.05


@dataclass(frozen=True)
class Individual:
    """One population member with its objective vector and bookkeeping."""

    genome: Genome
    objectives: tuple
    rank: int = 0
    diversity_score: float = 0.0
    point: PointResult | None = None
    provenance: tuple = ()   # (strategy, seed, generation)


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings of one evolutionary run."""

    population_m: int = 100
    generations_n: int = 2000
    strategy: str = "nsga2"
    crossover_rate: float = 0.9
    mutation_rate: float | None = None   # default 1/dim
    mutation_sigma: float = 0.1          # in units of the box width
    seed: int = 0
    n: int = 4

    def __post_init__(self) -> None:
        if self.population_m < 8 or self.population_m % 2 != 0:
            raise InvalidParameterError("population_m must be even and >= 8")
        if self.strategy not in STRATEGIES:
            raise InvalidParameterError(
                f"unknown strategy {self.strategy!r}; pick one of {STRATEGIES}"
            )
        for name in ("crossover_rate", "mutation_sigma"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise InvalidParameterError(f"{name} must lie in [0, 1], got {v}")
        if self.mutation_rate is not None and not 0.0 <= self.mutation_rate <= 1.0:
            raise InvalidParameterError("mutation_rate must lie in [0, 1]")


@dataclass(frozen=True)
class ParetoFront:
    """A mutually non-dominated set of individuals."""

    points: tuple
    provenance: tuple = ()

    def objectives(self) -> np.ndarray:
        return np.array([ind.objectives for ind in self.points], dtype=float)

    def __len__(self) -> int:
        return len(self.points)


def dominates(a, b) -> bool:
    """True when ``a`` is no worse than ``b`` everywhere and better somewhere."""
    a = tuple(a)
    b = tuple(b)
    return all(x <= y for x, y in zip(a, b)) and a != b


def _dominance_matrix(objs) -> np.ndarray:
    """Boolean matrix whose entry ``[i, j]`` says row ``i`` dominates row ``j``
    (the :func:`dominates` relation, broadcast over all pairs)."""
    a = np.asarray(objs, dtype=float)
    no_worse = (a[:, None, :] <= a[None, :, :]).all(axis=2)
    better = (a[:, None, :] < a[None, :, :]).any(axis=2)
    return no_worse & better


def non_dominated_sort(objectives) -> list[list[int]]:
    """Fast non-dominated sort; returns fronts as sorted lists of indices."""
    if len(objectives) == 0:
        return [[]]
    dom = _dominance_matrix(objectives)
    count = dom.sum(axis=0)
    front = np.flatnonzero(count == 0)
    fronts = [front.tolist()]
    while True:
        count -= dom[front].sum(axis=0)
        count[front] = -1
        front = np.flatnonzero(count == 0)
        if not front.size:
            return fronts
        fronts.append(front.tolist())


def _normalized(objs: np.ndarray) -> np.ndarray:
    lo = objs.min(axis=0)
    span = objs.max(axis=0) - lo
    span[span == 0.0] = 1.0
    return (objs - lo) / span


def crowding_distance(objs: np.ndarray) -> np.ndarray:
    """NSGA-II crowding distance; boundary points get +inf."""
    n, m = objs.shape
    dist = np.zeros(n)
    if n <= 2:
        return np.full(n, np.inf)
    for j in range(m):
        order = np.argsort(objs[:, j], kind="stable")
        span = objs[order[-1], j] - objs[order[0], j]
        dist[order[0]] = dist[order[-1]] = np.inf
        if span <= 0.0:
            continue
        gaps = (objs[order[2:], j] - objs[order[:-2], j]) / span
        dist[order[1:-1]] += gaps
    return dist


def _select_nsga2(objs: np.ndarray, m: int) -> list[int]:
    chosen: list[int] = []
    for front in non_dominated_sort(objs):
        if len(chosen) + len(front) <= m:
            chosen.extend(front)
            if len(chosen) == m:
                break
            continue
        sub = objs[front]
        dist = crowding_distance(sub)
        order = np.argsort(-dist, kind="stable")
        chosen.extend(front[i] for i in order[: m - len(chosen)])
        break
    return chosen


def spea2_fitness(objs: np.ndarray) -> dict:
    """Strength, raw fitness, density and total fitness of a pool."""
    n = len(objs)
    dom = _dominance_matrix(objs)
    strength = dom.sum(axis=1).astype(float)
    raw = strength @ dom
    norm = _normalized(objs)
    d2 = ((norm[:, None, :] - norm[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    k = min(max(1, int(np.sqrt(n))), n - 1)
    sorted_d = np.sqrt(np.sort(d2, axis=1))
    sigma_k = sorted_d[:, k - 1]
    density = 1.0 / (sigma_k + 2.0)
    return {
        "strength": strength,
        "raw": raw,
        "density": density,
        "fitness": raw + density,
        "distances": sorted_d,
    }


def _protected(objs: np.ndarray) -> set[int]:
    """Indices of the per-objective best points (kept through truncation)."""
    return {int(np.argmin(objs[:, j])) for j in range(objs.shape[1])}


def _select_spea2(objs: np.ndarray, m: int) -> list[int]:
    fit = spea2_fitness(objs)["fitness"]
    archive = [i for i in range(len(objs)) if fit[i] < 1.0]
    if len(archive) < m:
        rest = [i for i in np.argsort(fit, kind="stable") if i not in archive]
        archive.extend(int(i) for i in rest[: m - len(archive)])
        return sorted(archive)
    keep = set(archive)
    protected = _protected(objs) & keep
    norm = _normalized(objs)
    while len(keep) > m:
        live = sorted(keep)
        sub = norm[live]
        d2 = ((sub[:, None, :] - sub[None, :, :]) ** 2).sum(axis=2)
        np.fill_diagonal(d2, np.inf)
        profiles = np.sort(d2, axis=1)
        # lexicographically smallest nearest-neighbor profile goes first
        order = np.lexsort(profiles.T[::-1])
        victim = None
        for cand in order:
            if live[cand] not in protected:
                victim = live[cand]
                break
        if victim is None:
            victim = live[order[0]]
        keep.remove(victim)
    return sorted(keep)


def _select_ibea(objs: np.ndarray, m: int) -> list[int]:
    norm = _normalized(objs)
    n = len(norm)
    # additive-epsilon indicator I(i, j) = max_k (f_i[k] - f_j[k])
    indicator = (norm[:, None, :] - norm[None, :, :]).max(axis=2)
    scale = np.abs(indicator).max()
    if scale == 0.0:
        scale = 1.0
    expo = np.exp(-indicator / (_IBEA_KAPPA * scale))
    np.fill_diagonal(expo, 0.0)
    fitness = -expo.sum(axis=0)
    alive = set(range(n))
    protected = _protected(objs)
    while len(alive) > m:
        live = sorted(alive)
        order = np.argsort([fitness[i] for i in live], kind="stable")
        victim = None
        for cand in order:
            if live[cand] not in protected:
                victim = live[cand]
                break
        if victim is None:
            victim = live[order[0]]
        alive.remove(victim)
        for j in alive:
            fitness[j] += expo[victim, j]
    return sorted(alive)


def _select_moead(objs: np.ndarray, m: int) -> list[int]:
    """Tchebycheff decomposition over m uniform weights, greedy assignment."""
    norm = _normalized(objs)
    ideal = norm.min(axis=0)
    w1 = np.arange(m) / (m - 1) if m > 1 else np.array([0.5])
    lam = np.maximum(np.stack([w1, 1.0 - w1], axis=1), 1e-6)
    # scores[i, j]: Tchebycheff distance of point j under weight vector i
    scores = (lam[:, None, :] * np.abs(norm - ideal)[None, :, :]).max(axis=2)
    taken: list[int] = []
    for row in scores:
        best = int(np.argmin(row))
        taken.append(best)
        scores[:, best] = np.inf
    return sorted(taken)


_SELECTORS = {
    "nsga2": _select_nsga2,
    "spea2": _select_spea2,
    "ibea": _select_ibea,
    "moead": _select_moead,
}


def environmental_select(strategy: str, objectives, m: int) -> list[int]:
    """Pick ``m`` survivors out of a merged parent+offspring pool.

    Infeasible members (any non-finite objective) survive only when there
    are fewer than ``m`` feasible candidates.
    """
    if strategy not in _SELECTORS:
        raise InvalidParameterError(f"unknown strategy {strategy!r}")
    objs = np.asarray(objectives, dtype=float)
    if len(objs) < m:
        raise InvalidParameterError("pool smaller than requested survivor count")
    feasible = [i for i in range(len(objs)) if np.all(np.isfinite(objs[i]))]
    if len(feasible) < m:
        infeasible = [i for i in range(len(objs)) if i not in set(feasible)]
        return sorted(feasible + infeasible[: m - len(feasible)])
    picked = _SELECTORS[strategy](objs[feasible], m)
    return sorted(feasible[i] for i in picked)


def _sbx_crossover(
    x1: np.ndarray, x2: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    c1, c2 = x1.copy(), x2.copy()
    for i in range(x1.size):
        if rng.random() > 0.5 or abs(x1[i] - x2[i]) < 1e-14:
            continue
        u = rng.random()
        if u <= 0.5:
            beta = (2.0 * u) ** (1.0 / (_SBX_ETA + 1.0))
        else:
            beta = (1.0 / (2.0 * (1.0 - u))) ** (1.0 / (_SBX_ETA + 1.0))
        c1[i] = 0.5 * ((1.0 + beta) * x1[i] + (1.0 - beta) * x2[i])
        c2[i] = 0.5 * ((1.0 - beta) * x1[i] + (1.0 + beta) * x2[i])
    return c1, c2


def _mutate(
    x: np.ndarray,
    rng: np.random.Generator,
    rate: float,
    sigma: float,
    lo: np.ndarray,
    hi: np.ndarray,
) -> np.ndarray:
    width = hi - lo
    mask = rng.random(x.size) < rate
    noise = rng.standard_normal(x.size) * sigma * width
    return x + mask * noise


def _make_offspring(
    vectors: np.ndarray,
    config: OptimizerConfig,
    rng: np.random.Generator,
    lo: np.ndarray,
    hi: np.ndarray,
) -> np.ndarray:
    m, dim = vectors.shape
    rate = config.mutation_rate if config.mutation_rate is not None else 1.0 / dim
    children = []
    while len(children) < m:
        i, j = rng.integers(0, m, size=2)
        x1, x2 = vectors[i].copy(), vectors[j].copy()
        if rng.random() < config.crossover_rate:
            x1, x2 = _sbx_crossover(x1, x2, rng)
        for child in (x1, x2):
            child = _mutate(child, rng, rate, config.mutation_sigma, lo, hi)
            children.append(np.clip(child, lo, hi))
    return np.array(children[:m])


def _evaluate_population(
    vectors: np.ndarray, context: EvaluationContext
) -> list[tuple[tuple[float, float], PointResult | None]]:
    return evaluate_population([Genome.from_vector(v) for v in vectors], context)


def run_stage1(
    config: OptimizerConfig,
    context: EvaluationContext,
    generation_hook=None,
) -> ParetoFront:
    """One evolutionary run; returns the non-dominated set of the final
    population with per-point provenance stamps.

    Every genome is evaluated once, serially.  Survivors carry the
    ``PointResult`` of that evaluation through selection, so each front
    point holds the result the loop computed for it.

    ``generation_hook(generation, objectives)`` is called once per generation
    with the post-selection objective array (used for snapshot exports).
    """
    if context.n != config.n:
        raise InvalidParameterError("context.n and config.n disagree")
    rng = np.random.default_rng(config.seed)
    lo, hi = Genome.bounds(config.n)
    m = config.population_m

    vectors = rng.uniform(lo, hi, size=(m, lo.size))
    evals = _evaluate_population(vectors, context)

    for gen in range(1, config.generations_n + 1):
        children = _make_offspring(vectors, config, rng, lo, hi)
        pool_evals = evals + _evaluate_population(children, context)
        keep = environmental_select(
            config.strategy, [e[0] for e in pool_evals], m
        )
        vectors = np.vstack([vectors, children])[keep]
        evals = [pool_evals[i] for i in keep]
        if generation_hook is not None:
            generation_hook(gen, np.array([e[0] for e in evals]))

    objs = np.array([e[0] for e in evals])
    finite = [i for i in range(m) if np.all(np.isfinite(objs[i]))]
    front_idx = [finite[i] for i in non_dominated_sort(objs[finite])[0]]
    stamp = (config.strategy, config.seed, config.generations_n)
    points = tuple(
        Individual(
            genome=Genome.from_vector(vectors[i]),
            objectives=(float(objs[i][0]), float(objs[i][1])),
            rank=0,
            point=evals[i][1],
            provenance=stamp,
        )
        for i in sorted(front_idx)
    )
    return ParetoFront(points=points, provenance=(stamp,))


def aggregate_fronts(fronts) -> ParetoFront:
    """Union of run-level fronts reduced to its rank-0 subset."""
    fronts = list(fronts)
    if not fronts:
        raise EmptyInputError("no fronts to aggregate")
    pool = [ind for front in fronts for ind in front.points]
    if not pool:
        raise EmptyInputError("fronts contain no points")
    objs = [ind.objectives for ind in pool]
    keep = non_dominated_sort(objs)[0]
    provenance = tuple(p for front in fronts for p in front.provenance)
    return ParetoFront(
        points=tuple(pool[i] for i in sorted(keep)), provenance=provenance
    )
