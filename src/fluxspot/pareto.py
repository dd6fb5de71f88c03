"""Bi-objective evolutionary minimization of (gamma_1, gamma_z).

One generic generate-combine-select loop drives four interchangeable
environmental-selection strategies.  Each keeps ``m`` rows of the merged
parent+offspring pool, infeasible rows only when fewer than ``m`` are
feasible:

- ``nsga2``: whole non-dominated fronts in rank order, the first front that
  does not fit cut by descending crowding distance;
- ``spea2``: the non-dominated archive, filled up by ascending fitness, or
  truncated one member at a time, the member whose sorted distances to the
  others are lexicographically smallest going first;
- ``ibea``: one removal at a time of the member of lowest additive-epsilon
  fitness, whose share is then taken out of the survivors' fitness;
- ``moead``: for each of ``m`` Tchebycheff weight vectors in turn, the best
  row not yet taken.

SPEA2 and IBEA protect the per-objective best members (the first row of least
gamma_1 and of least gamma_z): one goes only when no other member can.  Runs
are deterministic under a fixed seed; run-level fronts are aggregated across
strategies and seeds by a final non-dominated sort.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evaluation import EvaluationContext, Genome, _drive_order, evaluate_population
from .exceptions import EmptyInputError, InvalidParameterError

__all__ = [
    "STRATEGIES",
    "Individual",
    "OptimizerConfig",
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
    """One population member: its genome, its objective vector and its
    stamp ``(strategy, seed)``.  It carries no evaluated point:
    :func:`fluxspot.dss.classify_front` builds the one ``PointResult`` of
    each front row."""

    genome: Genome
    objectives: tuple
    provenance: tuple = ()   # (strategy, seed)


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
    n: int = 4                           # drive order of the genome box

    def __post_init__(self) -> None:
        if self.population_m < 8 or self.population_m % 2 != 0:
            raise InvalidParameterError("population_m must be even and >= 8")
        if self.generations_n < 0:
            raise InvalidParameterError(
                f"generations_n must be >= 0, got {self.generations_n}"
            )
        _drive_order(self.n)
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
    """Strength, raw fitness, density and total fitness of a pool, and
    ``d2``, the squared distances between its normalized rows (``inf`` on
    the diagonal), from which the density and the truncation are taken."""
    n = len(objs)
    dom = _dominance_matrix(objs)
    strength = dom.sum(axis=1).astype(float)
    raw = strength @ dom
    norm = _normalized(objs)
    d2 = ((norm[:, None, :] - norm[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    k = min(max(1, int(np.sqrt(n))), n - 1)
    sigma_k = np.sqrt(np.partition(d2, k - 1, axis=1)[:, k - 1])
    density = 1.0 / (sigma_k + 2.0)
    return {"strength": strength, "raw": raw, "density": density,
            "fitness": raw + density, "d2": d2}


def _protected(objs: np.ndarray) -> np.ndarray:
    """Mask of the per-objective best rows."""
    mask = np.zeros(len(objs), dtype=bool)
    mask[objs.argmin(axis=0)] = True
    return mask


def _victim(order: np.ndarray, protected: np.ndarray) -> int:
    """The first member of ``order`` that is not protected, else the first."""
    free = order[~protected[order]]
    return free[0] if free.size else order[0]


def _select_spea2(objs: np.ndarray, m: int) -> np.ndarray:
    fit = spea2_fitness(objs)
    live = np.flatnonzero(fit["fitness"] < 1.0)
    if len(live) <= m:
        # non-dominated rows have fitness below 1 and every other row above
        # it, so the m fittest rows are the archive filled up by fitness
        return np.sort(np.argsort(fit["fitness"], kind="stable")[:m])
    protected = _protected(objs)
    while len(live) > m:
        profiles = np.sort(fit["d2"][np.ix_(live, live)], axis=1)
        # lexicographically smallest nearest-neighbor profile goes first
        victim = _victim(live[np.lexsort(profiles.T[::-1])], protected)
        live = live[live != victim]
    return live


def _select_ibea(objs: np.ndarray, m: int) -> np.ndarray:
    norm = _normalized(objs)
    # additive-epsilon indicator I(i, j) = max_k (f_i[k] - f_j[k])
    indicator = (norm[:, None, :] - norm[None, :, :]).max(axis=2)
    scale = np.abs(indicator).max() or 1.0
    expo = np.exp(-indicator / (_IBEA_KAPPA * scale))
    np.fill_diagonal(expo, 0.0)
    fitness = -expo.sum(axis=0)
    protected = _protected(objs)
    live = np.arange(len(objs))
    while len(live) > m:
        victim = _victim(live[np.argsort(fitness[live], kind="stable")], protected)
        live = live[live != victim]
        fitness[live] += expo[victim, live]
    return live


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
    """Pick ``m`` survivors out of a merged parent+offspring pool, as sorted
    indices.

    Infeasible members (any non-finite objective) survive only when there
    are fewer than ``m`` feasible candidates: then every feasible member
    survives, and the lowest-index infeasible ones fill up to ``m``.
    """
    if strategy not in _SELECTORS:
        raise InvalidParameterError(f"unknown strategy {strategy!r}")
    objs = np.asarray(objectives, dtype=float)
    if len(objs) < m:
        raise InvalidParameterError("pool smaller than requested survivor count")
    feasible = np.isfinite(objs).all(axis=1)
    rows = np.flatnonzero(feasible)
    if len(rows) < m:
        return np.union1d(rows, np.flatnonzero(~feasible)[: m - len(rows)]).tolist()
    return np.sort(rows[_SELECTORS[strategy](objs[rows], m)]).tolist()


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


def run_stage1(
    config: OptimizerConfig,
    context: EvaluationContext,
    generation_hook=None,
) -> tuple:
    """One evolutionary run; returns the non-dominated rows of the final
    population as a tuple of :class:`Individual`, in population order, each
    stamped ``(strategy, seed)``.

    The population is an ``(m, 2 n + 2)`` genome array in the box of drive
    order n = ``config.n``; each genome is evaluated once, serially, by
    :func:`evaluate_population`, and the search keeps only its objectives.
    Only the returned front's rows become ``Genome`` objects; their points
    are :func:`fluxspot.dss.classify_front`'s to build.

    ``generation_hook(generation, objectives)`` is called once per generation
    with the post-selection objective array (used for snapshot exports).
    """
    rng = np.random.default_rng(config.seed)
    lo, hi = Genome.bounds(config.n)
    m = config.population_m

    vectors = rng.uniform(lo, hi, size=(m, lo.size))
    objs, _ = evaluate_population(vectors, context)

    for gen in range(1, config.generations_n + 1):
        children = _make_offspring(vectors, config, rng, lo, hi)
        objs = np.concatenate((objs, evaluate_population(children, context)[0]))
        keep = environmental_select(config.strategy, objs, m)
        vectors, objs = np.concatenate((vectors, children))[keep], objs[keep]
        if generation_hook is not None:
            generation_hook(gen, objs)

    finite = np.flatnonzero(np.isfinite(objs).all(axis=1))
    front_idx = finite[non_dominated_sort(objs[finite])[0]]
    return tuple(
        Individual(
            genome=Genome.from_vector(vectors[i]),
            objectives=(float(objs[i, 0]), float(objs[i, 1])),
            provenance=(config.strategy, config.seed),
        )
        for i in sorted(front_idx)
    )


def aggregate_fronts(fronts) -> tuple:
    """The rank-0 members of the union of run-level fronts (each a sequence
    of :class:`Individual`), as a tuple in input order."""
    pool = [ind for front in fronts for ind in front]
    if not pool:
        raise EmptyInputError("no front points to aggregate")
    keep = non_dominated_sort([ind.objectives for ind in pool])[0]
    return tuple(pool[i] for i in sorted(keep))
