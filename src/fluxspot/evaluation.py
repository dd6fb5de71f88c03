"""Single-working-point evaluation pipeline.

Glues the circuit reduction, the Floquet solve, the filter weights and the
rate conversion into one deterministic map

    genome -> (gamma_1, gamma_z),

shared by the optimizer, the sweet-spot classifier and the command-line tool.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .circuit import EffectiveCoefficients, EffectiveQubit, effective_coefficients
from .exceptions import DegenerateGapError, GapOutsideZoneError, InvalidParameterError
from .floquet import (
    DriveSpec,
    FilterWeights,
    FloquetSolution,
    _filter_weight_stack,
    _floquet_stack,
    _solve_stack,
    assemble_floquet_matrix,
    compute_filter_weights,
    solve_floquet,
)
from .noise import NoiseModel, RateReport, _rate_stack, decoherence_rates

__all__ = ["Genome", "EvaluationContext", "PointResult", "evaluate_drive",
           "evaluate_genome", "evaluate_population", "genome_to_drive"]

#: why :func:`evaluate_genome` returns no point, for error messages
_INFEASIBLE = (
    "infeasible: its quasienergy gap is at 0 or omega_d, or outside "
    "(0, omega_d) at this truncation, so branch labels are undefined"
)

#: rows per stacked solve: about 1 MB of Floquet matrices at n = 4
_SLICE_ROWS = 25


@dataclass(frozen=True)
class Genome:
    """Search-space coordinates of one drive candidate.

    ``p0`` in [0, 1]; ``p_re``/``p_im`` of length ``n`` in [-1, 1]; the drive
    frequency is ``omega_d_frac`` (in [0.5, 1.5]) times the static splitting
    of the biased qubit (``EvaluationContext.omega_ge``).
    """

    p0: float
    p_re: tuple
    p_im: tuple
    omega_d_frac: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "p_re", tuple(float(x) for x in self.p_re))
        object.__setattr__(self, "p_im", tuple(float(x) for x in self.p_im))
        if len(self.p_re) != len(self.p_im):
            raise InvalidParameterError("p_re and p_im must have equal length")

    @property
    def n(self) -> int:
        return len(self.p_re)

    def to_vector(self) -> np.ndarray:
        """Flat parameter vector (p0, p_re..., p_im..., omega_d_frac)."""
        return np.concatenate(
            ([self.p0], self.p_re, self.p_im, [self.omega_d_frac])
        )

    @classmethod
    def from_vector(cls, x: np.ndarray) -> "Genome":
        x = np.asarray(x, dtype=float)
        n = (x.size - 2) // 2
        return cls(
            p0=float(x[0]),
            p_re=tuple(x[1 : 1 + n]),
            p_im=tuple(x[1 + n : 1 + 2 * n]),
            omega_d_frac=float(x[-1]),
        )

    @staticmethod
    def bounds(n: int) -> tuple[np.ndarray, np.ndarray]:
        """(lower, upper) box bounds of the flat vector for order ``n``."""
        lo = np.concatenate(([0.0], -np.ones(2 * n), [0.5]))
        hi = np.concatenate(([1.0], np.ones(2 * n), [1.5]))
        return lo, hi


@dataclass(frozen=True)
class EvaluationContext:
    """Fixed per-run data: the qubit, the flux working point and the bath.

    ``omega_ge`` -- the reference scale for the drive-frequency box -- is the
    static splitting sqrt(delta^2 + B^2) of the biased two-level qubit; at
    the sweet spot it reduces to ``delta``.
    """

    qubit: EffectiveQubit
    e_l: float
    phi_dc: float
    phi_ac: float
    noise: NoiseModel
    n: int = 4
    k_max: int | None = None

    def __post_init__(self) -> None:
        if self.k_max is not None and self.k_max < self.n:
            raise InvalidParameterError("k_max must be at least the drive order n")

    @property
    def coefficients(self) -> EffectiveCoefficients:
        return effective_coefficients(self.qubit, self.e_l, self.phi_dc, self.phi_ac)

    @property
    def omega_ge(self) -> float:
        c = self.coefficients
        return float(np.hypot(self.qubit.delta, c.b_coef))

    @property
    def harmonic_truncation(self) -> int:
        return self.k_max if self.k_max is not None else 3 * self.n

    def with_amplitude(self, phi_ac: float) -> "EvaluationContext":
        return replace(self, phi_ac=phi_ac)


@dataclass(frozen=True)
class PointResult:
    """Everything the pipeline knows about one evaluated drive."""

    drive: DriveSpec
    solution: FloquetSolution
    weights: FilterWeights
    rates: RateReport

    @property
    def objectives(self) -> tuple[float, float]:
        return (self.rates.gamma_1, self.rates.gamma_z)


def genome_to_drive(genome: Genome, context: EvaluationContext) -> DriveSpec:
    """Materialize the drive a genome encodes under a given context."""
    p = [complex(genome.p0, 0.0)]
    p += [complex(r, i) for r, i in zip(genome.p_re, genome.p_im)]
    return DriveSpec(
        phi_dc=context.phi_dc,
        phi_ac=context.phi_ac,
        omega_d=genome.omega_d_frac * context.omega_ge,
        p=tuple(p),
    )


def evaluate_drive(drive: DriveSpec, context: EvaluationContext) -> PointResult:
    """Full pipeline for one drive: Floquet solve, weights, rates.

    Each step is a batch of one of the stacked code that
    :func:`evaluate_population` runs, so a drive gets the same bits here as
    in any population.
    """
    coeffs = context.coefficients
    k_max = max(context.harmonic_truncation, drive.n)
    matrix = assemble_floquet_matrix(drive, coeffs, context.qubit.delta, k_max)
    sol = solve_floquet(matrix, drive.omega_d)
    weights = compute_filter_weights(sol)
    rates = decoherence_rates(weights, sol.omega_gap, drive.omega_d, context.noise)
    return PointResult(drive=drive, solution=sol, weights=weights, rates=rates)


def evaluate_genome(
    genome: Genome, context: EvaluationContext
) -> tuple[tuple[float, float], PointResult | None]:
    """Objectives (gamma_1, gamma_z) of one genome.

    A genome whose Floquet branches cannot be labeled is infeasible and gets
    ``(inf, inf)`` instead of aborting the caller: its gap is degenerate, or
    it lies outside (0, omega_d), as the central pair of an unconverged
    truncation can.
    """
    drive = genome_to_drive(genome, context)
    try:
        point = evaluate_drive(drive, context)
    except (DegenerateGapError, GapOutsideZoneError):
        return (np.inf, np.inf), None
    return point.objectives, point


def _evaluate_slice(drives: list, context: EvaluationContext) -> list:
    """:func:`evaluate_population` of drives of one order, as one stack."""
    omega_d = np.array([d.omega_d for d in drives])
    k_max = max(context.harmonic_truncation, drives[0].n)
    stack = _floquet_stack(
        omega_d,
        np.array([d.p for d in drives]),
        context.coefficients,
        context.qubit.delta,
        k_max,
    )
    eps_minus, eps_plus, h_plus, h_minus, ok = _solve_stack(stack, omega_d)
    gap = eps_plus - eps_minus
    # infeasible as in evaluate_genome: an unconverged truncation can label
    # a gap beyond omega_d
    ok &= (gap > 0.0) & (gap < omega_d)
    g_z, g_plus, g_minus = _filter_weight_stack(h_plus, h_minus)
    rates = np.stack(_rate_stack(g_z, g_plus, g_minus, gap, omega_d, context.noise))
    out = []
    for r, drive in enumerate(drives):
        if not ok[r]:
            out.append(((np.inf, np.inf), None))
            continue
        point = PointResult(
            drive=drive,
            solution=FloquetSolution(
                eps_plus=float(eps_plus[r]),
                eps_minus=float(eps_minus[r]),
                omega_gap=float(gap[r]),
                harmonics_plus=h_plus[r],
                harmonics_minus=h_minus[r],
                k_max=k_max,
                omega_d=drive.omega_d,
            ),
            weights=FilterWeights(
                g_z=g_z[r], g_plus=g_plus[r], g_minus=g_minus[r], k_max=2 * k_max
            ),
            rates=RateReport.from_rates(*(float(x) for x in rates[:, r])),
        )
        out.append((point.objectives, point))
    return out


def evaluate_population(
    genomes, context: EvaluationContext
) -> list[tuple[tuple[float, float], PointResult | None]]:
    """:func:`evaluate_genome` of every genome, in order, on stacked arrays.

    The genomes share one order.  They are solved in slices of
    ``_SLICE_ROWS`` rows, and no arithmetic mixes rows, so each result is
    bit for bit the one :func:`evaluate_genome` returns for that genome
    alone.
    """
    drives = [genome_to_drive(g, context) for g in genomes]
    if len({d.n for d in drives}) > 1:
        raise InvalidParameterError("a population's genomes must share one order n")
    out = []
    for start in range(0, len(drives), _SLICE_ROWS):
        out += _evaluate_slice(drives[start : start + _SLICE_ROWS], context)
    return out
