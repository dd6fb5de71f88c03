"""The evaluation pipeline: genomes to decoherence objectives.

Glues the circuit reduction, the Floquet solve, the filter weights and the
rate conversion into one deterministic map

    genome -> (gamma_1, gamma_z),

shared by the optimizer, the sweet-spot classifier and the command-line
tool.  :func:`evaluate_population` runs it on stacked rows through the four
stage functions; :func:`evaluate_genome` is one row of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import EffectiveCoefficients, EffectiveQubit, effective_coefficients
from .exceptions import InvalidParameterError
from .floquet import (
    DriveSpec,
    FilterWeights,
    FloquetSolution,
    _check_drives,
    _minus_mode,
    assemble_floquet_matrix,
    compute_filter_weights,
    solve_floquet,
)
from .noise import NoiseModel, RateReport, decoherence_rates

__all__ = ["Genome", "EvaluationContext", "PointResult", "evaluate_genome",
           "evaluate_population"]

#: why :func:`evaluate_genome` returns no point, for error messages
_INFEASIBLE = (
    "infeasible: its quasienergy gap is at 0 or omega_d, or outside "
    "(0, omega_d) at this truncation, so branch labels are undefined"
)

#: rows per stacked solve: about 1 MB of Floquet matrices at n = 4
_SLICE_ROWS = 25


def _drive_order(n: int) -> int:
    """``n``, checked as a drive order: the length of a genome's ``p_re``."""
    if n < 0:
        raise InvalidParameterError(f"drive order n must be >= 0, got {n}")
    return n


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

    The working point ``(phi_dc, phi_ac)`` lives here alone: ``coefficients``
    is the two-level model (delta, A, B) it gives the qubit, and raises on a
    non-finite one.  ``omega_ge``, the scale of the drive-frequency box, is
    the static splitting sqrt(delta^2 + B^2) of that model.  The context
    holds no drive order: each genome's own order sets its harmonic
    truncation (see :func:`evaluate_population`), unless ``k_max`` overrides
    it.
    """

    qubit: EffectiveQubit
    e_l: float
    phi_dc: float
    phi_ac: float
    noise: NoiseModel
    k_max: int | None = None

    @property
    def coefficients(self) -> EffectiveCoefficients:
        return effective_coefficients(self.qubit, self.e_l, self.phi_dc, self.phi_ac)

    @property
    def omega_ge(self) -> float:
        c = self.coefficients
        return float(np.hypot(c.delta, c.b_coef))


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


def evaluate_genome(
    genome: Genome, context: EvaluationContext
) -> tuple[tuple[float, float], PointResult | None]:
    """Objectives (gamma_1, gamma_z) and point of one genome: one row of
    :func:`evaluate_population`.

    A genome whose Floquet branches cannot be labeled is infeasible and gets
    ``((inf, inf), None)`` instead of aborting the caller: its gap is
    degenerate, or it lies outside (0, omega_d), as the central pair of an
    unconverged truncation can.
    """
    objs, rows = evaluate_population(genome.to_vector()[None], context)
    return (float(objs[0, 0]), float(objs[0, 1])), _row_point(rows, 0, context)


def _evaluate_slice(omega_d, p, coeffs, context: EvaluationContext, k_max: int) -> dict:
    """:func:`evaluate_population`'s row arrays of one slice, as one stack."""
    # the stack, the largest array of a slice, is freed once solved
    eps_minus, eps_plus, h_plus, h_minus, ok = solve_floquet(
        assemble_floquet_matrix(omega_d, p, coeffs, k_max), omega_d
    )
    gap = eps_plus - eps_minus
    # an unconverged truncation can label a gap beyond omega_d
    ok &= (gap > 0.0) & (gap < omega_d)
    g_z, g_plus, g_minus = compute_filter_weights(h_plus, h_minus)
    rates = np.stack(
        decoherence_rates(g_z, g_plus, g_minus, gap, omega_d, context.noise), 1
    )
    # the minus mode follows from h_plus (see _row_point), and g_minus from
    # g_plus (FilterWeights.g_minus), so a population does not keep them
    return dict(
        omega_d=omega_d, p=p, ok=ok, eps_minus=eps_minus, eps_plus=eps_plus,
        gap=gap, h_plus=h_plus, g_z=g_z, g_plus=g_plus, rates=rates,
    )


def evaluate_population(
    vectors, context: EvaluationContext
) -> tuple[np.ndarray, dict]:
    """:func:`evaluate_genome` of each row of an ``(m, 2 n + 2)`` array of
    :meth:`Genome.to_vector` rows, on stacked arrays.

    Returns the ``(m, 2)`` objectives, ``(inf, inf)`` on an infeasible row,
    and a dict of per-row arrays: the drive (``omega_d``, ``p``), ``ok``,
    the Floquet solution (``eps_minus``, ``eps_plus``, ``gap``, ``h_plus``),
    the filter weights (``g_z``, ``g_plus``) and ``rates`` (``gamma_z``,
    ``gamma_plus``, ``gamma_minus``); :func:`_row_point` takes the minus
    mode from ``h_plus``.  The context's working point is checked first,
    then the checks of :class:`DriveSpec` run once, on the arrays.  Rows are
    solved in slices of ``_SLICE_ROWS``, and no arithmetic mixes rows, so
    :func:`_row_point` of a row is bit for bit what :func:`evaluate_genome`
    returns alone.  The harmonic truncation is ``context.k_max`` if set,
    else 3 n for rows of order n; a ``k_max`` below n raises
    :class:`TruncationError`.
    """
    x = np.asarray(vectors, dtype=float)
    if x.ndim != 2 or not len(x) or x.shape[1] < 2 or x.shape[1] % 2:
        raise InvalidParameterError(
            f"a population must be an (m >= 1, 2 n + 2) array, got shape {x.shape}"
        )
    n = x.shape[1] // 2 - 1
    omega_d = x[:, -1] * context.omega_ge
    p = x[:, : n + 1].astype(complex)
    p.imag[:, 1:] = x[:, n + 1 : -1]
    _check_drives(omega_d, p)
    coeffs = context.coefficients
    k_max = 3 * n if context.k_max is None else context.k_max
    cuts = [slice(s, s + _SLICE_ROWS) for s in range(0, len(x), _SLICE_ROWS)]
    parts = [_evaluate_slice(omega_d[c], p[c], coeffs, context, k_max) for c in cuts]
    rows = {key: np.concatenate([part[key] for part in parts]) for key in parts[0]}
    objs = np.stack((rows["rates"][:, 1] + rows["rates"][:, 2], rows["rates"][:, 0]), 1)
    objs[~rows["ok"]] = np.inf
    return objs, rows


def _row_point(rows: dict, r: int, context: EvaluationContext) -> PointResult | None:
    """The :class:`PointResult` of row ``r`` of :func:`evaluate_population`'s
    row arrays; ``None`` for an infeasible row.  The minus mode is taken from
    the plus mode, bit for bit as :func:`solve_floquet` takes it."""
    if not rows["ok"][r]:
        return None
    h_plus = rows["h_plus"][r]
    return PointResult(
        DriveSpec(float(rows["omega_d"][r]), tuple(rows["p"][r])),
        FloquetSolution(float(rows["eps_plus"][r]), float(rows["eps_minus"][r]),
                        h_plus, _minus_mode(h_plus, (len(h_plus) - 1) // 2)),
        FilterWeights(rows["g_z"][r], rows["g_plus"][r]),
        RateReport(*(float(x) for x in rows["rates"][r])),
    )
