"""Dynamical-sweet-spot classification, sensitivities and T1 bounds.

A drive operates at a dynamical sweet spot (DSS) when the quasienergy gap is
first-order insensitive to the DC flux bias; operationally the central
dephasing weight ``|g_z[0]|`` vanishes.  A double DSS is additionally
insensitive to the modulation amplitude; the criterion is
``2 sum_k p_k g_z[k] -> 0``.  By Hellmann-Feynman on the truncated Floquet
matrix both weights are exact first-order gap responses: ``g_z[0]`` to the
DC coefficient B (dH_F/dB = I (x) sigma_x / 2) and ``2 sum_k p_k g_z[k]``
to the AC coefficient A (dH_F/dA = P (x) sigma_x), so classification reads
them off the filter weights and runs no finite-difference stencil.
Relaxation cannot be suppressed without bound: two closed-form upper bounds
on T1 are evaluated per point.  The verdict (``BoundReport.ok``): every point
must keep the general bound, and a point at a DSS (``|g_z[0]|`` below
``DSS_THRESHOLD``) must also keep the DSS bound.  T1 may exceed a bound by a
relative 1e-9, which stands for round-off: T1 and the bounds are computed
along different paths.

The sweet spots are those of the two-level model.  An N-level Floquet model
of the circuit moves them: at the three benchmark DSSs, where the two-level
``|g_z[0]|`` is round-off, six levels give ``|g_z[0]|`` = 2.8e-2 to 4.1e-2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evaluation import _INFEASIBLE, EvaluationContext, PointResult
from .evaluation import _row_point, evaluate_population
from .exceptions import DegenerateGapError
from .floquet import DriveSpec, FilterWeights, _two_sided

# kept for the benchmark's tracer test, which reads ``dss.solve_floquet``
# (the stacked solve every evaluation runs); nothing here calls it
from .floquet import solve_floquet  # noqa: F401
from .noise import NoiseModel
from .pareto import Individual

__all__ = [
    "DSS_THRESHOLD",
    "DOUBLE_DSS_THRESHOLD",
    "SensitivityReport",
    "BoundReport",
    "distance_to_nearest_integer",
    "t1_upper_bound_general",
    "t1_upper_bound_dss",
    "amplitude_sensitivity",
    "evaluate_bounds",
    "classify_point",
    "classify_front",
]

#: |g_z[0]| below this marks a dynamical sweet spot
DSS_THRESHOLD = 1e-4

#: |d omega_gap / d amplitude| below this marks a double sweet spot
DOUBLE_DSS_THRESHOLD = 0.1

#: relative excess of T1 over a bound that is round-off, not a violation
_BOUND_SLACK = 1e-9


def _at_dss(g_z0) -> bool:
    """Whether a central dephasing weight marks a dynamical sweet spot."""
    return abs(g_z0) < DSS_THRESHOLD


@dataclass(frozen=True)
class SensitivityReport:
    """First-order sensitivities of one working point."""

    gz0_abs: float
    double_dss_metric: float
    d_omega_d_phi_dc: float
    d_omega_d_phi_ac: float

    @property
    def label(self) -> str:
        if not _at_dss(self.gz0_abs):
            return "plain"
        if self.double_dss_metric < DOUBLE_DSS_THRESHOLD:
            return "double_dss"
        return "dss"


@dataclass(frozen=True)
class BoundReport:
    """Measured T1 against its two analytic upper bounds (us); ``ok`` is the
    verdict of the module docstring, and the margins, bound / T1, derived."""

    t_ub_general: float
    t_ub_dss: float
    t1: float
    ok: bool

    @property
    def margin_general(self) -> float:
        return self.t_ub_general / self.t1 if self.t1 > 0 else np.inf

    @property
    def margin_dss(self) -> float:
        return self.t_ub_dss / self.t1 if self.t1 > 0 else np.inf


def distance_to_nearest_integer(x: float) -> float:
    """min_k |x - k| for integer k; lies in [0, 0.5]."""
    return float(abs(x - round(x)))


def _bound_factor(omega_gap: float, omega_d: float, noise: NoiseModel) -> float:
    """``2 a_f sqrt(a_d omega_d) sqrt(dist)``, which both T1 bounds divide
    by, with ``dist`` the distance of ``omega_gap / omega_d`` to the nearest
    integer.  It is 0 when the gap folds onto a harmonic, or when a noise
    channel is absent: the bounds need both channels (the ``bounds`` verb
    reports a missing one once per run)."""
    if noise.a_f * noise.a_d == 0.0:
        return 0.0
    dist = distance_to_nearest_integer(omega_gap / omega_d)
    return 2.0 * noise.a_f * np.sqrt(noise.a_d * omega_d) * np.sqrt(dist)


def t1_upper_bound_general(
    weights: FilterWeights, omega_gap: float, omega_d: float, noise: NoiseModel
) -> float:
    """Universal relaxation-time bound; holds for every periodic drive.

    Returns +inf when the gap folds onto a harmonic, when the relaxation
    weights vanish, or when either noise channel is absent.
    """
    factor = _bound_factor(omega_gap, omega_d, noise)
    total_plus = float(np.sum(np.abs(weights.g_plus) ** 2))
    if factor == 0.0 or total_plus == 0.0:
        return np.inf
    return float(np.sqrt(np.pi) / (factor * total_plus))


def t1_upper_bound_dss(
    delta: float, omega_gap: float, omega_d: float, noise: NoiseModel
) -> float:
    """Closed-form relaxation bound valid at a dynamical sweet spot."""
    factor = _bound_factor(omega_gap, omega_d, noise)
    curvature = abs(3.0 * omega_d**2 - np.pi**2 * delta**2)
    if factor == 0.0 or curvature < 1e-12 * 3.0 * omega_d**2:
        return np.inf
    return float(3.0 * np.sqrt(np.pi) * omega_d**2 / (factor * curvature))


def amplitude_sensitivity(weights: FilterWeights, drive: DriveSpec) -> complex:
    """Perturbative gap response ``2 sum_k p_k g_z[k]`` to an amplitude change.

    The sum runs over the full harmonic extent of the weights with the
    negative drive coefficients implied by conjugation; the result is real
    up to round-off.
    """
    p_full = _two_sided(np.asarray(drive.p), weights.k_max)
    return complex(2.0 * np.sum(p_full * weights.g_z))


def evaluate_bounds(point: PointResult, context: EvaluationContext) -> BoundReport:
    """Both T1 bounds for an evaluated working point, at the context's noise
    and delta, and its verdict."""
    gap, omega_d, noise = point.solution.omega_gap, point.drive.omega_d, context.noise
    t1 = point.rates.t1
    ub1 = t1_upper_bound_general(point.weights, gap, omega_d, noise)
    ub2 = t1_upper_bound_dss(context.qubit.delta, gap, omega_d, noise)
    held = [ub1, ub2] if _at_dss(point.weights.g_z0) else [ub1]
    return BoundReport(
        t_ub_general=ub1,
        t_ub_dss=ub2,
        t1=t1,
        ok=all(t1 <= ub * (1 + _BOUND_SLACK) for ub in held),
    )


def classify_point(point: PointResult, context: EvaluationContext) -> SensitivityReport:
    """Sensitivity report (and DSS label) for one evaluated drive.

    The flux sensitivities are the closed forms of the module docstring,
    converted from the coefficients B and A to the fluxes by
    ``dB/dphi_dc = 2 e_L phi_ge`` and ``dA/dphi_ac = e_L phi_ge``; the
    imaginary parts are round-off and are dropped.
    """
    weights = point.weights
    d_amplitude = amplitude_sensitivity(weights, point.drive)
    scale = 2.0 * context.e_l * context.qubit.phi_ge
    return SensitivityReport(
        gz0_abs=abs(weights.g_z0),
        double_dss_metric=abs(d_amplitude),
        d_omega_d_phi_dc=float(scale * weights.g_z0.real),
        d_omega_d_phi_ac=float(0.5 * scale * d_amplitude.real),
    )


def classify_front(
    front, context: EvaluationContext
) -> list[tuple[Individual, PointResult, SensitivityReport, BoundReport]]:
    """The one annotation of each row of ``front``, a sequence of
    :class:`Individual`: the member, its ``PointResult``, its
    :class:`SensitivityReport` and its :class:`BoundReport`, in row order.
    Every member is evaluated, in one :func:`evaluate_population` call, and
    an empty front evaluates nothing; an infeasible member raises
    ``DegenerateGapError`` naming its front row.
    """
    if not front:
        return []
    _, rows = evaluate_population([ind.genome.to_vector() for ind in front], context)
    members = []
    for i, ind in enumerate(front):
        point = _row_point(rows, i, context)
        if point is None:
            raise DegenerateGapError(f"front row {i} is {_INFEASIBLE}")
        bounds = evaluate_bounds(point, context)
        members.append((ind, point, classify_point(point, context), bounds))
    return members
