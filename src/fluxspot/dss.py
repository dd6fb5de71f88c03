"""Dynamical-sweet-spot classification, sensitivities and T1 bounds.

A drive operates at a dynamical sweet spot (DSS) when the quasienergy gap is
first-order insensitive to the DC flux bias; operationally the central
dephasing weight ``|g_z[0]|`` vanishes.  A double DSS is additionally
insensitive to the modulation amplitude; the criterion is
``2 sum_k p_k g_z[k] -> 0``.  By Hellmann-Feynman on the truncated Floquet
matrix both weights are exact first-order gap responses: ``g_z[0]`` to the
DC coefficient B (dH_F/dB = I (x) sigma_x / 2) and ``2 sum_k p_k g_z[k]``
to the AC coefficient A (dH_F/dA = P (x) sigma_x), so classification reads
them off the filter weights.  :func:`quasienergy_sensitivity_fd`
differentiates the continued gap numerically and serves as the independent
check of those closed forms.  Relaxation cannot be suppressed without bound:
two closed-form upper bounds on T1 are evaluated per point.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .circuit import EffectiveCoefficients
from .evaluation import (
    EvaluationContext,
    PointResult,
    _INFEASIBLE,
    evaluate_population,
)
from .exceptions import DegenerateGapError, InvalidParameterError, StencilCrossingError
from .floquet import (
    DriveSpec,
    FilterWeights,
    _two_sided,
    assemble_floquet_matrix,
    solve_floquet,
)
from .noise import NoiseModel
from .pareto import Individual, ParetoFront

__all__ = [
    "DSS_THRESHOLD",
    "DOUBLE_DSS_THRESHOLD",
    "SensitivityReport",
    "BoundReport",
    "distance_to_nearest_integer",
    "t1_upper_bound_general",
    "t1_upper_bound_dss",
    "amplitude_sensitivity",
    "quasienergy_sensitivity_fd",
    "evaluate_bounds",
    "classify_point",
    "classify_front",
]

#: |g_z[0]| below this marks a dynamical sweet spot
DSS_THRESHOLD = 1e-4

#: |d omega_gap / d amplitude| below this marks a double sweet spot
DOUBLE_DSS_THRESHOLD = 0.1

_OVERLAP_FLOOR = 0.98


@dataclass(frozen=True)
class SensitivityReport:
    """First-order sensitivities of one working point."""

    gz0_abs: float
    double_dss_metric: float
    d_omega_d_phi_dc: float
    d_omega_d_phi_ac: float

    @property
    def label(self) -> str:
        if self.gz0_abs >= DSS_THRESHOLD:
            return "plain"
        if self.double_dss_metric < DOUBLE_DSS_THRESHOLD:
            return "double_dss"
        return "dss"


@dataclass(frozen=True)
class BoundReport:
    """Measured T1 against its two analytic upper bounds (us)."""

    t_ub_general: float
    t_ub_dss: float
    t1: float
    margin_general: float
    margin_dss: float


def distance_to_nearest_integer(x: float) -> float:
    """min_k |x - k| for integer k; lies in [0, 0.5]."""
    return float(abs(x - round(x)))


def t1_upper_bound_general(
    weights: FilterWeights, omega_gap: float, omega_d: float, noise: NoiseModel
) -> float:
    """Universal relaxation-time bound; holds for every periodic drive.

    Returns +inf when the gap folds onto a harmonic, when the relaxation
    weights vanish, or when either noise channel is absent (with a warning
    in the latter case: the bound needs both channels).
    """
    if noise.a_f * noise.a_d == 0.0:
        warnings.warn("T1 bound undefined without both noise channels", stacklevel=2)
        return np.inf
    dist = distance_to_nearest_integer(omega_gap / omega_d)
    total_plus = float(np.sum(np.abs(weights.g_plus) ** 2))
    if dist == 0.0 or total_plus == 0.0:
        return np.inf
    denom = (
        2.0
        * noise.a_f
        * np.sqrt(noise.a_d * omega_d)
        * np.sqrt(dist)
        * total_plus
    )
    return float(np.sqrt(np.pi) / denom)


def t1_upper_bound_dss(
    delta: float, omega_gap: float, omega_d: float, noise: NoiseModel
) -> float:
    """Closed-form relaxation bound valid at a dynamical sweet spot."""
    if noise.a_f * noise.a_d == 0.0:
        warnings.warn("T1 bound undefined without both noise channels", stacklevel=2)
        return np.inf
    dist = distance_to_nearest_integer(omega_gap / omega_d)
    curvature = abs(3.0 * omega_d**2 - np.pi**2 * delta**2)
    if dist == 0.0 or curvature < 1e-12 * 3.0 * omega_d**2:
        return np.inf
    denom = (
        2.0
        * noise.a_f
        * np.sqrt(noise.a_d * omega_d)
        * np.sqrt(dist)
        * curvature
    )
    return float(3.0 * np.sqrt(np.pi) * omega_d**2 / denom)


def amplitude_sensitivity(weights: FilterWeights, drive: DriveSpec) -> complex:
    """Perturbative gap response ``2 sum_k p_k g_z[k]`` to an amplitude change.

    The sum runs over the full harmonic extent of the weights with the
    negative drive coefficients implied by conjugation; the result is real
    up to round-off.
    """
    p_full = _two_sided(np.asarray(drive.p), weights.k_max)
    return complex(2.0 * np.sum(p_full * weights.g_z))


def _stacked_overlap(ref: np.ndarray, other: np.ndarray, shift: int) -> float:
    """|<ref|other shifted by ``shift`` harmonic blocks>|."""
    k = ref.shape[0]
    moved = np.zeros_like(other)
    if shift == 0:
        moved = other
    elif shift > 0:
        moved[shift:] = other[: k - shift]
    else:
        moved[:shift] = other[-shift:]
    return abs(np.vdot(ref.ravel(), moved.ravel()))


def _continued_gap(
    drive: DriveSpec,
    coeffs: EffectiveCoefficients,
    delta: float,
    k_max: int,
    reference,
) -> float:
    """Quasienergy gap at the given parameters, on the reference branches.

    The solver folds quasienergies into the first zone; to differentiate the
    gap continuously we re-attach each solved branch to the reference branch
    by maximum stacked-harmonic overlap, allowing one zone fold either way.
    """
    sol = solve_floquet(
        assemble_floquet_matrix(drive, coeffs, delta, k_max), drive.omega_d
    )
    continued = {}
    for name, ref_h in (("plus", reference.harmonics_plus),
                        ("minus", reference.harmonics_minus)):
        best = (0.0, None, None)
        for branch, (h, eps) in {
            "plus": (sol.harmonics_plus, sol.eps_plus),
            "minus": (sol.harmonics_minus, sol.eps_minus),
        }.items():
            for shift in (-1, 0, 1):
                ov = _stacked_overlap(ref_h, h, shift)
                if ov > best[0]:
                    best = (ov, eps, shift)
        if best[0] < _OVERLAP_FLOOR:
            raise StencilCrossingError(
                f"cannot track the {name} branch across the stencil "
                f"(best overlap {best[0]:.3f}); retry with a smaller step"
            )
        # a mode whose harmonics must be shifted up by m to match the
        # reference belongs to the representative eps + m*omega_d
        continued[name] = best[1] + best[2] * drive.omega_d
    return continued["plus"] - continued["minus"]


def quasienergy_sensitivity_fd(
    drive: DriveSpec,
    coeffs: EffectiveCoefficients,
    delta: float,
    which: str,
    step: float | None = None,
    k_max: int | None = None,
) -> float:
    """Central finite-difference gap sensitivity to ``B`` (dc) or ``A`` (ac).

    Uses two step sizes as a Richardson consistency check; disagreement
    beyond 1e-3 relative is reported as a warning.  A fold crossing inside
    the stencil raises :class:`StencilCrossingError`.
    """
    if which not in ("dc", "ac"):
        raise InvalidParameterError("which must be 'dc' or 'ac'")
    if k_max is None:
        k_max = 3 * max(drive.n, 1)
    scale = max(abs(coeffs.b_coef if which == "dc" else coeffs.a_coef), delta)
    h = step if step is not None else 1e-5 * scale
    reference = solve_floquet(
        assemble_floquet_matrix(drive, coeffs, delta, k_max), drive.omega_d
    )

    def gap_at(offset: float) -> float:
        if which == "dc":
            shifted = replace(coeffs, b_coef=coeffs.b_coef + offset)
        else:
            shifted = replace(coeffs, a_coef=coeffs.a_coef + offset)
        return _continued_gap(drive, shifted, delta, k_max, reference)

    est_h = (gap_at(h) - gap_at(-h)) / (2.0 * h)
    est_h2 = (gap_at(0.5 * h) - gap_at(-0.5 * h)) / h
    # near-zero derivatives are round-off; skip the relative check there
    denom = max(abs(est_h2), 1e-9 * scale)
    if abs(est_h - est_h2) > 1e-3 * denom:
        warnings.warn(
            f"sensitivity FD not converged: {est_h} vs {est_h2} "
            f"(step {h})",
            stacklevel=2,
        )
    # second-order Richardson combination of the two central differences
    return float((4.0 * est_h2 - est_h) / 3.0)


def evaluate_bounds(point: PointResult, noise: NoiseModel, delta: float) -> BoundReport:
    """Both T1 bounds for an evaluated working point."""
    sol = point.solution
    t1 = point.rates.t1
    ub1 = t1_upper_bound_general(point.weights, sol.omega_gap, sol.omega_d, noise)
    ub2 = t1_upper_bound_dss(delta, sol.omega_gap, sol.omega_d, noise)
    return BoundReport(
        t_ub_general=ub1,
        t_ub_dss=ub2,
        t1=t1,
        margin_general=ub1 / t1 if t1 > 0 else np.inf,
        margin_dss=ub2 / t1 if t1 > 0 else np.inf,
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
    front: ParetoFront, context: EvaluationContext
) -> list[tuple[Individual, SensitivityReport]]:
    """Annotate every front member; the members without cached data are
    evaluated in one :func:`evaluate_population` call.

    An infeasible member raises ``DegenerateGapError``.
    """
    missing = [i for i, ind in enumerate(front.points) if ind.point is None]
    fresh = evaluate_population([front.points[i].genome for i in missing], context)
    points = {i: point for i, (_, point) in zip(missing, fresh)}
    annotated = []
    for i, ind in enumerate(front.points):
        point = points.get(i, ind.point)
        if point is None:
            raise DegenerateGapError(f"front member {i} is {_INFEASIBLE}")
        annotated.append((ind, classify_point(point, context)))
    return annotated
