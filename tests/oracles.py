"""Independent re-derivations that the tests check the library against.

The library computes each of these quantities another way, and calls
none of the functions here:

- :func:`quasienergy_sensitivity_fd` differentiates the continued
  quasienergy gap numerically; ``classify_point`` reads the same
  sensitivities off the filter weights (Hellmann-Feynman).
- :func:`filter_weights_time_grid` samples the Floquet modes on a time grid
  (:func:`mode_at`) and projects with a dense DFT;
  ``compute_filter_weights`` convolves the mode harmonics exactly.
- :func:`parseval_sum` is the completeness sum of the filter weights.
- :func:`evolve_density` propagates one density matrix through the
  open-system channel and checks its trace.
- :func:`average_fidelity_pauli_sum` is Nielsen's Pauli-sum form of the
  average gate fidelity, each Pauli product sent through the channel;
  ``average_gate_fidelity`` contracts the superoperator with ``U (x) U^*``.
- :func:`prefix_products_broadcast` is the blocked prefix scan with each
  step's carry broadcast as its own product; ``_prefix_products`` applies
  a block's carry in one product of its stacked rows, and must give the
  same bits.
- :func:`frame_steps_inline` and :func:`period_steps_inline` write out the
  midpoint step of the gate frame and of the propagator reference each in
  its own units; ``_midpoint_steps`` is the one rule both call, and must
  give the same bits.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import replace

import numpy as np

from fluxspot.circuit import EffectiveCoefficients
from fluxspot.exceptions import FluxspotError, IntegrationError, InvalidParameterError
from fluxspot.floquet import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    DriveSpec,
    FloquetSolution,
    _su2_entries,
)
from fluxspot.gates import ControlContext
from fluxspot.lindblad import LindbladModel, _pulse_superoperator
from fluxspot.units import RAD_PER_US_TO_RAD_PER_NS

from conftest import solve_row

_OVERLAP_FLOOR = 0.98


class StencilCrossingError(FluxspotError, RuntimeError):
    """Raised when a finite-difference stencil straddles a quasienergy fold."""


# ------------------------------------------------------------ sensitivities


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
    drive: DriveSpec, coeffs: EffectiveCoefficients, k_max: int, reference
) -> float:
    """Quasienergy gap at the given parameters, on the reference branches.

    The solver folds quasienergies into the first zone; to differentiate the
    gap continuously we re-attach each solved branch to the reference branch
    by maximum stacked-harmonic overlap, allowing one zone fold either way.
    """
    sol = solve_row(drive, coeffs, k_max)
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
    scale = max(abs(coeffs.b_coef if which == "dc" else coeffs.a_coef), coeffs.delta)
    h = step if step is not None else 1e-5 * scale
    reference = solve_row(drive, coeffs, k_max)

    def gap_at(offset: float) -> float:
        if which == "dc":
            shifted = replace(coeffs, b_coef=coeffs.b_coef + offset)
        else:
            shifted = replace(coeffs, a_coef=coeffs.a_coef + offset)
        return _continued_gap(drive, shifted, k_max, reference)

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


# ----------------------------------------------------------- filter weights


def mode_at(sol: FloquetSolution, omega_d: float, t, which: str = "plus") -> np.ndarray:
    """Periodic mode of ``sol`` under a drive at ``omega_d`` as a 2-vector at
    times ``t`` (shape (..., 2))."""
    h = sol.harmonics_plus if which == "plus" else sol.harmonics_minus
    t = np.atleast_1d(np.asarray(t, dtype=float))
    ks = np.arange(-sol.k_max, sol.k_max + 1)
    phases = np.exp(1j * np.outer(t, ks) * omega_d)
    return phases @ h


def filter_weights_time_grid(
    sol: FloquetSolution, omega_d: float, n_samples: int = 4096
) -> tuple:
    """Filter weights ``(g_z, g_plus, g_minus)`` from a uniform time grid
    (FFT cross-check) of a solution under a drive at ``omega_d``; ``g_minus``
    is computed from the modes, not from ``g_plus``."""
    big_k = 2 * sol.k_max
    ts = np.arange(n_samples) * (2.0 * np.pi / omega_d) / n_samples
    wp = mode_at(sol, omega_d, ts, "plus")
    wm = mode_at(sol, omega_d, ts, "minus")
    f_z = np.einsum("ta,ab,tb->t", wp.conj(), PAULI_X, wp) - np.einsum(
        "ta,ab,tb->t", wm.conj(), PAULI_X, wm
    )
    f_plus = np.einsum("ta,ab,tb->t", wp.conj(), PAULI_X, wm)
    f_minus = np.einsum("ta,ab,tb->t", wm.conj(), PAULI_X, wp)
    ks = np.arange(-big_k, big_k + 1)
    proj = np.exp(1j * np.outer(ks, omega_d * ts)) / n_samples
    return (proj @ f_z) / 2.0, proj @ f_plus, proj @ f_minus


def parseval_sum(g_z, g_plus, g_minus) -> np.ndarray:
    """Completeness sum of stacked filter weights over the last axis; equals
    1 for an exact Floquet solution."""
    return (
        0.5 * np.sum(np.abs(g_plus) ** 2, axis=-1)
        + 0.5 * np.sum(np.abs(g_minus) ** 2, axis=-1)
        + np.sum(np.abs(g_z) ** 2, axis=-1)
    )


# ---------------------------------------------------------------- lindblad


def evolve_density(
    context: ControlContext,
    waveforms,
    model: LindbladModel,
    rho0: np.ndarray,
) -> np.ndarray:
    """Propagate a density matrix through the pulse with dissipation.

    The generator is held constant inside each pulse step (Hamiltonian and
    jump operators sampled at the step midpoints) and each step is
    propagated exactly by the exponential of its Liouvillian, so the only
    approximation is the piecewise-constant sampling itself; with the rates
    set to zero this equals ``U rho0 U^dag`` of ``propagate_closed`` up to
    round-off.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    d = context.dimension
    if rho0.shape != (d, d):
        raise InvalidParameterError(f"rho0 must be {d}x{d}")
    s = _pulse_superoperator(context, waveforms, model)
    rho = (s @ rho0.ravel()).reshape(d, d)
    drift = abs(np.trace(rho).real - np.trace(rho0).real)
    if drift > 1e-9:
        raise IntegrationError(f"trace drifted by {drift:.2e}")
    return rho


def average_fidelity_pauli_sum(s: np.ndarray, u: np.ndarray) -> float:
    """``F = (sum_P Tr(U P U^dag E(P)) + d^2) / (d^2 (d + 1))`` over the d^2
    Pauli products P (Nielsen, Phys. Lett. A 303, 249 (2002)), with
    ``E(P)`` the superoperator ``s`` applied to row-major vec(P)."""
    d = u.shape[0]
    singles = [np.eye(2), PAULI_X, PAULI_Y, PAULI_Z]
    paulis = singles if d == 2 else [np.kron(a, b) for a in singles for b in singles]
    total = sum(
        np.trace(u @ p @ u.conj().T @ (s @ p.ravel()).reshape(d, d)) for p in paulis
    )
    return float((total.real + d**2) / (d**2 * (d + 1)))


def prefix_products_broadcast(mats: np.ndarray) -> np.ndarray:
    """Ordered prefixes ``out[i] = mats[i] @ ... @ mats[0]`` by the blocked
    scan of ``_prefix_products``, each step times its block's carry."""
    n, d = mats.shape[0], mats.shape[-1]
    block = math.isqrt(n - 1) + 1
    n_blocks = -(-n // block)
    pad = np.broadcast_to(np.eye(d, dtype=mats.dtype), (n_blocks * block - n, d, d))
    blocks = np.concatenate([mats, pad]).reshape(n_blocks, block, d, d)
    out = np.empty_like(blocks)
    out[:, 0] = blocks[:, 0]
    for i in range(1, block):
        out[:, i] = blocks[:, i] @ out[:, i - 1]
    carry = np.empty((n_blocks, d, d), dtype=mats.dtype)
    carry[0] = np.eye(d)
    for b in range(1, n_blocks):
        carry[b] = out[b - 1, -1] @ carry[b - 1]
    return (out @ carry[:, None]).reshape(-1, d, d)[:n]


# ---------------------------------------------------------- midpoint steps


def frame_steps_inline(
    drive: DriveSpec, coeffs: EffectiveCoefficients, mids_ns: np.ndarray, h
):
    """Entries of the gate frame's steps of length ``h`` ns at the midpoints
    ``mids_ns``: the drive is read on the us clock, and the coefficients
    and splitting are taken to rad/ns after the sum."""
    delta_ns = coeffs.delta * RAD_PER_US_TO_RAD_PER_NS
    cx = 0.5 * coeffs.b_coef + coeffs.a_coef * drive.waveform(mids_ns * 1e-3)
    return _su2_entries(delta_ns, cx * RAD_PER_US_TO_RAD_PER_NS, h)


def period_steps_inline(
    drive: DriveSpec, coeffs: EffectiveCoefficients, substeps: int, lo: int, hi: int
):
    """Entries of the propagator reference's steps ``lo .. hi - 1`` of one
    period split into ``substeps``, in rad/us."""
    dt = drive.period / substeps
    t_mid = (np.arange(lo, hi) + 0.5) * dt
    cx = 0.5 * coeffs.b_coef + coeffs.a_coef * drive.waveform(t_mid)
    return _su2_entries(coeffs.delta, cx, dt)
