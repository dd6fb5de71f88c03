"""Independent re-derivations that the tests check the library against.

The library computes each of these quantities another way, and calls
none of the functions here:

- :func:`quasienergy_sensitivity_fd` differentiates the continued
  quasienergy gap numerically; ``classify_point`` reads the same
  sensitivities off the filter weights (Hellmann-Feynman).
- :func:`filter_weights_time_grid` samples the Floquet modes on a time grid
  (:func:`mode_at`) and projects with a dense DFT;
  ``compute_filter_weights`` convolves the mode harmonics exactly.
- :func:`filter_weights_two_branch` and :func:`decoherence_rates_two_branch`
  are the filter-weight and rate stages in their two-branch form: the
  weights of an explicit minus mode, ``g_z`` as half the difference of the
  two modes' ``sigma_x`` autocorrelations, and ``gamma_minus`` of an
  explicit ``g_minus``; the stages take the plus branch alone.
- :func:`parseval_sum` is the completeness sum of the filter weights.
- :func:`evolve_density` propagates one density matrix through the
  open-system channel and checks its trace.
- :func:`average_fidelity_pauli_sum` is Nielsen's Pauli-sum form of the
  average gate fidelity, each Pauli product sent through the channel;
  ``average_gate_fidelity`` contracts the superoperator with ``U (x) U^*``.
- :func:`prefix_products_broadcast` is the blocked prefix scan of the real
  8x8 steps with each step's carry broadcast as its own product;
  ``gates._prefix_products`` applies a block's carry in one product of its
  stacked rows, in reused work arrays, and must give the same bits.
- :func:`monodromy_eig_oracle` reads the quasienergies and modes of a
  monodromy off a general eigensolve, folds the eigenphases into the first
  zone (:func:`fold_to_zone`) and re-orthonormalizes the eigenvectors by QR;
  ``_monodromy_pair`` reads them off the SU(2) form in closed form.
- :func:`bandlimit_fft` zeroes the FFT bins above harmonic ``n_freq``;
  ``gates`` band-limits by the orthogonal projection onto the rows of
  ``PulseSpec.fourier_basis``.
- :func:`grape_penalties` is the value of the amplitude and edge penalties
  that ``optimize_pulse`` ascends against; ``gates._value_and_grad`` forms
  only their gradient.
- :func:`frame_steps_inline` and :func:`period_steps_inline` write out the
  midpoint step of the gate frame and of the propagator reference each in
  its own units; ``_midpoint_steps`` is the one rule of the time walk that
  both take, ``_sampled_propagators``, and must give the same bits.
"""

from __future__ import annotations

import cmath
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
    _corr,
    _su2_entries,
)
from fluxspot.noise import NoiseModel, spectral_density
from fluxspot.gates import AMPLITUDE_PENALTY, EDGE_PENALTY, ControlContext
from fluxspot.lindblad import _pulse_superoperator
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


def filter_weights_two_branch(h_plus: np.ndarray, h_minus: np.ndarray) -> tuple:
    """Filter weights ``(g_z, g_plus, g_minus)`` of stacked plus modes and
    an explicit minus mode each, by the exact convolution of the filter-weight
    stage: ``g_z`` is half of ``corr(h_plus, h_plus) - corr(h_minus,
    h_minus)``, and ``g_minus[k] = conj(g_plus[-k])``."""
    g_plus = _corr(h_plus, h_minus)
    g_z = 0.5 * (_corr(h_plus, h_plus) - _corr(h_minus, h_minus))
    return g_z, g_plus, g_plus[..., ::-1].conj()


def decoherence_rates_two_branch(
    g_z, g_plus, g_minus, omega_gap, omega_d, noise: NoiseModel
) -> tuple:
    """``(gamma_z, gamma_plus, gamma_minus)`` of stacked filter weights with
    an explicit ``g_minus``, each row's sums as the rate stage forms them."""
    center = (g_z.shape[-1] - 1) // 2
    k_omega = np.arange(-center, center + 1) * omega_d[:, None]
    gap = omega_gap[:, None]
    s_deph, s_up, s_down = spectral_density(
        noise, np.stack((k_omega, k_omega - gap, k_omega + gap))
    )
    first_order = (
        0.5
        * np.abs(g_z[:, center])
        * noise.a_f
        * np.sqrt(2.0)
        * noise.dephasing_log_factor
    )
    quad = np.abs(g_z) ** 2 * s_deph
    quad[:, center] = 0.0
    gamma_z = noise.dephasing_scale * (first_order + 0.25 * np.sum(quad, axis=-1))
    gamma_plus = np.sum(np.abs(g_plus) ** 2 * s_up, axis=-1)
    gamma_minus = np.sum(np.abs(g_minus) ** 2 * s_down, axis=-1)
    return gamma_z, gamma_plus, gamma_minus


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
    rates: tuple,
    rho0: np.ndarray,
) -> np.ndarray:
    """Propagate a density matrix through the pulse with dissipation at the
    rate pair ``rates = (gamma_1, gamma_z)`` in 1/us on every qubit.

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
    s = _pulse_superoperator(context, waveforms, *rates)
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
    """Ordered prefixes ``out[i] = mats[i] @ ... @ mats[0]`` of the real
    steps ``mats`` by the blocked scan of ``gates._prefix_products``, its
    carries by ``np.dot``, each step times its block's carry."""
    n, d = mats.shape[0], mats.shape[-1]
    block = math.isqrt(n - 1) + 1
    n_blocks = -(-n // block)
    pad = np.broadcast_to(np.eye(d), (n_blocks * block - n, d, d))
    blocks = np.concatenate([mats, pad]).reshape(n_blocks, block, d, d)
    out = np.empty_like(blocks)
    out[:, 0] = blocks[:, 0]
    for i in range(1, block):
        out[:, i] = blocks[:, i] @ out[:, i - 1]
    carry = np.empty((n_blocks, d, d))
    carry[0] = np.eye(d)
    for b in range(1, n_blocks):
        carry[b] = np.dot(out[b - 1, -1], carry[b - 1])
    return (out @ carry[:, None]).reshape(-1, d, d)[:n]


# ------------------------------------------------------------------- pulses


def bandlimit_fft(x: np.ndarray, n_freq: int) -> np.ndarray:
    """The rows of ``x`` with every FFT bin above harmonic ``n_freq``
    zeroed: an ``rfft``/``irfft`` round trip on the sample grid."""
    spectrum = np.fft.rfft(x)
    spectrum[..., n_freq + 1 :] = 0.0
    return np.fft.irfft(spectrum, x.shape[-1])


def grape_penalties(waveforms: np.ndarray, f_max: float) -> float:
    """``AMPLITUDE_PENALTY`` times the mean square of ``max(|f| - f_max,
    0)`` over all samples plus ``EDGE_PENALTY`` times the sum of the squared
    first and last samples of each channel, both over ``f_max^2``."""
    excess = np.maximum(np.abs(waveforms) - f_max, 0.0)
    ends = waveforms[:, [0, -1]]
    return float(
        (AMPLITUDE_PENALTY * np.mean(excess**2) + EDGE_PENALTY * np.sum(ends**2))
        / f_max**2
    )


# --------------------------------------------------------------- monodromy


def fold_to_zone(x: float, omega: float) -> float:
    """Fold ``x`` into the first zone (-omega/2, omega/2]."""
    y = (x + 0.5 * omega) % omega - 0.5 * omega
    if np.isclose(y, -0.5 * omega, rtol=0.0, atol=1e-12 * omega):
        y = 0.5 * omega
    return float(y)


def monodromy_eig_oracle(
    u: np.ndarray, omega_d: float, period: float
) -> tuple[np.ndarray, np.ndarray]:
    """The quasienergies of the monodromy ``u``, folded into the first zone,
    and its eigenvectors as the columns of a unitary: ``eig``, the phase of
    each eigenvalue, and a QR of the eigenvector pair (a unitary monodromy
    is normal, so its eigenvectors are orthogonal up to round-off)."""
    vals, vecs = np.linalg.eig(u)
    vals = vals / np.abs(vals)
    eps = np.array([fold_to_zone(-cmath.phase(v) / period, omega_d) for v in vals])
    q, _ = np.linalg.qr(vecs)
    return eps, q


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
    """Entries of the steps ``lo .. hi - 1`` of one period split into
    ``substeps``, in rad/us: the propagator reference's rule."""
    dt = drive.period / substeps
    t_mid = (np.arange(lo, hi) + 0.5) * dt
    cx = 0.5 * coeffs.b_coef + coeffs.a_coef * drive.waveform(t_mid)
    return _su2_entries(coeffs.delta, cx, dt)
