"""Floquet analysis of the periodically modulated two-level qubit.

The driven model is

    H(t) = -(delta/2) sigma_z + (B/2 + A P(t)) sigma_x,

with basis order (ground, excited), so the splitting sits on the diagonal and
the flux modulation couples through ``sigma_x``.  ``P(t)`` is a real periodic
waveform given by complex Fourier coefficients ``p_0 .. p_n`` (negative
harmonics implied by conjugation).  The model's delta, A and B are one
``circuit.EffectiveCoefficients``, which every solver here takes; the flux
working point (phi_dc, phi_ac) they come from lives in
``evaluation.EvaluationContext``; the drive (omega_d, P) is a
:class:`DriveSpec`, or a row of the stacked arrays ``(omega_d, p)``.

Two independent solvers are provided: the truncated Floquet block matrix
(production path) and a one-period propagator reference that never builds the
block matrix (validation path: ``truncation-study`` measures the first
against it).  Filter weights -- the Fourier coefficients of the flux-coupling
operator expressed in the Floquet frame -- are computed by exact discrete
convolution of the mode harmonics.

H(t) is a traceless real-symmetric 2x2 matrix, so ``sigma_y H(t)* sigma_y =
-H(t)``.  The antiunitary map ``(C psi)_k = sigma_y conj(psi_{-k})`` keeps
``|k| <= k_max``, so ``C H_F C^-1 = -H_F`` holds exactly on the truncated
matrix, for any drive and bias: the spectrum is symmetric, the central pair
is ``(-eps, eps)``, and the minus mode is ``C`` applied to the plus mode.
The production solve therefore takes the eigenvalues alone (``eigvalsh``),
finds the plus mode by two steps of inverse iteration, checks its residual
against the gap, and maps it to the minus mode.  The stages
(:func:`assemble_floquet_matrix`, :func:`solve_floquet`,
:func:`compute_filter_weights` and ``noise.decoherence_rates``) take stacks
of drives only: arrays ``(omega_d, p)`` with one row per drive, checked
once by :class:`DriveSpec`'s checks.  No arithmetic mixes rows, so a row
gets the same bits in a stack of any size.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .circuit import EffectiveCoefficients
from .exceptions import (
    DegenerateGapError,
    IntegrationError,
    InvalidParameterError,
    TruncationError,
)

__all__ = [
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "LOWERING",
    "DriveSpec",
    "FloquetSolution",
    "FilterWeights",
    "assemble_floquet_matrix",
    "solve_floquet",
    "reference_floquet_via_propagator",
    "compute_filter_weights",
    "mode_infidelity",
    "fold_to_zone",
]

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
#: |ground><excited| in the (ground, excited) basis
LOWERING = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)

_BOX_TOL = 1e-9
_DEGENERACY_RTOL = 1e-12
_RESIDUAL_RTOL = 1e-10
_SHIFT_RTOL = 1e-13
# the propagator reference walks the period in blocks of this many steps, and
# sums the harmonics over pieces of _DFT_WIDTH steps with one DFT matrix
_REFERENCE_BLOCK = 4096
_DFT_WIDTH = 256


def _raise_at(bad, values, message: str) -> None:
    """Raise :class:`InvalidParameterError` with ``message`` formatted with
    the value at the first True of ``bad``."""
    if np.any(bad):
        raise InvalidParameterError(message.format(np.ravel(values)[np.argmax(bad)]))


def _check_drives(omega_d, p: np.ndarray) -> None:
    """The checks of :class:`DriveSpec` on stacked drives ``omega_d``
    ``(rows,)`` and ``p`` ``(rows, n + 1)``; the first failing check raises
    for its first failing row."""
    # a NaN passes every comparison of the box, and in a stacked solve it
    # would fail the whole batch, so non-finite input stops first
    _raise_at(~np.isfinite(omega_d), omega_d, "omega_d must be finite, got {}")
    bad = ~np.isfinite(p)
    if bad.any():
        r, k = np.unravel_index(bad.argmax(), p.shape)
        raise InvalidParameterError(f"p_{k} must be finite, got {p[r, k]}")
    p0, hi = p[:, 0], 1.0 + _BOX_TOL
    _raise_at(omega_d <= 0.0, omega_d, "omega_d must be positive, got {}")
    _raise_at(np.abs(p0.imag) > _BOX_TOL, p0, "p_0 must be real, got {}")
    outside = (p0.real < -_BOX_TOL) | (p0.real > hi)
    _raise_at(outside, p0.real, "p_0 must lie in [0, 1], got {}")
    if np.any(np.abs(p[:, 1:].real) > hi) or np.any(np.abs(p[:, 1:].imag) > hi):
        raise InvalidParameterError("Re p_k and Im p_k must lie in [-1, 1] for k >= 1")


@dataclass(frozen=True)
class DriveSpec:
    """Periodic flux modulation: the drive alone.

    ``p`` holds the Fourier coefficients ``p_0 .. p_n`` of the waveform
    ``P(t) = sum_n p_n exp(i n omega_d t)`` with ``p_{-n} = conj(p_n)``;
    ``p_0`` must be real in [0, 1] and the higher harmonics must stay inside
    the unit box in both quadratures (the search-space constraint, enforced
    on construction).  The model the drive acts on -- delta, A and B -- is a
    ``circuit.EffectiveCoefficients``, and the flux working point (phi_dc,
    phi_ac) that sets A and B lives in ``evaluation.EvaluationContext``.
    """

    omega_d: float
    p: tuple = field(default_factory=lambda: (0.0 + 0.0j,))

    def __post_init__(self) -> None:
        p = np.asarray(self.p, dtype=complex)
        if p.ndim != 1 or p.size < 1:
            raise InvalidParameterError("p must be a 1-d sequence p_0..p_n")
        _check_drives(np.array([self.omega_d]), p[None])
        object.__setattr__(self, "p", tuple(complex(x) for x in p))

    @property
    def n(self) -> int:
        """Truncation order of the waveform (highest retained harmonic)."""
        return len(self.p) - 1

    @property
    def period(self) -> float:
        return 2.0 * np.pi / self.omega_d

    def waveform(self, t):
        """Real modulation waveform P(t); accepts scalars or arrays.

        ``sum_{k>=1} p_k z^k`` with ``z = exp(i omega_d t)`` is summed by
        Horner's rule, so one complex exponential serves every harmonic.
        """
        t = np.asarray(t, dtype=float)
        z = np.exp(1j * self.omega_d * t)
        acc = np.zeros_like(z)
        for pk in self.p[:0:-1]:
            acc = (acc + pk) * z
        out = self.p[0].real + 2.0 * acc.real
        return out if out.shape else float(out)


@dataclass(frozen=True)
class FloquetSolution:
    """Quasienergies and stacked mode harmonics of one driven working point.

    ``harmonics_plus``/``harmonics_minus`` have shape ``(2 k_max + 1, 2)``;
    row ``i`` is the harmonic ``k = i - k_max`` of the corresponding periodic
    mode, normalized so the stacked vector has unit norm and gauge-fixed so
    the dominant entry of the central harmonic block is real and positive.
    The drive frequency is the drive's (:class:`DriveSpec`).  ``omega_gap``
    and ``k_max`` are derived.  The minus mode is stored: the propagator
    reference computes it apart from the C symmetry.
    """

    eps_plus: float
    eps_minus: float
    harmonics_plus: np.ndarray
    harmonics_minus: np.ndarray

    @property
    def omega_gap(self) -> float:
        return self.eps_plus - self.eps_minus

    @property
    def k_max(self) -> int:
        return (len(self.harmonics_plus) - 1) // 2


@dataclass(frozen=True)
class FilterWeights:
    """Harmonic filter weights of the flux-coupling operator.

    ``g_z`` (dephasing channel) and ``g_plus``/``g_minus`` (relaxation
    channels) are complex arrays indexed ``k in [-k_max, k_max]``.  The
    normalization constants of the underlying operator decomposition are
    fixed: ``a_z = 4``, ``a_pm = 1``, ``b_z = 2``, ``b_pm = 1``.  ``k_max``
    and ``g_minus[k] = conj(g_plus[-k])`` are derived, the latter as
    :func:`compute_filter_weights` forms it.
    """

    g_z: np.ndarray
    g_plus: np.ndarray

    @property
    def g_minus(self) -> np.ndarray:
        return self.g_plus[::-1].conj()

    @property
    def k_max(self) -> int:
        return (len(self.g_z) - 1) // 2

    @property
    def g_z0(self) -> complex:
        """Central dephasing weight; vanishes at a dynamical sweet spot."""
        return self.g_z[self.k_max]

    @property
    def ks(self) -> np.ndarray:
        return np.arange(-self.k_max, self.k_max + 1)


def fold_to_zone(x: float, omega: float) -> float:
    """Fold ``x`` into the first zone (-omega/2, omega/2]."""
    y = (x + 0.5 * omega) % omega - 0.5 * omega
    if np.isclose(y, -0.5 * omega, rtol=0.0, atol=1e-12 * omega):
        y = 0.5 * omega
    return float(y)


def _two_sided(p: np.ndarray, k_max: int) -> np.ndarray:
    """Drive coefficients ``p_k``, ``|k| <= k_max``, of the one-sided
    ``p_0 .. p_n`` on the last axis: ``p_{-k} = conj(p_k)``, ``Re p_0`` (the
    box check tolerates round-off in ``Im p_0``), and zero beyond order n."""
    p = np.array(p[..., : k_max + 1], dtype=complex)
    p[..., 0] = p[..., 0].real
    size = p.shape[-1]
    out = np.zeros(p.shape[:-1] + (2 * k_max + 1,), dtype=complex)
    out[..., k_max - size + 1 : k_max + 1] = p[..., ::-1].conj()
    out[..., k_max : k_max + size] = p
    return out


def assemble_floquet_matrix(
    omega_d: np.ndarray, p: np.ndarray, coeffs: EffectiveCoefficients, k_max: int
) -> np.ndarray:
    """Truncated Floquet matrices of the drives ``(omega_d[r], p[r])``:
    ``omega_d`` ``(rows,)`` and the one-sided coefficients ``p`` ``(rows, n
    + 1)`` give a C-contiguous ``(rows, 2 nb, 2 nb)`` stack, ``nb = 2 k_max
    + 1``.

    Each row is Shirley's form ``diag(k omega_d) (x) I - (delta/2) I (x)
    sigma_z + T (x) sigma_x`` of the model ``coeffs``, where the Hermitian
    Toeplitz matrix ``T`` holds ``A p_{i-j}`` off the diagonal and ``B/2 +
    A p_0`` on it; the ``T (x) sigma_x`` blocks are written through a 5-d
    view of the result.
    A ``k_max`` below the drive order raises :class:`TruncationError`.
    """
    n = p.shape[-1] - 1
    if k_max < n:
        raise TruncationError(f"k_max={k_max} would drop drive harmonics up to n={n}")
    rows, nb = omega_d.size, 2 * k_max + 1
    band = coeffs.a_coef * _two_sided(p, nb - 1)
    # t[:, i, j] = band[:, nb - 1 + i - j], as a view: no copy of the blocks
    t = np.lib.stride_tricks.sliding_window_view(band[:, ::-1], nb, axis=-1)[:, ::-1]
    out = np.zeros((rows, nb, 2, nb, 2), dtype=complex)
    out[:, :, 0, :, 1] = t
    out[:, :, 1, :, 0] = t
    idx = np.arange(nb)
    out[:, idx, 0, idx, 1] += 0.5 * coeffs.b_coef
    out[:, idx, 1, idx, 0] += 0.5 * coeffs.b_coef
    out = out.reshape(rows, 2 * nb, 2 * nb)
    k_omega = np.arange(-k_max, k_max + 1) * omega_d[:, None]
    out.reshape(rows, -1)[:, :: 2 * nb + 1] = np.stack(
        (k_omega - 0.5 * coeffs.delta, k_omega + 0.5 * coeffs.delta), axis=-1
    ).reshape(rows, -1)
    return out


def _gauge_fix(h: np.ndarray, k_max: int) -> np.ndarray:
    """Rotate stacked modes (last two axes ``(nb, 2)``) so each one's
    dominant central-block entry is real >= 0."""
    central = h[..., k_max, :]
    flat = h.reshape(h.shape[:-2] + (-1,))
    pivot = np.take_along_axis(central, np.abs(central).argmax(-1)[..., None], -1)
    whole = np.take_along_axis(flat, np.abs(flat).argmax(-1)[..., None], -1)
    pivot = np.where(np.abs(pivot) < 1e-14, whole, pivot)[..., 0]
    phase = np.abs(pivot) / np.where(pivot == 0.0, 1.0, pivot)
    return h * phase[..., None, None]


def _particle_hole(h: np.ndarray) -> np.ndarray:
    """``C h`` for stacked modes, up to the global phase ``-i``.

    ``(C psi)_k = sigma_y conj(psi_{-k})`` is antiunitary with ``C^2 = -1``
    and maps ``|k| <= k_max`` onto itself; ``sigma_y H(t)* sigma_y = -H(t)``
    for the traceless two-level H(t), so ``C H_F C^-1 = -H_F`` holds exactly
    on the truncated matrix and ``C`` maps the mode at ``eps`` to the one at
    ``-eps``.
    """
    r = h[..., ::-1, :].conj()
    return np.stack((r[..., 1], -r[..., 0]), axis=-1)


def _central_pairs(eigvals: np.ndarray, omega_d):
    """Indices of the smallest-|value| pair on the last axis, minus branch
    first, and whether the pair's gap is degenerate.

    A gap within ``_DEGENERACY_RTOL omega_d`` of 0 or of ``omega_d`` leaves
    the branch labels undefined: at the zone edge ``eps = -/+ omega_d / 2``
    are replicas of one state, and which pair ``argsort`` picks from the
    tie depends on round-off.
    """
    order = np.argsort(np.abs(eigvals), axis=-1, kind="stable")[..., :2]
    pair = np.take_along_axis(eigvals, order, axis=-1)
    swap = pair[..., 0] > pair[..., 1]
    i = np.where(swap, order[..., 1], order[..., 0])
    j = np.where(swap, order[..., 0], order[..., 1])
    gap = np.abs(pair[..., 1] - pair[..., 0])
    degenerate = np.minimum(gap, np.abs(omega_d - gap)) < _DEGENERACY_RTOL * omega_d
    return i, j, degenerate


def _select_central_pair(
    eigvals: np.ndarray, omega_d: float
) -> tuple[int, int]:
    """:func:`_central_pairs` of one spectrum; a degenerate gap raises
    :class:`DegenerateGapError`."""
    i, j, degenerate = _central_pairs(eigvals, omega_d)
    if degenerate:
        raise DegenerateGapError(
            "quasienergy gap at 0 or omega_d: branch labels undefined "
            f"(eps = {eigvals[i]}, {eigvals[j]})"
        )
    return int(i), int(j)


def solve_floquet(stack: np.ndarray, omega_d: np.ndarray):
    """Central quasienergies and gauge-fixed mode harmonics of a stack of
    Floquet matrices ``(rows, dim, dim)`` at drive frequencies ``omega_d``
    ``(rows,)``.

    Returns ``(eps_minus, eps_plus, h_plus, h_minus, ok)``: the central pair
    per row, the modes as ``(rows, 2 k_max + 1, 2)`` harmonics, and ``ok``,
    False where the branch labels are undefined.  The central pair is the
    pair of eigenvalues of smallest magnitude; ``eps_plus`` is the larger.
    By the particle-hole symmetry ``C`` (see :func:`_particle_hole`) the
    spectrum is symmetric, the pair is ``(-eps, eps)`` and the minus mode is
    ``C h_plus``, so one eigenvector is solved for.  The eigenvalues come
    from ``eigvalsh``; ``h_plus`` from two steps of inverse iteration, ``x
    <- (H - s)^-1 x`` normalized, with ``s`` 1e-13 of (spectral radius +
    ``omega_d``) above ``eps_plus``, from a fixed start vector.  The mode
    passes when ``||(H - eps_plus) x|| <= 1e-10 sep``, with ``sep`` the
    distance from ``eps_plus`` to the rest of the spectrum (``min(gap,
    omega_d - gap)`` for a converged truncation); that bounds the sine of
    its angle error by 1e-10 (the residual theorem).  A row whose mode
    fails, or whose gap is at 0 or ``omega_d``, gets ``ok`` False.  The
    shift is subtracted from the diagonal in place: a C-contiguous complex
    stack, as :func:`assemble_floquet_matrix` returns, is overwritten, and
    any other is copied first.
    """
    stack = np.ascontiguousarray(stack, dtype=complex)
    rows, dim = stack.shape[:2]
    k_max = (dim // 2 - 1) // 2
    w = np.linalg.eigvalsh(stack)
    i_minus, i_plus, degenerate = _central_pairs(w, omega_d)
    r = np.arange(rows)
    eps_minus, eps_plus = w[r, i_minus], w[r, i_plus]
    # the shift sits _SHIFT_RTOL of (spectral radius + omega_d) above
    # eps_plus, far above the rounding of an LU factorization, so that no
    # pivot is exactly zero where eps_plus is exact (an undriven matrix
    # decouples into 2x2 blocks); the unit-modulus start vector with
    # incommensurate phases overlaps every block and every sigma_x sector
    offset = _SHIFT_RTOL * (np.abs(w).max(axis=1) + omega_d)
    stack.reshape(rows, -1)[:, :: dim + 1] -= (eps_plus + offset)[:, None]
    x = np.broadcast_to(np.exp(1j * np.arange(dim)), (rows, dim))
    for _ in range(2):
        x = np.linalg.solve(stack, x[..., None])[..., 0]
        x /= np.linalg.norm(x, axis=1, keepdims=True)
    # entries below the rounding floor are what is left of the start vector
    # where the mode is exactly zero (outside a decoupled block); zeroing
    # them keeps such modes exact, as at the undriven sweet spot, g_z = 0
    x[np.abs(x) < np.finfo(float).eps] = 0.0
    # ||(H - eps_plus) x||, with the stack holding H - eps_plus - offset
    residual = np.linalg.norm(
        np.einsum("rij,rj->ri", stack, x) + offset[:, None] * x, axis=1
    )
    # the residual theorem's separation: eps_plus to the rest of the
    # spectrum, min(gap, omega_d - gap) once the truncation converges
    distance = np.abs(w - eps_plus[:, None])
    distance[r, i_plus] = np.inf
    ok = ~degenerate & (residual <= _RESIDUAL_RTOL * distance.min(axis=1))
    h_plus = _gauge_fix(x.reshape(rows, -1, 2), k_max)
    return eps_minus, eps_plus, h_plus, _minus_mode(h_plus, k_max), ok


def _minus_mode(h_plus: np.ndarray, k_max: int) -> np.ndarray:
    """The gauge-fixed minus modes ``C h_plus`` of stacked plus modes."""
    return _gauge_fix(_particle_hole(h_plus), k_max)


def _su2_entries(delta: float, long_coefs, dt):
    """Entries ``(a, b)`` of ``exp(-i H dt) = [[a, -b*], [b, a*]]`` for
    ``H = -(delta/2) Z + c X``, broadcast over ``c`` and ``dt``."""
    cx = np.asarray(long_coefs, dtype=float)
    cz = -0.5 * delta
    norm = np.hypot(cx, cz)
    theta = norm * dt
    sinc = np.where(norm > 0.0, np.sin(theta) / np.where(norm > 0, norm, 1.0), dt)
    return np.cos(theta) - 1j * sinc * cz, -1j * sinc * cx


def _su2_matrices(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The matrices ``[[a, -b*], [b, a*]]`` for entries ``a`` and ``b``
    (arrays or scalars)."""
    out = np.empty(np.shape(a) + (2, 2), dtype=complex)
    out[..., 0, 0], out[..., 0, 1] = a, -np.conj(b)
    out[..., 1, 0], out[..., 1, 1] = b, np.conj(a)
    return out


def _tree_product(mats: np.ndarray) -> np.ndarray:
    """Ordered product mats[-1] @ ... @ mats[0] by pairwise reduction."""
    while mats.shape[0] > 1:
        if mats.shape[0] % 2 == 1:
            tail, mats = mats[-1:], mats[:-1]
            mats = np.concatenate([np.matmul(mats[1::2], mats[0::2]), tail])
        else:
            mats = np.matmul(mats[1::2], mats[0::2])
    return mats[0]


def _su2_mul(a2, b2, a1, b1):
    """Entries of the product ``step2 @ step1`` of the SU(2) matrices
    ``[[a, -b*], [b, a*]]`` (arrays or scalars)."""
    return a2 * a1 - np.conj(b2) * b1, b2 * a1 + np.conj(a2) * b1


def _su2_tree_product(a: np.ndarray, b: np.ndarray):
    """Entries of the ordered product of the SU(2) steps ``(a, b)`` along the
    last axis, latest step leftmost, paired as in :func:`_tree_product`."""
    while a.shape[-1] > 1:
        m = a.shape[-1] - a.shape[-1] % 2
        pa, pb = _su2_mul(a[..., 1:m:2], b[..., 1:m:2], a[..., 0:m:2], b[..., 0:m:2])
        if m < a.shape[-1]:
            pa = np.concatenate([pa, a[..., m:]], axis=-1)
            pb = np.concatenate([pb, b[..., m:]], axis=-1)
        a, b = pa, pb
    return a[..., 0], b[..., 0]


def _su2_prefix_products(a: np.ndarray, b: np.ndarray):
    """Entries of the ordered prefixes ``step[i] @ ... @ step[0]`` of the
    SU(2) steps ``[[a, -b*], [b, a*]]``, by a doubling scan: after the pass
    of stride ``s`` entry ``i`` holds the product of the up to ``2 s`` steps
    that end at ``i``, so ``ceil(log2 n)`` passes over the arrays do it."""
    a, b = np.array(a, dtype=complex), np.array(b, dtype=complex)
    s = 1
    while s < a.size:
        a[s:], b[s:] = _su2_mul(a[s:], b[s:], a[:-s], b[:-s])
        s *= 2
    return a, b


def _prefix_products(mats: np.ndarray) -> np.ndarray:
    """Ordered prefixes ``out[i] = mats[i] @ ... @ mats[0]``.

    The steps are cut into blocks of about ``sqrt(n)``: a serial pass inside
    the blocks, batched over them, then one pass over the block totals whose
    running products multiply each block, so both serial passes are about
    ``sqrt(n)`` long.  Each block meets its carry in one 2-D product of its
    stacked rows, which gives the bits of the per-step products at less cost
    per call.
    """
    n, d = mats.shape[0], mats.shape[-1]
    block = math.isqrt(n - 1) + 1   # ceil(sqrt(n))
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
    return (out.reshape(n_blocks, block * d, d) @ carry).reshape(-1, d, d)[:n]


def _midpoint_steps(
    drive: DriveSpec, coeffs: EffectiveCoefficients, t_mid_us, h, scale=1.0
):
    """Entries ``(a, b)`` of the steps ``exp(-i h H(t_mid_us) scale)``, ``H =
    -(delta/2) Z + (B/2 + A P(t)) X`` in rad/us (see :func:`_su2_entries`):
    the one step rule of the gate frame and the propagator reference."""
    cx = (0.5 * coeffs.b_coef + coeffs.a_coef * drive.waveform(t_mid_us)) * scale
    return _su2_entries(coeffs.delta * scale, cx, h)


def _period_steps(
    drive: DriveSpec, coeffs: EffectiveCoefficients, substeps: int, lo: int, hi: int
):
    """Entries ``(a, b)`` of the midpoint step propagators ``lo .. hi - 1``
    of one period split into ``substeps`` (see :func:`_midpoint_steps`);
    step ``m`` takes the drive at ``(m + 1/2) T / substeps`` whatever the
    range, so the blocks of a period join up."""
    dt = drive.period / substeps
    return _midpoint_steps(drive, coeffs, (np.arange(lo, hi) + 0.5) * dt, dt)


def _block_carries(
    drive: DriveSpec, coeffs: EffectiveCoefficients, substeps: int
) -> list:
    """Entries of ``U(t_lo)`` at the start of each block of
    ``_REFERENCE_BLOCK`` steps, then of the monodromy ``U(T)``: each block's
    steps are reduced by :func:`_su2_tree_product` and the totals chained."""
    carries = [(1.0 + 0.0j, 0.0j)]
    for lo in range(0, substeps, _REFERENCE_BLOCK):
        hi = min(lo + _REFERENCE_BLOCK, substeps)
        steps = _period_steps(drive, coeffs, substeps, lo, hi)
        carries.append(_su2_mul(*_su2_tree_product(*steps), *carries[-1]))
    return carries


def _quasienergies_from_monodromy(
    u_period: np.ndarray, omega_d: float, period: float
) -> tuple[np.ndarray, np.ndarray]:
    vals, vecs = np.linalg.eig(u_period)
    vals = vals / np.abs(vals)
    eps = np.array([fold_to_zone(-cmath.phase(v) / period, omega_d) for v in vals])
    # re-orthonormalize the eigenvector pair (monodromy is unitary => normal)
    q, _ = np.linalg.qr(vecs)
    return eps, q


def reference_floquet_via_propagator(
    drive: DriveSpec,
    coeffs: EffectiveCoefficients,
    substeps: int = 49152,
    k_max: int | None = None,
) -> FloquetSolution:
    """Truncation-free reference solution of the model ``coeffs`` under
    ``drive`` from the one-period propagator.

    Builds the time-ordered propagator by piecewise-constant exponentials on
    a uniform grid and maps the monodromy eigenphases into the first zone.
    The mode harmonics are the DFT of ``exp(i eps t) U(t) |mode(0)>`` on that
    grid at ``|k| <= k_max``.  Two walks over the period in blocks of
    ``_REFERENCE_BLOCK`` steps do it: the first chains the block totals into
    the monodromy, the second rebuilds each block's prefixes from its carry
    and adds the block's share of the harmonics, so memory is O(block +
    k_max * _DFT_WIDTH), not O(substeps).  Raises :class:`IntegrationError`
    when halving the substep count moves a quasienergy by more than ``1e-9``
    of the drive frequency.
    """
    if substeps < 1000:
        raise InvalidParameterError("substeps must be at least 1000 per period")
    if k_max is None:
        k_max = 3 * max(drive.n, 1)
    period = drive.period
    omega_d = drive.omega_d

    carries = _block_carries(drive, coeffs, substeps)
    eps, vecs = _quasienergies_from_monodromy(
        _su2_matrices(*carries[-1]), omega_d, period
    )
    coarse = _block_carries(drive, coeffs, substeps // 2)[-1]
    eps_coarse, _ = _quasienergies_from_monodromy(
        _su2_matrices(*coarse), omega_d, period
    )
    drift = np.max(np.abs(np.sort(eps) - np.sort(eps_coarse)))
    if drift > 1e-9 * omega_d:
        raise IntegrationError(
            f"propagator not converged: quasienergies moved by {drift} "
            f"rad/us when halving the step"
        )

    i, j = _select_central_pair(eps, omega_d)
    eps_minus, eps_plus = float(eps[i]), float(eps[j])
    modes, eps_pair = vecs[:, [j, i]], np.array([eps_plus, eps_minus])

    # x(t) = exp(i eps t) U(t) |mode(0)> is T-periodic, so its harmonics
    # are sums over t_m = m T / substeps for m = 1 .. substeps
    dt = period / substeps
    ks = np.arange(-k_max, k_max + 1)
    dft = np.exp(-2j * np.pi / substeps * np.outer(ks, np.arange(_DFT_WIDTH)))
    phase = np.exp(1j * np.outer(np.arange(_REFERENCE_BLOCK) * dt, eps_pair))

    def block_sums(lo: int, carry) -> np.ndarray:
        """The block's share, m = lo + 1 .. hi, of the harmonic sums: rows
        k, columns (component, mode)."""
        hi = min(lo + _REFERENCE_BLOCK, substeps)
        # x(t_m) = exp(i eps t_m) P_(m - lo - 1) U(t_lo) |mode(0)>, P the
        # in-block prefixes of the steps (one expression, so the steps and
        # prefixes are freed as soon as they are used)
        start = (_su2_matrices(*carry) @ modes) * np.exp(1j * (lo + 1) * dt * eps_pair)
        x = _su2_matrices(
            *_su2_prefix_products(*_period_steps(drive, coeffs, substeps, lo, hi))
        ).reshape(-1, 2) @ start
        x = x.reshape(-1, 2, 2)
        x *= phase[: hi - lo, None]
        x = x.reshape(-1, 4)
        pad = -(hi - lo) % _DFT_WIDTH
        if pad:
            x = np.concatenate([x, np.zeros((pad, 4))])
        # exp(-i k omega_d t_m) = dft[k, r] times one twiddle per piece of
        # _DFT_WIDTH steps, its phase reduced modulo 2 pi in integers
        starts = lo + 1 + _DFT_WIDTH * np.arange(x.shape[0] // _DFT_WIDTH)
        twiddle = np.exp(-2j * np.pi / substeps * (np.outer(starts, ks) % substeps))
        return np.einsum("jk,jkc->kc", twiddle, dft @ x.reshape(-1, _DFT_WIDTH, 4))

    blocks = range(0, substeps, _REFERENCE_BLOCK)
    h = sum(block_sums(lo, carry) for lo, carry in zip(blocks, carries))

    def harmonics(mode: int) -> np.ndarray:
        hm = h.reshape(-1, 2, 2)[:, :, mode]
        return _gauge_fix(hm / np.linalg.norm(hm), k_max)

    return FloquetSolution(eps_plus, eps_minus, harmonics(0), harmonics(1))


def _corr(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``c[..., k] = sum_i a[i+k]^dagger sigma_x b[i]`` for stacked harmonics
    of shape ``(..., nb, 2)``, ``k in [-(nb - 1), nb - 1]``.

    Row ``k`` of the sliding windows of the zero-padded, flattened ``a``
    holds ``a[i+k]``, so the correlation is one matrix-vector product per
    stacked row: no product spans the stack axis, and a row's bits do not
    depend on the rows beside it.
    """
    nb = a.shape[-2]
    pad = np.zeros(a.shape[:-2] + (3 * nb - 2, 2), dtype=complex)
    pad[..., nb - 1 : 2 * nb - 1, :] = a.conj()
    flat = pad.reshape(pad.shape[:-2] + (-1,))
    windows = np.lib.stride_tricks.sliding_window_view(flat, 2 * nb, axis=-1)
    bx = b[..., ::-1].reshape(b.shape[:-2] + (2 * nb, 1))
    return (windows[..., ::2, :] @ bx)[..., 0]


def compute_filter_weights(h_plus: np.ndarray, h_minus: np.ndarray):
    """Filter weights ``(g_z, g_plus, g_minus)`` of stacked modes ``(...,
    2 k_max + 1, 2)`` by exact discrete convolution of the mode harmonics,
    each ``(..., 4 k_max + 1)``.

    The arrays span ``k in [-2 k_max, 2 k_max]`` -- the full support of the
    harmonic convolution -- so the completeness (Parseval) sum closes to the
    accuracy of the Floquet solution itself.  ``sigma_x`` is Hermitian, so
    ``g_minus[k] = conj(g_plus[-k])``.
    """
    g_plus = _corr(h_plus, h_minus)
    g_z = 0.5 * (_corr(h_plus, h_plus) - _corr(h_minus, h_minus))
    return g_z, g_plus, g_plus[..., ::-1].conj()


def mode_infidelity(a: FloquetSolution, b: FloquetSolution) -> float:
    """1 - |<mode_a(0)|mode_b(0)>| for the upper-branch modes at t = 0."""
    va = np.asarray(a.harmonics_plus).sum(axis=0)
    vb = np.asarray(b.harmonics_plus).sum(axis=0)
    na, nb = np.linalg.norm(va), np.linalg.norm(vb)
    if na == 0.0 or nb == 0.0:
        return 1.0
    return float(1.0 - abs(np.vdot(va, vb)) / (na * nb))
