"""Floquet analysis of the periodically modulated two-level qubit.

The driven model is

    H(t) = -(delta/2) sigma_z + (B/2 + A P(t)) sigma_x,

with basis order (ground, excited), so the splitting sits on the diagonal and
the flux modulation couples through ``sigma_x``.  ``P(t)`` is a real periodic
waveform given by complex Fourier coefficients ``p_0 .. p_n`` (negative
harmonics implied by conjugation).

Two independent solvers are provided: the truncated Floquet block matrix
(production path) and a one-period propagator reference that never builds the
block matrix (validation path).  Filter weights -- the Fourier coefficients of
the flux-coupling operator expressed in the Floquet frame -- are computed by
exact discrete convolution of the mode harmonics; a time-grid FFT evaluation
is kept as a cross-check oracle.
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
    "filter_weights_time_grid",
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


@dataclass(frozen=True)
class DriveSpec:
    """Periodic flux modulation.

    ``p`` holds the Fourier coefficients ``p_0 .. p_n`` of the waveform
    ``P(t) = sum_n p_n exp(i n omega_d t)`` with ``p_{-n} = conj(p_n)``;
    ``p_0`` must be real in [0, 1] and the higher harmonics must stay inside
    the unit box in both quadratures (the search-space constraint, enforced
    on construction).  ``phi_dc``/``phi_ac`` record the flux working point
    the coefficients refer to.
    """

    phi_dc: float
    phi_ac: float
    omega_d: float
    p: tuple = field(default_factory=lambda: (0.0 + 0.0j,))

    def __post_init__(self) -> None:
        p = np.asarray(self.p, dtype=complex)
        if p.ndim != 1 or p.size < 1:
            raise InvalidParameterError("p must be a 1-d sequence p_0..p_n")
        if self.omega_d <= 0.0:
            raise InvalidParameterError(f"omega_d must be positive, got {self.omega_d}")
        p0 = p[0]
        if abs(p0.imag) > _BOX_TOL:
            raise InvalidParameterError(f"p_0 must be real, got {p0}")
        if not -_BOX_TOL <= p0.real <= 1.0 + _BOX_TOL:
            raise InvalidParameterError(f"p_0 must lie in [0, 1], got {p0.real}")
        hi = 1.0 + _BOX_TOL
        if p.size > 1 and (
            np.any(np.abs(p[1:].real) > hi) or np.any(np.abs(p[1:].imag) > hi)
        ):
            raise InvalidParameterError(
                "Re p_k and Im p_k must lie in [-1, 1] for k >= 1"
            )
        object.__setattr__(self, "p", tuple(complex(x) for x in p))

    @property
    def n(self) -> int:
        """Truncation order of the waveform (highest retained harmonic)."""
        return len(self.p) - 1

    @property
    def period(self) -> float:
        return 2.0 * np.pi / self.omega_d

    def waveform(self, t):
        """Real modulation waveform P(t); accepts scalars or arrays."""
        t = np.asarray(t, dtype=float)
        out = np.full(t.shape, self.p[0].real)
        for k in range(1, len(self.p)):
            out = out + 2.0 * (self.p[k] * np.exp(1j * k * self.omega_d * t)).real
        return out if out.shape else float(out)


@dataclass(frozen=True)
class FloquetSolution:
    """Quasienergies and stacked mode harmonics of one driven working point.

    ``harmonics_plus``/``harmonics_minus`` have shape ``(2 k_max + 1, 2)``;
    row ``i`` is the harmonic ``k = i - k_max`` of the corresponding periodic
    mode, normalized so the stacked vector has unit norm and gauge-fixed so
    the dominant entry of the central harmonic block is real and positive.
    """

    eps_plus: float
    eps_minus: float
    omega_gap: float
    harmonics_plus: np.ndarray
    harmonics_minus: np.ndarray
    k_max: int
    omega_d: float

    def mode_at(self, t, which: str = "plus") -> np.ndarray:
        """Periodic mode as a 2-vector at times ``t`` (shape (..., 2))."""
        h = self.harmonics_plus if which == "plus" else self.harmonics_minus
        t = np.atleast_1d(np.asarray(t, dtype=float))
        ks = np.arange(-self.k_max, self.k_max + 1)
        phases = np.exp(1j * np.outer(t, ks) * self.omega_d)
        return phases @ h


@dataclass(frozen=True)
class FilterWeights:
    """Harmonic filter weights of the flux-coupling operator.

    ``g_z`` (dephasing channel) and ``g_plus``/``g_minus`` (relaxation
    channels) are complex arrays indexed ``k in [-k_max, k_max]``.  The
    normalization constants of the underlying operator decomposition are
    fixed: ``a_z = 4``, ``a_pm = 1``, ``b_z = 2``, ``b_pm = 1``.
    """

    g_z: np.ndarray
    g_plus: np.ndarray
    g_minus: np.ndarray
    k_max: int

    a_z: float = 4.0
    a_pm: float = 1.0
    b_z: float = 2.0
    b_pm: float = 1.0

    def index(self, k: int) -> int:
        if abs(k) > self.k_max:
            raise IndexError(f"harmonic {k} outside [-{self.k_max}, {self.k_max}]")
        return k + self.k_max

    @property
    def g_z0(self) -> complex:
        """Central dephasing weight; vanishes at a dynamical sweet spot."""
        return self.g_z[self.k_max]

    @property
    def ks(self) -> np.ndarray:
        return np.arange(-self.k_max, self.k_max + 1)

    def parseval_sum(self) -> float:
        """Completeness sum; equals 1 for an exact Floquet solution."""
        return float(
            0.5 * np.sum(np.abs(self.g_plus) ** 2)
            + 0.5 * np.sum(np.abs(self.g_minus) ** 2)
            + np.sum(np.abs(self.g_z) ** 2)
        )


def fold_to_zone(x: float, omega: float) -> float:
    """Fold ``x`` into the first zone (-omega/2, omega/2]."""
    y = (x + 0.5 * omega) % omega - 0.5 * omega
    if np.isclose(y, -0.5 * omega, rtol=0.0, atol=1e-12 * omega):
        y = 0.5 * omega
    return float(y)


def _two_sided_coefficients(drive: DriveSpec, k_max: int) -> np.ndarray:
    """Drive coefficients ``p_k``, ``|k| <= k_max``: ``p_{-k} = conj(p_k)``,
    ``Re p_0`` (the box check tolerates round-off in ``Im p_0``), and zero
    beyond the drive order."""
    p = np.asarray(drive.p, dtype=complex)[: k_max + 1]
    p[0] = p[0].real
    out = np.zeros(2 * k_max + 1, dtype=complex)
    out[k_max - p.size + 1 : k_max + 1] = p[::-1].conj()
    out[k_max : k_max + p.size] = p
    return out


def assemble_floquet_matrix(
    drive: DriveSpec,
    coeffs: EffectiveCoefficients,
    delta: float,
    k_max: int,
) -> np.ndarray:
    """Truncated Floquet block matrix of dimension ``2 (2 k_max + 1)``.

    Shirley's form ``diag(k omega_d) (x) I - (delta/2) I (x) sigma_z +
    T (x) sigma_x``, where the Hermitian Toeplitz matrix ``T`` holds
    ``A p_{i-j}`` off the diagonal and ``B/2 + A p_0`` on it.
    """
    if k_max < drive.n:
        raise TruncationError(
            f"k_max={k_max} would drop drive harmonics up to n={drive.n}"
        )
    nb = 2 * k_max + 1
    band = coeffs.a_coef * _two_sided_coefficients(drive, nb - 1)
    idx = np.arange(nb)
    t = band[nb - 1 + idx[:, None] - idx]
    t[np.diag_indices(nb)] += 0.5 * coeffs.b_coef
    m = np.kron(t, PAULI_X)
    k_omega = np.arange(-k_max, k_max + 1) * drive.omega_d
    m[np.diag_indices(2 * nb)] = np.column_stack(
        (k_omega - 0.5 * delta, k_omega + 0.5 * delta)
    ).ravel()
    return m


def _gauge_fix(h: np.ndarray, k_max: int) -> np.ndarray:
    """Rotate a stacked mode so its dominant central-block entry is real >= 0."""
    central = h[k_max]
    idx = int(np.argmax(np.abs(central)))
    pivot = central[idx]
    if abs(pivot) < 1e-14:
        flat = int(np.argmax(np.abs(h.ravel())))
        pivot = h.ravel()[flat]
    if abs(pivot) == 0.0:
        return h
    return h * (abs(pivot) / pivot)


def _select_central_pair(
    eigvals: np.ndarray, omega_d: float
) -> tuple[int, int]:
    """Indices of the smallest-|value| eigenpair, minus branch first.

    A gap within ``_DEGENERACY_RTOL omega_d`` of 0 or of ``omega_d`` leaves
    the branch labels undefined: at the zone edge ``eps = -/+ omega_d / 2``
    are replicas of one state, and which pair ``argsort`` picks from the
    tie depends on round-off.
    """
    order = np.argsort(np.abs(eigvals), kind="stable")
    i, j = order[0], order[1]
    if eigvals[i] > eigvals[j]:
        i, j = j, i
    gap = eigvals[j] - eigvals[i]
    if min(gap, abs(omega_d - gap)) < _DEGENERACY_RTOL * omega_d:
        raise DegenerateGapError(
            "quasienergy gap at 0 or omega_d: branch labels undefined "
            f"(eps = {eigvals[i]}, {eigvals[j]})"
        )
    return int(i), int(j)


def solve_floquet(matrix: np.ndarray, omega_d: float) -> FloquetSolution:
    """Quasienergies and gauge-fixed mode harmonics of an assembled matrix.

    Selects the eigenpair with the smallest absolute eigenvalues as the
    central representatives; ``eps_plus`` is the larger of the two.
    """
    dim = matrix.shape[0]
    nb = dim // 2
    if dim % 2 != 0 or nb % 2 != 1:
        raise InvalidParameterError(f"matrix dimension {dim} is not 2(2k+1)")
    k_max = (nb - 1) // 2
    w, v = np.linalg.eigh(matrix)
    i_minus, i_plus = _select_central_pair(w, omega_d)
    h_plus = _gauge_fix(v[:, i_plus].reshape(nb, 2), k_max)
    h_minus = _gauge_fix(v[:, i_minus].reshape(nb, 2), k_max)
    eps_minus, eps_plus = float(w[i_minus]), float(w[i_plus])
    return FloquetSolution(
        eps_plus=eps_plus,
        eps_minus=eps_minus,
        omega_gap=eps_plus - eps_minus,
        harmonics_plus=h_plus,
        harmonics_minus=h_minus,
        k_max=k_max,
        omega_d=omega_d,
    )


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


def _su2_tree_product(a: np.ndarray, b: np.ndarray):
    """Entries of the ordered product of the SU(2) steps ``(a, b)`` along the
    last axis, latest step leftmost, paired as in :func:`_tree_product`."""
    while a.shape[-1] > 1:
        m = a.shape[-1] - a.shape[-1] % 2
        a1, b1 = a[..., 0:m:2], b[..., 0:m:2]
        a2, b2 = a[..., 1:m:2], b[..., 1:m:2]
        a = np.concatenate([a2 * a1 - b2.conj() * b1, a[..., m:]], axis=-1)
        b = np.concatenate([b2 * a1 + a2.conj() * b1, b[..., m:]], axis=-1)
    return a[..., 0], b[..., 0]


def _su2_prefix_products(a: np.ndarray, b: np.ndarray):
    """Entries of the ordered prefixes ``step[i] @ ... @ step[0]`` of the
    SU(2) steps ``[[a, -b*], [b, a*]]``, by a doubling scan: after the pass
    of stride ``s`` entry ``i`` holds the product of the up to ``2 s`` steps
    that end at ``i``, so ``ceil(log2 n)`` passes over the arrays do it."""
    a, b = np.array(a, dtype=complex), np.array(b, dtype=complex)
    s = 1
    while s < a.size:
        a1, b1, a2, b2 = a[:-s], b[:-s], a[s:], b[s:]
        a[s:], b[s:] = a2 * a1 - b2.conj() * b1, b2 * a1 + a2.conj() * b1
        s *= 2
    return a, b


def _prefix_products(mats: np.ndarray) -> np.ndarray:
    """Ordered prefixes ``out[i] = mats[i] @ ... @ mats[0]``.

    The steps are cut into blocks of about ``sqrt(n)``: a serial pass inside
    the blocks, batched over them, then one pass over the block totals whose
    running products multiply each block, so both serial passes are about
    ``sqrt(n)`` long.
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
    return (out @ carry[:, None]).reshape(-1, d, d)[:n]


def _period_steps(
    drive: DriveSpec,
    coeffs: EffectiveCoefficients,
    delta: float,
    substeps: int,
):
    """Entries ``(a, b)`` of the midpoint step propagators of one period
    split into ``substeps`` (see :func:`_su2_entries`)."""
    dt = drive.period / substeps
    t_mid = (np.arange(substeps) + 0.5) * dt
    cx = 0.5 * coeffs.b_coef + coeffs.a_coef * drive.waveform(t_mid)
    return _su2_entries(delta, cx, dt)


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
    delta: float,
    substeps: int = 49152,
    k_max: int | None = None,
) -> FloquetSolution:
    """Truncation-free reference solution from the one-period propagator.

    Builds the time-ordered propagator by piecewise-constant exponentials on
    a uniform grid, maps the monodromy eigenphases into the first zone, and
    recovers the mode harmonics from one FFT of ``exp(i eps t) U(t)
    |mode(0)>`` on that grid, so memory stays O(substeps) whatever
    ``k_max``.  Raises :class:`IntegrationError` when halving the substep
    count moves a quasienergy by more than ``1e-9`` of the drive frequency.
    """
    if substeps < 1000:
        raise InvalidParameterError("substeps must be at least 1000 per period")
    if k_max is None:
        k_max = 3 * max(drive.n, 1)
    period = drive.period
    omega_d = drive.omega_d

    a, b = _su2_prefix_products(*_period_steps(drive, coeffs, delta, substeps))
    monodromy = _su2_matrices(a[-1], b[-1])
    eps, vecs = _quasienergies_from_monodromy(monodromy, omega_d, period)

    coarse = _su2_tree_product(*_period_steps(drive, coeffs, delta, substeps // 2))
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

    # the entries of U(t_m) at t_m = m T / substeps, m = 0 .. substeps - 1
    a = np.concatenate([[1.0], a[:-1]])
    b = np.concatenate([[0.0], b[:-1]])
    ts = np.arange(substeps) * (period / substeps)
    ks = np.arange(-k_max, k_max + 1)

    def harmonics(idx: int, eps_val: float) -> np.ndarray:
        v0, v1 = vecs[:, idx]
        traj = np.stack([a * v0 - b.conj() * v1, b * v0 + a.conj() * v1], axis=1)
        traj *= np.exp(1j * eps_val * ts)[:, None]
        h = np.fft.fft(traj, axis=0)[ks % substeps]
        h /= np.linalg.norm(h)
        return _gauge_fix(h, k_max)

    return FloquetSolution(
        eps_plus=eps_plus,
        eps_minus=eps_minus,
        omega_gap=eps_plus - eps_minus,
        harmonics_plus=harmonics(j, eps_plus),
        harmonics_minus=harmonics(i, eps_minus),
        k_max=k_max,
        omega_d=omega_d,
    )


def _corr(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``c[k] = sum_i a[i+k]^dagger sigma_x b[i]`` for stacked harmonics of
    shape ``(nb, 2)``, ``k in [-(nb - 1), nb - 1]``."""
    return sum(np.convolve(a[:, c].conj(), b[::-1, 1 - c]) for c in (0, 1))


def compute_filter_weights(sol: FloquetSolution) -> FilterWeights:
    """Filter weights by exact discrete convolution of the mode harmonics.

    The returned arrays span ``k in [-2 k_max, 2 k_max]`` -- the full support
    of the harmonic convolution -- so the completeness (Parseval) sum closes
    to the accuracy of the Floquet solution itself.  ``sigma_x`` is
    Hermitian, so ``g_minus[k] = conj(g_plus[-k])``.
    """
    hp, hm = sol.harmonics_plus, sol.harmonics_minus
    g_plus = _corr(hp, hm)
    return FilterWeights(
        g_z=0.5 * (_corr(hp, hp) - _corr(hm, hm)),
        g_plus=g_plus,
        g_minus=g_plus[::-1].conj(),
        k_max=2 * sol.k_max,
    )


def filter_weights_time_grid(
    sol: FloquetSolution, n_samples: int = 4096
) -> FilterWeights:
    """Filter weights from a uniform time grid (FFT cross-check oracle)."""
    big_k = 2 * sol.k_max
    ts = np.arange(n_samples) * (2.0 * np.pi / sol.omega_d) / n_samples
    wp = sol.mode_at(ts, "plus")
    wm = sol.mode_at(ts, "minus")
    f_z = np.einsum("ta,ab,tb->t", wp.conj(), PAULI_X, wp) - np.einsum(
        "ta,ab,tb->t", wm.conj(), PAULI_X, wm
    )
    f_plus = np.einsum("ta,ab,tb->t", wp.conj(), PAULI_X, wm)
    f_minus = np.einsum("ta,ab,tb->t", wm.conj(), PAULI_X, wp)
    ks = np.arange(-big_k, big_k + 1)
    proj = np.exp(1j * np.outer(ks, sol.omega_d * ts)) / n_samples
    return FilterWeights(
        g_z=(proj @ f_z) / 2.0,
        g_plus=proj @ f_plus,
        g_minus=proj @ f_minus,
        k_max=big_k,
    )


def mode_infidelity(a: FloquetSolution, b: FloquetSolution) -> float:
    """1 - |<mode_a(0)|mode_b(0)>| for the upper-branch modes at t = 0."""
    va = np.asarray(a.harmonics_plus).sum(axis=0)
    vb = np.asarray(b.harmonics_plus).sum(axis=0)
    na, nb = np.linalg.norm(va), np.linalg.norm(vb)
    if na == 0.0 or nb == 0.0:
        return 1.0
    return float(1.0 - abs(np.vdot(va, vb)) / (na * nb))
