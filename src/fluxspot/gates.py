"""Gate design at a modulated operating point.

Control pulses add a transverse drive ``f(t) sigma_y`` on top of the running
flux modulation.  All gate dynamics happen in the rotating frame of the
modulated qubit Hamiltonian.  A :class:`ControlContext` is that frame: the
SU(2) samples ``R_k`` that :func:`rotating_frame_trajectory` integrates,
with one job's step length, qubit count and coupling.  Step ``k`` sees
every lab-frame operator ``O`` of :func:`_static_operators` as
``R_k^dag O R_k``, and no stack of conjugated operators is ever built.  A
``grape`` pass evaluates the point and integrates the frame once per
genome, ``phi_ac``, duration, steps and substeps, and stores the samples
in the pulse artifact; ``simulate`` replays them and integrates none.

GRAPE runs in the interaction picture of that frame.  With ``W`` the
sigma_y eigenbasis and ``T = W`` (one qubit) or ``W (x) W`` (two),
``E_k = R_k^dag T`` turns each step Hamiltonian into a real matrix made of
2x2 blocks ``s Z + J X``, so each step is ``E_k B_k E_k^dag`` with ``B_k``
a closed form, and so is ``B_k^dag dB_k/ds``.  One forward scan of
``C_k = F_k B_k``, ``F_k = E_{k+1}^dag E_k`` the frame increments, gives
the propagator and every exact gradient (Khaneja et al., J. Magn. Reson.
172, 296 (2005)) with no eigenvectors, no divided differences and no
matrix function call; for one qubit every ``C_k`` is in SU(2) and the scan
runs on entry arrays.  Pulses are parametrized in the frequency domain and
pushed through a fixed constraint pipeline (boundary window, amplitude
sigmoid, spectral band-limit); gradients are exact through both the steps
and the pipeline.

Times in this module are nanoseconds and rates rad/ns; the drive and qubit
parameters arrive in the library's rad/us convention and are converted on
entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .circuit import EffectiveCoefficients
from .exceptions import IntegrationError, InvalidParameterError, check_finite
from .floquet import (
    LOWERING,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    DriveSpec,
    _midpoint_steps,
    _prefix_products,
    _su2_matrices,
    _su2_prefix_products,
    _su2_tree_product,
)
from .units import RAD_PER_US_TO_RAD_PER_NS, TWO_PI

__all__ = [
    "PulseSpec",
    "ControlContext",
    "GateTarget",
    "GrapeSettings",
    "PulseResult",
    "TARGETS",
    "gate_target",
    "rotating_frame_trajectory",
    "shape_pulse",
    "propagate_closed",
    "gate_fidelity",
    "grape_gradient",
    "optimize_pulse",
]

#: tolerated amplitude overshoot from spectral ringing after the band-limit
GIBBS_TOL = 0.02

#: Adam's step size and the decay rates of its two moment estimates
ADAM_STEP = 0.08
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
#: standard deviation of the random initial pulse parameters
INIT_SCALE = 0.1
#: weights of the penalties on amplitude above f_max and on the end samples
AMPLITUDE_PENALTY = 25.0
EDGE_PENALTY = 10.0
#: fidelity at which :func:`optimize_pulse` reports ``converged``
TARGET_FIDELITY = 0.9999

_SQRT2 = np.sqrt(2.0)

#: eigenvectors of sigma_y: W^dag sigma_y W = Z and W^dag sigma_z W = X
_SIGMA_Y_BASIS = np.array([[1.0, 1.0], [1.0j, -1.0j]]) / _SQRT2

#: per qubit count, the diagonal z_c of T^dag C_c T for each sigma_y control
#: C_c (T = W or W (x) W), and the index pairs of the 2x2 blocks into which
#: T^dag H0 T splits (see :func:`_block_steps`)
_CONTROL_SIGNS = {
    1: np.array([[1.0, -1.0]]),
    2: np.array([[1.0, 1.0, -1.0, -1.0], [1.0, -1.0, 1.0, -1.0]]),
}
_BLOCKS = {1: ((0, 1),), 2: ((0, 3), (1, 2))}

TARGETS = {
    "identity": np.eye(2, dtype=complex),
    "x": PAULI_X.copy(),
    "y": PAULI_Y.copy(),
    "sqrt_iswap": np.array(
        [
            [1, 0, 0, 0],
            [0, 1 / _SQRT2, 1j / _SQRT2, 0],
            [0, 1j / _SQRT2, 1 / _SQRT2, 0],
            [0, 0, 0, 1],
        ],
        dtype=complex,
    ),
}


@dataclass(frozen=True)
class GateTarget:
    """A named target unitary."""

    unitary: np.ndarray
    name: str = "custom"

    def __post_init__(self) -> None:
        u = np.asarray(self.unitary, dtype=complex)
        d = u.shape[0]
        if u.shape != (d, d) or not np.allclose(
            u @ u.T.conj(), np.eye(d), atol=1e-12
        ):
            raise InvalidParameterError(f"target {self.name!r} is not unitary")
        object.__setattr__(self, "unitary", u)

    @property
    def dim(self) -> int:
        return self.unitary.shape[0]


def gate_target(name: str) -> GateTarget:
    if name not in TARGETS:
        raise InvalidParameterError(
            f"unknown gate {name!r}; known: {sorted(TARGETS)}"
        )
    return GateTarget(unitary=TARGETS[name], name=name)


@dataclass(frozen=True)
class PulseSpec:
    """Frequency-parametrized control pulse under hardware constraints.

    A pulse's parameters ``theta`` are ``2 n_freq + 1`` real Fourier
    amplitudes per control channel (DC, then cos/sin pairs), concatenated
    across channels.  The rendered waveform passes, in order, a sin^2
    boundary window, the sigmoid ``f_max (2 / (1 + exp(-2 x / f_max)) -
    1)``, which bounds the instantaneous amplitude by ``f_max`` at unit
    small-signal gain, and a hard spectral cutoff above harmonic ``n_freq``.
    The final projection can ring past the amplitude bound by at most
    ``GIBBS_TOL`` (verified on optimized pulses).  ``duration`` and
    ``f_max`` must be finite and positive.
    """

    duration: float
    steps: int = 500
    f_max: float = TWO_PI * 0.1
    n_freq: int = 9
    n_controls: int = 1

    def __post_init__(self) -> None:
        check_finite(duration=self.duration)
        if self.duration <= 0 or self.steps < 8 or self.n_freq < 1:
            raise InvalidParameterError("bad pulse discretization")
        # a NaN or negative bound passes every amplitude check, and 0 divides
        if not (math.isfinite(self.f_max) and self.f_max > 0.0):
            raise InvalidParameterError(
                f"f_max must be finite and positive, got {self.f_max}"
            )

    @property
    def params_per_control(self) -> int:
        return 2 * self.n_freq + 1

    @property
    def dt(self) -> float:
        return self.duration / self.steps

    def sample_times(self) -> np.ndarray:
        """Left-edge step grid; the boundary window vanishes at both ends."""
        return np.arange(self.steps) * self.dt

    def window(self) -> np.ndarray:
        k = np.arange(self.steps)
        w = np.sin(np.pi * k / (self.steps - 1)) ** 2
        w[0] = w[-1] = 0.0   # exact boundary zeros despite pi round-off
        return w

    @cached_property
    def fourier_basis(self) -> np.ndarray:
        """``(2 n_freq + 1, steps)`` rows DC, cos 1, sin 1, cos 2, ... on the
        sample grid, so the unconstrained waveform is ``theta @ basis``."""
        m = np.arange(1, self.n_freq + 1)[:, None]
        arg = TWO_PI * m * self.sample_times() / self.duration
        pairs = np.stack([np.cos(arg), np.sin(arg)], axis=1)
        return np.vstack([np.ones(self.steps), pairs.reshape(-1, self.steps)])


def _shape_stages(theta: np.ndarray, spec: PulseSpec, window: np.ndarray):
    """Forward pass of the constraint pipeline, one control channel per row
    of ``theta`` (or one channel for a 1-D ``theta``); ``window`` is
    ``spec.window()``."""
    raw = theta @ spec.fourier_basis
    windowed = window * raw
    # the gain 2 / f_max makes d bounded / d windowed = 1 at 0
    sig = 1.0 / (1.0 + np.exp(-(2.0 / spec.f_max) * windowed))
    bounded = spec.f_max * (2.0 * sig - 1.0)
    spectrum = np.fft.rfft(bounded)
    spectrum[..., spec.n_freq + 1 :] = 0.0
    final = np.fft.irfft(spectrum, spec.steps)
    return final, (raw, windowed, sig, bounded)


def shape_pulse(theta: np.ndarray, spec: PulseSpec) -> np.ndarray:
    """Rendered waveform samples for one control channel."""
    theta = np.asarray(theta, dtype=float)
    if theta.size != spec.params_per_control:
        raise InvalidParameterError(
            f"theta must have {spec.params_per_control} entries"
        )
    return _shape_stages(theta, spec, spec.window())[0]


def _shape_backward(
    grad_f: np.ndarray, sig: np.ndarray, spec: PulseSpec, window: np.ndarray
) -> np.ndarray:
    """Pull gradients w.r.t. the waveform samples, one channel per row, back
    to the rows of theta; ``sig`` is the sigmoid stage of the forward pass."""
    spectrum = np.fft.rfft(grad_f)
    spectrum[..., spec.n_freq + 1 :] = 0.0
    grad_bounded = np.fft.irfft(spectrum, spec.steps)   # band-limit is self-adjoint
    dsig = spec.f_max * 2.0 * sig * (1.0 - sig) * (2.0 / spec.f_max)
    return (grad_bounded * dsig * window) @ spec.fourier_basis.T


@dataclass(frozen=True)
class ControlContext:
    """The rotating frame of one gate job.

    ``frame[k]`` is the SU(2) frame sample ``U_k`` of one qubit at the
    midpoint of step ``k``; two qubits share it, so their frame is
    ``R_k = U_k (x) U_k`` (one qubit: ``R_k = U_k``).  Step ``k`` sees each
    operator ``O`` of :func:`_static_operators` (drift ``coupling_j *
    (z (x) z)``, ``sigma_y`` controls, lowering and ``sigma_z`` jumps) as
    ``R_k^dag O R_k``.  ``dt`` is the step length in ns and ``coupling_j``
    is in rad/ns and must be finite.

    GRAPE reads the frame through :attr:`_interaction_frame`: the
    increments ``F_k = E_{k+1}^dag E_k`` of ``E_k = R_k^dag T``, in whose
    columns every step is block diagonal (see :func:`_block_steps`), and
    the end samples ``E_0`` and ``E_{n-1}``.  The samples must be unitary
    with determinant 1, so that for one qubit every ``F_k`` is in SU(2).
    """

    frame: np.ndarray
    dt: float
    n_qubits: int = 1
    coupling_j: float = 0.0

    def __post_init__(self) -> None:
        frame = np.array(self.frame, dtype=complex)
        if frame.ndim != 3 or frame.shape[0] < 1 or frame.shape[1:] != (2, 2):
            raise InvalidParameterError(
                f"frame must have shape (steps, 2, 2), got {frame.shape}"
            )
        # before any product, which would warn on a non-finite sample
        if not np.isfinite(frame).all():
            raise InvalidParameterError("frame samples must be finite")
        gram = frame @ frame.conj().transpose(0, 2, 1)
        if np.max(np.abs(gram - np.eye(2))) > 1e-12:
            raise InvalidParameterError("frame samples must be unitary")
        det = frame[:, 0, 0] * frame[:, 1, 1] - frame[:, 0, 1] * frame[:, 1, 0]
        if np.max(np.abs(det - 1.0)) > 1e-12:
            raise InvalidParameterError("frame samples must have determinant 1")
        if self.n_qubits not in (1, 2):
            raise InvalidParameterError("n_qubits must be 1 or 2")
        check_finite(coupling_j=self.coupling_j)
        if self.n_qubits == 1 and self.coupling_j != 0.0:
            raise InvalidParameterError("a single qubit has no coupling")
        if not self.dt > 0.0:
            raise InvalidParameterError("dt must be positive")
        frame.flags.writeable = False
        object.__setattr__(self, "frame", frame)

    @property
    def steps(self) -> int:
        return self.frame.shape[0]

    @property
    def dimension(self) -> int:
        return 2**self.n_qubits

    @property
    def duration(self) -> float:
        return self.steps * self.dt

    @cached_property
    def _interaction_frame(self):
        """``(F, E_0, E_{n-1})``: the ``steps - 1`` increments
        ``F_k = E_{k+1}^dag E_k`` and the end samples of ``E_k = R_k^dag T``,
        with ``T = W`` or ``W (x) W`` and ``W`` the sigma_y eigenbasis.  For
        one qubit ``E_k`` has determinant ``-i`` and ``F_k`` is in SU(2)."""
        e = self.frame.conj().transpose(0, 2, 1) @ _SIGMA_Y_BASIS
        f = e[1:].conj().transpose(0, 2, 1) @ e[:-1]
        if self.n_qubits == 1:
            return f, e[0], e[-1]
        return _kron(f, f), np.kron(e[0], e[0]), np.kron(e[-1], e[-1])


def _static_operators(n_qubits: int, coupling_j: float):
    """The lab-frame operators of a gate job in full dimension: the drift
    ``coupling_j * (z (x) z)`` (zero for one qubit), the ``sigma_y``
    control of each qubit, and each qubit's (lowering, ``sigma_z``) jump
    pair."""
    if n_qubits == 1:
        return np.zeros((2, 2), dtype=complex), (PAULI_Y,), [(LOWERING, PAULI_Z)]
    eye = np.eye(2)

    def on(qubit, op):
        return np.kron(op, eye) if qubit == 0 else np.kron(eye, op)

    return (
        coupling_j * np.kron(PAULI_Z, PAULI_Z),
        (on(0, PAULI_Y), on(1, PAULI_Y)),
        [(on(q, LOWERING), on(q, PAULI_Z)) for q in (0, 1)],
    )


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-step ``kron(a[k], b[k])``; either factor may be one fixed matrix."""
    d = a.shape[-1]
    return np.einsum("...ab,...cd->...acbd", a, b).reshape(-1, d * d, d * d)


def _frame_unitaries(
    drive: DriveSpec, coeffs: EffectiveCoefficients, times_ns: np.ndarray, substeps: int
) -> np.ndarray:
    """U_q at the ascending sample times by piecewise-constant exponentials.

    The integration grid subdivides each inter-sample interval (the first
    one starts at 0) into ``substeps`` steps of :func:`_midpoint_steps`.
    Every step is SU(2), so each segment's steps are reduced on their entry
    arrays by :func:`_su2_tree_product`, on blocks of about sqrt(segments)
    segments to keep memory small, and one prefix scan of the segment
    totals on their entry arrays gives the samples, each projected back onto
    SU(2).
    """
    edges = np.concatenate(([0.0], times_ns))
    starts = edges[:-1, None]
    widths = np.diff(edges)[:, None] / substeps
    n = times_ns.size
    block = math.isqrt(n - 1) + 1
    a = np.empty(n, dtype=complex)
    b = np.empty(n, dtype=complex)
    for lo in range(0, n, block):
        t0, h = starts[lo : lo + block], widths[lo : lo + block]
        mids = t0 + (np.arange(substeps) + 0.5) * h
        # drive waveform lives on the us clock
        steps = _midpoint_steps(drive, coeffs, mids * 1e-3, h, RAD_PER_US_TO_RAD_PER_NS)
        a[lo : lo + block], b[lo : lo + block] = _su2_tree_product(*steps)
    a, b = _su2_prefix_products(a, b)
    # the scan leaves the samples up to ~1e-11 off unitarity; the closed-form
    # block steps would carry that into non-unitary steps, and the context
    # holds its samples to determinant 1, so each is normalized
    norm = np.sqrt(np.abs(a) ** 2 + np.abs(b) ** 2)
    return _su2_matrices(a / norm, b / norm)


def rotating_frame_trajectory(
    drive: DriveSpec,
    coeffs: EffectiveCoefficients,
    duration: float,
    steps: int = 500,
    substeps: int = 1024,
    verify: bool = False,
) -> np.ndarray:
    """The ``(steps, 2, 2)`` SU(2) qubit frame samples on the step-midpoint
    grid of a gate job, for a :class:`ControlContext` of any job on it: the
    qubit model ``coeffs`` under ``drive``.

    ``duration`` in ns; the model and the drive come in rad/us.  The
    samples are integrated with ``substeps`` pieces per sample interval.
    ``steps`` and ``substeps`` must be at least 1 and ``duration``
    positive.  With ``verify=True`` the frame is re-integrated at half the
    substep resolution and any sample moving by more than 1e-9 raises
    :class:`IntegrationError`.  The check is off by default: at the default
    1024 substeps over 10 ns the benchmark points move by 1.4e-9 to 3.4e-9.
    """
    if steps < 1 or substeps < 1 or not duration > 0.0:
        raise InvalidParameterError(
            f"frame grid needs steps >= 1, substeps >= 1 and duration > 0; "
            f"got {steps}, {substeps} and {duration}"
        )
    mids = (np.arange(steps) + 0.5) * (duration / steps)
    us = _frame_unitaries(drive, coeffs, mids, substeps)
    if verify:
        coarse = _frame_unitaries(drive, coeffs, mids, max(substeps // 2, 1))
        drift_err = np.max(np.abs(us - coarse))
        if drift_err > 1e-9:
            raise IntegrationError(
                f"frame integration not converged: samples moved by "
                f"{drift_err:.2e} when halving substeps"
            )
    return us


def _as_waveform_matrix(context: ControlContext, waveforms) -> np.ndarray:
    w = np.asarray(waveforms, dtype=float)
    if w.ndim == 1:
        w = w[None, :]
    if w.shape != (context.n_qubits, context.steps):
        raise InvalidParameterError(
            f"waveforms must have shape ({context.n_qubits}, "
            f"{context.steps}), got {w.shape}"
        )
    if not np.isfinite(w).all():
        raise InvalidParameterError("waveforms must be finite")
    return w


def _block_steps(context: ControlContext, waveforms: np.ndarray):
    """The steps of ``T^dag H0(f_k) T`` on each 2x2 block of :data:`_BLOCKS`.

    ``T^dag H0(f) T`` is real: ``f Z`` for one qubit and
    ``J XX + f1 ZI + f2 IZ`` for two.  On block ``(lo, hi)`` it is
    ``s Z + J X`` with ``s = sum_c f_c z_c[lo]``.  With ``lambda = hypot(s,
    J)`` and ``theta = lambda dt`` the block step is
    ``B = cos(theta) I - i (sin(theta) / lambda) (s Z + J X)
    = [[p, q], [q, p*]]``, and
    ``B^dag dB/ds = -i dt (g_x X + g_y Y + g_z Z)`` with
    ``g_x = (s J / lambda^2) (1 - c1)``, ``g_y = (J / lambda) c2`` and
    ``g_z = (s^2 + c1 J^2) / lambda^2``, where ``c1 = sin(2 theta) /
    (2 theta)`` and ``c2 = sin(theta)^2 / theta``; at ``J = 0`` it is
    ``-i dt Z``.  Returns one ``(lo, hi, p, q, (g_x, g_y, g_z))`` per block.
    """
    z = _CONTROL_SIGNS[context.n_qubits]
    dt, j = context.dt, context.coupling_j
    blocks = []
    for lo, hi in _BLOCKS[context.n_qubits]:
        s = z[:, lo] @ waveforms
        theta = np.hypot(s, j) * dt
        cos, sinc = np.cos(theta), np.sinc(theta / np.pi)
        p, q = cos - 1j * dt * sinc * s, -1j * dt * sinc * j
        if j == 0.0:
            gens = (0.0, 0.0, 1.0)
        else:
            # lambda >= |J| > 0, so s / lambda and J / lambda are finite
            ns, nj = s * dt / theta, j * dt / theta
            c1 = sinc * cos
            gens = (ns * nj * (1.0 - c1), nj * theta * sinc**2, ns**2 + c1 * nj**2)
        blocks.append((lo, hi, p, q, gens))
    return blocks


def _forward_scan(context: ControlContext, waveforms: np.ndarray):
    """One scan in the interaction picture of the frame.

    The step propagator is ``E_k B_k E_k^dag``, so the prefix ``P_k`` of
    the steps before step ``k`` is ``E_k L_k E_0^dag`` with ``L_0 = I`` and
    ``L_{k+1} = C_k L_k``, ``C_k = F_k B_k`` (see
    :attr:`ControlContext._interaction_frame`), and the propagator is
    ``U = E_{n-1} B_{n-1} L_{n-1} E_0^dag``.  Returns ``L_0 .. L_{n-1}``,
    ``U`` and the blocks of :func:`_block_steps`.  For one qubit ``B_k =
    diag(p_k, p_k*)`` and every ``C_k`` is in SU(2), so ``L`` is the entry
    pair ``(a, b)`` of ``[[a, -b*], [b, a*]]``; for two it is a matrix stack.
    """
    f, e_first, e_last = context._interaction_frame
    blocks = _block_steps(context, waveforms)
    if context.n_qubits == 1:
        ((_, _, p, _, _),) = blocks
        # C_k = F_k diag(p_k, p_k*) has the entries p_k times those of F_k
        a, b = _su2_prefix_products(
            np.concatenate([[1.0], f[:, 0, 0] * p[:-1]]),
            np.concatenate([[0.0], f[:, 1, 0] * p[:-1]]),
        )
        l = a, b
        last = _su2_matrices(p[-1] * a[-1], np.conj(p[-1]) * b[-1])
    else:
        # B = [[p, q], [q, p*]] on each block mixes column pairs of F
        c = np.empty((context.steps, 4, 4), dtype=complex)
        c[0] = np.eye(4)
        b_last = np.zeros((4, 4), dtype=complex)
        for lo, hi, p, q, _ in blocks:
            f_lo, f_hi = f[:, :, lo], f[:, :, hi]
            c[1:, :, lo] = f_lo * p[:-1, None] + f_hi * q[:-1, None]
            c[1:, :, hi] = f_lo * q[:-1, None] + f_hi * p[:-1, None].conj()
            b_last[lo, lo], b_last[hi, hi] = p[-1], p[-1].conj()
            b_last[lo, hi] = b_last[hi, lo] = q[-1]
        l = _prefix_products(c)
        last = b_last @ l[-1]
    return l, e_last @ last @ e_first.conj().T, blocks


def propagate_closed(context: ControlContext, waveforms) -> np.ndarray:
    """Closed-system propagator: ordered product of step exponentials."""
    _, u, _ = _forward_scan(context, _as_waveform_matrix(context, waveforms))
    return u


def gate_fidelity(u: np.ndarray, target: GateTarget) -> float:
    """|Tr(U_d^dag U) / d|^2, insensitive to global phases."""
    u = np.asarray(u)
    if u.shape != target.unitary.shape:
        raise InvalidParameterError(
            f"dimension mismatch: {u.shape} vs {target.unitary.shape}"
        )
    d = target.dim
    return float(abs(np.trace(target.unitary.conj().T @ u) / d) ** 2)


def _fidelity_and_waveform_grad(
    context: ControlContext, waveforms: np.ndarray, target: GateTarget
):
    """Exact dF/df for every control sample from one forward scan.

    dF/df_ck = 2 Re(conj(tr) tr(U_d^dag S_k+1 dU_k P_k) / d), with P_k the
    product of the steps before step k and S_k+1 = U P_k+1^dag that of the
    steps after it.  In the terms of :func:`_forward_scan`, dU_k =
    E_k dB_k E_k^dag and P_k+1 = E_k B_k L_k E_0^dag, so the cyclic trace is
    tr(Z_k B_k^dag dB_k) with Z_k = L_k M L_k^dag, M = E_0^dag U_d^dag U
    E_0.  B_k^dag dB_k lives on the blocks of :func:`_block_steps`, so only
    the block entries of Z_k are formed.
    """
    d = context.dimension
    _, e_first, _ = context._interaction_frame
    l, u_total, blocks = _forward_scan(context, waveforms)
    m = e_first.conj().T @ target.unitary.conj().T @ u_total @ e_first
    tr = np.trace(m) / d
    fid = abs(tr) ** 2

    if context.n_qubits == 1:
        # (Z_k)_00 - (Z_k)_11 for L_k = [[a, -b*], [b, a*]]; g = Z
        a, b = l
        ab = a * b
        overlap = (
            (np.abs(a) ** 2 - np.abs(b) ** 2) * (m[0, 0] - m[1, 1])
            - 2.0 * (ab.conj() * m[1, 0] + ab * m[0, 1])
        )[None]
    else:
        lm = (l.reshape(-1, 4) @ m).reshape(l.shape)   # one 2-D product
        overlap = 0.0
        for lo, hi, _, _, (g_x, g_y, g_z) in blocks:
            # (Z_k)_pq = (L_k M)_p . conj(L_k)_q on the block's four entries
            z_ll, z_lh, z_hl, z_hh = np.einsum(
                "kpa,kpa->pk", lm[:, [lo, lo, hi, hi]], l[:, [lo, hi, lo, hi]].conj()
            )
            # the traces of the block of Z_k with X, Y and Z
            t = g_x * (z_lh + z_hl) + 1j * g_y * (z_lh - z_hl) + g_z * (z_ll - z_hh)
            overlap = overlap + _CONTROL_SIGNS[2][:, lo, None] * t
    grads = 2.0 * np.real(np.conj(tr) * (-1j * context.dt) * overlap / d)
    return fid, grads, u_total


def grape_gradient(
    theta: np.ndarray,
    spec: PulseSpec,
    context: ControlContext,
    target: GateTarget,
) -> np.ndarray:
    """Exact gradient of the infidelity 1 - F with respect to ``theta``."""
    _, grad, _ = _value_and_grad(theta, spec, spec.window(), context, target)
    return -grad


def _value_and_grad(
    theta: np.ndarray,
    spec: PulseSpec,
    window: np.ndarray,
    context: ControlContext,
    target: GateTarget,
    penalized: bool = False,
):
    """(objective, d objective/d theta, diagnostics); objective = F, less the
    amplitude and edge penalties when ``penalized``; ``window`` is
    ``spec.window()``."""
    theta = np.asarray(theta, dtype=float)
    if theta.size != spec.n_controls * spec.params_per_control:
        raise InvalidParameterError(
            f"theta needs {spec.n_controls * spec.params_per_control} entries, "
            f"got {theta.size}"
        )
    waveforms, (_, _, sig, _) = _shape_stages(
        theta.reshape(spec.n_controls, -1), spec, window
    )
    fid, grad_f, u_total = _fidelity_and_waveform_grad(context, waveforms, target)

    value = fid
    if penalized:
        excess = np.maximum(np.abs(waveforms) - spec.f_max, 0.0)
        value -= AMPLITUDE_PENALTY * float(np.mean(excess**2)) / spec.f_max**2
        pen_grad = (
            -AMPLITUDE_PENALTY
            * 2.0
            * excess
            * np.sign(waveforms)
            / (spec.f_max**2 * excess.size)
        )
        grad_f = grad_f + pen_grad
        edges = waveforms[:, [0, -1]]
        value -= EDGE_PENALTY * float(np.sum(edges**2)) / spec.f_max**2
        grad_f[:, 0] -= EDGE_PENALTY * 2.0 * waveforms[:, 0] / spec.f_max**2
        grad_f[:, -1] -= EDGE_PENALTY * 2.0 * waveforms[:, -1] / spec.f_max**2

    grad_theta = _shape_backward(grad_f, sig, spec, window).ravel()
    return value, grad_theta, {"fidelity": fid, "waveforms": waveforms, "u": u_total}


@dataclass(frozen=True)
class GrapeSettings:
    """Optimizer settings for :func:`optimize_pulse` (Adam ascent).

    The Adam step size and decay rates, the initial scale, the penalty
    weights and the target fidelity are the module constants ``ADAM_STEP``,
    ``ADAM_BETA1``, ``ADAM_BETA2``, ``INIT_SCALE``, ``AMPLITUDE_PENALTY``,
    ``EDGE_PENALTY`` and ``TARGET_FIDELITY``.
    """

    iterations: int = 600
    seed: int = 0

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise InvalidParameterError(
                f"iterations must be at least 1, got {self.iterations}"
            )


@dataclass(frozen=True)
class PulseResult:
    """Outcome of one pulse optimization.

    ``fidelity_history[i]`` is the raw fidelity of iteration ``i`` until an
    iterate is first accepted, and the best accepted fidelity so far from
    then on (see :func:`optimize_pulse`); ``converged`` is derived.
    """

    theta: np.ndarray
    fidelity: float
    fidelity_history: np.ndarray
    waveforms: np.ndarray

    @property
    def converged(self) -> bool:
        return bool(self.fidelity >= TARGET_FIDELITY)


def optimize_pulse(
    spec: PulseSpec,
    context: ControlContext,
    target: GateTarget,
    settings: GrapeSettings = GrapeSettings(),
) -> PulseResult:
    """Maximize the closed-system gate fidelity over the pulse parameters.

    Deterministic under ``settings.seed``.  An iterate is accepted when its
    waveforms stay within ``(1 + GIBBS_TOL) f_max``; the result is the best
    accepted one.  The history holds one entry per iteration: that
    iteration's raw fidelity until the first accepted iterate, then the
    best accepted fidelity so far.  Only from the first accepted iterate on
    is it monotone; before it, it may fall.  Failing to reach
    ``TARGET_FIDELITY`` is reported through ``converged``, not raised.
    """
    if context.n_qubits != spec.n_controls:
        raise InvalidParameterError(
            f"context provides {context.n_qubits} controls, "
            f"spec expects {spec.n_controls}"
        )
    if target.dim != context.dimension:
        raise InvalidParameterError(
            f"target {target.name!r} has dimension {target.dim}, "
            f"the context {context.dimension}"
        )
    rng = np.random.default_rng(settings.seed)
    theta = INIT_SCALE * rng.standard_normal(spec.n_controls * spec.params_per_control)

    window = spec.window()
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    best_theta = theta.copy()
    best_fid = -np.inf
    history = []
    for it in range(1, settings.iterations + 1):
        value, grad, info = _value_and_grad(
            theta, spec, window, context, target, penalized=True
        )
        fid = info["fidelity"]
        if it == 1:
            # the result when no iterate is accepted: best_theta stays theta
            best_waveforms = info["waveforms"]
        overshoot = float(np.max(np.abs(info["waveforms"]))) / spec.f_max
        if fid > best_fid and overshoot <= 1.0 + GIBBS_TOL:
            best_fid = fid
            best_theta = theta.copy()
            best_waveforms = info["waveforms"]
        history.append(best_fid if np.isfinite(best_fid) else fid)
        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
        v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad * grad
        m_hat = m / (1.0 - ADAM_BETA1**it)
        v_hat = v / (1.0 - ADAM_BETA2**it)
        theta = theta + ADAM_STEP * m_hat / (np.sqrt(v_hat) + 1e-8)

    return PulseResult(
        theta=best_theta,
        fidelity=float(best_fid),
        fidelity_history=np.asarray(history),
        waveforms=best_waveforms,
    )
