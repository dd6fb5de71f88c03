"""Gate design at a modulated operating point.

Control pulses add a transverse drive ``f(t) sigma_y`` on top of the running
flux modulation.  All gate dynamics happen in the rotating frame of the
modulated qubit Hamiltonian.  A :class:`ControlContext` is that frame: its
SU(2) samples ``R_k``, integrated once per (drive, duration).  Step ``k``
sees every lab-frame operator ``O`` of :func:`_static_operators` as
``R_k^dag O R_k``, and no stack of conjugated operators is ever built.
Each step Hamiltonian ``R_k^dag H0(f_k) R_k`` is made of fixed Paulis, so
its eigensystem is a closed form: in the sigma_y eigenbasis ``T`` it is a
real matrix that splits into 2x2 blocks, diagonalized by one rotation each.
Optimizer iterations therefore run no matrix diagonalization.  Pulses are
parametrized in the frequency domain and pushed through a fixed constraint
pipeline (boundary window, amplitude sigmoid, spectral band-limit);
gradients are exact through both the step propagators and the pipeline.

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
from .exceptions import IntegrationError, InvalidParameterError
from .floquet import (
    LOWERING,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    DriveSpec,
    _prefix_products,
    _su2_entries,
    _su2_tree_product,
    _tree_product,
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

_SQRT2 = np.sqrt(2.0)

#: eigenvectors of sigma_y: W^dag sigma_y W = Z and W^dag sigma_z W = X
_SIGMA_Y_BASIS = np.array([[1.0, 1.0], [1.0j, -1.0j]]) / _SQRT2

#: per qubit count, the diagonal z_c of T^dag C_c T for each sigma_y control
#: C_c (T = W or W (x) W), and the index pairs of the 2x2 blocks into which
#: T^dag H0 T splits
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

    ``theta`` holds ``2 n_freq + 1`` real Fourier amplitudes per control
    channel (DC, then cos/sin pairs), concatenated across channels.  The
    rendered waveform passes, in order, a sin^2 boundary window, a scaled
    sigmoid bounding the instantaneous amplitude by ``s_amp <= f_max``, and
    a hard spectral cutoff above harmonic ``n_freq``.  The final projection
    can ring past the amplitude bound by at most ``GIBBS_TOL`` (verified on
    optimized pulses).
    """

    duration: float
    steps: int = 500
    f_max: float = TWO_PI * 0.1
    n_freq: int = 9
    theta: np.ndarray | None = None
    n_controls: int = 1
    s_amp: float | None = None
    s_slope: float | None = None

    def __post_init__(self) -> None:
        if self.duration <= 0 or self.steps < 8 or self.n_freq < 1:
            raise InvalidParameterError("bad pulse discretization")
        if self.s_amp is not None and self.s_amp > self.f_max:
            raise InvalidParameterError("s_amp must not exceed f_max")
        if self.theta is not None:
            th = np.asarray(self.theta, dtype=float)
            if th.size != self.n_controls * self.params_per_control:
                raise InvalidParameterError(
                    f"theta needs {self.n_controls * self.params_per_control} "
                    f"entries, got {th.size}"
                )
            object.__setattr__(self, "theta", th)

    @property
    def params_per_control(self) -> int:
        return 2 * self.n_freq + 1

    @property
    def dt(self) -> float:
        return self.duration / self.steps

    @property
    def amp_scale(self) -> float:
        return self.s_amp if self.s_amp is not None else self.f_max

    @property
    def slope(self) -> float:
        # unit small-signal gain: s_amp * slope / 2 = 1
        return self.s_slope if self.s_slope is not None else 2.0 / self.amp_scale

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


def _shape_stages(theta: np.ndarray, spec: PulseSpec):
    """Forward pass of the constraint pipeline for one control channel."""
    n = spec.steps
    raw = theta @ spec.fourier_basis
    windowed = spec.window() * raw
    sig = 1.0 / (1.0 + np.exp(-spec.slope * windowed))
    bounded = spec.amp_scale * (2.0 * sig - 1.0)
    spectrum = np.fft.rfft(bounded)
    spectrum[spec.n_freq + 1 :] = 0.0
    final = np.fft.irfft(spectrum, n)
    return final, (raw, windowed, sig, bounded)


def shape_pulse(theta: np.ndarray, spec: PulseSpec, return_stages: bool = False):
    """Rendered waveform samples for one control channel."""
    theta = np.asarray(theta, dtype=float)
    if theta.size != spec.params_per_control:
        raise InvalidParameterError(
            f"theta must have {spec.params_per_control} entries"
        )
    final, stages = _shape_stages(theta, spec)
    if return_stages:
        return final, stages
    return final


def _shape_backward(grad_f: np.ndarray, stages, spec: PulseSpec) -> np.ndarray:
    """Pull a gradient w.r.t. waveform samples back to the theta vector."""
    _, windowed, sig, _ = stages
    n = spec.steps
    spectrum = np.fft.rfft(grad_f)
    spectrum[spec.n_freq + 1 :] = 0.0
    grad_bounded = np.fft.irfft(spectrum, n)   # band-limit is self-adjoint
    dsig = spec.amp_scale * 2.0 * sig * (1.0 - sig) * spec.slope
    grad_windowed = grad_bounded * dsig
    grad_raw = grad_windowed * spec.window()
    return spec.fourier_basis @ grad_raw


@dataclass(frozen=True)
class ControlContext:
    """The rotating frame of one gate job.

    ``frame[k]`` is the SU(2) frame sample ``U_k`` of one qubit at the
    midpoint of step ``k``; two qubits share it, so their frame is
    ``R_k = U_k (x) U_k`` (one qubit: ``R_k = U_k``).  Step ``k`` sees each
    operator ``O`` of :func:`_static_operators` (drift ``coupling_j *
    (z (x) z)``, ``sigma_y`` controls, lowering and ``sigma_z`` jumps) as
    ``R_k^dag O R_k``.  ``dt`` is the step length in ns and ``coupling_j``
    is in rad/ns.
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
        gram = frame @ frame.conj().transpose(0, 2, 1)
        if np.max(np.abs(gram - np.eye(2))) > 1e-12:
            raise InvalidParameterError("frame samples must be unitary")
        if self.n_qubits not in (1, 2):
            raise InvalidParameterError("n_qubits must be 1 or 2")
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
    def _eigenframe(self) -> np.ndarray:
        """``E_k = R_k^dag T`` with ``T = W`` or ``W (x) W``, ``W`` the
        sigma_y eigenbasis: the basis in which every step Hamiltonian is
        real and block diagonal (see :func:`_step_eigensystem`)."""
        e = self.frame.conj().transpose(0, 2, 1) @ _SIGMA_Y_BASIS
        return e if self.n_qubits == 1 else _kron(e, e)


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
    drive: DriveSpec,
    coeffs: EffectiveCoefficients,
    delta: float,
    times_ns: np.ndarray,
    substeps: int,
) -> np.ndarray:
    """U_q at the ascending sample times by piecewise-constant exponentials.

    The integration grid subdivides each inter-sample interval (the first
    one starts at 0) into ``substeps`` pieces sampled at their midpoints.
    Every step is SU(2), so each segment's steps are reduced on their entry
    arrays by :func:`_su2_tree_product`, on blocks of about sqrt(segments)
    segments to keep memory small, and one prefix scan over the segment
    totals gives the samples, each projected back onto SU(2).
    """
    delta_ns = delta * RAD_PER_US_TO_RAD_PER_NS
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
        p_vals = drive.waveform(mids * 1e-3)
        cx = (0.5 * coeffs.b_coef + coeffs.a_coef * p_vals)
        cx = cx * RAD_PER_US_TO_RAD_PER_NS
        a[lo : lo + block], b[lo : lo + block] = _su2_tree_product(
            *_su2_entries(delta_ns, cx, h)
        )
    us = _prefix_products(_su2_matrices(a, b))
    # the scan leaves the samples up to ~1e-11 off unitarity; the closed-form
    # step eigensystem would carry that into non-unitary steps, so each
    # sample is rebuilt from its normalized first column
    a, b = us[:, 0, 0], us[:, 1, 0]
    norm = np.sqrt(np.abs(a) ** 2 + np.abs(b) ** 2)
    return _su2_matrices(a / norm, b / norm)


def _su2_matrices(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The matrices ``[[a, -b*], [b, a*]]`` for entry arrays ``a`` and ``b``."""
    return np.stack(
        [np.stack([a, -b.conj()], axis=-1), np.stack([b, a.conj()], axis=-1)],
        axis=1,
    )


def rotating_frame_trajectory(
    drive: DriveSpec,
    coeffs: EffectiveCoefficients,
    delta: float,
    duration: float,
    steps: int = 500,
    substeps: int = 1024,
    n_qubits: int = 1,
    coupling_j: float = 0.0,
    verify: bool = False,
) -> ControlContext:
    """Integrate the qubit frame onto the step-midpoint grid of a gate job.

    ``duration`` in ns, ``coupling_j`` in rad/ns; the qubit/drive parameters
    come in rad/us.  The frame samples are integrated with ``substeps``
    pieces per sample interval; the returned :class:`ControlContext` holds
    them.  ``steps`` and ``substeps`` must be at least 1 and ``duration``
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
    dt = duration / steps
    mids = (np.arange(steps) + 0.5) * dt
    us = _frame_unitaries(drive, coeffs, delta, mids, substeps)
    if verify:
        coarse = _frame_unitaries(drive, coeffs, delta, mids, max(substeps // 2, 1))
        drift_err = np.max(np.abs(us - coarse))
        if drift_err > 1e-9:
            raise IntegrationError(
                f"frame integration not converged: samples moved by "
                f"{drift_err:.2e} when halving substeps"
            )
    return ControlContext(frame=us, dt=dt, n_qubits=n_qubits, coupling_j=coupling_j)


def _as_waveform_matrix(context: ControlContext, waveforms) -> np.ndarray:
    w = np.asarray(waveforms, dtype=float)
    if w.ndim == 1:
        w = w[None, :]
    if w.shape != (context.n_qubits, context.steps):
        raise InvalidParameterError(
            f"waveforms must have shape ({context.n_qubits}, "
            f"{context.steps}), got {w.shape}"
        )
    return w


def _step_eigensystem(context: ControlContext, waveforms: np.ndarray):
    """Eigenvalues, eigenvectors ``V_k`` and block rotations ``Q_k`` of the
    step Hamiltonians, in closed form.

    ``T^dag H0(f_k) T`` is real: ``f Z`` for one qubit and
    ``J XX + f1 ZI + f2 IZ`` for two.  It splits into the 2x2 blocks
    ``[[s, J], [J, -s]]`` of :data:`_BLOCKS`, with ``s = sum_c f_c z_c[i]``
    for the block's first index ``i``; a rotation by ``atan2(J, s) / 2``
    takes each to ``diag(hypot(s, J), -hypot(s, J))``, so
    ``V_k = E_k Q_k`` with ``E_k`` the context's cached eigenframe.
    """
    z = _CONTROL_SIGNS[context.n_qubits]
    d, j = context.dimension, context.coupling_j
    evals = np.empty((context.steps, d))
    rot = np.zeros((context.steps, d, d))
    for lo, hi in _BLOCKS[context.n_qubits]:
        s = z[:, lo] @ waveforms
        angle = 0.5 * np.arctan2(j, s)
        rot[:, lo, lo] = rot[:, hi, hi] = np.cos(angle)
        rot[:, hi, lo] = np.sin(angle)
        rot[:, lo, hi] = -rot[:, hi, lo]
        evals[:, lo] = np.hypot(s, j)
        evals[:, hi] = -evals[:, lo]
    return evals, context._eigenframe @ rot, rot


def _step_exponentials(context: ControlContext, waveforms: np.ndarray):
    """Eigenvalues, eigenvectors, block rotations (see
    :func:`_step_eigensystem`), eigenphases ``exp(-i lambda dt)`` and
    exponentials ``exp(-i H_k dt)`` of the step Hamiltonians."""
    evals, evecs, rot = _step_eigensystem(context, waveforms)
    phases = np.exp(-1j * evals * context.dt)
    steps = (evecs * phases[:, None, :]) @ evecs.conj().transpose(0, 2, 1)
    return evals, evecs, rot, phases, steps


def propagate_closed(context: ControlContext, waveforms) -> np.ndarray:
    """Closed-system propagator: ordered product of step exponentials."""
    *_, steps = _step_exponentials(context, _as_waveform_matrix(context, waveforms))
    return _tree_product(steps)


def gate_fidelity(u: np.ndarray, target: GateTarget) -> float:
    """|Tr(U_d^dag U) / d|^2, insensitive to global phases."""
    u = np.asarray(u)
    if u.shape != target.unitary.shape:
        raise InvalidParameterError(
            f"dimension mismatch: {u.shape} vs {target.unitary.shape}"
        )
    d = target.dim
    return float(abs(np.trace(target.unitary.conj().T @ u) / d) ** 2)


def _split_theta(theta: np.ndarray, spec: PulseSpec) -> list[np.ndarray]:
    per = spec.params_per_control
    theta = np.asarray(theta, dtype=float)
    if theta.size != spec.n_controls * per:
        raise InvalidParameterError(
            f"theta needs {spec.n_controls * per} entries, got {theta.size}"
        )
    return [theta[c * per : (c + 1) * per] for c in range(spec.n_controls)]


def _fidelity_and_waveform_grad(
    context: ControlContext, waveforms: np.ndarray, target: GateTarget
):
    """Exact dF/df for every control sample via the spectral derivative of
    each step exponential."""
    d = context.dimension
    dt = context.dt
    evals, evecs, rot, phases, steps = _step_exponentials(context, waveforms)

    prefix = _prefix_products(steps)   # P_1 .. P_n
    u_total = prefix[-1]
    ud_dag_u = target.unitary.conj().T @ u_total
    tr = np.trace(ud_dag_u) / d
    fid = abs(tr) ** 2

    # divided differences of exp(-i lambda dt) for the Frechet derivative
    lam_i = evals[:, :, None]
    lam_j = evals[:, None, :]
    ph_i = phases[:, :, None]
    ph_j = phases[:, None, :]
    diff = lam_i - lam_j
    tiny = np.abs(diff) < 1e-12
    gmat = np.where(tiny, -1j * dt * ph_i, (ph_i - ph_j) / np.where(tiny, 1.0, diff))

    # dF/df_ck = 2 Re(conj(tr) tr(U_d^dag S_k+1 V_k (G_k * O_ck) V_k^dag P_k) / d)
    # with O_ck the control operator in the step eigenbasis, P_k the product
    # of the steps before step k and S_k+1 that of the steps after it; the
    # trace is cyclic, so W_k = V_k^dag P_k U_d^dag S_k+1 V_k carries every
    # step.  The steps are unitary, so S_k+1 = U P_k+1^dag, and
    # P_k+1 = V_k Phi_k V_k^dag P_k gives P_k+1^dag V_k = X_k^dag conj(Phi_k)
    # with X_k = V_k^dag P_k: W_k = X_k M X_k^dag conj(Phi_k), M = U_d^dag U.
    p_before = np.concatenate([np.eye(d)[None], prefix[:-1]])   # P_0 .. P_n-1
    x = evecs.conj().transpose(0, 2, 1) @ p_before
    w = (x @ ud_dag_u @ x.conj().transpose(0, 2, 1)) * phases.conj()[:, None, :]
    # O_ck = Q_k^T diag(z_c) Q_k, so tr(W_k (G_k * O_ck)) is
    # sum_m z_cm (Q_k Y_k Q_k^T)_mm with Y_k = W_k^T * G_k
    y = w.transpose(0, 2, 1) * gmat
    overlap = _CONTROL_SIGNS[context.n_qubits] @ np.einsum(
        "kma,kab,kmb->mk", rot, y, rot
    )
    grads = 2.0 * np.real(np.conj(tr) * overlap / d)
    return fid, grads, u_total


def grape_gradient(
    theta: np.ndarray,
    spec: PulseSpec,
    context: ControlContext,
    target: GateTarget,
) -> np.ndarray:
    """Exact gradient of the infidelity 1 - F with respect to ``theta``."""
    _, grad, _ = _value_and_grad(theta, spec, context, target)
    return -grad


def _value_and_grad(
    theta: np.ndarray,
    spec: PulseSpec,
    context: ControlContext,
    target: GateTarget,
    amplitude_penalty: float = 0.0,
    edge_penalty: float = 0.0,
):
    """(objective, d objective/d theta, diagnostics); objective = F - penalty."""
    thetas = _split_theta(theta, spec)
    waveforms = np.empty((spec.n_controls, spec.steps))
    stage_cache = []
    for c, th in enumerate(thetas):
        f, stages = _shape_stages(th, spec)
        waveforms[c] = f
        stage_cache.append(stages)
    fid, grad_f, u_total = _fidelity_and_waveform_grad(context, waveforms, target)

    value = fid
    if amplitude_penalty > 0.0:
        excess = np.maximum(np.abs(waveforms) - spec.f_max, 0.0)
        value -= amplitude_penalty * float(np.mean(excess**2)) / spec.f_max**2
        pen_grad = (
            -amplitude_penalty
            * 2.0
            * excess
            * np.sign(waveforms)
            / (spec.f_max**2 * excess.size)
        )
        grad_f = grad_f + pen_grad
    if edge_penalty > 0.0:
        edges = waveforms[:, [0, -1]]
        value -= edge_penalty * float(np.sum(edges**2)) / spec.f_max**2
        grad_f[:, 0] -= edge_penalty * 2.0 * waveforms[:, 0] / spec.f_max**2
        grad_f[:, -1] -= edge_penalty * 2.0 * waveforms[:, -1] / spec.f_max**2

    grad_theta = np.concatenate(
        [
            _shape_backward(grad_f[c], stage_cache[c], spec)
            for c in range(spec.n_controls)
        ]
    )
    return value, grad_theta, {"fidelity": fid, "waveforms": waveforms, "u": u_total}


@dataclass(frozen=True)
class GrapeSettings:
    """Optimizer settings for :func:`optimize_pulse` (Adam ascent)."""

    iterations: int = 600
    learning_rate: float = 0.08
    beta1: float = 0.9
    beta2: float = 0.999
    seed: int = 0
    init_scale: float = 0.1
    amplitude_penalty: float = 25.0
    edge_penalty: float = 10.0
    target_fidelity: float = 0.9999

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
    then on (see :func:`optimize_pulse`).
    """

    theta: np.ndarray
    fidelity: float
    fidelity_history: np.ndarray
    waveforms: np.ndarray
    converged: bool


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
    ``settings.target_fidelity`` is reported through ``converged``, not
    raised.
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
    if spec.theta is not None:
        theta = np.asarray(spec.theta, dtype=float).copy()
    else:
        theta = settings.init_scale * rng.standard_normal(
            spec.n_controls * spec.params_per_control
        )

    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    best_theta = theta.copy()
    best_fid = -np.inf
    history = []
    for it in range(1, settings.iterations + 1):
        value, grad, info = _value_and_grad(
            theta, spec, context, target,
            settings.amplitude_penalty, settings.edge_penalty,
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
        m = settings.beta1 * m + (1.0 - settings.beta1) * grad
        v = settings.beta2 * v + (1.0 - settings.beta2) * grad * grad
        m_hat = m / (1.0 - settings.beta1**it)
        v_hat = v / (1.0 - settings.beta2**it)
        theta = theta + settings.learning_rate * m_hat / (np.sqrt(v_hat) + 1e-8)

    return PulseResult(
        theta=best_theta,
        fidelity=float(best_fid),
        fidelity_history=np.asarray(history),
        waveforms=best_waveforms,
        converged=bool(best_fid >= settings.target_fidelity),
    )
