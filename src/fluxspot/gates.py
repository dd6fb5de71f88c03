"""Gate design at a modulated operating point.

Control pulses add a transverse drive ``f(t) sigma_y`` on top of the running
flux modulation.  All gate dynamics happen in the rotating frame of the
modulated qubit Hamiltonian.  A :class:`ControlContext` is that frame: the
SU(2) samples ``R_k`` that :func:`rotating_frame_trajectory` integrates,
with one job's step length, qubit count and coupling.  Step ``k`` sees
every lab-frame operator ``O`` of the job (drift, controls and jumps;
:func:`.lindblad._static_operators`) as
``R_k^dag O R_k``, and no stack of conjugated operators is ever built.  A
``grape`` pass evaluates the point and integrates the frame once per
genome, ``phi_ac``, duration, steps and substeps, and stores the samples
in the pulse artifact; ``simulate`` replays them and integrates none.

GRAPE runs in the interaction picture of that frame.  With ``W`` the
sigma_y eigenbasis and ``T = W`` (one qubit) or ``W (x) W`` in the basis
order (0, 1, 3, 2) (two), ``E_k = R_k^dag T`` turns each step Hamiltonian
into a real matrix made of 2x2 blocks ``s Z + J X`` on the index pairs
``(b, b + d/2)``, so each step is ``E_k B_k E_k^dag`` with ``B_k`` a closed
form, and so is ``B_k^dag dB_k/ds``.  One forward scan of ``C_k = F_k
B_k``, ``F_k = E_{k+1}^dag E_k`` the frame increments, gives the
propagator and every exact gradient (Khaneja et al., J. Magn. Reson. 172,
296 (2005)) with no eigenvectors, no divided differences and no matrix
function call.  For one qubit every ``C_k`` is in SU(2) and the scan runs
on entry arrays.  For two it runs on the real 8x8 forms ``[[Re, -Im], [Im,
Re]]`` of the ``C_k`` in that basis order, where both blocks are regular,
because numpy's stacked product of complex 4x4 matrices costs about four
times that of the real form of the same product.  The scan's arrays (about
256 KB each at 500 steps) are above glibc's 128 KiB mmap threshold, so
fresh ones would take page faults on every call: each context allocates
them once, on its first scan, and every scan overwrites them, so the
scan's ``L`` is valid only until the next call on the same context.
Pulses are parametrized in the frequency domain and pushed through a fixed
constraint pipeline (boundary window, amplitude bound ``f_max tanh(x /
f_max)``, band-limit); the band is defined once, as the rows of
:attr:`PulseSpec.fourier_basis` that the parameters live on, and the
band-limit is the orthogonal projection onto them.  Gradients are exact
through both the steps and the pipeline.

A job's time grid has one home, its frame (:class:`ControlContext`): the
samples set the step count, the duration the step length.  A
:class:`PulseSpec` holds no duration, because its band is a function of the
step count alone (harmonic ``m`` has the phase ``2 pi m k / steps`` at step
``k``); each GRAPE gradient first checks that the spec, the frame and the
target agree.

Times in this module are nanoseconds and rates rad/ns; the drive and qubit
parameters arrive in the library's rad/us convention and are converted on
entry.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from functools import cached_property

import numpy as np

from .circuit import EffectiveCoefficients
from .exceptions import IntegrationError, InvalidParameterError, check_finite
from .floquet import (
    PAULI_X,
    PAULI_Y,
    DriveSpec,
    _sampled_propagators,
    _su2_matrices,
    _su2_prefix_products,
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
    "propagate_closed",
    "gate_fidelity",
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

#: the order of the two-qubit basis W (x) W in the interaction picture, in
#: which T^dag H0 T splits into the 2x2 blocks (0, 2) and (1, 3)
_PAIRED = [0, 1, 3, 2]

#: per qubit count, ``[c, b]``: the entry z_c of T^dag C_c T for the sigma_y
#: control C_c at the first index b of block (b, b + d/2); the second index
#: has -z_c (see :func:`_block_steps`)
_BLOCK_SIGNS = {1: np.array([[1.0]]), 2: np.array([[1.0, 1.0], [1.0, -1.0]])}

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


def _real_form(a: np.ndarray) -> np.ndarray:
    """The real forms ``[[Re a, -Im a], [Im a, Re a]]`` of the complex
    matrices ``a`` (``(..., d, d)``): the real form of a product is the
    product of the real forms, and that of ``a^dag`` is the transpose."""
    d = a.shape[-1]
    out = np.empty(a.shape[:-2] + (2 * d, 2 * d))
    out[..., :d, :d] = out[..., d:, d:] = a.real
    out[..., :d, d:] = -a.imag
    out[..., d:, :d] = a.imag
    return out


def _step_patterns() -> np.ndarray:
    """``(6, 64)``: the flattened real forms of ``I``, ``-i Z`` and ``-i X``
    on block (0, 2), then on block (1, 3), kind-major, so that the 2-qubit
    step ``B_k`` is the product of its coefficient rows (cos, gamma, beta;
    see :func:`_block_steps`) with them."""
    pats = np.zeros((3, 2, 4, 4), dtype=complex)
    for b in (0, 1):
        pair = [b, b + 2]
        pats[0, b, pair, pair] = 1.0
        pats[1, b, pair, pair] = -1j, 1j
        pats[2, b, pair, pair[::-1]] = -1j
    return _real_form(pats).reshape(6, 64)


_STEP_PATTERNS = _step_patterns()


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
    boundary window, the sigmoid ``f_max tanh(x / f_max)`` (``f_max (2 / (1
    + exp(-2 x / f_max)) - 1)``), which bounds the instantaneous amplitude
    by ``f_max`` at unit small-signal gain, and the band-limit: the
    orthogonal projection onto the rows of :attr:`fourier_basis`, the same
    band the parameters live on.  On the sample grid that is the cutoff
    above harmonic ``n_freq``; once ``n_freq >= steps / 2`` the rows span
    every waveform and the projection keeps it whole.
    The final projection can ring past the amplitude bound by at most
    ``GIBBS_TOL`` (verified on optimized pulses).  ``f_max`` must be
    positive with a positive, finite square, by which the penalties divide.

    The spec holds no duration: the frame (:class:`ControlContext`) holds
    the job's grid, and the band is a function of the step count alone, so
    ``steps`` must be the frame's.
    """

    steps: int = 500
    f_max: float = TWO_PI * 0.1
    n_freq: int = 9
    n_controls: int = 1

    def __post_init__(self) -> None:
        if self.steps < 8 or self.n_freq < 1:
            raise InvalidParameterError("bad pulse discretization")
        # a NaN or negative bound passes every amplitude check, and a square
        # of 0 divides; f_max * f_max gives inf where f_max**2 raises
        if not (self.f_max > 0.0 and 0.0 < self.f_max * self.f_max < math.inf):
            raise InvalidParameterError(
                f"f_max must be positive with a positive, finite square, "
                f"got {self.f_max}"
            )

    @property
    def params_per_control(self) -> int:
        return 2 * self.n_freq + 1

    @cached_property
    def fourier_basis(self) -> np.ndarray:
        """``(2 n_freq + 1, steps)`` rows DC, cos 1, sin 1, cos 2, ... at the
        steps ``k``, harmonic ``m`` at the phase ``2 pi m k / steps``, so the
        unconstrained waveform is ``theta @ basis``."""
        m = np.arange(1, self.n_freq + 1)[:, None]
        arg = TWO_PI * m * np.arange(self.steps) / self.steps
        pairs = np.stack([np.cos(arg), np.sin(arg)], axis=1)
        return np.vstack([np.ones(self.steps), pairs.reshape(-1, self.steps)])

    @cached_property
    def _windowed_basis(self) -> np.ndarray:
        """The basis rows times the sin^2 boundary window, so the windowed
        waveform ``theta @ _windowed_basis`` is exactly zero at both ends."""
        window = np.sin(np.pi * np.arange(self.steps) / (self.steps - 1)) ** 2
        window[0] = window[-1] = 0.0   # exact boundary zeros despite pi round-off
        return self.fourier_basis * window

    @cached_property
    def _band_pinv(self) -> np.ndarray:
        """``pinv(fourier_basis)``: ``(x @ _band_pinv) @ fourier_basis`` is
        the orthogonal projection of ``x`` onto the span of the basis rows."""
        return np.linalg.pinv(self.fourier_basis)


def _shape_stages(theta: np.ndarray, spec: PulseSpec):
    """Forward pass of the constraint pipeline, one control channel per row
    of ``theta`` (or one channel for a 1-D ``theta``): the waveform and the
    tanh stage, which :func:`_shape_backward` reads."""
    # d bounded / d windowed = 1 at 0; tanh saturates where the exp of the
    # same sigmoid written as 2 / (1 + exp(-2 x / f_max)) - 1 overflowed
    tanh = np.tanh((theta @ spec._windowed_basis) / spec.f_max)
    return (spec.f_max * tanh) @ spec._band_pinv @ spec.fourier_basis, tanh


def _shape_backward(grad_f: np.ndarray, tanh: np.ndarray, spec: PulseSpec) -> np.ndarray:
    """Pull gradients w.r.t. the waveform samples, one channel per row, back
    to the rows of theta; ``tanh`` is the tanh stage of the forward pass."""
    grad_bounded = grad_f @ spec._band_pinv @ spec.fourier_basis   # self-adjoint
    return (grad_bounded * (1.0 - tanh * tanh)) @ spec._windowed_basis.T


@dataclass(frozen=True)
class ControlContext:
    """The rotating frame of one gate job.

    ``frame[k]`` is the SU(2) frame sample ``U_k`` of one qubit at the
    midpoint of step ``k``; two qubits share it, so their frame is
    ``R_k = U_k (x) U_k`` (one qubit: ``R_k = U_k``).  Step ``k`` sees each
    operator ``O`` of :func:`.lindblad._static_operators` (drift ``coupling_j *
    (z (x) z)``, ``sigma_y`` controls, lowering and ``sigma_z`` jumps) as
    ``R_k^dag O R_k``.  ``duration``, keyword-only, is the job's length in
    ns, finite and positive; the step length ``dt`` is ``duration / steps``,
    from the number of samples.  ``coupling_j`` is in rad/ns and must be
    finite.

    GRAPE reads the frame through :attr:`_interaction_frame`: the
    increments ``F_k = E_{k+1}^dag E_k`` of ``E_k = R_k^dag T``, in whose
    columns every step is block diagonal (see :func:`_block_steps`), and
    the end samples ``E_0`` and ``E_{n-1}``.  The samples must be unitary
    with determinant 1, so that for one qubit every ``F_k`` is in SU(2).
    A 2-qubit context also holds the work arrays of its scan
    (:attr:`_scan_work`), which each scan overwrites; one context serves
    one scan at a time.
    """

    frame: np.ndarray
    n_qubits: int = 1
    coupling_j: float = 0.0
    duration: InitVar[float] = field(kw_only=True)
    dt: float = field(init=False)

    def __post_init__(self, duration: float) -> None:
        frame = np.array(self.frame, dtype=complex)
        if frame.ndim != 3 or frame.shape[0] < 1 or frame.shape[1:] != (2, 2):
            raise InvalidParameterError(
                f"frame must have shape (steps >= 1, 2, 2), got {frame.shape}"
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
        check_finite(coupling_j=self.coupling_j, duration=duration)
        if self.n_qubits == 1 and self.coupling_j != 0.0:
            raise InvalidParameterError("a single qubit has no coupling")
        if not duration > 0.0:
            raise InvalidParameterError(f"duration must be positive, got {duration}")
        frame.flags.writeable = False
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "dt", duration / frame.shape[0])

    @property
    def steps(self) -> int:
        return self.frame.shape[0]

    @property
    def dimension(self) -> int:
        return 2**self.n_qubits

    @cached_property
    def _interaction_frame(self):
        """``(F, E_0, E_{n-1})``: the ``steps - 1`` increments
        ``F_k = E_{k+1}^dag E_k`` and the end samples of ``E_k = R_k^dag T``,
        with ``W`` the sigma_y eigenbasis.  For one qubit ``T = W``, ``E_k``
        has determinant ``-i`` and ``F_k`` is in SU(2).  For two ``T`` is
        ``W (x) W`` in the order :data:`_PAIRED`, where both blocks of every
        step are regular, and ``F`` holds the real 8x8 forms of the ``F_k``
        (:func:`_real_form`), on which the 2-qubit scan runs: the stacked
        complex 4x4 product costs about four times the real one, and the
        forms are built here once per context, not on every scan."""
        e = self.frame.conj().transpose(0, 2, 1) @ _SIGMA_Y_BASIS
        f = e[1:].conj().transpose(0, 2, 1) @ e[:-1]
        if self.n_qubits == 1:
            return f, e[0], e[-1]
        f = _kron(f, f)[:, _PAIRED][:, :, _PAIRED]
        return _real_form(f), *(np.kron(x, x)[:, _PAIRED] for x in (e[0], e[-1]))

    @cached_property
    def _scan_work(self) -> "_ScanWork":
        """The work arrays of the 2-qubit scan, made on the first scan, so
        that a context that is never scanned allocates none."""
        return _ScanWork(self.steps)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-step ``kron(a[k], b[k])``; either factor may be one fixed matrix."""
    d = a.shape[-1]
    return np.einsum("...ab,...cd->...acbd", a, b).reshape(-1, d * d, d * d)


def rotating_frame_trajectory(
    drive: DriveSpec,
    coeffs: EffectiveCoefficients,
    duration: float,
    steps: int,
    substeps: int,
    verify: bool = False,
) -> np.ndarray:
    """The ``(steps, 2, 2)`` SU(2) qubit frame samples on the step-midpoint
    grid of a gate job, for a :class:`ControlContext` of any job on it: the
    qubit model ``coeffs`` under ``drive``.

    ``duration`` in ns; the model and the drive come in rad/us.  The
    samples are integrated with ``substeps`` pieces per sample interval.
    ``steps`` and ``substeps`` must be at least 1 and ``duration`` finite
    and positive.  With ``verify=True`` the frame is re-integrated at half
    the substep resolution and any sample moving by more than 1e-9 raises
    :class:`IntegrationError`; ``substeps`` must then be at least 2, so that
    the halved grid differs.  The check is off by default: at the gate
    job's 1024 substeps over 10 ns the benchmark points move by 1.4e-9 to
    3.4e-9.
    """
    check_finite(duration=duration)
    min_substeps = 2 if verify else 1
    if steps < 1 or substeps < min_substeps or not duration > 0.0:
        raise InvalidParameterError(
            f"frame grid needs steps >= 1, substeps >= {min_substeps} and "
            f"duration > 0; got {steps}, {substeps} and {duration}"
        )
    mids = (np.arange(steps) + 0.5) * (duration / steps)
    us = _sampled_propagators(drive, coeffs, mids, substeps, RAD_PER_US_TO_RAD_PER_NS)
    if verify:
        coarse = _sampled_propagators(
            drive, coeffs, mids, substeps // 2, RAD_PER_US_TO_RAD_PER_NS
        )
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
    """The steps of ``T^dag H0(f_k) T`` on its 2x2 blocks ``(b, b + d/2)``.

    ``T^dag H0(f) T`` is real: ``f Z`` for one qubit and
    ``J XX + f1 ZI + f2 IZ`` for two, in the order :data:`_PAIRED`.  On
    block ``b`` it is ``s Z + J X`` with ``s = sum_c z_cb f_c`` (``z`` of
    :data:`_BLOCK_SIGNS`).  With ``lambda = hypot(s, J)`` and ``theta =
    lambda dt`` the block step is
    ``B = cos(theta) I - i (sin(theta) / lambda) (s Z + J X)
    = [[cos - i gamma, -i beta], [-i beta, cos + i gamma]]`` with
    ``gamma = sin(theta) s / lambda`` and ``beta = sin(theta) J / lambda``,
    and ``B^dag dB/ds = -i dt (g_x X + g_y Y + g_z Z)`` with
    ``g_x = (s J / lambda^2) (1 - c1)``, ``g_y = (J / lambda) c2`` and
    ``g_z = (s^2 + c1 J^2) / lambda^2``, where ``c1 = sin(2 theta) /
    (2 theta)`` and ``c2 = sin(theta)^2 / theta``.  At ``J = 0`` the block
    is ``exp(-i s dt Z)``: ``gamma = sin(s dt)``, ``beta = 0`` and the
    generator ``-i dt Z``, with no division where theta can vanish.
    Returns ``(cos, gamma, beta, (g_x, g_y, g_z))``, each array with one
    row per block.
    """
    dt, j = context.dt, context.coupling_j
    s = _BLOCK_SIGNS[context.n_qubits].T @ waveforms
    if j == 0.0:
        angle = s * dt
        return np.cos(angle), np.sin(angle), np.zeros_like(angle), (0.0, 0.0, 1.0)
    theta = np.hypot(s, j) * dt   # >= |J| dt > 0
    cos, sin = np.cos(theta), np.sin(theta)
    ns, nj = s * (dt / theta), j * (dt / theta)   # s / lambda and J / lambda
    gamma, beta = sin * ns, sin * nj
    c1 = sin * cos / theta
    gens = (ns * nj * (1.0 - c1), sin * beta / theta, ns**2 + c1 * nj**2)
    return cos, gamma, beta, gens


class _ScanWork:
    """The work arrays of the 2-qubit scan of one context on ``n`` steps,
    each written in place by every scan.

    ``steps`` holds the real forms ``C8_k`` in ``n_blocks`` blocks of
    ``block = ceil(sqrt(n))``; ``steps[0]`` and the padding after step
    ``n - 1`` are the identity, which no scan overwrites.  ``block_steps``
    holds the ``B8_k``, ``prefix`` receives the ``L8_k`` of
    :func:`_prefix_products` and ``lm`` the ``L8_k H8`` of the gradient.
    """

    def __init__(self, n: int):
        self.n = n
        self.block = math.isqrt(n - 1) + 1
        self.n_blocks = -(-n // self.block)
        padded = self.n_blocks * self.block
        self.steps = np.broadcast_to(np.eye(8), (padded, 8, 8)).copy()
        self.partial = np.empty((self.n_blocks, self.block, 8, 8))
        self.carry = np.empty((self.n_blocks, 8, 8))
        self.carry[0] = np.eye(8)
        self.prefix = np.empty((padded, 8, 8))
        self.block_steps = np.empty((n, 8, 8))
        self.lm = np.empty((n, 8, 8))


def _prefix_products(work: _ScanWork) -> np.ndarray:
    """Ordered prefixes ``steps[i] @ ... @ steps[0]`` of ``work.steps``, the
    first ``work.n`` of ``work.prefix``, which the next scan overwrites.

    The steps are cut into blocks of about ``sqrt(n)``: a serial pass inside
    the blocks, batched over them, then one pass over the block totals,
    one ``np.dot`` each, whose running products (the carries) multiply each
    block, so both serial passes are about ``sqrt(n)`` long.  Each block
    meets its carry in one 2-D product of its stacked rows, which gives the
    bits of the per-step products at less cost per call.
    """
    blocks = work.steps.reshape(work.n_blocks, work.block, 8, 8)
    partial, carry = work.partial, work.carry
    partial[:, 0] = blocks[:, 0]
    for i in range(1, work.block):
        np.matmul(blocks[:, i], partial[:, i - 1], out=partial[:, i])
    for b in range(1, work.n_blocks):
        np.dot(partial[b - 1, -1], carry[b - 1], out=carry[b])
    rows = (work.n_blocks, work.block * 8, 8)
    np.matmul(partial.reshape(rows), carry, out=work.prefix.reshape(rows))
    return work.prefix[: work.n]


def _forward_scan(context: ControlContext, waveforms: np.ndarray):
    """One scan in the interaction picture of the frame.

    The step propagator is ``E_k B_k E_k^dag``, so the prefix ``P_k`` of
    the steps before step ``k`` is ``E_k L_k E_0^dag`` with ``L_0 = I`` and
    ``L_{k+1} = C_k L_k``, ``C_k = F_k B_k`` (see
    :attr:`ControlContext._interaction_frame`), and the propagator is
    ``U = E_{n-1} B_{n-1} L_{n-1} E_0^dag``.  Returns ``L_0 .. L_{n-1}``,
    ``U`` and the generators ``(g_x, g_y, g_z)`` of :func:`_block_steps`.

    For one qubit ``B_k = diag(p_k, p_k*)`` and every ``C_k`` is in SU(2),
    so ``L`` is the entry pair ``(a, b)`` of ``[[a, -b*], [b, a*]]``.  For
    two the scan runs on the permuted real 8x8 forms (basis order
    :data:`_PAIRED`): each ``B8_k`` is one 2-D product of its coefficient
    rows with :data:`_STEP_PATTERNS`, ``C8_k = F8_k B8_k`` one batched real
    product, and ``L`` is the stack of the whole ``L8_k``, whose rows the
    gradient reads, in the work arrays of the context (:class:`_ScanWork`),
    so it is valid only until the next call on the same context.  The real
    form avoids numpy's slow stacked complex 4x4 product, and the work
    arrays the page faults that fresh arrays of 128 KiB or more take on
    every call.
    """
    f, e_first, e_last = context._interaction_frame
    cos, gamma, beta, gens = _block_steps(context, waveforms)
    if context.n_qubits == 1:
        p = cos[0] - 1j * gamma[0]
        # C_k = F_k diag(p_k, p_k*) has the entries p_k times those of F_k
        a, b = _su2_prefix_products(
            np.concatenate([[1.0], f[:, 0, 0] * p[:-1]]),
            np.concatenate([[0.0], f[:, 1, 0] * p[:-1]]),
        )
        l = a, b
        last = _su2_matrices(p[-1] * a[-1], np.conj(p[-1]) * b[-1])
    else:
        work, n = context._scan_work, context.steps
        b8 = work.block_steps
        coefs = np.concatenate([cos, gamma, beta])
        np.matmul(coefs.T, _STEP_PATTERNS, out=b8.reshape(n, 64))
        np.matmul(f, b8[:-1], out=work.steps[1:n])
        l = _prefix_products(work)
        column = b8[-1] @ l[-1, :, :4]   # the first column block: [Re; Im]
        last = column[:4] + 1j * column[4:]
    return l, e_last @ last @ e_first.conj().T, gens


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

    For two qubits, with w = conj(tr) (-i dt) / d and the generator
    -i dt (g_x X + g_y Y + g_z Z) of block (l, h) = (b, b + 2), the real
    part taken is 2 g_x Re Y_lh - 2 g_y Im Y_lh + g_z (Y_ll - Y_hh) with
    Y_k = L_k H L_k^dag and H the Hermitian part of w M; in the real forms
    Y8_k[p, q] is row p of L8_k H8 (one 2-D product over all k) dotted with
    row q of L8_k, and Im Y_pq is Y8_k[p + 4, q].
    """
    d = context.dimension
    _, e_first, _ = context._interaction_frame
    l, u_total, (g_x, g_y, g_z) = _forward_scan(context, waveforms)
    m = e_first.conj().T @ target.unitary.conj().T @ u_total @ e_first
    tr = np.trace(m) / d
    fid = abs(tr) ** 2
    w = np.conj(tr) * (-1j * context.dt)

    if context.n_qubits == 1:
        # (Z_k)_00 - (Z_k)_11 for L_k = [[a, -b*], [b, a*]]; g = Z
        a, b = l
        ab = a * b
        overlap = (
            (np.abs(a) ** 2 - np.abs(b) ** 2) * (m[0, 0] - m[1, 1])
            - 2.0 * (ab.conj() * m[1, 0] + ab * m[0, 1])
        )[None]
        return fid, 2.0 * np.real(w * overlap / d), u_total
    k = w * m / d
    h8 = _real_form(0.5 * (k + k.conj().T))
    lm = context._scan_work.lm
    np.matmul(l.reshape(-1, 8), h8, out=lm.reshape(-1, 8))
    diag = np.einsum("kpa,kpa->pk", lm[:, :4], l[:, :4])
    re_lh = np.einsum("kpa,kpa->pk", lm[:, :2], l[:, 2:4])
    im_lh = np.einsum("kpa,kpa->pk", lm[:, 4:6], l[:, 2:4])
    per_block = 2.0 * (g_x * re_lh - g_y * im_lh) + g_z * (diag[:2] - diag[2:])
    return fid, 2.0 * (_BLOCK_SIGNS[2] @ per_block), u_total


def _value_and_grad(
    theta: np.ndarray,
    spec: PulseSpec,
    context: ControlContext,
    target: GateTarget,
):
    """``(F, gradient, waveforms)``: the gradient is that of GRAPE's one
    objective, F less ``(AMPLITUDE_PENALTY mean(e^2) + EDGE_PENALTY (f_0^2 +
    f_{n-1}^2)) / f_max^2``, ``e`` the excess of ``|f|`` over ``f_max``;
    no caller reads that objective's value, so it is not formed.

    The spec's steps and controls must be the frame's steps and qubits, and
    the target's dimension the frame's; a mismatch raises
    :class:`InvalidParameterError` naming both values."""
    for what, owner, value, frame_value in (
        ("steps", "the pulse spec", spec.steps, context.steps),
        ("controls", "the pulse spec", spec.n_controls, context.n_qubits),
        ("dimension", f"target {target.name!r}", target.dim, context.dimension),
    ):
        if value != frame_value:
            raise InvalidParameterError(
                f"{what}: {owner} has {value}, the frame {frame_value}"
            )
    theta = np.asarray(theta, dtype=float)
    if theta.size != spec.n_controls * spec.params_per_control:
        raise InvalidParameterError(
            f"theta needs {spec.n_controls * spec.params_per_control} entries, "
            f"got {theta.size}"
        )
    waveforms, tanh = _shape_stages(theta.reshape(spec.n_controls, -1), spec)
    fid, grad_f, _ = _fidelity_and_waveform_grad(context, waveforms, target)
    f_max, f2 = spec.f_max, spec.f_max**2
    # sign(f) max(|f| - f_max, 0), the signed excess over the bound
    excess = waveforms - np.clip(waveforms, -f_max, f_max)
    grad_f -= 2.0 * AMPLITUDE_PENALTY * excess / (f2 * waveforms.size)
    edges = waveforms[:, :: spec.steps - 1]   # the first and last samples
    grad_f[:, :: spec.steps - 1] -= 2.0 * EDGE_PENALTY * edges / f2
    return fid, _shape_backward(grad_f, tanh, spec).ravel(), waveforms


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
    rng = np.random.default_rng(settings.seed)
    theta = INIT_SCALE * rng.standard_normal(spec.n_controls * spec.params_per_control)

    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    best_theta = theta.copy()
    best_fid = -np.inf
    history = []
    for it in range(1, settings.iterations + 1):
        fid, grad, waveforms = _value_and_grad(theta, spec, context, target)
        if it == 1:
            # the result when no iterate is accepted: best_theta stays theta
            best_waveforms = waveforms
        # the amplitude is read only for an iterate that would be the best
        if fid > best_fid and np.max(np.abs(waveforms)) / spec.f_max <= 1.0 + GIBBS_TOL:
            best_fid = fid
            best_theta = theta.copy()
            best_waveforms = waveforms
        history.append(best_fid if np.isfinite(best_fid) else fid)
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * grad
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * grad * grad
        m_hat = m / (1.0 - ADAM_BETA1**it)
        theta = theta + ADAM_STEP * m_hat / (np.sqrt(v / (1.0 - ADAM_BETA2**it)) + 1e-8)

    return PulseResult(
        theta=best_theta,
        fidelity=float(best_fid),
        fidelity_history=np.asarray(history),
        waveforms=best_waveforms,
    )
