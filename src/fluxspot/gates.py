"""Gate design at a modulated operating point.

Control pulses add a transverse drive ``f(t) sigma_y`` on top of the running
flux modulation.  All gate dynamics happen in the rotating frame of the
modulated qubit Hamiltonian: frame-conjugated operator samples are
precomputed once per (drive, duration) and every optimizer iteration reuses
them.  Pulses are parametrized in the frequency domain and pushed through a
fixed constraint pipeline (boundary window, amplitude sigmoid, spectral
band-limit); gradients are exact through both the step propagators and the
pipeline.

Times in this module are nanoseconds and rates rad/ns; the drive and qubit
parameters arrive in the library's rad/us convention and are converted on
entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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
    """Frame-conjugated operator samples for one gate job.

    ``controls[c][k]`` is the control operator of channel ``c`` at step
    ``k``; ``drift[k]`` is the always-on coupling term (``J zz`` in the
    frame for two qubits, zero for one).  ``lower_ops``/``dephase_ops``
    hold the per-qubit conjugated relaxation and dephasing jump operators
    on the same grid, kept in the 2x2 single-qubit form and embedded on
    demand.
    """

    dimension: int
    steps: int
    dt: float
    drift: np.ndarray
    controls: tuple
    lower_ops: tuple
    dephase_ops: tuple
    substeps: int = 0

    @property
    def n_qubits(self) -> int:
        return 1 if self.dimension == 2 else 2

    @property
    def duration(self) -> float:
        return self.steps * self.dt

    def embedded_jumps(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-qubit (relaxation, dephasing) jump samples in full dimension."""
        if self.n_qubits == 1:
            return [(self.lower_ops[0], self.dephase_ops[0])]
        eye = np.eye(2)
        (low_a, low_b), (deph_a, deph_b) = self.lower_ops, self.dephase_ops
        return [
            (_kron(low_a, eye), _kron(deph_a, eye)),
            (_kron(eye, low_b), _kron(eye, deph_b)),
        ]


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
    totals gives the samples.
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
    totals = np.stack(
        [np.stack([a, -b.conj()], axis=-1), np.stack([b, a.conj()], axis=-1)],
        axis=1,
    )
    return _prefix_products(totals)


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
    """Precompute frame-conjugated operators on the step-midpoint grid.

    ``duration`` in ns, ``coupling_j`` in rad/ns; the qubit/drive parameters
    come in rad/us.  With ``verify=True`` the frame is re-integrated at half
    the substep resolution and any sample moving by more than 1e-9 raises
    :class:`IntegrationError`.  The check is off by default: at the default
    1024 substeps over 10 ns the benchmark points move by 1.4e-9 to 3.4e-9.
    """
    if n_qubits not in (1, 2):
        raise InvalidParameterError("n_qubits must be 1 or 2")
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

    def conj_all(op: np.ndarray) -> np.ndarray:
        return np.einsum("kba,bc,kcd->kad", us.conj(), op, us)

    sy = conj_all(PAULI_Y)
    sz = conj_all(PAULI_Z)
    slow = conj_all(LOWERING)

    if n_qubits == 1:
        return ControlContext(
            dimension=2,
            steps=steps,
            dt=dt,
            drift=np.zeros((steps, 2, 2), dtype=complex),
            controls=(sy,),
            lower_ops=(slow,),
            dephase_ops=(sz,),
            substeps=substeps,
        )

    eye = np.eye(2)
    return ControlContext(
        dimension=4,
        steps=steps,
        dt=dt,
        drift=coupling_j * _kron(sz, sz),
        controls=(_kron(sy, eye), _kron(eye, sy)),
        lower_ops=(slow, slow),
        dephase_ops=(sz, sz),
        substeps=substeps,
    )


def _step_hamiltonians(context: ControlContext, waveforms: np.ndarray) -> np.ndarray:
    h = context.drift.copy()
    for c in range(waveforms.shape[0]):
        h += waveforms[c][:, None, None] * context.controls[c]
    return h


def _as_waveform_matrix(context: ControlContext, waveforms) -> np.ndarray:
    w = np.asarray(waveforms, dtype=float)
    if w.ndim == 1:
        w = w[None, :]
    if w.shape != (len(context.controls), context.steps):
        raise InvalidParameterError(
            f"waveforms must have shape ({len(context.controls)}, "
            f"{context.steps}), got {w.shape}"
        )
    return w


def _step_exponentials(context: ControlContext, waveforms: np.ndarray):
    """Eigenvalues, eigenvectors, eigenphases ``exp(-i lambda dt)`` and
    exponentials ``exp(-i H_k dt)`` of the step Hamiltonians."""
    evals, evecs = np.linalg.eigh(_step_hamiltonians(context, waveforms))
    phases = np.exp(-1j * evals * context.dt)
    steps = np.einsum("kab,kb,kcb->kac", evecs, phases, evecs.conj())
    return evals, evecs, phases, steps


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
    evals, evecs, phases, steps = _step_exponentials(context, waveforms)

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
    # with O_ck the control operator in the step eigenbasis; the trace is
    # cyclic, so W_k = V_k^dag P_k U_d^dag S_k+1 V_k carries every step.  The
    # steps are unitary, so the suffix S_k+1 = U P_k+1^dag.
    evecs_dag = evecs.conj().transpose(0, 2, 1)
    p_before = np.concatenate([np.eye(d)[None], prefix[:-1]])   # P_0 .. P_n-1
    w = evecs_dag @ p_before @ ud_dag_u @ prefix.conj().transpose(0, 2, 1) @ evecs
    inner = evecs_dag @ np.stack(context.controls) @ evecs
    overlap = np.einsum("kba,ckab->ck", w, gmat * inner)
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


@dataclass(frozen=True)
class PulseResult:
    """Outcome of one pulse optimization."""

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

    Deterministic under ``settings.seed``.  The recorded history is the
    best-so-far fidelity, which is monotone by construction; failing to
    reach ``settings.target_fidelity`` is reported through ``converged``,
    not raised.
    """
    if len(context.controls) != spec.n_controls:
        raise InvalidParameterError(
            f"context provides {len(context.controls)} controls, "
            f"spec expects {spec.n_controls}"
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
        overshoot = float(np.max(np.abs(info["waveforms"]))) / spec.f_max
        if fid > best_fid and overshoot <= 1.0 + GIBBS_TOL:
            best_fid = fid
            best_theta = theta.copy()
        history.append(best_fid if np.isfinite(best_fid) else fid)
        m = settings.beta1 * m + (1.0 - settings.beta1) * grad
        v = settings.beta2 * v + (1.0 - settings.beta2) * grad * grad
        m_hat = m / (1.0 - settings.beta1**it)
        v_hat = v / (1.0 - settings.beta2**it)
        theta = theta + settings.learning_rate * m_hat / (np.sqrt(v_hat) + 1e-8)

    final_spec = replace(spec, theta=best_theta)
    waveforms = np.vstack(
        [shape_pulse(th, spec) for th in _split_theta(best_theta, final_spec)]
    )
    return PulseResult(
        theta=best_theta,
        fidelity=float(best_fid),
        fidelity_history=np.asarray(history),
        waveforms=waveforms,
        converged=bool(best_fid >= settings.target_fidelity),
    )
