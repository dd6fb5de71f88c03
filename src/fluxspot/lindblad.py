"""Open-system gate evaluation: the pulse superoperator of the Lindblad
dynamics, its process matrix and its average gate fidelity.

The density matrix evolves in the same rotating frame as the closed-system
gate dynamics; relaxation and dephasing enter through per-qubit lowering and
sigma_z jump operators.  The qubits share one frame, so one working point,
and every qubit gets its one (gamma_1, gamma_z) rate pair (1/us, converted
to the gate module's ns clock internally).  The generator is
piecewise constant on the pulse grid, so the whole pulse is one exact
superoperator: the product of the step Liouvillian exponentials, which a
batched scaling-and-squaring [13/13] Pade approximant (:func:`_expm`)
forms in fixed blocks of steps, with one scaling for the whole pulse.
The frame enters each step as a conjugation of one lab-frame Liouvillian
(Havel, J. Math. Phys. 44, 534 (2003) for the Lindblad, superoperator and
chi forms).  The process matrix and the fidelity are read off that one
superoperator.
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import InvalidParameterError, TomographyError, check_finite
from .floquet import LOWERING, PAULI_X, PAULI_Y, PAULI_Z
from .gates import ControlContext, _as_waveform_matrix, _kron
from .units import RAD_PER_US_TO_RAD_PER_NS

__all__ = ["process_matrix", "average_gate_fidelity"]


def _pauli_basis(d: int) -> np.ndarray:
    """The d^2 Pauli products as a (d^2, d, d) stack, in (I, X, Y, Z) order
    with the first qubit's index the slower one."""
    singles = np.stack([np.eye(2, dtype=complex), PAULI_X, PAULI_Y, PAULI_Z])
    if d == 2:
        return singles
    return _kron(singles[:, None], singles[None, :])


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


#: Higham's 1-norm bound theta_13 of the degree-13 Pade approximant
_THETA_13 = 5.371920351148152


#: steps per block of the pulse superoperator: a 2-qubit block's
#: (32, 16, 16) temporaries take 128 kB each
_BLOCK_STEPS = 32


def _norm_1(a: np.ndarray) -> float:
    """The largest column-sum 1-norm of a ``(..., d, d)`` stack."""
    return float(np.abs(a).sum(axis=-2).max())


def _expm(a: np.ndarray, norm: float | None = None) -> np.ndarray:
    """The exponential of every matrix of a ``(..., d, d)`` stack.

    Scaling and squaring with the [13/13] Pade approximant (Higham, SIAM
    J. Matrix Anal. Appl. 26, 1179 (2005)) on the stack scaled by ``2^-s``
    and squared s times after: ``s = ceil(log2(norm / theta_13))`` above
    ``theta_13``, else 0.  ``norm`` is the stack's largest column-sum
    1-norm unless given; a block of a longer stack passes the whole stack's,
    so that every block gets the s and the bits of one call on the whole
    stack.  With ``r = (V - U)^-1 (V + U)`` formed as ``I + 2 (V - U)^-1
    U``, a near-identity step rounds only its small part, and a zero stack
    gives the identity exactly.
    """
    if norm is None:
        norm = _norm_1(a)
    s = math.ceil(math.log2(norm / _THETA_13)) if norm > _THETA_13 else 0
    a = a / 2.0**s
    # Higham's integer coefficients b_j = (26 - j)! / (j! (13 - j)!)
    f = math.factorial
    b = [float(f(26 - j) // (f(j) * f(13 - j))) for j in range(14)]
    eye = np.eye(a.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (
        a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
        + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye
    )
    v = (
        a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
        + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    )
    r = eye + 2.0 * np.linalg.solve(v - u, u)
    # squarings that blow up the round-off of a huge stack leave inf or NaN,
    # which process_matrix rejects
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(s):
            r = r @ r
    return r


def _pulse_superoperator(
    context: ControlContext, waveforms, gamma_1: float, gamma_z: float
) -> np.ndarray:
    """The whole pulse as one d^2 x d^2 superoperator on row-major vec(rho),
    with the relaxation and dephasing rates ``gamma_1`` and ``gamma_z``
    (1/us, finite and non-negative) on every qubit.

    From ``vec(A X B) = kron(A, B^T) vec(X)``, a Hamiltonian ``H`` and jump
    operators ``A`` give the Liouvillian ``-i(H (x) I - I (x) H^T)
    + sum gamma (A (x) A* - A^dag A (x) I / 2 - I (x) (A^dag A)^T / 2)``.
    Step k sees each operator of :func:`_static_operators` as
    ``R_k^dag O R_k``, so its Liouvillian is ``S_k^dag L_k S_k`` with
    ``S_k = R_k (x) R_k*`` and the lab-frame ``L_k = L_0 + sum_c f_ck L_c``
    (drift and dissipator, one commutator per control).

    The steps go in blocks of ``_BLOCK_STEPS``: one pass writes each
    block's generators ``dt L_k`` into a ``(steps, d^2, d^2)`` stack, and a
    second replaces them by their Pade exponentials (:func:`_expm`, with the
    scaling of the largest 1-norm of the whole pulse) conjugated
    by their ``S_k``.  The step superoperators are then multiplied in time
    order.  The bits are those of one call on the whole stack, and beside
    the stack only one block's temporaries are alive: a 2-qubit, 500-step
    pulse holds a 2 MB stack and 128 kB per temporary.  Finite samples
    whose generators overflow raise :class:`InvalidParameterError`.
    """
    check_finite(gamma_1=gamma_1, gamma_z=gamma_z)
    if gamma_1 < 0 or gamma_z < 0:
        raise InvalidParameterError(
            f"rates must be non-negative, got {gamma_1} and {gamma_z}"
        )
    eye = np.eye(context.dimension)
    w = _as_waveform_matrix(context, waveforms)
    drift, controls, jumps = _static_operators(context.n_qubits, context.coupling_j)

    def commutator(h):
        return -1j * (np.kron(h, eye) - np.kron(eye, h.T))

    base = commutator(drift)
    for pair in jumps:
        for gamma, op in zip((gamma_1, gamma_z), pair):
            op2 = op.conj().T @ op
            anti = 0.5 * (np.kron(op2, eye) + np.kron(eye, op2.T))
            base += gamma * RAD_PER_US_TO_RAD_PER_NS * (np.kron(op, op.conj()) - anti)
    per_control = np.stack([commutator(c) for c in controls])
    steps = np.empty((context.steps,) + base.shape, dtype=complex)
    blocks = [
        slice(k, k + _BLOCK_STEPS) for k in range(0, context.steps, _BLOCK_STEPS)
    ]
    # finite samples can still overflow dt L_k or its norm, which shows it
    with np.errstate(over="ignore", invalid="ignore"):
        for b in blocks:
            steps[b] = context.dt * (
                base + np.einsum("ck,cab->kab", w[:, b], per_control)
            )
        norm = max(_norm_1(steps[b]) for b in blocks)
    if not math.isfinite(norm):
        raise InvalidParameterError(f"the step generators overflow (1-norm {norm})")
    for b in blocks:
        frame = context.frame[b]
        r = frame if context.n_qubits == 1 else _kron(frame, frame)
        r_t = r.transpose(0, 2, 1)
        # S_k^dag = R_k^dag (x) R_k^T
        steps[b] = _kron(r_t.conj(), r_t) @ _expm(steps[b], norm) @ _kron(r, r.conj())
    return _tree_product(steps)


def _tree_product(mats: np.ndarray) -> np.ndarray:
    """Ordered product mats[-1] @ ... @ mats[0] by pairwise reduction."""
    while mats.shape[0] > 1:
        if mats.shape[0] % 2 == 1:
            tail, mats = mats[-1:], mats[:-1]
            mats = np.concatenate([np.matmul(mats[1::2], mats[0::2]), tail])
        else:
            mats = np.matmul(mats[1::2], mats[0::2])
    return mats[0]


def process_matrix(s: np.ndarray) -> np.ndarray:
    """The process matrix chi of the superoperator ``s`` in the Pauli
    product basis: ``chi_pq = <P_p (x) P_q^*, S> / d^2``.

    ``s`` acts on row-major vec(rho), so its column ``j d + k`` is the image
    ``E(|j><k|)`` of a matrix unit.  Raises :class:`TomographyError` when
    ``s`` is not finite (NaN passes every comparison below), when
    some ``|Tr E(|j><k|) - delta_jk|`` exceeds 5e-7 (a state
    ``(|j> + c|k>)(<j| + c^*<k|) / 2`` with ``|c| = 1`` weighs its four units
    by 2 in total, so a trace error above 1e-6 on it shows here), or when
    chi is not Hermitian (beyond 1e-8) or not positive semidefinite (beyond
    1e-9), that is, when the map is not completely positive (Choi, Linear
    Algebra Appl. 10, 285 (1975)).
    """
    s = np.asarray(s, dtype=complex)
    d = math.isqrt(s.shape[0])
    if d not in (2, 4) or s.shape != (d * d, d * d):
        raise InvalidParameterError(
            f"process matrix implemented for d = 2 and 4, got shape {s.shape}"
        )
    if not np.isfinite(s).all():
        raise TomographyError("superoperator is not finite")
    # images[j, k, a, b] = E(|j><k|)[a, b]
    images = s.T.reshape(d, d, d, d)
    trace_err = np.abs(np.trace(images, axis1=2, axis2=3) - np.eye(d)).ravel()
    if trace_err.max() > 5e-7:
        j, k = divmod(int(trace_err.argmax()), d)
        raise TomographyError(
            f"channel is not trace preserving on |{j}><{k}| "
            f"(error {trace_err.max():.2e})"
        )
    basis = _pauli_basis(d)
    chi = np.einsum("paj,qbk,jkab->pq", basis.conj(), basis, images) / d**2

    herm_err = np.max(np.abs(chi - chi.conj().T))
    if herm_err > 1e-8:
        raise TomographyError(f"chi not Hermitian (deviation {herm_err:.2e})")
    chi = 0.5 * (chi + chi.conj().T)
    min_eig = float(np.linalg.eigvalsh(chi).min())
    if min_eig < -1e-9:
        raise TomographyError(f"chi not positive semidefinite ({min_eig:.2e})")
    return chi


def average_gate_fidelity(s: np.ndarray, u: np.ndarray) -> float:
    """The average gate fidelity of the superoperator ``s`` to the unitary
    ``u``: ``(Tr(S_U^dag S) + sum_aj S_(aa),(jj)) / (d (d + 1))`` with
    ``S_U = U (x) U^*``.

    This is the mean over pure inputs of ``<psi|U^dag E(psi) U|psi>``
    (Nielsen, Phys. Lett. A 303, 249 (2002)); the second term is
    ``sum_j Tr E(|j><j|)``, which is d for a trace-preserving map.  The
    ``simulate`` artifact stores this number under ``process_fidelity``.
    """
    s = np.asarray(s, dtype=complex)
    u = np.asarray(u, dtype=complex)
    d = u.shape[0]
    if s.shape != (d * d, d * d):
        raise InvalidParameterError(
            f"dimension mismatch: superoperator {s.shape} vs unitary {u.shape}"
        )
    overlap = np.vdot(np.kron(u, u.conj()), s).real
    traces = s[:: d + 1, :: d + 1].sum().real
    return float((overlap + traces) / (d * (d + 1.0)))
