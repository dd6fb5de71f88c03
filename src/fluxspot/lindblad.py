"""Open-system gate evaluation: the pulse superoperator of the Lindblad
dynamics, its process matrix and its average gate fidelity.

The density matrix evolves in the same rotating frame as the closed-system
gate dynamics; relaxation and dephasing enter through per-qubit lowering and
sigma_z jump operators, with rates taken from a decoherence-rate report
(1/us, converted to the gate module's ns clock internally).  The generator is
piecewise constant on the pulse grid, so the whole pulse is one exact
superoperator: the product of the step Liouvillian exponentials, which a
batched scaling-and-squaring Pade approximant (:func:`_expm`) forms in
fixed blocks of steps, with one degree and scaling for the whole pulse.
The frame enters each step as a conjugation of one lab-frame Liouvillian
(Havel, J. Math. Phys. 44, 534 (2003) for the Lindblad, superoperator and
chi forms).  The process matrix and the fidelity are read off that one
superoperator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidParameterError, TomographyError
from .floquet import PAULI_X, PAULI_Y, PAULI_Z, _tree_product
from .gates import ControlContext, _as_waveform_matrix, _kron, _static_operators
from .units import RAD_PER_US_TO_RAD_PER_NS

__all__ = ["LindbladModel", "process_matrix", "average_gate_fidelity"]


@dataclass(frozen=True)
class LindbladModel:
    """Per-qubit (relaxation, dephasing) rate pairs in 1/us.

    The jump operators are fixed (see :func:`gates._static_operators`); the
    model only carries the rates, e.g. ``((gamma_1, gamma_z),)`` for one
    qubit.
    """

    rates: tuple

    def __post_init__(self) -> None:
        rates = tuple((float(r), float(d)) for r, d in self.rates)
        if not all(math.isfinite(x) and x >= 0 for pair in rates for x in pair):
            raise InvalidParameterError(
                f"rates must be finite and non-negative, got {rates}"
            )
        object.__setattr__(self, "rates", rates)

    @property
    def n_qubits(self) -> int:
        return len(self.rates)


def _pauli_basis(d: int) -> np.ndarray:
    """The d^2 Pauli products as a (d^2, d, d) stack, in (I, X, Y, Z) order
    with the first qubit's index the slower one."""
    singles = np.stack([np.eye(2, dtype=complex), PAULI_X, PAULI_Y, PAULI_Z])
    if d == 2:
        return singles
    return _kron(singles[:, None], singles[None, :])


#: Higham's 1-norm bounds theta_m for the Pade degrees m, lowest first
_PADE_THETA = {
    3: 1.495585217958292e-2,
    5: 2.539398330063230e-1,
    7: 9.504178996162932e-1,
    9: 2.097847961257068e0,
    13: 5.371920351148152e0,
}


#: steps per block of the pulse superoperator: a 2-qubit block's
#: (32, 16, 16) temporaries take 128 kB each
_BLOCK_STEPS = 32


def _norm_1(a: np.ndarray) -> float:
    """The largest column-sum 1-norm of a ``(..., d, d)`` stack."""
    return float(np.abs(a).sum(axis=-2).max())


def _expm(a: np.ndarray, norm: float | None = None) -> np.ndarray:
    """The exponential of every matrix of a ``(..., d, d)`` stack.

    Scaling and squaring with one [m/m] Pade approximant for the whole
    stack (Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005)): the lowest
    m whose ``theta_m`` bounds ``norm``, else m = 13 on the stack scaled by
    ``2^-s`` and squared s times after.  ``norm`` is the stack's largest
    column-sum 1-norm unless given; a block of a longer stack passes the
    whole stack's, so that every block gets the (m, s) and the bits of one
    call on the whole stack.  With ``r = (V - U)^-1 (V + U)`` formed as
    ``I + 2 (V - U)^-1 U``, a near-identity step rounds only its small part.
    """
    if norm is None:
        norm = _norm_1(a)
    m = next((m for m, theta in _PADE_THETA.items() if norm <= theta), 13)
    s = max(0, math.ceil(math.log2(norm / _PADE_THETA[13]))) if m == 13 else 0
    a = a / 2.0**s
    # Higham's integer coefficients b_j = (2m - j)! / (j! (m - j)!)
    f = math.factorial
    b = [float(f(2 * m - j) // (f(j) * f(m - j))) for j in range(m + 1)]
    eye = np.eye(a.shape[-1])
    a2 = a @ a
    if m < 13:
        powers = [eye, a2]
        while len(powers) < (m + 1) // 2:
            powers.append(powers[-1] @ a2)
        u = a @ sum(b[2 * j + 1] * x for j, x in enumerate(powers))
        v = sum(b[2 * j] * x for j, x in enumerate(powers))
    else:
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
    for _ in range(s):
        r = r @ r
    return r


def _pulse_superoperator(
    context: ControlContext, waveforms, model: LindbladModel
) -> np.ndarray:
    """The whole pulse as one d^2 x d^2 superoperator on row-major vec(rho).

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
    degree and scaling of the largest 1-norm of the whole pulse) conjugated
    by their ``S_k``.  The step superoperators are then multiplied in time
    order.  The bits are those of one call on the whole stack, and beside
    the stack only one block's temporaries are alive: a 2-qubit, 500-step
    pulse holds a 2 MB stack and 128 kB per temporary.
    """
    if model.n_qubits != context.n_qubits:
        raise InvalidParameterError("model and context disagree on qubit count")
    eye = np.eye(context.dimension)
    w = _as_waveform_matrix(context, waveforms)
    drift, controls, jumps = _static_operators(context.n_qubits, context.coupling_j)

    def commutator(h):
        return -1j * (np.kron(h, eye) - np.kron(eye, h.T))

    base = commutator(drift)
    for (low, deph), rates in zip(jumps, model.rates):
        for gamma, op in zip(rates, (low, deph)):
            op2 = op.conj().T @ op
            anti = 0.5 * (np.kron(op2, eye) + np.kron(eye, op2.T))
            base += gamma * RAD_PER_US_TO_RAD_PER_NS * (np.kron(op, op.conj()) - anti)
    per_control = np.stack([commutator(c) for c in controls])
    steps = np.empty((context.steps,) + base.shape, dtype=complex)
    blocks = [
        slice(k, k + _BLOCK_STEPS) for k in range(0, context.steps, _BLOCK_STEPS)
    ]
    for b in blocks:
        steps[b] = context.dt * (
            base + np.einsum("ck,cab->kab", w[:, b], per_control)
        )
    norm = max(_norm_1(steps[b]) for b in blocks)
    for b in blocks:
        frame = context.frame[b]
        r = frame if context.n_qubits == 1 else _kron(frame, frame)
        r_t = r.transpose(0, 2, 1)
        # S_k^dag = R_k^dag (x) R_k^T
        steps[b] = _kron(r_t.conj(), r_t) @ _expm(steps[b], norm) @ _kron(r, r.conj())
    return _tree_product(steps)


def process_matrix(s: np.ndarray) -> np.ndarray:
    """The process matrix chi of the superoperator ``s`` in the Pauli
    product basis: ``chi_pq = <P_p (x) P_q^*, S> / d^2``.

    ``s`` acts on row-major vec(rho), so its column ``j d + k`` is the image
    ``E(|j><k|)`` of a matrix unit.  Raises :class:`TomographyError` when
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
