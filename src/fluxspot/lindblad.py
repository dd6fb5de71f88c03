"""Open-system gate evaluation: Lindblad propagation, process tomography and
process fidelity.

The density matrix evolves in the same rotating frame as the closed-system
gate dynamics; relaxation and dephasing enter through frame-conjugated jump
operators sampled per step, with rates taken from a decoherence-rate report
(1/us, converted to the gate module's ns clock internally).  The generator is
piecewise constant on the pulse grid, so the whole pulse is one exact
superoperator: the product of the step Liouvillian exponentials (Havel,
J. Math. Phys. 44, 534 (2003) for the Lindblad, superoperator and chi forms).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import IntegrationError, InvalidParameterError, TomographyError
from .floquet import PAULI_X, PAULI_Y, PAULI_Z, _tree_product
from .gates import ControlContext, _as_waveform_matrix, _kron, _step_hamiltonians

__all__ = [
    "LindbladModel",
    "ProcessMatrix",
    "evolve_density",
    "process_tomography",
    "process_fidelity",
    "chi_from_unitary",
    "channel_from_simulation",
]

_RATE_US_TO_NS = 1.0e-3


@dataclass(frozen=True)
class LindbladModel:
    """Per-qubit (relaxation, dephasing) rate pairs in 1/us.

    Jump operators are supplied by the :class:`ControlContext`; the model
    only carries the rates, e.g. ``((gamma_1, gamma_z),)`` for one qubit.
    """

    rates: tuple

    def __post_init__(self) -> None:
        rates = tuple((float(r), float(d)) for r, d in self.rates)
        if any(r < 0 or d < 0 for r, d in rates):
            raise InvalidParameterError("rates must be non-negative")
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


def _pulse_superoperator(
    context: ControlContext, waveforms, model: LindbladModel
) -> np.ndarray:
    """The whole pulse as one d^2 x d^2 superoperator on row-major vec(rho).

    Step k propagates exactly under its constant Liouvillian
    ``-i(H (x) I - I (x) H^T) + sum gamma (A (x) A* - A^dag A (x) I / 2
    - I (x) (A^dag A)^T / 2)``, from ``vec(A X B) = kron(A, B^T) vec(X)``;
    the step exponentials come from one batched ``expm`` and are multiplied
    in time order.
    """
    # imported here, its only caller, so that importing fluxspot loads no scipy
    from scipy.linalg import expm

    if model.n_qubits != context.n_qubits:
        raise InvalidParameterError("model and context disagree on qubit count")
    d = context.dimension
    eye = np.eye(d)
    w = _as_waveform_matrix(context, waveforms)
    hs = _step_hamiltonians(context, w).astype(complex, copy=False)
    # accumulated in place, already times dt: the d^4-per-step stacks
    # dominate the memory of a 2-qubit simulate
    gen = _kron(hs, eye)
    gen -= _kron(eye, hs.transpose(0, 2, 1))
    gen *= -1j * context.dt
    for (low, deph), (g_relax, g_deph) in zip(context.embedded_jumps(), model.rates):
        for gamma, ops in ((g_relax, low), (g_deph, deph)):
            if gamma > 0.0:
                rate = gamma * _RATE_US_TO_NS * context.dt
                op2 = ops.conj().transpose(0, 2, 1) @ ops
                gen += rate * _kron(ops, ops.conj())
                gen -= (0.5 * rate) * _kron(op2, eye)
                gen -= (0.5 * rate) * _kron(eye, op2.transpose(0, 2, 1))
    return _tree_product(expm(gen))


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
    set to zero this equals ``U rho0 U^dag`` of :func:`propagate_closed` up
    to round-off.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    d = context.dimension
    if rho0.shape != (d, d):
        raise InvalidParameterError(f"rho0 must be {d}x{d}")
    rho = channel_from_simulation(context, waveforms, model)(rho0)
    drift = abs(np.trace(rho).real - np.trace(rho0).real)
    if drift > 1e-9:
        raise IntegrationError(f"trace drifted by {drift:.2e}")
    return rho


def channel_from_simulation(context: ControlContext, waveforms, model: LindbladModel):
    """The open-system gate as a channel ``rho -> rho_final``; the pulse
    superoperator is built once and applied to every input."""
    super_op = _pulse_superoperator(context, waveforms, model)
    d = context.dimension

    def channel(rho: np.ndarray) -> np.ndarray:
        return (super_op @ np.asarray(rho, dtype=complex).ravel()).reshape(d, d)

    return channel


@dataclass(frozen=True)
class ProcessMatrix:
    """Channel coefficients in the Pauli product basis."""

    chi: np.ndarray
    d: int

    def __post_init__(self) -> None:
        chi = np.asarray(self.chi, dtype=complex)
        if chi.shape != (self.d**2, self.d**2):
            raise InvalidParameterError("chi must be d^2 x d^2")
        object.__setattr__(self, "chi", chi)

    @property
    def trace(self) -> float:
        return float(np.trace(self.chi).real)


def process_tomography(channel, d: int) -> ProcessMatrix:
    """Reconstruct the process matrix of a linear trace-preserving channel.

    The channel is applied to the d^2 matrix units ``|j><k|`` (a linear
    channel accepts any operator); their images are the columns of the
    superoperator on row-major vec(rho), which one contraction re-expresses
    in the Pauli product basis.  Raises :class:`TomographyError` when some
    ``|Tr E(|j><k|) - delta_jk|`` exceeds 5e-7 (a state
    ``(|j> + c|k>)(<j| + c^*<k|) / 2`` with ``|c| = 1`` weighs its four units
    by 2 in total, so a trace error above 1e-6 on it shows here), or when
    the reconstruction is not Hermitian or not positive semidefinite
    (beyond 1e-9).
    """
    if d not in (2, 4):
        raise InvalidParameterError("tomography implemented for d = 2 and 4")
    units = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
    images = np.stack([channel(unit) for unit in units])
    trace_err = np.abs(np.trace(images, axis1=1, axis2=2) - np.eye(d).ravel())
    if trace_err.max() > 5e-7:
        j, k = divmod(int(trace_err.argmax()), d)
        raise TomographyError(
            f"channel is not trace preserving on |{j}><{k}| "
            f"(error {trace_err.max():.2e})"
        )

    # chi_pq = <P_p (x) P_q^*, S> / d^2 with S[(a, b), (j, k)] = E(|j><k|)[a, b]
    basis = _pauli_basis(d)
    chi = np.einsum(
        "paj,qbk,jkab->pq", basis.conj(), basis, images.reshape(d, d, d, d)
    ) / d**2

    herm_err = np.max(np.abs(chi - chi.conj().T))
    if herm_err > 1e-8:
        raise TomographyError(f"chi not Hermitian (deviation {herm_err:.2e})")
    chi = 0.5 * (chi + chi.conj().T)
    min_eig = float(np.linalg.eigvalsh(chi).min())
    if min_eig < -1e-9:
        raise TomographyError(f"chi not positive semidefinite ({min_eig:.2e})")
    return ProcessMatrix(chi=chi, d=d)


def chi_from_unitary(u: np.ndarray) -> ProcessMatrix:
    """Process matrix of a unitary channel (rank one in the Pauli basis)."""
    u = np.asarray(u, dtype=complex)
    d = u.shape[0]
    coeffs = np.einsum("pab,ab->p", _pauli_basis(d).conj(), u) / d
    return ProcessMatrix(chi=np.outer(coeffs, coeffs.conj()), d=d)


def process_fidelity(chi: ProcessMatrix, target_chi: ProcessMatrix) -> float:
    """(d Tr(chi_T chi) + Tr chi) / (d + 1)."""
    if chi.d != target_chi.d:
        raise InvalidParameterError("process matrices have different dimensions")
    d = chi.d
    overlap = np.trace(target_chi.chi @ chi.chi).real
    return float((d * overlap + np.trace(chi.chi).real) / (d + 1.0))
