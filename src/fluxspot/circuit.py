"""Fluxonium circuit diagonalization.

The full circuit Hamiltonian

    H = 4 E_C n^2 + (1/2) E_L (phi + phi_ext)^2 - E_J cos(phi)

is represented in the harmonic-oscillator (Fock) basis of its linear part and
diagonalized densely.  The two lowest eigenstates define the effective qubit:
the splitting ``delta`` and the flux matrix element ``phi_ge`` that every
driven-qubit calculation downstream consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import InvalidParameterError, TruncationError

__all__ = [
    "CircuitParams",
    "EffectiveQubit",
    "EffectiveCoefficients",
    "build_circuit_hamiltonian",
    "diagonalize_circuit",
    "effective_coefficients",
]

#: default Fock-space truncation; generous because the phase fluctuations of
#: a fluxonium are large (phi_zpf > 1 for typical parameter ratios)
DEFAULT_FOCK_DIM = 110

#: extra levels added for the convergence check of ``diagonalize_circuit``
CONVERGENCE_STEP = 20

#: relative splitting change allowed between the two truncations
CONVERGENCE_RTOL = 1e-8


@dataclass(frozen=True)
class CircuitParams:
    """Circuit energies as angular frequencies in rad/us.

    ``e_c``, ``e_l`` and ``e_j`` are the capacitive, inductive and Josephson
    energies; ``fock_dim`` is the oscillator-basis truncation.
    """

    e_c: float
    e_l: float
    e_j: float
    fock_dim: int = DEFAULT_FOCK_DIM

    def __post_init__(self) -> None:
        if min(self.e_c, self.e_l, self.e_j) <= 0.0:
            raise InvalidParameterError(
                "circuit energies must be strictly positive, got "
                f"E_C={self.e_c}, E_L={self.e_l}, E_J={self.e_j}"
            )
        if self.fock_dim < 20:
            raise InvalidParameterError(
                f"fock_dim must be at least 20, got {self.fock_dim}"
            )

    @property
    def phi_zpf(self) -> float:
        """Zero-point phase fluctuation of the linear circuit."""
        return (2.0 * self.e_c / self.e_l) ** 0.25

    @property
    def n_zpf(self) -> float:
        """Zero-point charge fluctuation of the linear circuit."""
        return (self.e_l / (32.0 * self.e_c)) ** 0.25

    @property
    def plasma_frequency(self) -> float:
        """Harmonic frequency sqrt(8 E_C E_L) of the linear circuit."""
        return np.sqrt(8.0 * self.e_c * self.e_l)


@dataclass(frozen=True)
class EffectiveQubit:
    """Two-level reduction of the circuit at a fixed external flux.

    ``delta`` is the ground-to-excited splitting in rad/us, ``phi_ge`` the
    magnitude of the phase-operator matrix element between the two levels,
    and ``spectrum`` the lowest circuit eigenenergies (ascending, rad/us).
    """

    delta: float
    phi_ge: float
    spectrum: tuple = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.delta <= 0.0:
            raise InvalidParameterError(f"delta must be positive, got {self.delta}")
        if self.phi_ge < 0.0:
            raise InvalidParameterError(f"phi_ge must be >= 0, got {self.phi_ge}")
        if len(self.spectrum) > 1 and np.any(np.diff(self.spectrum) < 0):
            raise InvalidParameterError("spectrum must be sorted ascending")


@dataclass(frozen=True)
class EffectiveCoefficients:
    """Longitudinal coupling coefficients of the driven two-level model.

    ``a_coef`` multiplies the periodic modulation waveform, ``b_coef`` is the
    static bias term produced by a DC flux offset from the sweet spot.  Both
    are angular frequencies (rad/us).
    """

    a_coef: float
    b_coef: float


def _oscillator_ops(params: CircuitParams) -> tuple[np.ndarray, np.ndarray]:
    """Phase and charge operators in the Fock basis of the linear circuit."""
    dim = params.fock_dim
    lower = np.diag(np.sqrt(np.arange(1, dim)), 1)
    raise_ = lower.T.conj()
    phi = params.phi_zpf * (lower + raise_)
    n = 1j * params.n_zpf * (raise_ - lower)
    return phi, n


def build_circuit_hamiltonian(params: CircuitParams, phi_ext: float) -> np.ndarray:
    """Dense circuit Hamiltonian at external flux ``phi_ext`` (radians).

    The Josephson term uses the exact matrix cosine of the Hermitian phase
    operator (spectral decomposition), not a power series, which stays
    accurate for the large zero-point phase spread of a fluxonium.
    """
    phi, n = _oscillator_ops(params)
    dim = params.fock_dim
    w, v = np.linalg.eigh(phi)
    cos_phi = (v * np.cos(w)) @ v.T.conj()
    shifted = phi + phi_ext * np.eye(dim)
    h = 4.0 * params.e_c * (n @ n) + 0.5 * params.e_l * (shifted @ shifted)
    h -= params.e_j * cos_phi
    # symmetrize away the last bits of round-off
    return 0.5 * (h + h.T.conj())


def _diagonalize_once(
    params: CircuitParams, phi_ext: float, n_levels: int
) -> tuple[float, float, np.ndarray]:
    h = build_circuit_hamiltonian(params, phi_ext)
    w, v = np.linalg.eigh(h)
    phi, _ = _oscillator_ops(params)
    phi_ge = abs(v[:, 0].conj() @ phi @ v[:, 1])
    return w[1] - w[0], phi_ge, w[:n_levels] - w[0]


def diagonalize_circuit(
    params: CircuitParams, phi_ext: float, n_levels: int = 6
) -> EffectiveQubit:
    """Effective qubit parameters at external flux ``phi_ext``.

    Diagonalizes at ``fock_dim`` and again at ``fock_dim + 20``; if the
    splitting moves by more than 1e-8 relative the truncation is judged too
    small and a :class:`TruncationError` is raised.
    """
    delta, phi_ge, spectrum = _diagonalize_once(params, phi_ext, n_levels)
    bigger = CircuitParams(
        params.e_c, params.e_l, params.e_j, params.fock_dim + CONVERGENCE_STEP
    )
    delta_ref, _, _ = _diagonalize_once(bigger, phi_ext, n_levels)
    if abs(delta - delta_ref) > CONVERGENCE_RTOL * abs(delta_ref):
        raise TruncationError(
            f"fock_dim={params.fock_dim} not converged: splitting moved from "
            f"{delta} to {delta_ref} when adding {CONVERGENCE_STEP} levels"
        )
    return EffectiveQubit(delta=delta, phi_ge=phi_ge, spectrum=tuple(spectrum))


def effective_coefficients(
    qubit: EffectiveQubit, e_l: float, phi_dc: float, phi_ac: float
) -> EffectiveCoefficients:
    """Drive coefficients of the two-level model for a given flux working point.

    ``a_coef = e_l * phi_ac * phi_ge`` scales the periodic modulation;
    ``b_coef = 2 e_l (phi_dc - pi) * phi_ge`` is the static bias away from
    the sweet spot at ``phi_dc = pi``.
    """
    a_coef = e_l * phi_ac * qubit.phi_ge
    b_coef = 2.0 * e_l * (phi_dc - np.pi) * qubit.phi_ge
    return EffectiveCoefficients(a_coef=a_coef, b_coef=b_coef)
