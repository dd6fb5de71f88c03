"""Fluxonium circuit diagonalization.

The full circuit Hamiltonian

    H = 4 E_C n^2 + (1/2) E_L (phi + phi_ext)^2 - E_J cos(phi)

is represented in the harmonic-oscillator (Fock) basis of its linear part and
diagonalized densely.  The two lowest eigenstates define the effective qubit:
the splitting ``delta`` and the flux matrix element ``phi_ge``.  At a flux
working point they give the driven two-level model that every calculation
downstream solves, :class:`EffectiveCoefficients`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import InvalidParameterError, TruncationError, check_finite

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

#: levels in ``EffectiveQubit.spectrum``, which the fluxonium fixture records
SPECTRUM_LEVELS = 6


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
        check_finite(e_c=self.e_c, e_l=self.e_l, e_j=self.e_j)
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
    """The driven two-level model of one flux working point,
    H(t) = -(delta/2) sigma_z + (B/2 + A P(t)) sigma_x, less its drive.

    ``delta`` is the qubit splitting, ``a_coef`` (A) scales the modulation
    waveform P(t) and ``b_coef`` (B) is the static bias of a DC flux offset
    from the sweet spot, all in rad/us; every solver reads them here.  The
    working point (phi_dc, phi_ac) lives in ``evaluation.EvaluationContext``,
    which builds this by :func:`effective_coefficients`, and the drive
    (omega_d, P) is a ``floquet.DriveSpec``.
    """

    delta: float
    a_coef: float
    b_coef: float


def build_circuit_hamiltonian(params: CircuitParams, phi_ext: float) -> np.ndarray:
    """Dense circuit Hamiltonian at external flux ``phi_ext`` (radians), a
    real symmetric float64 matrix: in the Fock basis ``phi``, ``n^2`` and
    ``cos(phi)`` are all real.

    The Josephson term uses the exact matrix cosine of the Hermitian phase
    operator (spectral decomposition), not a power series, which stays
    accurate for the large zero-point phase spread of a fluxonium.
    """
    return _hamiltonian_and_phase(params, phi_ext)[0]


def _hamiltonian_and_phase(
    params: CircuitParams, phi_ext: float
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`build_circuit_hamiltonian` and the phase operator it is built
    from, in the Fock basis of the linear circuit: ``n = i n_zpf (a^dag -
    a)`` is imaginary, so ``n^2 = -n_zpf^2 (a^dag - a)^2`` is real."""
    lower = np.diag(np.sqrt(np.arange(1, params.fock_dim)), 1)
    phi = params.phi_zpf * (lower + lower.T)
    m = params.n_zpf * (lower.T - lower)
    w, v = np.linalg.eigh(phi)
    cos_phi = (v * np.cos(w)) @ v.T
    shifted = phi + phi_ext * np.eye(params.fock_dim)
    h = 4.0 * params.e_c * -(m @ m) + 0.5 * params.e_l * (shifted @ shifted)
    h -= params.e_j * cos_phi
    # symmetrize away the last bits of round-off
    return 0.5 * (h + h.T), phi


def _diagonalize_once(
    params: CircuitParams, phi_ext: float
) -> tuple[float, float, np.ndarray]:
    h, phi = _hamiltonian_and_phase(params, phi_ext)
    w, v = np.linalg.eigh(h)
    phi_ge = abs(v[:, 0] @ phi @ v[:, 1])
    return w[1] - w[0], phi_ge, w[:SPECTRUM_LEVELS] - w[0]


def diagonalize_circuit(params: CircuitParams, phi_ext: float) -> EffectiveQubit:
    """Effective qubit parameters at external flux ``phi_ext``, with the
    ``SPECTRUM_LEVELS`` = 6 lowest levels as its spectrum.

    Diagonalizes at ``fock_dim`` and again at ``fock_dim + 20``; if the
    splitting moves by more than 1e-8 relative the truncation is judged too
    small and a :class:`TruncationError` is raised.
    """
    delta, phi_ge, spectrum = _diagonalize_once(params, phi_ext)
    bigger = CircuitParams(
        params.e_c, params.e_l, params.e_j, params.fock_dim + CONVERGENCE_STEP
    )
    # the check reads only the splitting, so no eigenvectors
    w_ref = np.linalg.eigvalsh(build_circuit_hamiltonian(bigger, phi_ext))
    delta_ref = w_ref[1] - w_ref[0]
    if abs(delta - delta_ref) > CONVERGENCE_RTOL * abs(delta_ref):
        raise TruncationError(
            f"fock_dim={params.fock_dim} not converged: splitting moved from "
            f"{delta} to {delta_ref} when adding {CONVERGENCE_STEP} levels"
        )
    return EffectiveQubit(delta=delta, phi_ge=phi_ge, spectrum=tuple(spectrum))


def effective_coefficients(
    qubit: EffectiveQubit, e_l: float, phi_dc: float, phi_ac: float
) -> EffectiveCoefficients:
    """The two-level model of ``qubit`` at the flux working point ``(phi_dc,
    phi_ac)``; each of them, and the A and B they give, must be finite.

    ``delta`` is the qubit's splitting; ``a_coef = e_l * phi_ac * phi_ge``
    scales the periodic modulation; ``b_coef = 2 e_l (phi_dc - pi) *
    phi_ge`` is the static bias away from the sweet spot at ``phi_dc = pi``.
    """
    check_finite(phi_dc=phi_dc, phi_ac=phi_ac)
    a_coef = e_l * phi_ac * qubit.phi_ge
    b_coef = 2.0 * e_l * (phi_dc - np.pi) * qubit.phi_ge
    check_finite(a_coef=a_coef, b_coef=b_coef)
    return EffectiveCoefficients(delta=qubit.delta, a_coef=a_coef, b_coef=b_coef)
