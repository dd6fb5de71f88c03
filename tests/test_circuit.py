from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import eigh

import fluxspot as fs
from fluxspot.exceptions import InvalidParameterError, TruncationError
from fluxspot.reference import build_circuit
from fluxspot.units import ghz


def oracle_two_truncation(params, phi_ext, dims=(80, 120)):
    """Independent splitting/matrix-element oracle at two truncations."""
    results = []
    for dim in dims:
        p = fs.CircuitParams(params.e_c, params.e_l, params.e_j, dim)
        h = fs.build_circuit_hamiltonian(p, phi_ext)
        w, v = eigh(h)
        lower = np.diag(np.sqrt(np.arange(1, dim)), 1)
        phi = p.phi_zpf * (lower + lower.T)
        results.append((w[1] - w[0], abs(v[:, 0] @ phi @ v[:, 1])))
    (d1, m1), (d2, m2) = results
    assert abs(d1 - d2) < 1e-8 * abs(d2), "oracle truncations disagree"
    return d2, m2


class TestBuildHamiltonian:
    def test_harmonic_limit_spacing(self):
        # with the junction removed the spectrum is the displaced oscillator
        params = fs.CircuitParams(e_c=ghz(1.0), e_l=ghz(0.79), e_j=1e-12, fock_dim=120)
        h = fs.build_circuit_hamiltonian(params, 0.3)
        w = np.linalg.eigvalsh(h)
        spacing = np.diff(w[:20])
        assert np.allclose(spacing, params.plasma_frequency, rtol=1e-9)

    def test_hermitian(self, qubit):
        params = build_circuit(fs.REFERENCE)
        h = fs.build_circuit_hamiltonian(params, np.pi)
        assert np.max(np.abs(h - h.conj().T)) < 1e-12 * np.max(np.abs(h))

    def test_paper_point_matches_two_truncation_oracle(self, qubit):
        delta_oracle, phige_oracle = oracle_two_truncation(
            build_circuit(fs.REFERENCE), np.pi
        )
        assert qubit.delta == pytest.approx(delta_oracle, rel=1e-8)
        assert qubit.phi_ge == pytest.approx(phige_oracle, rel=1e-8)

    def test_periodicity_and_parity(self):
        params = replace(build_circuit(fs.REFERENCE), fock_dim=90)
        w_plus = np.linalg.eigvalsh(fs.build_circuit_hamiltonian(params, np.pi))
        w_minus = np.linalg.eigvalsh(fs.build_circuit_hamiltonian(params, -np.pi))
        assert np.allclose(w_plus[:10], w_minus[:10], rtol=1e-10)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            fs.CircuitParams(e_c=-1.0, e_l=1.0, e_j=1.0)
        with pytest.raises(InvalidParameterError):
            fs.CircuitParams(e_c=1.0, e_l=1.0, e_j=1.0, fock_dim=10)


class TestDiagonalize:
    def test_harmonic_limit_matrix_element(self):
        params = fs.CircuitParams(e_c=ghz(1.0), e_l=ghz(0.79), e_j=1e-12, fock_dim=120)
        eq = fs.diagonalize_circuit(params, 0.0)
        assert eq.delta == pytest.approx(params.plasma_frequency, rel=1e-9)
        assert eq.phi_ge == pytest.approx(params.phi_zpf, rel=1e-9)

    def test_spectrum_symmetry_about_sweet_spot(self):
        params = replace(build_circuit(fs.REFERENCE), fock_dim=90)
        x = 0.03 * np.pi
        above = fs.diagonalize_circuit(params, np.pi + x)
        below = fs.diagonalize_circuit(params, np.pi - x)
        assert np.allclose(above.spectrum, below.spectrum, rtol=1e-9)

    def test_truncation_error_raised_for_tiny_basis(self):
        params = replace(build_circuit(fs.REFERENCE), fock_dim=20)
        with pytest.raises(TruncationError):
            fs.diagonalize_circuit(params, np.pi)

    def test_splitting_convergence_is_cauchy(self):
        # |delta(d+20) - delta(d)| shrinks monotonically until it reaches the
        # dense-eigensolver round-off floor
        from fluxspot.circuit import _diagonalize_once

        deltas = []
        for dim in (40, 60, 80, 100, 120):
            params = replace(build_circuit(fs.REFERENCE), fock_dim=dim)
            deltas.append(_diagonalize_once(params, np.pi, 2)[0])
        gaps = np.abs(np.diff(deltas))
        assert gaps[0] > gaps[1] > gaps[2]
        assert np.all(gaps[2:] < 1e-9)

    @pytest.mark.parametrize("phi_ext", [0.0, 0.97 * np.pi, np.pi, 1.03 * np.pi])
    def test_matches_scipy_eigh_oracle(self, phi_ext):
        # the same reduction with LAPACK's syevr (scipy) in place of
        # numpy's syevd: the two differ by round-off only
        params = build_circuit(fs.REFERENCE)
        lower = np.diag(np.sqrt(np.arange(1, params.fock_dim)), 1)
        phi = params.phi_zpf * (lower + lower.T)
        n = 1j * params.n_zpf * (lower.T - lower)
        w, v = eigh(phi)
        shifted = phi + phi_ext * np.eye(params.fock_dim)
        h = 4.0 * params.e_c * (n @ n) + 0.5 * params.e_l * (shifted @ shifted)
        h -= params.e_j * (v * np.cos(w)) @ v.T
        w, v = eigh(0.5 * (h + h.T.conj()))
        eq = fs.diagonalize_circuit(params, phi_ext)
        assert eq.delta == pytest.approx(w[1] - w[0], rel=1e-12, abs=0.0)
        phi_ge = abs(v[:, 0].conj() @ phi @ v[:, 1])
        assert eq.phi_ge == pytest.approx(phi_ge, rel=1e-12, abs=0.0)
        spectrum = w[: len(eq.spectrum)] - w[0]
        np.testing.assert_allclose(eq.spectrum, spectrum, rtol=1e-12, atol=0.0)

    def test_spectrum_sorted(self, qubit):
        assert np.all(np.diff(qubit.spectrum) >= 0)


class TestEffectiveCoefficients:
    def test_sweet_spot_kills_bias(self, qubit):
        c = fs.effective_coefficients(qubit, ghz(0.79), np.pi, 0.1)
        assert c.b_coef == 0.0

    def test_zero_amplitude_kills_drive(self, qubit):
        c = fs.effective_coefficients(qubit, ghz(0.79), 1.03 * np.pi, 0.0)
        assert c.a_coef == 0.0

    def test_biased_point_value(self, qubit):
        e_l = ghz(0.79)
        c = fs.effective_coefficients(qubit, e_l, 1.03 * np.pi, 0.05)
        assert c.b_coef == pytest.approx(2 * e_l * 0.03 * np.pi * qubit.phi_ge)
        assert c.a_coef == pytest.approx(e_l * 0.05 * qubit.phi_ge)
