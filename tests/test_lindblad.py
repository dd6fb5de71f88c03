import numpy as np
import pytest

import fluxspot as fs
from fluxspot.exceptions import InvalidParameterError, TomographyError
from fluxspot.floquet import LOWERING, PAULI_X, PAULI_Y, PAULI_Z

from test_gates import tile, trivial_context

GROUND = np.array([1.0, 0.0], dtype=complex)
EXCITED = np.array([0.0, 1.0], dtype=complex)
PLUS = (GROUND + EXCITED) / np.sqrt(2.0)


def rate_model(gamma_relax=0.0, gamma_deph=0.0, n_qubits=1):
    return fs.LindbladModel(rates=tuple((gamma_relax, gamma_deph),) * 0 or
                            tuple((gamma_relax, gamma_deph) for _ in range(n_qubits)))


class TestEvolveDensity:
    def test_pure_dephasing_analytic(self):
        ctx = trivial_context(steps=200, duration=10.0)
        gamma_us = 50.0   # 1/us -> 0.05 1/ns
        model = rate_model(gamma_deph=gamma_us)
        rho0 = np.outer(PLUS, PLUS.conj())
        rho = fs.evolve_density(ctx, np.zeros(200), model, rho0)
        expected = 0.5 * np.exp(-2.0 * gamma_us * 1e-3 * 10.0)
        assert rho[0, 1].real == pytest.approx(expected, abs=1e-14)
        assert rho[0, 0].real == pytest.approx(0.5, abs=1e-14)

    def test_halved_coherence_at_log_two(self):
        gamma_us = 40.0
        duration = np.log(2.0) / (2.0 * gamma_us * 1e-3)
        ctx = trivial_context(steps=256, duration=duration)
        model = rate_model(gamma_deph=gamma_us)
        rho0 = np.outer(PLUS, PLUS.conj())
        rho = fs.evolve_density(ctx, np.zeros(256), model, rho0)
        assert rho[0, 1].real == pytest.approx(0.25, abs=1e-14)

    def test_relaxation_analytic(self):
        ctx = trivial_context(steps=200, duration=8.0)
        gamma_us = 30.0
        model = rate_model(gamma_relax=gamma_us)
        rho0 = np.outer(EXCITED, EXCITED.conj())
        rho = fs.evolve_density(ctx, np.zeros(200), model, rho0)
        expected = np.exp(-gamma_us * 1e-3 * 8.0)
        assert rho[1, 1].real == pytest.approx(expected, abs=1e-14)
        assert rho[0, 0].real == pytest.approx(1.0 - expected, abs=1e-14)

    def test_zero_rates_matches_closed_propagation(self, benchmark_results):
        bench, bctx, point = benchmark_results["dss-2"]
        frame = fs.rotating_frame_trajectory(
            point.drive, bctx.coefficients, bctx.qubit.delta,
            duration=6.0, steps=300, substeps=256,
        )
        rng = np.random.default_rng(8)
        wf = 0.3 * rng.standard_normal(300)
        model = rate_model()
        psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        psi /= np.linalg.norm(psi)
        rho0 = np.outer(psi, psi.conj())
        rho = fs.evolve_density(frame, wf, model, rho0)
        u = fs.propagate_closed(frame, wf)
        assert np.max(np.abs(rho - u @ rho0 @ u.conj().T)) < 1e-12

    def test_trace_and_positivity(self):
        ctx = trivial_context(steps=150, duration=12.0)
        model = rate_model(gamma_relax=20.0, gamma_deph=35.0)
        rho0 = np.outer(PLUS, PLUS.conj())
        rng = np.random.default_rng(10)
        wf = 0.2 * rng.standard_normal(150)
        rho = fs.evolve_density(ctx, wf, model, rho0)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-9)
        assert np.linalg.eigvalsh(rho).min() > -1e-10

    def test_real_valued_context(self):
        # real drift and controls give a real step Hamiltonian stack
        steps = 50
        model = rate_model(gamma_relax=20.0, gamma_deph=35.0)
        rho0 = np.outer(PLUS, PLUS.conj())
        wf = 0.3 * np.ones(steps)
        real, cplx = (
            fs.evolve_density(
                trivial_context(
                    steps=steps,
                    drift=np.zeros((steps, 2, 2), dtype=dtype),
                    controls=(tile(PAULI_X.real.astype(dtype), steps),),
                ),
                wf, model, rho0,
            )
            for dtype in (float, complex)
        )
        assert np.array_equal(real, cplx)

    def test_constant_generator_is_step_count_invariant(self):
        # a constant generator is propagated exactly, whatever the step grid
        model = rate_model(gamma_relax=25.0, gamma_deph=10.0)
        rho0 = np.outer(PLUS, PLUS.conj())
        rho_fine, rho_coarse = (
            fs.evolve_density(
                trivial_context(steps=n, duration=10.0), 0.1 * np.ones(n), model, rho0
            )
            for n in (100, 7)
        )
        assert np.max(np.abs(rho_fine - rho_coarse)) < 1e-13

    def test_negative_rates_rejected(self):
        with pytest.raises(InvalidParameterError):
            fs.LindbladModel(rates=((-1.0, 0.0),))


class TestProcessTomography:
    def test_identity_channel(self):
        chi = fs.process_tomography(lambda rho: rho, 2)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.max(np.abs(chi.chi - expected)) < 1e-12

    def test_unitary_x_channel(self):
        chi = fs.process_tomography(lambda rho: PAULI_X @ rho @ PAULI_X, 2)
        expected = np.zeros((4, 4))
        expected[1, 1] = 1.0
        assert np.max(np.abs(chi.chi - expected)) < 1e-12

    def test_depolarizing_mixture(self):
        def channel(rho):
            out = 0.25 * rho
            for p in (PAULI_X, PAULI_Y, PAULI_Z):
                out = out + 0.25 * (p @ rho @ p.conj().T)
            return out

        chi = fs.process_tomography(channel, 2)
        assert np.max(np.abs(chi.chi - 0.25 * np.eye(4))) < 1e-12
        ident = fs.chi_from_unitary(np.eye(2))
        assert fs.process_fidelity(chi, ident) == pytest.approx(0.5, abs=1e-12)

    def test_kraus_roundtrip(self):
        rng = np.random.default_rng(21)
        from scipy.linalg import expm

        ham = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        u1 = expm(1j * (ham + ham.conj().T))
        u2 = expm(0.5j * (ham + ham.conj().T))
        probs = (0.7, 0.3)
        units = (u1, u2)

        def channel(rho):
            return sum(p * u @ rho @ u.conj().T for p, u in zip(probs, units))

        chi = fs.process_tomography(channel, 2)
        expected = sum(
            p * fs.chi_from_unitary(u).chi for p, u in zip(probs, units)
        )
        assert np.max(np.abs(chi.chi - expected)) < 1e-10

    def test_two_qubit_identity(self):
        chi = fs.process_tomography(lambda rho: rho, 4)
        expected = np.zeros((16, 16))
        expected[0, 0] = 1.0
        assert np.max(np.abs(chi.chi - expected)) < 1e-12

    def test_random_two_qubit_kraus_channel(self):
        # a non-unitary channel: chi = sum_m c_m c_m^dag, with c_m the Pauli
        # coefficients Tr(P^dag K_m) / d of the Kraus operators
        rng = np.random.default_rng(23)
        g = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
        w, v = np.linalg.eigh(sum(x.conj().T @ x for x in g))
        kraus = g @ (v @ np.diag(w**-0.5) @ v.conj().T)

        def channel(rho):
            return sum(k @ rho @ k.conj().T for k in kraus)

        singles = (np.eye(2), PAULI_X, PAULI_Y, PAULI_Z)
        paulis = [np.kron(a, b) for a in singles for b in singles]
        coeffs = np.array(
            [[np.trace(p.conj().T @ k) / 4 for p in paulis] for k in kraus]
        )
        expected = coeffs.T @ coeffs.conj()
        chi = fs.process_tomography(channel, 4)
        assert np.max(np.abs(chi.chi - expected)) < 1e-12

    def test_trace_leak_detected(self):
        with pytest.raises(TomographyError):
            fs.process_tomography(lambda rho: 0.9 * rho, 2)

    def test_coherence_only_trace_leak_detected(self):
        # the trace moves only with the coherences, so no diagonal input
        # shows the leak
        def channel(rho):
            return rho + 1.5e-6 * (rho[0, 1] + rho[1, 0]) * np.diag([1.0, 0.0])

        with pytest.raises(TomographyError, match="not trace preserving"):
            fs.process_tomography(channel, 2)


class TestProcessFidelity:
    def test_perfect_unitary(self):
        chi = fs.chi_from_unitary(PAULI_X)
        assert fs.process_fidelity(chi, chi) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidParameterError):
            fs.process_fidelity(
                fs.chi_from_unitary(np.eye(2)), fs.chi_from_unitary(np.eye(4))
            )
