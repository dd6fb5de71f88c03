import tracemalloc

import numpy as np
import pytest

import fluxspot as fs
from fluxspot.exceptions import InvalidParameterError, TomographyError
from fluxspot.floquet import LOWERING, PAULI_X, PAULI_Y, PAULI_Z
from fluxspot.floquet import _tree_product
from fluxspot.gates import _kron, _static_operators
from fluxspot.lindblad import (
    _BLOCK_STEPS,
    _PADE_THETA,
    _expm,
    _norm_1,
    _pulse_superoperator,
)

from oracles import evolve_density
from test_gates import random_frame, trivial_context

GROUND = np.array([1.0, 0.0], dtype=complex)
EXCITED = np.array([0.0, 1.0], dtype=complex)
PLUS = (GROUND + EXCITED) / np.sqrt(2.0)


def rate_model(gamma_relax=0.0, gamma_deph=0.0, n_qubits=1):
    return fs.LindbladModel(rates=((gamma_relax, gamma_deph),) * n_qubits)


def superoperator(channel, d):
    """Matrix of a linear map on row-major vec: column ``j d + k`` holds
    the image of ``|j><k|``."""
    units = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
    return np.stack([channel(unit).ravel() for unit in units], axis=1)


def per_step_oracle(frame, dt, n_qubits, coupling_j, wf, rates_us):
    """The pulse superoperator from the explicit step operators
    ``R_k^dag O R_k``, each step's Lindblad map written on matrices, scipy's
    ``expm`` per step and a sequential product."""
    from scipy.linalg import expm

    eye = np.eye(2)
    if n_qubits == 1:
        frames, ys, drift = frame, [PAULI_Y], np.zeros((2, 2))
        jumps = [(LOWERING, PAULI_Z)]
    else:
        frames = np.array([np.kron(u, u) for u in frame])
        ys = [np.kron(PAULI_Y, eye), np.kron(eye, PAULI_Y)]
        drift = coupling_j * np.kron(PAULI_Z, PAULI_Z)
        jumps = [
            (np.kron(LOWERING, eye), np.kron(PAULI_Z, eye)),
            (np.kron(eye, LOWERING), np.kron(eye, PAULI_Z)),
        ]
    d = 2**n_qubits
    total = np.eye(d * d, dtype=complex)
    for k, r in enumerate(frames):
        rd = r.conj().T
        h = rd @ drift @ r + sum(f * (rd @ y @ r) for f, y in zip(wf[:, k], ys))
        ops = [
            (gamma * 1e-3, rd @ op @ r)
            for (low, deph), (g1, gz) in zip(jumps, rates_us)
            for gamma, op in ((g1, low), (gz, deph))
        ]

        def lindblad(rho, h=h, ops=ops):
            out = -1j * (h @ rho - rho @ h)
            for gamma, a in ops:
                ad_a = a.conj().T @ a
                out += gamma * (a @ rho @ a.conj().T - 0.5 * (ad_a @ rho + rho @ ad_a))
            return out

        total = expm(dt * superoperator(lindblad, d)) @ total
    return total


def whole_pulse_oracle(ctx, wf, model):
    """The pulse superoperator and the step generators, from one
    :func:`_expm` call on the whole generator stack, a full-length frame
    conjugation and :func:`_tree_product`: the blocked code's arithmetic
    with no blocks."""
    eye = np.eye(ctx.dimension)
    drift, controls, jumps = _static_operators(ctx.n_qubits, ctx.coupling_j)

    def commutator(h):
        return -1j * (np.kron(h, eye) - np.kron(eye, h.T))

    base = commutator(drift)
    for (low, deph), rates in zip(jumps, model.rates):
        for gamma, op in zip(rates, (low, deph)):
            op2 = op.conj().T @ op
            anti = np.kron(op2, eye) + np.kron(eye, op2.T)
            base += gamma * 1e-3 * (np.kron(op, op.conj()) - 0.5 * anti)
    per_control = np.stack([commutator(c) for c in controls])
    generators = ctx.dt * (base + np.einsum("ck,cab->kab", wf, per_control))
    r = ctx.frame if ctx.n_qubits == 1 else _kron(ctx.frame, ctx.frame)
    r_t = r.transpose(0, 2, 1)
    steps = _kron(r_t.conj(), r_t) @ _expm(generators) @ _kron(r, r.conj())
    return _tree_product(steps), generators


class TestEvolveDensity:
    def test_pure_dephasing_analytic(self):
        ctx = trivial_context(steps=200, duration=10.0)
        gamma_us = 50.0   # 1/us -> 0.05 1/ns
        model = rate_model(gamma_deph=gamma_us)
        rho0 = np.outer(PLUS, PLUS.conj())
        rho = evolve_density(ctx, np.zeros(200), model, rho0)
        expected = 0.5 * np.exp(-2.0 * gamma_us * 1e-3 * 10.0)
        assert rho[0, 1].real == pytest.approx(expected, abs=1e-14)
        assert rho[0, 0].real == pytest.approx(0.5, abs=1e-14)

    def test_halved_coherence_at_log_two(self):
        gamma_us = 40.0
        duration = np.log(2.0) / (2.0 * gamma_us * 1e-3)
        ctx = trivial_context(steps=256, duration=duration)
        model = rate_model(gamma_deph=gamma_us)
        rho0 = np.outer(PLUS, PLUS.conj())
        rho = evolve_density(ctx, np.zeros(256), model, rho0)
        assert rho[0, 1].real == pytest.approx(0.25, abs=1e-14)

    def test_relaxation_analytic(self):
        ctx = trivial_context(steps=200, duration=8.0)
        gamma_us = 30.0
        model = rate_model(gamma_relax=gamma_us)
        rho0 = np.outer(EXCITED, EXCITED.conj())
        rho = evolve_density(ctx, np.zeros(200), model, rho0)
        expected = np.exp(-gamma_us * 1e-3 * 8.0)
        assert rho[1, 1].real == pytest.approx(expected, abs=1e-14)
        assert rho[0, 0].real == pytest.approx(1.0 - expected, abs=1e-14)

    def test_zero_rates_matches_closed_propagation(self, benchmark_results):
        bench, bctx, point = benchmark_results["dss-2"]
        samples = fs.rotating_frame_trajectory(
            point.drive, bctx.coefficients, bctx.qubit.delta,
            duration=6.0, steps=300, substeps=256,
        )
        frame = fs.ControlContext(samples, 6.0 / 300)
        rng = np.random.default_rng(8)
        wf = 0.3 * rng.standard_normal(300)
        model = rate_model()
        psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        psi /= np.linalg.norm(psi)
        rho0 = np.outer(psi, psi.conj())
        rho = evolve_density(frame, wf, model, rho0)
        u = fs.propagate_closed(frame, wf)
        assert np.max(np.abs(rho - u @ rho0 @ u.conj().T)) < 1e-12

    def test_two_qubit_zero_rates_matches_closed_propagation(self):
        rng = np.random.default_rng(12)
        ctx = fs.ControlContext(
            frame=random_frame(rng, 40), dt=0.1, n_qubits=2, coupling_j=0.3
        )
        wf = 0.4 * rng.standard_normal((2, 40))
        channel = fs.channel_from_simulation(ctx, wf, rate_model(n_qubits=2))
        u = fs.propagate_closed(ctx, wf)
        assert np.max(np.abs(superoperator(channel, 4) - np.kron(u, u.conj()))) < 1e-12

    @pytest.mark.parametrize("n_qubits, coupling", [(1, 0.0), (2, 0.3)])
    def test_channel_matches_per_step_oracle(self, n_qubits, coupling):
        rng = np.random.default_rng(14)
        steps, dt = 24, 0.25
        frame = random_frame(rng, steps)
        ctx = fs.ControlContext(
            frame=frame, dt=dt, n_qubits=n_qubits, coupling_j=coupling
        )
        wf = 0.4 * rng.standard_normal((n_qubits, steps))
        rates = ((20.0, 35.0), (15.0, 40.0))[:n_qubits]
        channel = fs.channel_from_simulation(ctx, wf, fs.LindbladModel(rates=rates))
        expected = per_step_oracle(frame, dt, n_qubits, coupling, wf, rates)
        assert np.max(np.abs(superoperator(channel, 2**n_qubits) - expected)) < 1e-12

    def test_trace_and_positivity(self):
        ctx = trivial_context(steps=150, duration=12.0)
        model = rate_model(gamma_relax=20.0, gamma_deph=35.0)
        rho0 = np.outer(PLUS, PLUS.conj())
        rng = np.random.default_rng(10)
        wf = 0.2 * rng.standard_normal(150)
        rho = evolve_density(ctx, wf, model, rho0)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-9)
        assert np.linalg.eigvalsh(rho).min() > -1e-10

    def test_constant_generator_is_step_count_invariant(self):
        # a constant generator is propagated exactly, whatever the step grid
        model = rate_model(gamma_relax=25.0, gamma_deph=10.0)
        rho0 = np.outer(PLUS, PLUS.conj())
        rho_fine, rho_coarse = (
            evolve_density(
                trivial_context(steps=n, duration=10.0), 0.1 * np.ones(n), model, rho0
            )
            for n in (100, 7)
        )
        assert np.max(np.abs(rho_fine - rho_coarse)) < 1e-13

    def test_negative_rates_rejected(self):
        with pytest.raises(InvalidParameterError):
            fs.LindbladModel(rates=((-1.0, 0.0),))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("slot", [0, 1])
    def test_non_finite_rates_rejected(self, bad, slot):
        pair = [1.0, 1.0]
        pair[slot] = bad
        with pytest.raises(InvalidParameterError, match="finite"):
            fs.LindbladModel(rates=((1.0, 1.0), tuple(pair)))


class TestBlockedSuperoperator:
    @pytest.mark.parametrize("n_qubits", [1, 2])
    @pytest.mark.parametrize(
        "steps", [1, _BLOCK_STEPS - 1, _BLOCK_STEPS, _BLOCK_STEPS + 1, 500]
    )
    def test_bits_of_one_whole_pulse_call(self, n_qubits, steps):
        # a sin^2 window strong enough that the pulse-wide norm needs m = 13
        # with s > 0, while a block at the pulse edge alone would get a lower
        # degree or scaling, and so other bits
        rng = np.random.default_rng(steps + 10 * n_qubits)
        ctx = fs.ControlContext(
            frame=random_frame(rng, steps),
            dt=0.02,
            n_qubits=n_qubits,
            coupling_j=0.3 * (n_qubits - 1),
        )
        window = np.sin(np.pi * (np.arange(steps) + 0.5) / steps) ** 2
        wf = 300.0 * window * rng.uniform(0.5, 1.0, (n_qubits, steps))
        model = fs.LindbladModel(rates=((200.0, 350.0), (150.0, 400.0))[:n_qubits])
        expected, generators = whole_pulse_oracle(ctx, wf, model)
        assert _norm_1(generators) > _PADE_THETA[13]
        if steps > _BLOCK_STEPS:
            edge = min(
                _norm_1(generators[k : k + _BLOCK_STEPS])
                for k in range(0, steps, _BLOCK_STEPS)
            )
            assert edge <= _PADE_THETA[13]
        assert np.array_equal(_pulse_superoperator(ctx, wf, model), expected)

    def test_working_set_of_a_two_qubit_pulse(self):
        # one block's temporaries beside the (500, 16, 16) stack of 2 MB;
        # building the whole pulse at once peaked at 13.8 MB
        rng = np.random.default_rng(31)
        ctx = fs.ControlContext(
            frame=random_frame(rng, 500), dt=0.02, n_qubits=2, coupling_j=0.3
        )
        wf = 0.4 * rng.standard_normal((2, 500))
        model = fs.LindbladModel(rates=((20.0, 35.0), (15.0, 40.0)))
        tracemalloc.start()
        try:
            _pulse_superoperator(ctx, wf, model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6, peak


def norm_1(x):
    """Column-sum 1-norm of each matrix of a stack."""
    return np.abs(x).sum(axis=-2).max(axis=-1)


class TestPadeExponential:
    @pytest.mark.parametrize("d", [4, 16])
    @pytest.mark.parametrize(
        "norm",
        [f * theta for theta in _PADE_THETA.values() for f in (0.99, 1.01)] + [40.0],
    )
    def test_matches_scipy_expm(self, d, norm):
        # just below and above each degree's bound, and 40, which squares 3
        # times; there the d = 4 stack reads 8.3e-15, most of it scipy's own
        # error (5.0e-15 for _expm, 8.9e-15 for scipy against mpmath)
        from scipy.linalg import expm

        rng = np.random.default_rng(d)
        a = rng.standard_normal((8, d, d)) + 1j * rng.standard_normal((8, d, d))
        a *= (norm / norm_1(a))[:, None, None]
        ref = expm(a)
        assert np.max(norm_1(_expm(a) - ref) / norm_1(ref)) < 1e-14

    def test_diagonal_stack_is_elementwise_exp(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal((50, 4)) + 1j * rng.standard_normal((50, 4))
        z *= _PADE_THETA[9] / np.abs(z).max()
        out = _expm(z[:, :, None] * np.eye(4))
        diag = np.diagonal(out, axis1=1, axis2=2)
        assert np.max(np.abs(diag - np.exp(z)) / np.abs(np.exp(z))) < 2e-15
        assert np.array_equal(out, diag[:, :, None] * np.eye(4))


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
