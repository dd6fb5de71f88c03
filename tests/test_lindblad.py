import tracemalloc

import numpy as np
import pytest

import fluxspot as fs
from fluxspot.exceptions import InvalidParameterError, TomographyError
from fluxspot.floquet import LOWERING, PAULI_X, PAULI_Y, PAULI_Z
from fluxspot.gates import _kron
from fluxspot.lindblad import (
    _BLOCK_STEPS,
    _THETA_13,
    _expm,
    _norm_1,
    _pulse_superoperator,
    _static_operators,
    _tree_product,
)

from oracles import average_fidelity_pauli_sum, evolve_density
from test_gates import random_frame, trivial_context

GROUND = np.array([1.0, 0.0], dtype=complex)
EXCITED = np.array([0.0, 1.0], dtype=complex)
PLUS = (GROUND + EXCITED) / np.sqrt(2.0)


def superoperator(channel, d):
    """Matrix of a linear map on row-major vec: column ``j d + k`` holds
    the image of ``|j><k|``."""
    units = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
    return np.stack([channel(unit).ravel() for unit in units], axis=1)


def per_step_oracle(frame, dt, n_qubits, coupling_j, wf, rates_us):
    """The pulse superoperator from the explicit step operators
    ``R_k^dag O R_k``, each step's Lindblad map written on matrices, scipy's
    ``expm`` per step and a sequential product; every qubit relaxes and
    dephases at the one pair ``rates_us``."""
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
            for pair in jumps
            for gamma, op in zip(rates_us, pair)
        ]

        def lindblad(rho, h=h, ops=ops):
            out = -1j * (h @ rho - rho @ h)
            for gamma, a in ops:
                ad_a = a.conj().T @ a
                out += gamma * (a @ rho @ a.conj().T - 0.5 * (ad_a @ rho + rho @ ad_a))
            return out

        total = expm(dt * superoperator(lindblad, d)) @ total
    return total


def whole_pulse_oracle(ctx, wf, rates):
    """The pulse superoperator and the step generators, from one
    :func:`_expm` call on the whole generator stack, a full-length frame
    conjugation and :func:`_tree_product`: the blocked code's arithmetic
    with no blocks."""
    eye = np.eye(ctx.dimension)
    drift, controls, jumps = _static_operators(ctx.n_qubits, ctx.coupling_j)

    def commutator(h):
        return -1j * (np.kron(h, eye) - np.kron(eye, h.T))

    base = commutator(drift)
    for pair in jumps:
        for gamma, op in zip(rates, pair):
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
        rho0 = np.outer(PLUS, PLUS.conj())
        rho = evolve_density(ctx, np.zeros(200), (0.0, gamma_us), rho0)
        expected = 0.5 * np.exp(-2.0 * gamma_us * 1e-3 * 10.0)
        assert rho[0, 1].real == pytest.approx(expected, abs=1e-14)
        assert rho[0, 0].real == pytest.approx(0.5, abs=1e-14)

    def test_halved_coherence_at_log_two(self):
        gamma_us = 40.0
        duration = np.log(2.0) / (2.0 * gamma_us * 1e-3)
        ctx = trivial_context(steps=256, duration=duration)
        rho0 = np.outer(PLUS, PLUS.conj())
        rho = evolve_density(ctx, np.zeros(256), (0.0, gamma_us), rho0)
        assert rho[0, 1].real == pytest.approx(0.25, abs=1e-14)

    def test_relaxation_analytic(self):
        ctx = trivial_context(steps=200, duration=8.0)
        gamma_us = 30.0
        rho0 = np.outer(EXCITED, EXCITED.conj())
        rho = evolve_density(ctx, np.zeros(200), (gamma_us, 0.0), rho0)
        expected = np.exp(-gamma_us * 1e-3 * 8.0)
        assert rho[1, 1].real == pytest.approx(expected, abs=1e-14)
        assert rho[0, 0].real == pytest.approx(1.0 - expected, abs=1e-14)

    def test_zero_rates_matches_closed_propagation(self, benchmark_results):
        bench, bctx, point = benchmark_results["dss-2"]
        samples = fs.rotating_frame_trajectory(
            point.drive, bctx.coefficients, duration=6.0, steps=300, substeps=256
        )
        frame = fs.ControlContext(samples, duration=6.0)
        rng = np.random.default_rng(8)
        wf = 0.3 * rng.standard_normal(300)
        psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        psi /= np.linalg.norm(psi)
        rho0 = np.outer(psi, psi.conj())
        rho = evolve_density(frame, wf, (0.0, 0.0), rho0)
        u = fs.propagate_closed(frame, wf)
        assert np.max(np.abs(rho - u @ rho0 @ u.conj().T)) < 1e-12

    def test_two_qubit_zero_rates_matches_closed_propagation(self):
        rng = np.random.default_rng(12)
        ctx = fs.ControlContext(
            frame=random_frame(rng, 40), n_qubits=2, coupling_j=0.3, duration=4.0
        )
        wf = 0.4 * rng.standard_normal((2, 40))
        s = _pulse_superoperator(ctx, wf, 0.0, 0.0)
        u = fs.propagate_closed(ctx, wf)
        assert np.max(np.abs(s - np.kron(u, u.conj()))) < 1e-12

    @pytest.mark.parametrize("n_qubits, coupling", [(1, 0.0), (2, 0.3)])
    def test_channel_matches_per_step_oracle(self, n_qubits, coupling):
        rng = np.random.default_rng(14)
        steps, dt = 24, 0.25
        frame = random_frame(rng, steps)
        ctx = fs.ControlContext(
            frame=frame, n_qubits=n_qubits, coupling_j=coupling, duration=steps * dt
        )
        wf = 0.4 * rng.standard_normal((n_qubits, steps))
        rates = (20.0, 35.0)
        s = _pulse_superoperator(ctx, wf, *rates)
        expected = per_step_oracle(frame, dt, n_qubits, coupling, wf, rates)
        assert np.max(np.abs(s - expected)) < 1e-12

    def test_trace_and_positivity(self):
        ctx = trivial_context(steps=150, duration=12.0)
        rho0 = np.outer(PLUS, PLUS.conj())
        rng = np.random.default_rng(10)
        wf = 0.2 * rng.standard_normal(150)
        rho = evolve_density(ctx, wf, (20.0, 35.0), rho0)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-9)
        assert np.linalg.eigvalsh(rho).min() > -1e-10

    def test_constant_generator_is_step_count_invariant(self):
        # a constant generator is propagated exactly, whatever the step grid
        rho0 = np.outer(PLUS, PLUS.conj())
        rho_fine, rho_coarse = (
            evolve_density(
                trivial_context(steps=n, duration=10.0), 0.1 * np.ones(n), (25.0, 10.0), rho0
            )
            for n in (100, 7)
        )
        assert np.max(np.abs(rho_fine - rho_coarse)) < 1e-13

    @pytest.mark.parametrize("slot", [0, 1])
    def test_negative_rates_rejected(self, slot):
        pair = [1.0, 1.0]
        pair[slot] = -1.0
        with pytest.raises(InvalidParameterError, match="non-negative"):
            _pulse_superoperator(trivial_context(steps=4, duration=1.0), np.zeros(4), *pair)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("slot", [0, 1])
    def test_non_finite_rates_rejected(self, bad, slot):
        pair = [1.0, 1.0]
        pair[slot] = bad
        name = ("gamma_1", "gamma_z")[slot]
        with pytest.raises(InvalidParameterError, match=f"{name} must be finite"):
            _pulse_superoperator(trivial_context(steps=4, duration=1.0), np.zeros(4), *pair)


class TestBlockedSuperoperator:
    @pytest.mark.parametrize("n_qubits", [1, 2])
    @pytest.mark.parametrize(
        "steps", [1, _BLOCK_STEPS - 1, _BLOCK_STEPS, _BLOCK_STEPS + 1, 500]
    )
    def test_bits_of_one_whole_pulse_call(self, n_qubits, steps):
        # a sin^2 window strong enough that the pulse-wide norm needs a
        # scaling s > 0, while a block at the pulse edge alone would get a
        # lower one, and so other bits
        rng = np.random.default_rng(steps + 10 * n_qubits)
        ctx = fs.ControlContext(
            frame=random_frame(rng, steps),
            n_qubits=n_qubits,
            coupling_j=0.3 * (n_qubits - 1),
            duration=0.02 * steps,
        )
        window = np.sin(np.pi * (np.arange(steps) + 0.5) / steps) ** 2
        wf = 300.0 * window * rng.uniform(0.5, 1.0, (n_qubits, steps))
        rates = (200.0, 350.0)
        expected, generators = whole_pulse_oracle(ctx, wf, rates)
        assert _norm_1(generators) > _THETA_13
        if steps > _BLOCK_STEPS:
            edge = min(
                _norm_1(generators[k : k + _BLOCK_STEPS])
                for k in range(0, steps, _BLOCK_STEPS)
            )
            assert edge <= _THETA_13
        assert np.array_equal(_pulse_superoperator(ctx, wf, *rates), expected)

    def test_working_set_of_a_two_qubit_pulse(self):
        # one block's temporaries beside the (500, 16, 16) stack of 2 MB;
        # building the whole pulse at once peaked at 13.8 MB
        rng = np.random.default_rng(31)
        ctx = fs.ControlContext(
            frame=random_frame(rng, 500), n_qubits=2, coupling_j=0.3, duration=10.0
        )
        wf = 0.4 * rng.standard_normal((2, 500))
        tracemalloc.start()
        try:
            _pulse_superoperator(ctx, wf, 20.0, 35.0)
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
        [
            f * theta
            # Higham's bounds theta_3, theta_5, theta_7, theta_9 and theta_13
            for theta in (
                1.495585217958292e-2,
                2.539398330063230e-1,
                9.504178996162932e-1,
                2.097847961257068e0,
                5.371920351148152e0,
            )
            for f in (0.99, 1.01)
        ]
        + [40.0],
    )
    def test_matches_scipy_expm(self, d, norm):
        # just below and above Higham's bound of each Pade degree, where
        # scipy changes degree, and 40, which squares 3 times; there the d = 4
        # stack reads 8.3e-15, most of it scipy's own error (5.0e-15 for
        # _expm, 8.9e-15 for scipy against mpmath)
        from scipy.linalg import expm

        rng = np.random.default_rng(d)
        a = rng.standard_normal((8, d, d)) + 1j * rng.standard_normal((8, d, d))
        a *= (norm / norm_1(a))[:, None, None]
        ref = expm(a)
        assert np.max(norm_1(_expm(a) - ref) / norm_1(ref)) < 1e-14

    @pytest.mark.parametrize("d", [4, 16])
    def test_zero_stack_is_the_identity(self, d):
        # norm 0 takes no log2, and I + 2 (V - U)^-1 U with U = 0 is exact
        out = _expm(np.zeros((3, d, d), dtype=complex))
        assert np.array_equal(out, np.broadcast_to(np.eye(d), (3, d, d)))

    def test_diagonal_stack_is_elementwise_exp(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal((50, 4)) + 1j * rng.standard_normal((50, 4))
        z *= 2.097847961257068 / np.abs(z).max()
        out = _expm(z[:, :, None] * np.eye(4))
        diag = np.diagonal(out, axis1=1, axis2=2)
        assert np.max(np.abs(diag - np.exp(z)) / np.abs(np.exp(z))) < 2e-15
        assert np.array_equal(out, diag[:, :, None] * np.eye(4))


def unitary_superoperator(u):
    """``rho -> U rho U^dag`` on row-major vec(rho)."""
    return np.kron(u, u.conj())


def kraus_superoperator(kraus):
    """``rho -> sum K rho K^dag`` on row-major vec(rho)."""
    return sum(unitary_superoperator(k) for k in kraus)


def random_kraus(rng, d, rank):
    """``rank`` Kraus operators of a random trace-preserving map."""
    g = rng.standard_normal((rank, d, d)) + 1j * rng.standard_normal((rank, d, d))
    w, v = np.linalg.eigh(sum(x.conj().T @ x for x in g))
    return g @ (v @ np.diag(w**-0.5) @ v.conj().T)


def random_unitary(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def pauli_chi(kraus, weights):
    """``chi = sum_m w_m c_m c_m^dag``, with ``c_m`` the Pauli coefficients
    ``Tr(P^dag K_m) / d`` of the Kraus operators."""
    singles = (np.eye(2), PAULI_X, PAULI_Y, PAULI_Z)
    d = kraus[0].shape[0]
    paulis = singles if d == 2 else [np.kron(a, b) for a in singles for b in singles]
    coeffs = np.array(
        [[np.trace(p.conj().T @ k) / d for p in paulis] for k in kraus]
    )
    return (coeffs.T * np.asarray(weights)) @ coeffs.conj()


class TestProcessMatrix:
    def test_identity_channel(self):
        chi = fs.process_matrix(np.eye(4))
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.max(np.abs(chi - expected)) < 1e-12

    def test_unitary_x_channel(self):
        chi = fs.process_matrix(unitary_superoperator(PAULI_X))
        expected = np.zeros((4, 4))
        expected[1, 1] = 1.0
        assert np.max(np.abs(chi - expected)) < 1e-12

    def test_depolarizing_mixture(self):
        s = kraus_superoperator([0.5 * p for p in (np.eye(2), PAULI_X, PAULI_Y, PAULI_Z)])
        assert np.max(np.abs(fs.process_matrix(s) - 0.25 * np.eye(4))) < 1e-12
        assert fs.average_gate_fidelity(s, np.eye(2)) == pytest.approx(0.5, abs=1e-12)

    def test_kraus_roundtrip(self):
        rng = np.random.default_rng(21)
        from scipy.linalg import expm

        ham = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        u1 = expm(1j * (ham + ham.conj().T))
        u2 = expm(0.5j * (ham + ham.conj().T))
        probs = (0.7, 0.3)
        s = sum(p * unitary_superoperator(u) for p, u in zip(probs, (u1, u2)))
        expected = pauli_chi((u1, u2), probs)
        assert np.max(np.abs(fs.process_matrix(s) - expected)) < 1e-10

    def test_two_qubit_identity(self):
        chi = fs.process_matrix(np.eye(16))
        expected = np.zeros((16, 16))
        expected[0, 0] = 1.0
        assert np.max(np.abs(chi - expected)) < 1e-12

    def test_random_two_qubit_kraus_channel(self):
        # a non-unitary channel: chi = sum_m c_m c_m^dag
        kraus = random_kraus(np.random.default_rng(23), 4, 3)
        chi = fs.process_matrix(kraus_superoperator(kraus))
        assert np.max(np.abs(chi - pauli_chi(kraus, np.ones(3)))) < 1e-12

    def test_trace_leak_detected(self):
        with pytest.raises(TomographyError, match="not trace preserving on"):
            fs.process_matrix(0.9 * np.eye(4))

    def test_coherence_only_trace_leak_detected(self):
        # rho -> rho + 1.5e-6 (rho_01 + rho_10) |0><0|: the trace moves only
        # with the coherences, so no diagonal input shows the leak
        s = np.eye(4)
        s[0, 1] = s[0, 2] = 1.5e-6
        with pytest.raises(TomographyError, match="not trace preserving on"):
            fs.process_matrix(s)

    @pytest.mark.parametrize("d", [2, 4])
    def test_transpose_is_not_completely_positive(self, d):
        # rho -> rho^T preserves trace and Hermiticity; chi has eigenvalue
        # -1/2 for one qubit
        s = np.eye(d * d).reshape(d, d, d, d).transpose(0, 1, 3, 2).reshape(d * d, -1)
        with pytest.raises(TomographyError, match="chi not positive semidefinite"):
            fs.process_matrix(s)

    @pytest.mark.parametrize("d", [2, 4])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_superoperator_rejected(self, d, bad):
        # NaN fails every comparison, so it would pass the trace and
        # Hermiticity checks and reach eigvalsh
        s = np.eye(d * d, dtype=complex)
        s[0, 1] = bad
        with pytest.raises(TomographyError, match="superoperator is not finite"):
            fs.process_matrix(s)

    def test_dimension_not_two_or_four(self):
        with pytest.raises(InvalidParameterError, match="d = 2 and 4"):
            fs.process_matrix(np.eye(9))


class TestAverageGateFidelity:
    def test_perfect_unitary(self):
        s = unitary_superoperator(PAULI_X)
        assert fs.average_gate_fidelity(s, PAULI_X) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidParameterError, match="dimension mismatch"):
            fs.average_gate_fidelity(np.eye(4), np.eye(4))

    @pytest.mark.parametrize("d", [2, 4])
    @pytest.mark.parametrize("rank", [1, 2, 5])
    def test_matches_pauli_sum_on_random_channels(self, d, rank):
        # both sides add d^4 products of entries below 1 in modulus, so each
        # is within d^4 eps of the exact value (measured: at most 1.8e-15
        # for d = 2 and 4.4e-16 for d = 4)
        rng = np.random.default_rng(10 * d + rank)
        for _ in range(10):
            s = kraus_superoperator(random_kraus(rng, d, rank))
            u = random_unitary(rng, d)
            expected = average_fidelity_pauli_sum(s, u)
            assert fs.average_gate_fidelity(s, u) == pytest.approx(
                expected, abs=2 * d**4 * np.finfo(float).eps
            )

    def test_matches_pauli_sum_on_a_bench_pulse(self, benchmark_results):
        # a 500-step pulse of the x job on dss-2's frame, at dss-2's rates;
        # the Pauli sum takes Tr E(I) = d, which the product of 500 steps
        # misses by round-off, and that miss enters F as
        # (Tr E(I) - d) / (d (d + 1)) on top of the 2 d^4 eps of the sums
        bench, bctx, point = benchmark_results["dss-2"]
        samples = fs.rotating_frame_trajectory(
            point.drive, bctx.coefficients, duration=10.0, steps=500, substeps=8
        )
        ctx = fs.ControlContext(samples, duration=10.0)
        wf = 0.3 * np.random.default_rng(4).standard_normal(500)
        rates = (point.rates.gamma_1, point.rates.gamma_z)
        s = _pulse_superoperator(ctx, wf, *rates)
        trace_miss = abs(np.trace((s @ np.eye(2).ravel()).reshape(2, 2)) - 2) / 6
        expected = average_fidelity_pauli_sum(s, PAULI_X)
        assert fs.average_gate_fidelity(s, PAULI_X) == pytest.approx(
            expected, abs=trace_miss + 2 * 2**4 * np.finfo(float).eps
        )


class TestFirstOrderInfidelity:
    @pytest.mark.parametrize("n_qubits", [1, 2])
    def test_infidelity_against_the_closed_unitary(self, n_qubits):
        # In the interaction picture of the closed evolution U, the channel
        # is U composed with E = T exp(int D(t) dt), D a Lindblad dissipator
        # whose jumps are unitary conjugates of sigma_- and sigma_z.  The
        # first-order term of E gives 1 - F = tau sum_jumps gamma
        # (Tr(A^dag A) / d - |Tr A|^2 / d^2) d / (d + 1)
        # = n_q tau (gamma_1 / 2 + gamma_z) d / (d + 1), whatever the frame
        # and waveforms.  On vec(rho) with the Hilbert-Schmidt norm a qubit's
        # dissipator has norm at most 2 (gamma_1 + gamma_z), so the Dyson
        # remainder R of order two and up has ||R|| <= e^x - 1 - x with
        # x = 2 n_q tau (gamma_1 + gamma_z); R is trace-annihilating, so it
        # moves F by |Tr R| / (d (d + 1)) <= (e^x - 1 - x) d / (d + 1).
        # 1e-12 more covers the round-off of 1 - F.
        rng = np.random.default_rng(40 + n_qubits)
        d = 2**n_qubits
        for _ in range(6):
            steps = 60
            ctx = fs.ControlContext(
                frame=random_frame(rng, steps),
                n_qubits=n_qubits,
                coupling_j=0.3 * (n_qubits - 1),
                duration=steps * rng.uniform(0.05, 0.2),
            )
            wf = 0.4 * rng.standard_normal((n_qubits, steps))
            g1, gz = rng.uniform(0.1, 1.0, 2)   # 1/us
            s = _pulse_superoperator(ctx, wf, g1, gz)
            u = fs.propagate_closed(ctx, wf)
            tau = steps * ctx.dt
            # rates on the ns clock
            g1_ns, gz_ns = 1e-3 * g1, 1e-3 * gz
            first = n_qubits * tau * (g1_ns / 2 + gz_ns) * d / (d + 1)
            x = 2 * n_qubits * tau * (g1_ns + gz_ns)
            bound = (np.expm1(x) - x) * d / (d + 1) + 1e-12
            assert bound < 0.1 * first
            infidelity = 1.0 - fs.average_gate_fidelity(s, u)
            assert abs(infidelity - first) <= bound, (infidelity - first, bound)
