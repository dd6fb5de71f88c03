import numpy as np
import pytest

import fluxspot as fs
from fluxspot import gates
from fluxspot.exceptions import IntegrationError, InvalidParameterError
from fluxspot.floquet import (
    LOWERING,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    _midpoint_steps,
    _su2_entries,
    _su2_matrices,
)
from fluxspot.gates import (
    GIBBS_TOL,
    ControlContext,
    _block_steps,
    _frame_unitaries,
    _shape_stages,
    _static_operators,
)
from fluxspot.units import RAD_PER_US_TO_RAD_PER_NS

from oracles import frame_steps_inline


def tile(op, steps):
    return np.broadcast_to(op, (steps, *op.shape)).copy()


def trivial_context(steps=200, duration=10.0, n_qubits=1, coupling_j=0.0):
    """A context on identity frames: every operator is its lab-frame form."""
    return ControlContext(
        frame=tile(np.eye(2), steps),
        dt=duration / steps,
        n_qubits=n_qubits,
        coupling_j=coupling_j,
    )


def conjugated(frames, op):
    """``R_k^dag op R_k`` at every step."""
    return frames.conj().transpose(0, 2, 1) @ op @ frames


def two_qubit_frames(frame):
    """``R_k = U_k (x) U_k`` from the one-qubit samples."""
    return np.array([np.kron(u, u) for u in frame])


def random_frame(rng, steps):
    """Random SU(2) samples ``[[a, -b*], [b, a*]]``."""
    ab = rng.standard_normal((2, steps)) + 1j * rng.standard_normal((2, steps))
    return _su2_matrices(*(ab / np.linalg.norm(ab, axis=0)))


def degenerate_waveforms(rng, n_qubits, steps):
    """Random control samples whose first rows sit on or near the special
    points of the closed-form block steps, where a block's field s (and at
    J = 0 its angle theta) vanishes: f = 0 everywhere in row 0; for two
    qubits f1 = f2 in row 1 and f1 = -f2 in row 2; f1 = 1e-11 in row 3; and
    for two qubits f2 = 5e-12 in row 4."""
    wf = 0.4 * rng.standard_normal((n_qubits, steps))
    wf[:, 0] = 0.0
    wf[0, 3] = 1e-11
    if n_qubits == 2:
        wf[1, 1] = wf[0, 1]
        wf[1, 2] = -wf[0, 2]
        wf[1, 4] = 5e-12
    return wf


@pytest.fixture(scope="module")
def dss2_frame(benchmark_results):
    bench, ctx, point = benchmark_results["dss-2"]
    samples = fs.rotating_frame_trajectory(
        point.drive,
        ctx.coefficients,
        duration=10.0,
        steps=500,
        substeps=1024,
    )
    return ctx, point, ControlContext(samples, 10.0 / 500)


class TestRotatingFrame:
    def test_free_qubit_frame_is_identity(self):
        drive = fs.DriveSpec(omega_d=3.0, p=(0.0,))
        coeffs = fs.EffectiveCoefficients(delta=0.0, a_coef=0.0, b_coef=0.0)
        samples = fs.rotating_frame_trajectory(
            drive, coeffs, duration=5.0, steps=50, substeps=64
        )
        assert samples.shape == (50, 2, 2)
        assert np.allclose(conjugated(samples, PAULI_Y), PAULI_Y, atol=1e-12)

    def test_undriven_splitting_rotates_control_axis(self):
        delta = 2000.0   # rad/us
        drive = fs.DriveSpec(omega_d=3.0, p=(0.0,))
        coeffs = fs.EffectiveCoefficients(delta=delta, a_coef=0.0, b_coef=0.0)
        samples = fs.rotating_frame_trajectory(
            drive, coeffs, duration=4.0, steps=64, substeps=512
        )
        delta_ns = delta * 1e-3
        mids = (np.arange(64) + 0.5) * (4.0 / 64)
        controls = conjugated(samples, PAULI_Y)
        for k in (0, 13, 40, 63):
            t = mids[k]
            expected = np.cos(delta_ns * t) * PAULI_Y - np.sin(delta_ns * t) * PAULI_X
            assert np.allclose(controls[k], expected, atol=1e-9)

    def test_conjugated_samples_keep_spectra(self, dss2_frame):
        _, _, frame = dss2_frame
        controls = conjugated(frame.frame, PAULI_Y)
        dephase = conjugated(frame.frame, PAULI_Z)
        for k in (0, 100, 499):
            w = np.linalg.eigvalsh(controls[k])
            assert np.allclose(w, [-1.0, 1.0], atol=1e-10)
            wz = np.linalg.eigvalsh(dephase[k])
            assert np.allclose(wz, [-1.0, 1.0], atol=1e-10)

    def test_two_qubit_frame_shapes(self, benchmark_results):
        bench, ctx, point = benchmark_results["dss-2"]
        samples = fs.rotating_frame_trajectory(
            point.drive,
            ctx.coefficients,
            duration=4.0,
            steps=64,
            substeps=256,
        )
        frame = ControlContext(samples, 4.0 / 64, n_qubits=2, coupling_j=0.3)
        assert frame.dimension == 4
        drift_op, controls, _ = _static_operators(2, frame.coupling_j)
        assert len(controls) == 2
        drift = conjugated(two_qubit_frames(frame.frame), drift_op)
        assert drift.shape == (64, 4, 4)
        # drift eigenvalues are those of J * (z x z)
        w = np.linalg.eigvalsh(drift[10])
        assert np.allclose(np.sort(w), [-0.3, -0.3, 0.3, 0.3], atol=1e-10)

    @pytest.mark.parametrize("substeps", [7, 8])
    def test_frame_matches_substep_loop(self, benchmark_results, substeps):
        # 31 samples: blocks of 6 segments and a last block of 1; the first
        # segment [0, mids[0]] is half as long as the others
        bench, ctx, point = benchmark_results["dss-2"]
        coeffs = ctx.coefficients
        mids = (np.arange(31) + 0.5) * 0.2
        expected = []
        u, t0 = np.eye(2), 0.0
        for t1 in mids:
            h = (t1 - t0) / substeps
            ts = t0 + (np.arange(substeps) + 0.5) * h
            cx = (0.5 * coeffs.b_coef + coeffs.a_coef * point.drive.waveform(ts * 1e-3))
            for step in _su2_matrices(*_su2_entries(coeffs.delta * 1e-3, cx * 1e-3, h)):
                u = step @ u
            expected.append(u)
            t0 = t1
        us = _frame_unitaries(point.drive, coeffs, mids, substeps)
        assert np.max(np.abs(us - np.array(expected))) < 1e-13

    @pytest.mark.parametrize("name", ["dss-1", "dss-2", "dss-3"])
    def test_frame_steps_keep_the_inline_bits(self, benchmark_results, name):
        # the frame steps by _midpoint_steps scaled to rad/ns, which must
        # give the bits of the rule written out in rad/ns, on the substep
        # grid of a 500-step, 10 ns job
        _, ctx, point = benchmark_results[name]
        edges = np.concatenate(([0.0], (np.arange(500) + 0.5) * 0.02))
        widths = np.diff(edges)[:, None] / 1024
        mids = edges[:-1, None] + (np.arange(1024) + 0.5) * widths
        args = (point.drive, ctx.coefficients)
        got = _midpoint_steps(*args, mids * 1e-3, widths, RAD_PER_US_TO_RAD_PER_NS)
        for a, b in zip(got, frame_steps_inline(*args, mids, widths)):
            assert np.array_equal(a, b)

    def test_frame_samples_are_su2(self, dss2_frame):
        # the 500 x 1024 prefix scan alone drifts off unitarity by ~7e-12
        _, _, frame = dss2_frame
        a, b = frame.frame[:, 0, 0], frame.frame[:, 1, 0]
        assert np.max(np.abs(np.abs(a) ** 2 + np.abs(b) ** 2 - 1.0)) <= 1e-14
        assert np.array_equal(frame.frame[:, 1, 1], a.conj())
        assert np.array_equal(frame.frame[:, 0, 1], -b.conj())

    def test_static_operators_embed_each_qubit(self):
        # the frame conjugation of these operators is checked on the channel
        # by tests/test_lindblad.py and on the gradient by TestGradient
        rng = np.random.default_rng(8)
        ctx = ControlContext(frame=random_frame(rng, 6), dt=0.1, n_qubits=2, coupling_j=0.4)
        assert (ctx.steps, ctx.dimension, ctx.duration) == (6, 4, pytest.approx(0.6))
        eye = np.eye(2)
        drift, controls, jumps = _static_operators(2, 0.4)
        assert np.array_equal(drift, 0.4 * np.kron(PAULI_Z, PAULI_Z))
        assert np.array_equal(controls[0], np.kron(PAULI_Y, eye))
        assert np.array_equal(controls[1], np.kron(eye, PAULI_Y))
        (low_a, deph_a), (low_b, deph_b) = jumps
        assert np.array_equal(low_a, np.kron(LOWERING, eye))
        assert np.array_equal(deph_a, np.kron(PAULI_Z, eye))
        assert np.array_equal(low_b, np.kron(eye, LOWERING))
        assert np.array_equal(deph_b, np.kron(eye, PAULI_Z))
        drift, controls, jumps = _static_operators(1, 0.0)
        assert np.array_equal(drift, np.zeros((2, 2)))
        assert np.array_equal(controls[0], PAULI_Y) and len(controls) == 1
        assert len(jumps) == 1
        assert np.array_equal(jumps[0][0], LOWERING) and np.array_equal(jumps[0][1], PAULI_Z)

    @pytest.mark.parametrize(
        "frame, fields",
        [
            (np.eye(2)[None], {"n_qubits": 3}),
            (np.eye(2)[None], {"coupling_j": 0.1}),
            (np.eye(2)[None], {"dt": 0.0}),
            (np.eye(3)[None], {}),
            (np.zeros((0, 2, 2)), {}),
            (1.001 * np.eye(2)[None], {}),
            # unitary, but with determinant exp(0.2i): the one-qubit scan
            # needs its frame increments in SU(2)
            (np.exp(0.1j) * np.eye(2)[None], {}),
            (np.array([[[np.nan, 0.0], [0.0, 1.0]]]), {}),
            (np.array([[[np.inf, 0.0], [0.0, 1.0]]]), {}),
        ],
    )
    def test_context_rejects_inconsistent_fields(self, frame, fields):
        with pytest.raises(InvalidParameterError):
            ControlContext(**{"frame": frame, "dt": 0.1, **fields})

    def test_frame_of_zero_hamiltonian_is_identity(self):
        # delta = 0 and no drive: every step has a zero-norm generator
        drive = fs.DriveSpec(omega_d=3.0, p=(0.0,))
        coeffs = fs.EffectiveCoefficients(delta=0.0, a_coef=0.0, b_coef=0.0)
        mids = (np.arange(10) + 0.5) * 0.3
        us = _frame_unitaries(drive, coeffs, mids, 5)
        assert np.array_equal(us, np.broadcast_to(np.eye(2), (10, 2, 2)))

    def test_verify_passes_on_resolved_grid(self, benchmark_results):
        # halving the 4096 substeps of each 20 ps step moves the dss-2 samples
        # by 3.3e-11, 30 times below the tolerance; the check leaves the
        # frame as it is
        bench, ctx, point = benchmark_results["dss-2"]
        frames = [
            fs.rotating_frame_trajectory(
                point.drive,
                ctx.coefficients,
                duration=1.0,
                steps=50,
                substeps=4096,
                verify=verify,
            )
            for verify in (True, False)
        ]
        assert np.array_equal(frames[0], frames[1])

    def test_verify_flags_coarse_integration(self, benchmark_results):
        bench, ctx, point = benchmark_results["dss-2"]
        with pytest.raises(IntegrationError):
            fs.rotating_frame_trajectory(
                point.drive,
                ctx.coefficients,
                duration=10.0,
                steps=50,
                substeps=8,
                verify=True,
            )


class TestShapePulse:
    def spec(self, **kw):
        defaults = dict(duration=10.0, steps=500, n_freq=9)
        defaults.update(kw)
        return fs.PulseSpec(**defaults)

    def test_window_zeroes_boundaries_before_bandlimit(self):
        spec = self.spec()
        rng = np.random.default_rng(1)
        theta = rng.standard_normal(spec.params_per_control)
        _, (raw, windowed, sig, bounded) = _shape_stages(theta, spec, spec.window())
        assert windowed[0] == 0.0 and windowed[-1] == 0.0
        assert bounded[0] == 0.0 and bounded[-1] == 0.0

    def test_raw_stage_is_the_harmonic_sum(self):
        spec = self.spec()
        rng = np.random.default_rng(4)
        theta = rng.standard_normal(spec.params_per_control)
        _, (raw, _, _, _) = _shape_stages(theta, spec, spec.window())
        arg = 2 * np.pi * spec.sample_times() / spec.duration
        expected = np.full(spec.steps, theta[0])
        for m in range(1, spec.n_freq + 1):
            expected += theta[2 * m - 1] * np.cos(m * arg) + theta[2 * m] * np.sin(m * arg)
        assert np.max(np.abs(raw - expected)) < 1e-12 * np.max(np.abs(expected))

    def test_sigmoid_bounds_amplitude_before_bandlimit(self):
        spec = self.spec()
        theta = 50.0 * np.ones(spec.params_per_control)
        _, (_, _, _, bounded) = _shape_stages(theta, spec, spec.window())
        assert np.max(np.abs(bounded)) <= spec.f_max

    def test_bandlimit_zeroes_high_harmonics(self):
        spec = self.spec()
        rng = np.random.default_rng(2)
        theta = rng.standard_normal(spec.params_per_control)
        f = fs.shape_pulse(theta, spec)
        spectrum = np.fft.rfft(f)
        assert np.max(np.abs(spectrum[spec.n_freq + 1 :])) < 1e-12

    def test_final_waveform_edges_stay_small(self):
        # the spectral projection perturbs the exact window zeros; for
        # moderate pulses the residual stays small, and the optimizer's edge
        # penalty pushes it to ~1e-3 f_max on delivered pulses
        spec = self.spec()
        rng = np.random.default_rng(3)
        for _ in range(5):
            theta = 0.02 * spec.f_max * rng.standard_normal(spec.params_per_control)
            f = fs.shape_pulse(theta, spec)
            assert abs(f[0]) < 0.02 * spec.f_max
            assert abs(f[-1]) < 0.02 * spec.f_max


class TestPropagation:
    def test_zero_waveform_identity(self):
        ctx = trivial_context()
        u = fs.propagate_closed(ctx, np.zeros(200))
        assert np.allclose(u, np.eye(2), atol=1e-12)

    def test_constant_pulse_rotation(self):
        # integral pi/2 about the control axis gives the target up to phase
        ctx = trivial_context(steps=400, duration=8.0)
        f = np.full(400, (np.pi / 2) / 8.0)
        u = fs.propagate_closed(ctx, f)
        target = fs.GateTarget(unitary=PAULI_Y, name="y")
        assert fs.gate_fidelity(u, target) == pytest.approx(1.0, abs=1e-12)

    def test_two_qubit_coupling_only(self):
        steps = 300
        zz = np.kron(PAULI_Z, PAULI_Z)
        ctx = trivial_context(steps=steps, duration=6.0, n_qubits=2, coupling_j=0.2)
        u = fs.propagate_closed(ctx, np.zeros((2, steps)))
        from scipy.linalg import expm

        expected = expm(-1j * 0.2 * 6.0 * zz)
        assert np.max(np.abs(u - expected)) < 1e-10

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_waveform_rejected(self, bad):
        f = np.zeros(200)
        f[7] = bad
        with pytest.raises(InvalidParameterError, match="finite"):
            fs.propagate_closed(trivial_context(), f)

    def test_propagator_unitarity(self, dss2_frame):
        _, _, frame = dss2_frame
        rng = np.random.default_rng(9)
        f = 0.3 * rng.standard_normal(frame.steps)
        u = fs.propagate_closed(frame, f)
        assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-10


class TestGateFidelity:
    def test_exact_match(self):
        t = fs.gate_target("x")
        assert fs.gate_fidelity(PAULI_X, t) == 1.0

    def test_orthogonal(self):
        t = fs.gate_target("x")
        assert fs.gate_fidelity(np.eye(2), t) == 0.0

    def test_half_rotation(self):
        from scipy.linalg import expm

        t = fs.gate_target("x")
        u = expm(-1j * np.pi / 4 * PAULI_X)
        assert fs.gate_fidelity(u, t) == pytest.approx(0.5, abs=1e-12)

    def test_global_phase_invariance(self):
        t = fs.gate_target("x")
        assert fs.gate_fidelity(np.exp(0.7j) * PAULI_X, t) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidParameterError):
            fs.gate_fidelity(np.eye(4), fs.gate_target("x"))

    def test_target_must_be_unitary(self):
        with pytest.raises(InvalidParameterError):
            fs.GateTarget(unitary=np.array([[1, 0], [0, 2]]), name="bad")


class TestGradient:
    def test_matches_finite_differences(self, dss2_frame):
        _, _, frame = dss2_frame
        spec = fs.PulseSpec(duration=10.0, steps=500, n_freq=9)
        target = fs.gate_target("x")
        rng = np.random.default_rng(12)
        theta = 0.3 * rng.standard_normal(spec.params_per_control)
        grad = fs.grape_gradient(theta, spec, frame, target)

        from fluxspot.gates import _value_and_grad

        def loss(th):
            value, _, _ = _value_and_grad(th, spec, spec.window(), frame, target)
            return 1.0 - value

        h = 1e-6
        worst = 0.0
        for i in range(0, theta.size, 4):
            tp, tm = theta.copy(), theta.copy()
            tp[i] += h
            tm[i] -= h
            fd = (loss(tp) - loss(tm)) / (2 * h)
            scale = max(abs(fd), 1e-8)
            worst = max(worst, abs(grad[i] - fd) / scale)
        assert worst < 1e-6

    def test_matches_per_step_loop(self):
        # reference: dF/df_ck = 2 Re(conj(tr) tr(U_d^dag S_k+1 dU_k P_k) / d)
        # summed step by step, with dU_k from scipy's expm Frechet derivative
        # of H_k = R_k^dag H0 R_k built here from the frame, on random SU(2)
        # frames; the first rows sit on the eigensystem's degeneracies, and
        # two qubits run with and without coupling
        from scipy.linalg import expm, expm_frechet

        from fluxspot.gates import _fidelity_and_waveform_grad

        dt = 0.05
        rng = np.random.default_rng(5)
        eye = np.eye(2)
        # 40 steps pad the last ceil(sqrt(n))-step block of the prefix scan,
        # 36 fill their blocks exactly
        cases = [(steps, 1, 0.0, "x") for steps in (40, 36)] + [
            (steps, 2, j, "sqrt_iswap") for steps in (40, 36) for j in (0.3, 0.0)
        ]
        for steps, n_qubits, coupling, gate in cases:
            frame = random_frame(rng, steps)
            ctx = ControlContext(
                frame=frame, dt=dt, n_qubits=n_qubits, coupling_j=coupling
            )
            wf = degenerate_waveforms(rng, n_qubits, steps)
            target = fs.gate_target(gate)
            fid, grads, u = _fidelity_and_waveform_grad(ctx, wf, target)

            d = 2**n_qubits
            if n_qubits == 1:
                frames = frame
                ys, h_fixed = [PAULI_Y], np.zeros((2, 2))
            else:
                frames = np.array([np.kron(r, r) for r in frame])
                ys = [np.kron(PAULI_Y, eye), np.kron(eye, PAULI_Y)]
                h_fixed = coupling * np.kron(PAULI_Z, PAULI_Z)
            ops = [
                np.array([r.conj().T @ y @ r for r in frames]) for y in ys
            ]
            hs = np.array([r.conj().T @ h_fixed @ r for r in frames])
            hs = hs + sum(w[:, None, None] * c for w, c in zip(wf, ops))
            step_us = [expm(-1j * h * dt) for h in hs]
            prefix = [np.eye(d)]
            for s_k in step_us:
                prefix.append(s_k @ prefix[-1])
            suffix = [np.eye(d)]
            for s_k in reversed(step_us):
                suffix.insert(0, suffix[0] @ s_k)
            ud_dag = target.unitary.conj().T
            tr = np.trace(ud_dag @ prefix[-1]) / d
            expected = np.empty((n_qubits, steps))
            for c, op in enumerate(ops):
                for k in range(steps):
                    du = expm_frechet(-1j * hs[k] * dt, -1j * op[k] * dt, compute_expm=False)
                    m = suffix[k + 1] @ du @ prefix[k]
                    expected[c, k] = 2 * np.real(np.conj(tr) * np.trace(ud_dag @ m) / d)
            assert fid == pytest.approx(abs(tr) ** 2, abs=1e-12)
            assert np.max(np.abs(u - prefix[-1])) < 1e-12
            assert np.max(np.abs(grads - expected)) < 1e-10 * np.max(np.abs(expected))

    @pytest.mark.parametrize("n_qubits, coupling", [(1, 0.0), (2, 0.3), (2, 0.0)])
    def test_block_steps_match_expm_and_frechet(self, n_qubits, coupling):
        # assembled from its blocks, B_k must be exp(-i dt T^dag H0(f_k) T)
        # and sum_c z_c[lo] B_k^dag dB_k/ds over the blocks must be B_k^dag
        # times the Frechet derivative along T^dag C_c T, for each control c
        from scipy.linalg import expm, expm_frechet

        from fluxspot.gates import _SIGMA_Y_BASIS

        dt, steps = 0.05, 12
        rng = np.random.default_rng(17)
        ctx = ControlContext(
            frame=random_frame(rng, steps), dt=dt, n_qubits=n_qubits, coupling_j=coupling
        )
        wf = degenerate_waveforms(rng, n_qubits, steps)
        blocks = _block_steps(ctx, wf)
        d = ctx.dimension
        t = _SIGMA_Y_BASIS if n_qubits == 1 else np.kron(_SIGMA_Y_BASIS, _SIGMA_Y_BASIS)
        drift, controls, _ = _static_operators(n_qubits, coupling)
        drift_t = t.conj().T @ drift @ t
        controls_t = [t.conj().T @ c @ t for c in controls]
        for k in range(steps):
            h = drift_t + sum(w * c for w, c in zip(wf[:, k], controls_t))
            b_ref = expm(-1j * dt * h)
            b = np.zeros((d, d), dtype=complex)
            gens = [np.zeros((d, d), dtype=complex) for _ in controls]
            for lo, hi, p, q, (g_x, g_y, g_z) in blocks:
                pair = np.ix_([lo, hi], [lo, hi])
                b[pair] = [[p[k], q[k]], [q[k], np.conj(p[k])]]
                g = sum(
                    np.broadcast_to(coef, (steps,))[k] * pauli
                    for coef, pauli in zip((g_x, g_y, g_z), (PAULI_X, PAULI_Y, PAULI_Z))
                )
                for c, control in enumerate(controls_t):
                    gens[c][pair] += control[lo, lo].real * -1j * dt * g
            assert np.max(np.abs(b - b_ref)) < 1e-14
            for c, control in enumerate(controls_t):
                du = expm_frechet(-1j * dt * h, -1j * dt * control, compute_expm=False)
                assert np.max(np.abs(b_ref.conj().T @ du - gens[c])) < 1e-14 * dt

    def test_gradient_vanishes_at_perfect_fidelity(self):
        ctx = trivial_context()
        spec = fs.PulseSpec(duration=10.0, steps=200, n_freq=4)
        target = fs.gate_target("identity")
        theta = np.zeros(spec.params_per_control)
        grad = fs.grape_gradient(theta, spec, ctx, target)
        assert np.max(np.abs(grad)) < 1e-8


class TestOptimizePulse:
    def test_identity_with_zero_init_converges_immediately(self, monkeypatch):
        monkeypatch.setattr(gates, "INIT_SCALE", 0.0)
        ctx = trivial_context()
        spec = fs.PulseSpec(duration=10.0, steps=200, n_freq=4)
        result = fs.optimize_pulse(
            spec, ctx, fs.gate_target("identity"), fs.GrapeSettings(iterations=5)
        )
        assert result.fidelity == pytest.approx(1.0, abs=1e-12)
        assert result.fidelity_history[0] == pytest.approx(1.0, abs=1e-12)
        assert result.converged

    @pytest.mark.parametrize(
        "fidelity, converged",
        [(gates.TARGET_FIDELITY, True), (np.nextafter(gates.TARGET_FIDELITY, 0), False),
         (-np.inf, False)],
        ids=["at-target", "below", "no-accepted-iterate"],
    )
    def test_converged_is_the_fidelity_at_the_target(self, fidelity, converged):
        empty = np.zeros(0)
        assert fs.PulseResult(empty, fidelity, empty, empty).converged is converged

    def test_target_dimension_must_match_context(self):
        spec = fs.PulseSpec(duration=10.0, steps=200, n_freq=4)
        with pytest.raises(InvalidParameterError, match="dimension"):
            fs.optimize_pulse(
                spec,
                trivial_context(),
                fs.gate_target("sqrt_iswap"),
                fs.GrapeSettings(iterations=1),
            )

    def test_small_x_gate_reaches_target(self, dss2_frame):
        _, _, frame = dss2_frame
        spec = fs.PulseSpec(duration=10.0, steps=500, n_freq=9)
        settings = fs.GrapeSettings(iterations=250, seed=4)
        result = fs.optimize_pulse(spec, frame, fs.gate_target("x"), settings)
        assert result.fidelity >= 0.9999
        assert np.array_equal(result.waveforms[0], fs.shape_pulse(result.theta, spec))
        assert np.max(np.abs(result.waveforms)) <= spec.f_max * (1 + GIBBS_TOL)
        assert abs(result.waveforms[0][0]) < 1e-2 * spec.f_max
        assert abs(result.waveforms[0][-1]) < 1e-2 * spec.f_max
        assert np.all(np.diff(result.fidelity_history) >= 0)

    def test_history_deterministic_under_seed(self, dss2_frame):
        _, _, frame = dss2_frame
        spec = fs.PulseSpec(duration=10.0, steps=500, n_freq=9)
        settings = fs.GrapeSettings(iterations=30, seed=7)
        a = fs.optimize_pulse(spec, frame, fs.gate_target("x"), settings)
        b = fs.optimize_pulse(spec, frame, fs.gate_target("x"), settings)
        assert np.array_equal(a.fidelity_history, b.fidelity_history)
        assert np.array_equal(a.theta, b.theta)


class TestStepRefinement:
    def test_fidelity_converges_second_order_under_halving(
        self, benchmark_results
    ):
        # refine the step product of the same piecewise-constant pulse; the
        # fidelity must move well below the acceptance margins and contract
        # like dt^2 (the frame samples refine with the grid, so the change
        # cannot reach 1e-8 at the 500-step production grid)
        bench, ctx, point = benchmark_results["dss-2"]
        target = fs.gate_target("x")

        def frame_at(steps, substeps):
            samples = fs.rotating_frame_trajectory(
                point.drive,
                ctx.coefficients,
                duration=10.0,
                steps=steps,
                substeps=substeps,
            )
            return ControlContext(samples, 10.0 / steps)

        frame = frame_at(500, 1024)
        spec = fs.PulseSpec(duration=10.0, steps=500, n_freq=9)
        result = fs.optimize_pulse(
            spec, frame, target, fs.GrapeSettings(iterations=250, seed=4)
        )
        wf = result.waveforms[0]
        fids = {500: fs.gate_fidelity(fs.propagate_closed(frame, wf), target)}
        for factor in (2, 4):
            frame_fine = frame_at(500 * factor, 1024 // factor)
            fids[500 * factor] = fs.gate_fidelity(
                fs.propagate_closed(frame_fine, np.repeat(wf, factor)), target
            )
        first = abs(fids[1000] - fids[500])
        second = abs(fids[2000] - fids[1000])
        assert first < 1e-6
        assert second < 0.5 * first
