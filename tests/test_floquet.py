import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fluxspot as fs
from fluxspot.circuit import EffectiveCoefficients
from fluxspot.exceptions import (
    DegenerateGapError,
    IntegrationError,
    InvalidParameterError,
    TruncationError,
)
from fluxspot.floquet import (
    PAULI_X,
    PAULI_Z,
    FilterWeights,
    FloquetSolution,
    _gauge_fix,
    _particle_hole,
    _period_steps,
    _prefix_products,
    _quasienergies_from_monodromy,
    _select_central_pair,
    _su2_entries,
    _su2_matrices,
    _su2_prefix_products,
    _tree_product,
    fold_to_zone,
)

from conftest import REFERENCE_CONTEXT, box_drives, random_drive, solve_drive
from oracles import filter_weights_time_grid, mode_at, parseval_sum

REFERENCE_DELTA = REFERENCE_CONTEXT.qubit.delta


def drive(omega_d, p, phi_dc=np.pi, phi_ac=0.05):
    return fs.DriveSpec(phi_dc=phi_dc, phi_ac=phi_ac, omega_d=omega_d, p=p)


def coeffs(a=0.0, b=0.0):
    return EffectiveCoefficients(a_coef=a, b_coef=b)


class TestDriveSpec:
    def test_waveform_is_real_and_periodic(self):
        d = drive(7.0, (0.3, 0.2 - 0.4j, -0.1 + 0.5j))
        ts = np.linspace(0.0, 2 * d.period, 50)
        vals = d.waveform(ts)
        assert np.all(np.isreal(vals))
        assert d.waveform(0.3) == pytest.approx(d.waveform(0.3 + d.period), abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(0, 8),
        data=st.data(),
        omega_d=st.floats(0.1, 10.0),
        t_frac=st.one_of(
            st.floats(0.0, 1.0), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40)
        ),
    )
    def test_waveform_matches_per_harmonic_sum(self, n, data, omega_d, t_frac):
        unit = st.floats(-1.0, 1.0)
        p = [complex(data.draw(st.floats(0.0, 1.0)))]
        p += [complex(data.draw(unit), data.draw(unit)) for _ in range(n)]
        d = drive(omega_d, tuple(p))
        t = np.asarray(t_frac) * d.period
        expected = p[0].real + sum(
            2.0 * (p[k] * np.exp(1j * k * omega_d * t)).real for k in range(1, n + 1)
        )
        got = d.waveform(t)
        if t.ndim == 0:
            assert type(got) is float
        assert np.max(np.abs(got - expected)) <= 1e-13

    def test_box_validation(self):
        with pytest.raises(InvalidParameterError):
            drive(7.0, (1.2,))
        with pytest.raises(InvalidParameterError):
            drive(7.0, (-0.1,))
        with pytest.raises(InvalidParameterError):
            drive(7.0, (0.5, 1.5 + 0.1j))
        with pytest.raises(InvalidParameterError):
            drive(-1.0, (0.5,))

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"omega_d": np.nan}, "omega_d"),
            ({"omega_d": np.inf}, "omega_d"),
            ({"phi_dc": np.nan}, "phi_dc"),
            ({"phi_ac": -np.inf}, "phi_ac"),
            ({"p": (np.nan,)}, "p_0"),
            ({"p": (0.5, complex(np.nan, 0.1))}, "p_1"),
            ({"p": (0.5, 0.2, complex(0.1, np.inf))}, "p_2"),
        ],
    )
    def test_non_finite_fields_rejected(self, kwargs, field):
        args = dict(phi_dc=np.pi, phi_ac=0.05, omega_d=7.0, p=(0.5, 0.2))
        with pytest.raises(InvalidParameterError, match=field):
            fs.DriveSpec(**{**args, **kwargs})


def assemble_by_blocks(drive, coeffs, delta, k_max):
    """Block-by-block Floquet matrix: H0 + k omega_d on the diagonal blocks,
    A p_n sigma_x at block offset n below and its adjoint above."""
    p = np.asarray(drive.p, dtype=complex)
    a, b = coeffs.a_coef, coeffs.b_coef
    h0 = -0.5 * delta * PAULI_Z + (0.5 * b + p[0].real * a) * PAULI_X
    nb = 2 * k_max + 1
    m = np.zeros((2 * nb, 2 * nb), dtype=complex)
    for i, k in enumerate(range(-k_max, k_max + 1)):
        m[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = h0 + k * drive.omega_d * np.eye(2)
    for n in range(1, drive.n + 1):
        block = a * p[n] * PAULI_X
        for j in range(nb - n):
            i = j + n
            m[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = block
            m[2 * j : 2 * j + 2, 2 * i : 2 * i + 2] = block.T.conj()
    return m


def filter_weights_by_traces(sol):
    """Filter weights as diagonal sums of the harmonic overlap matrices."""
    hp, hm = sol.harmonics_plus, sol.harmonics_minus
    big_k = 2 * sol.k_max
    m_pp = hp.conj() @ PAULI_X @ hp.T
    m_mm = hm.conj() @ PAULI_X @ hm.T
    m_pm = hp.conj() @ PAULI_X @ hm.T
    m_mp = hm.conj() @ PAULI_X @ hp.T
    ks = range(-big_k, big_k + 1)
    return FilterWeights(
        g_z=np.array([0.5 * np.trace(m_pp - m_mm, offset=-k) for k in ks]),
        g_plus=np.array([np.trace(m_pm, offset=-k) for k in ks]),
        g_minus=np.array([np.trace(m_mp, offset=-k) for k in ks]),
        k_max=big_k,
    )


class TestAssemble:
    @settings(max_examples=100, deadline=None)
    @given(
        box_drives(),
        st.floats(-1e3, 1e3),
        st.floats(-1e4, 1e4),
        st.floats(0.0, 1e4),
    )
    def test_equals_block_oracle(self, drive_k, a, b, delta):
        d, k_max = drive_k
        for c in (coeffs(a=a, b=b), coeffs(a=abs(a), b=abs(b))):
            assert np.array_equal(
                fs.assemble_floquet_matrix(d, c, delta, k_max),
                assemble_by_blocks(d, c, delta, k_max),
            )

    def test_undriven_blocks(self):
        d = drive(10.0, (0.0,))
        m = fs.assemble_floquet_matrix(d, coeffs(a=0.0, b=4.0), 3.0, k_max=2)
        w = np.linalg.eigvalsh(m)
        expected = sorted(
            s * 2.5 + k * 10.0 for s in (-1, 1) for k in (-2, -1, 0, 1, 2)
        )
        assert np.allclose(sorted(w), expected, atol=1e-12)

    def test_single_tone_band_structure(self):
        d = drive(10.0, (0.0, 0.5))
        a = 2.0
        m = fs.assemble_floquet_matrix(d, coeffs(a=a, b=0.0), 3.0, k_max=2)
        # exactly one off-diagonal band with entries a * p_1 * sigma_x
        block = m[2:4, 0:2]
        assert np.allclose(block, a * 0.5 * np.array([[0, 1], [1, 0]]))
        assert np.allclose(m[4:6, 0:2], 0.0)

    def test_hermitian(self, context):
        rng = np.random.default_rng(5)
        d = random_drive(rng, context)
        m = fs.assemble_floquet_matrix(
            d, context.coefficients, context.qubit.delta, k_max=12
        )
        assert np.max(np.abs(m - m.conj().T)) < 1e-12 * np.max(np.abs(m))

    def test_truncation_guard(self):
        d = drive(10.0, (0.0, 0.5, 0.5))
        with pytest.raises(TruncationError):
            fs.assemble_floquet_matrix(d, coeffs(), 3.0, k_max=1)


class TestSolve:
    def test_static_closed_form(self):
        d = drive(10.0, (0.0,))
        m = fs.assemble_floquet_matrix(d, coeffs(a=0.0, b=4.0), 3.0, k_max=3)
        sol = fs.solve_floquet(m, 10.0)
        assert sol.omega_gap == pytest.approx(5.0, abs=1e-12)
        assert sol.eps_plus == pytest.approx(2.5, abs=1e-12)
        # only the central harmonic is populated
        for h in (sol.harmonics_plus, sol.harmonics_minus):
            mags = np.linalg.norm(h, axis=1)
            assert mags[sol.k_max] == pytest.approx(1.0, abs=1e-12)
            assert np.all(np.delete(mags, sol.k_max) < 1e-12)

    def test_commuting_case(self):
        d = drive(10.0, (0.0, 0.5 + 0.3j))
        m = fs.assemble_floquet_matrix(d, coeffs(a=0.3, b=1.0), 0.0, k_max=6)
        sol = fs.solve_floquet(m, 10.0)
        assert sol.omega_gap == pytest.approx(1.0, abs=1e-10)
        # modes are transverse (flux-operator) eigenstates up to phase:
        # both vector components equal in magnitude at every harmonic
        h = sol.harmonics_plus
        assert np.allclose(np.abs(h[:, 0]), np.abs(h[:, 1]), atol=1e-12)

    def test_normalization_and_gauge(self, context):
        rng = np.random.default_rng(11)
        for _ in range(5):
            d = random_drive(rng, context)
            sol, _ = solve_drive(d, context)
            for h in (sol.harmonics_plus, sol.harmonics_minus):
                assert np.sum(np.abs(h) ** 2) == pytest.approx(1.0, abs=1e-10)
                pivot = h[sol.k_max][np.argmax(np.abs(h[sol.k_max]))]
                assert abs(pivot.imag) < 1e-10 and pivot.real >= 0
            assert -sol.omega_d / 2 < sol.eps_minus <= sol.omega_d / 2
            assert 0.0 < sol.omega_gap < sol.omega_d

    def test_degenerate_gap_raises(self):
        d = drive(3.0, (0.0,))
        m = fs.assemble_floquet_matrix(d, coeffs(a=0.0, b=0.0), 3.0, k_max=3)
        with pytest.raises(DegenerateGapError):
            fs.solve_floquet(m, 3.0)

    @pytest.mark.parametrize("order", [1, -1])
    def test_zone_edge_replica_pair_raises(self, order):
        # eps = -/+ omega_d / 2 are replicas of one state; their |eps| tie is
        # broken by round-off, here one ulp either way
        edge = [-1.5, np.nextafter(1.5, 0.0)][::order]
        eps = np.array([*edge, 4.5, -4.5])
        with pytest.raises(DegenerateGapError):
            _select_central_pair(eps, 3.0)
        with pytest.raises(DegenerateGapError):
            _select_central_pair(-eps, 3.0)

    def test_pair_inside_the_zone_keeps_its_labels(self):
        eps = np.array([4.4, 1.4, -1.4, -4.4])
        assert _select_central_pair(eps, 3.0) == (2, 1)


def central_pair_oracle(m, omega_d):
    """Central eigenpairs of a Floquet matrix by a full ``eigh``:
    ``(eps_minus, eps_plus, h_minus, h_plus)``, gauge-fixed."""
    w, v = np.linalg.eigh(m)
    i, j = _select_central_pair(w, omega_d)
    k_max = (m.shape[0] // 2 - 1) // 2
    modes = [_gauge_fix(v[:, idx].reshape(-1, 2), k_max) for idx in (i, j)]
    return w[i], w[j], *modes


class TestParticleHoleSymmetry:
    @settings(max_examples=100, deadline=None)
    @given(box_drives(), st.floats(0.1, 1e3), st.floats(-1e4, 1e4).filter(bool))
    def test_floquet_matrix_is_odd_under_c(self, drive_k, a, b):
        # C H_F C^-1 = -H_F: a symmetric spectrum, and C maps every
        # eigenvector at w to one at -w
        d, k_max = drive_k
        m = fs.assemble_floquet_matrix(
            d, coeffs(a=a, b=b), REFERENCE_DELTA, k_max
        )
        w, v = np.linalg.eigh(m)
        scale = np.max(np.abs(w))
        assert np.max(np.abs(w + w[::-1])) <= 1e-13 * scale
        cv = _particle_hole(v.T.reshape(v.shape[1], -1, 2)).reshape(v.shape[1], -1).T
        assert np.max(np.abs(m @ cv + cv * w)) <= 1e-13 * scale

    def test_solve_matches_eigh_oracle(self, context):
        rng = np.random.default_rng(29)
        checked = 0
        for _ in range(60):
            n = int(rng.integers(1, 7))
            d = random_drive(rng, context, n=n)
            k_max = int(rng.integers(n, 3 * n + 3))
            m = fs.assemble_floquet_matrix(
                d, context.coefficients, context.qubit.delta, k_max
            )
            try:
                sol = fs.solve_floquet(m, d.omega_d)
            except DegenerateGapError:
                continue
            eps_minus, eps_plus, h_minus, h_plus = central_pair_oracle(m, d.omega_d)
            assert sol.eps_plus == pytest.approx(eps_plus, rel=1e-12)
            assert sol.eps_minus == pytest.approx(eps_minus, rel=1e-12)
            for got, want in ((sol.harmonics_plus, h_plus), (sol.harmonics_minus, h_minus)):
                assert 1.0 - abs(np.vdot(want, got)) <= 1e-13
                assert np.max(np.abs(got - want)) <= 1e-12
            checked += 1
        assert checked >= 50

    @pytest.mark.parametrize(
        "omega_d, b, delta",
        [(10.0, 4.0, 3.0), (3.0, 4.0, 0.0), (3.0, 4.0, 1.0), (7.0, 0.0, 3.0), (2.5, -6.0, 0.5)],
    )
    def test_undriven_mode_stays_in_its_block(self, omega_d, b, delta):
        # an undriven matrix decouples into 2x2 blocks; each central mode
        # lives in one block, whichever block's diagonal lies nearest eps
        d = drive(omega_d, (0.0,))
        m = fs.assemble_floquet_matrix(d, coeffs(a=0.0, b=b), delta, k_max=3)
        sol = fs.solve_floquet(m, omega_d)
        eps_minus, eps_plus, h_minus, h_plus = central_pair_oracle(m, omega_d)
        assert sol.eps_plus == pytest.approx(eps_plus, rel=1e-12)
        for got, want in ((sol.harmonics_plus, h_plus), (sol.harmonics_minus, h_minus)):
            assert np.max(np.abs(got - want)) <= 1e-12
            assert np.count_nonzero(np.linalg.norm(got, axis=1)) == 1

    def test_unconverged_mode_is_degenerate(self, context, monkeypatch):
        # a shift a percent of the spectral radius off eps_plus leaves the
        # two inverse-iteration steps far from the mode: the residual check
        # must reject it, alone and in a population
        monkeypatch.setattr(fs.floquet, "_SHIFT_RTOL", 1e-2)
        d = random_drive(np.random.default_rng(37), context)
        m = fs.assemble_floquet_matrix(d, context.coefficients, context.qubit.delta, 12)
        with pytest.raises(DegenerateGapError):
            fs.solve_floquet(m, d.omega_d)
        genome = fs.Genome(p0=0.3, p_re=(0.2,) * 4, p_im=(0.1,) * 4, omega_d_frac=1.1)
        assert fs.evaluate_population([genome], context) == [((np.inf, np.inf), None)]

    def test_unresolved_small_gap_is_degenerate(self):
        # a gap of 1e-10 omega_d passes the degeneracy rule, but two
        # inverse-iteration steps cannot resolve its mode to 1e-10 of it
        d = drive(3.0, (1e-10,))
        m = fs.assemble_floquet_matrix(d, coeffs(a=-1.5, b=0.0), 0.0, k_max=2)
        w = np.linalg.eigvalsh(m)
        assert 1e-12 * 3.0 < 2 * np.min(np.abs(w)) < 1e-9
        with pytest.raises(DegenerateGapError):
            fs.solve_floquet(m, 3.0)

    def test_solve_leaves_its_matrix_unchanged(self, context):
        d = random_drive(np.random.default_rng(31), context)
        m = fs.assemble_floquet_matrix(d, context.coefficients, context.qubit.delta, 8)
        before = m.copy()
        fs.solve_floquet(m, d.omega_d)
        assert np.array_equal(m, before)


class TestPropagatorReference:
    def test_static_limit(self):
        d = drive(10.0, (0.0,))
        ref = fs.reference_floquet_via_propagator(
            d, coeffs(a=0.0, b=4.0), 3.0, substeps=4096, k_max=3
        )
        assert ref.omega_gap == pytest.approx(5.0, abs=1e-9)

    def test_matches_matrix_solver(self, context):
        rng = np.random.default_rng(23)
        for _ in range(3):
            d = random_drive(rng, context)
            sol, _ = solve_drive(d, context)
            ref = fs.reference_floquet_via_propagator(
                d, context.coefficients, context.qubit.delta, k_max=sol.k_max
            )
            assert abs(ref.eps_plus - sol.eps_plus) < 3e-6
            assert fs.mode_infidelity(ref, sol) < 1e-10

    def test_commuting_phase_integral_oracle(self):
        # with delta = 0 everything commutes: quasienergies are the mean
        # longitudinal field and the mode phase is its running integral
        a, b = 0.4, 1.3
        d = drive(9.0, (0.2, 0.5 - 0.25j))
        ref = fs.reference_floquet_via_propagator(
            d, coeffs(a=a, b=b), 0.0, substeps=8192, k_max=8
        )
        expected_gap = fold_to_zone(b + 2 * a * 0.2, 9.0)
        assert ref.omega_gap == pytest.approx(abs(expected_gap), abs=1e-8)
        # analytic mode: e^{-i a q(t)} |+x> with q(t) = int (P - p0)
        ts = np.linspace(0.1, 0.6, 4)
        from scipy.integrate import quad

        for t in ts:
            q, _ = quad(lambda s: d.waveform(s) - 0.2, 0.0, t, limit=200)
            mode = mode_at(ref, t, "plus")[0]
            analytic = np.exp(-1j * a * q) * np.array([1.0, 1.0]) / np.sqrt(2)
            overlap = abs(np.vdot(analytic, mode))
            assert overlap == pytest.approx(1.0, abs=1e-7)

    def test_halving_check_raises_when_unconverged(self):
        # halving the 1000-step grid moves a quasienergy by 1.0e-6 rad/us,
        # far above the tolerance of 1e-9 omega_d = 1e-8 rad/us
        d = drive(10.0, (0.5, 1.0 + 1.0j))
        with pytest.raises(IntegrationError):
            fs.reference_floquet_via_propagator(
                d, coeffs(a=1.0, b=1.0), 3.0, substeps=1000
            )

    def test_tree_product_is_the_monodromy(self):
        d = drive(10.0, (0.5, 1.0 + 1.0j))
        steps = _su2_matrices(*_period_steps(d, coeffs(a=1.0, b=1.0), 3.0, 1001))
        u = np.eye(2)
        for step in steps:
            u = step @ u
        assert np.max(np.abs(_tree_product(steps) - u)) < 1e-13
        last = _prefix_products(steps)[-1]
        assert np.max(np.abs(last - _tree_product(steps))) < 1e-13

    @settings(max_examples=60, deadline=None)
    @given(
        # lengths at the edges of the ceil(sqrt(n)) blocks: k^2 - 1, k^2, k^2 + 1
        n=st.sampled_from([1, 2])
        | st.builds(lambda k, s: k * k + s, st.integers(2, 30), st.sampled_from([-1, 0, 1])),
        dim=st.sampled_from([2, 4]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_prefix_products_match_sequential_loop(self, n, dim, seed):
        rng = np.random.default_rng(seed)
        if dim == 2:
            entries = _su2_entries(rng.uniform(-3, 3), rng.uniform(-2, 2, n), 0.05)
            steps = _su2_matrices(*entries)
        else:
            z = rng.standard_normal((n, 4, 4)) + 1j * rng.standard_normal((n, 4, 4))
            steps, _ = np.linalg.qr(z)
        u = np.eye(dim)
        expected = []
        for step in steps:
            u = step @ u
            expected.append(u)
        assert np.max(np.abs(_prefix_products(steps) - np.array(expected))) < 1e-13

    @pytest.mark.parametrize("n", [1, 2, 3, 36, 40, 500])
    def test_su2_prefix_products_match_sequential_loop(self, n):
        # random SU(2) steps, not only the imaginary-b steps of the grid
        rng = np.random.default_rng(n)
        ab = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
        a, b = ab / np.linalg.norm(ab, axis=0)
        u = np.eye(2)
        expected = []
        for step in _su2_matrices(a, b):
            u = step @ u
            expected.append(u)
        a_in, b_in = a.copy(), b.copy()
        got = _su2_matrices(*_su2_prefix_products(a, b))
        assert np.max(np.abs(got - np.array(expected))) < 1e-13
        assert np.array_equal(a, a_in) and np.array_equal(b, b_in)

    def test_fft_harmonics_match_dense_dft_oracle(self):
        # the grid propagator by a step loop and the harmonics by a dense
        # (2 k_max + 1) x substeps DFT matrix
        d, c, delta = drive(10.0, (0.5, 1.0 + 1.0j)), coeffs(a=1.0, b=1.0), 3.0
        substeps, k_max = 16384, 8
        ref = fs.reference_floquet_via_propagator(d, c, delta, substeps, k_max)
        steps = _su2_matrices(*_period_steps(d, c, delta, substeps))
        us = np.empty((substeps + 1, 2, 2), dtype=complex)
        us[0] = np.eye(2)
        for i in range(substeps):
            us[i + 1] = steps[i] @ us[i]
        eps, vecs = _quasienergies_from_monodromy(us[-1], d.omega_d, d.period)
        i, j = _select_central_pair(eps, d.omega_d)
        ts = np.arange(substeps) * (d.period / substeps)
        ks = np.arange(-k_max, k_max + 1)
        dft = np.exp(-1j * np.outer(ks * d.omega_d, ts)) / substeps
        for idx, eps_ref, h_ref in (
            (j, ref.eps_plus, ref.harmonics_plus),
            (i, ref.eps_minus, ref.harmonics_minus),
        ):
            assert abs(eps[idx] - eps_ref) < 1e-12 * d.omega_d
            traj = np.einsum("tab,b->ta", us[:-1], vecs[:, idx])
            h = dft @ (traj * np.exp(1j * eps[idx] * ts)[:, None])
            h = _gauge_fix(h / np.linalg.norm(h), k_max)
            assert np.max(np.abs(h - h_ref)) < 1e-13

    def test_substep_floor_guard(self):
        d = drive(10.0, (0.0, 0.5))
        with pytest.raises(InvalidParameterError):
            fs.reference_floquet_via_propagator(
                d, coeffs(a=1.0, b=1.0), 3.0, substeps=100
            )


class TestFilterWeights:
    def test_static_values(self):
        d = drive(10.0, (0.0,))
        m = fs.assemble_floquet_matrix(d, coeffs(a=0.0, b=4.0), 3.0, k_max=3)
        w = fs.compute_filter_weights(fs.solve_floquet(m, 10.0))
        assert abs(w.g_z0) == pytest.approx(0.8, abs=1e-12)
        assert abs(w.g_plus[w.k_max]) == pytest.approx(0.6, abs=1e-12)
        off_center = np.delete(np.abs(w.g_z), w.k_max)
        assert np.all(off_center < 1e-12)
        assert parseval_sum(w) == pytest.approx(1.0, abs=1e-12)

    def test_commuting_case_weights(self):
        d = drive(10.0, (0.0, 0.5 + 0.3j))
        m = fs.assemble_floquet_matrix(d, coeffs(a=0.3, b=1.0), 0.0, k_max=6)
        w = fs.compute_filter_weights(fs.solve_floquet(m, 10.0))
        assert abs(w.g_z0) == pytest.approx(1.0, abs=1e-10)
        assert np.all(np.delete(np.abs(w.g_z), w.k_max) < 1e-10)
        assert np.all(np.abs(w.g_plus) < 1e-10)
        assert np.all(np.abs(w.g_minus) < 1e-10)

    def test_static_sweet_spot_center_weight_vanishes(self):
        d = drive(10.0, (0.0,))
        m = fs.assemble_floquet_matrix(d, coeffs(a=0.0, b=0.0), 3.0, k_max=3)
        w = fs.compute_filter_weights(fs.solve_floquet(m, 10.0))
        assert abs(w.g_z0) < 1e-14

    def test_fft_oracle_agreement(self, context):
        rng = np.random.default_rng(37)
        for _ in range(4):
            d = random_drive(rng, context)
            sol, w = solve_drive(d, context)
            w_fft = filter_weights_time_grid(sol)
            assert np.max(np.abs(w.g_z - w_fft.g_z)) < 1e-9
            assert np.max(np.abs(w.g_plus - w_fft.g_plus)) < 1e-9
            assert np.max(np.abs(w.g_minus - w_fft.g_minus)) < 1e-9

    def test_parseval_and_cross_symmetry(self, context):
        rng = np.random.default_rng(41)
        for _ in range(50):
            d = random_drive(rng, context)
            _, w = solve_drive(d, context)
            assert parseval_sum(w) == pytest.approx(1.0, abs=1e-8)
            assert np.max(np.abs(np.abs(w.g_plus) - np.abs(w.g_minus[::-1]))) < 1e-10

    def test_gauge_invariance(self, context):
        rng = np.random.default_rng(43)
        d = random_drive(rng, context)
        sol, w = solve_drive(d, context)
        rotated = FloquetSolution(
            eps_plus=sol.eps_plus,
            eps_minus=sol.eps_minus,
            omega_gap=sol.omega_gap,
            harmonics_plus=sol.harmonics_plus * np.exp(0.7j),
            harmonics_minus=sol.harmonics_minus * np.exp(-1.1j),
            k_max=sol.k_max,
            omega_d=sol.omega_d,
        )
        w_rot = fs.compute_filter_weights(rotated)
        assert np.allclose(np.abs(w.g_z), np.abs(w_rot.g_z), atol=1e-12)
        assert np.allclose(np.abs(w.g_plus), np.abs(w_rot.g_plus), atol=1e-12)
        # the dephasing family is phase-free, not only in magnitude
        assert np.allclose(w.g_z, w_rot.g_z, atol=1e-12)


def alternative_representative(sol):
    """Fold the + branch down one zone and relabel the pair.

    Harmonic arrays are padded by one slot so the re-indexing loses nothing.
    """
    pad = np.zeros((1, 2), dtype=complex)
    plus = np.concatenate([pad, sol.harmonics_plus, pad])
    minus = np.concatenate([pad, sol.harmonics_minus, pad])
    shifted = np.zeros_like(plus)
    shifted[:-1] = plus[1:]   # harmonics re-indexed by -1
    return FloquetSolution(
        eps_plus=sol.eps_minus,
        eps_minus=sol.eps_plus - sol.omega_d,
        omega_gap=sol.omega_d - sol.omega_gap,
        harmonics_plus=minus,
        harmonics_minus=shifted,
        k_max=sol.k_max + 1,
        omega_d=sol.omega_d,
    )


class TestFilterWeightOracle:
    @settings(max_examples=100, deadline=None)
    @given(box_drives())
    def test_equals_trace_form(self, context, drive_k):
        d, k_max = drive_k
        m = fs.assemble_floquet_matrix(
            d, context.coefficients, context.qubit.delta, k_max
        )
        try:
            sol = fs.solve_floquet(m, d.omega_d)
        except DegenerateGapError:
            assume(False)
        for s in (sol, alternative_representative(sol)):
            w = fs.compute_filter_weights(s)
            oracle = filter_weights_by_traces(s)
            assert w.k_max == oracle.k_max
            for name in ("g_z", "g_plus", "g_minus"):
                got, want = getattr(w, name), getattr(oracle, name)
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-15, name


class TestRepresentationInvariance:
    def test_fold_and_swap_leaves_rates_invariant(self, context, noise):
        rng = np.random.default_rng(47)
        for _ in range(5):
            d = random_drive(rng, context)
            sol, w = solve_drive(d, context)
            rates = fs.decoherence_rates(w, sol.omega_gap, sol.omega_d, noise)
            alt = alternative_representative(sol)
            w_alt = fs.compute_filter_weights(alt)
            rates_alt = fs.decoherence_rates(
                w_alt, alt.omega_gap, alt.omega_d, noise
            )
            assert rates_alt.gamma_1 == pytest.approx(rates.gamma_1, rel=1e-9)
            assert rates_alt.gamma_z == pytest.approx(rates.gamma_z, rel=1e-9)
            ref = np.sort(np.abs(w.g_z))[::-1]
            alt = np.sort(np.abs(w_alt.g_z))[::-1]
            assert np.allclose(alt[: ref.size], ref, atol=1e-9)
            assert np.all(alt[ref.size :] < 1e-12)

    def test_relaxation_rate_from_single_branch(self, context, noise):
        # gamma_1 can be written with the + weights alone against the
        # symmetrized spectrum; checks the branch-exchange symmetry
        rng = np.random.default_rng(53)
        d = random_drive(rng, context)
        sol, w = solve_drive(d, context)
        rates = fs.decoherence_rates(w, sol.omega_gap, sol.omega_d, noise)
        args = w.ks * sol.omega_d - sol.omega_gap
        s_sym = fs.spectral_density(noise, args) + fs.spectral_density(noise, -args)
        gamma_1 = float(np.sum(np.abs(w.g_plus) ** 2 * s_sym))
        assert gamma_1 == pytest.approx(rates.gamma_1, rel=1e-9)


class TestTruncationConvergence:
    def test_infidelity_below_floor_at_three_n(self, context):
        # benchmark-amplitude modulation; the strongest box drives need
        # harmonic headroom beyond 3n (see the truncation-study command)
        rng = np.random.default_rng(59)
        coeffs_ctx = context.coefficients
        scale = 0.35
        for n in (1, 2, 3):
            p = [complex(scale * rng.uniform(0, 1), 0.0)]
            p += [
                complex(scale * rng.uniform(-1, 1), scale * rng.uniform(-1, 1))
                for _ in range(n)
            ]
            d = fs.DriveSpec(
                phi_dc=context.phi_dc,
                phi_ac=context.phi_ac,
                omega_d=1.1 * context.omega_ge,
                p=tuple(p),
            )
            ref = fs.reference_floquet_via_propagator(
                d, coeffs_ctx, context.qubit.delta, k_max=3 * n + 2
            )
            infid = []
            for k_max in range(n, 3 * n + 1):
                m = fs.assemble_floquet_matrix(
                    d, coeffs_ctx, context.qubit.delta, k_max
                )
                sol = fs.solve_floquet(m, d.omega_d)
                infid.append(fs.mode_infidelity(ref, sol))
            assert infid[-1] < 1e-10
            assert infid[0] > infid[-1]
