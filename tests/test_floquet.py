import tracemalloc

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
    _REFERENCE_BLOCK,
    FilterWeights,
    FloquetSolution,
    _gauge_fix,
    _midpoint_steps,
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

from conftest import (
    REFERENCE_CONTEXT,
    box_drives,
    drive_rows,
    random_drive,
    solve_drive,
    solve_row,
    weights_of,
)
from oracles import (
    filter_weights_time_grid,
    mode_at,
    parseval_sum,
    period_steps_inline,
    prefix_products_broadcast,
)

REFERENCE_DELTA = REFERENCE_CONTEXT.qubit.delta


def drive(omega_d, p):
    return fs.DriveSpec(omega_d=omega_d, p=p)


def coeffs(delta, a=0.0, b=0.0):
    return EffectiveCoefficients(delta=delta, a_coef=a, b_coef=b)


def stack_of(drive, coeffs, k_max):
    """``(stack, omega_d)``: the one-row Floquet stack of ``drive`` on the
    model ``coeffs`` and its drive frequency as the stacked stages take it."""
    omega_d, p = drive_rows(drive)
    return fs.assemble_floquet_matrix(omega_d, p, coeffs, k_max), omega_d


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
            ({"p": (np.nan,)}, "p_0"),
            ({"p": (0.5, complex(np.nan, 0.1))}, "p_1"),
            ({"p": (0.5, 0.2, complex(0.1, np.inf))}, "p_2"),
        ],
    )
    def test_non_finite_fields_rejected(self, kwargs, field):
        args = dict(omega_d=7.0, p=(0.5, 0.2))
        with pytest.raises(InvalidParameterError, match=field):
            fs.DriveSpec(**{**args, **kwargs})


def assemble_by_blocks(drive, coeffs, k_max):
    """Block-by-block Floquet matrix: H0 + k omega_d on the diagonal blocks,
    A p_n sigma_x at block offset n below and its adjoint above."""
    p = np.asarray(drive.p, dtype=complex)
    a, b = coeffs.a_coef, coeffs.b_coef
    h0 = -0.5 * coeffs.delta * PAULI_Z + (0.5 * b + p[0].real * a) * PAULI_X
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
    """Filter weights ``(g_z, g_plus, g_minus)`` as diagonal sums of the
    harmonic overlap matrices; ``g_minus`` is computed from the modes, not
    from ``g_plus``."""
    hp, hm = sol.harmonics_plus, sol.harmonics_minus
    big_k = 2 * sol.k_max
    m_pp = hp.conj() @ PAULI_X @ hp.T
    m_mm = hm.conj() @ PAULI_X @ hm.T
    m_pm = hp.conj() @ PAULI_X @ hm.T
    m_mp = hm.conj() @ PAULI_X @ hp.T
    ks = range(-big_k, big_k + 1)
    return (
        np.array([0.5 * np.trace(m_pp - m_mm, offset=-k) for k in ks]),
        np.array([np.trace(m_pm, offset=-k) for k in ks]),
        np.array([np.trace(m_mp, offset=-k) for k in ks]),
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
        for c in (coeffs(delta, a=a, b=b), coeffs(delta, a=abs(a), b=abs(b))):
            assert np.array_equal(
                stack_of(d, c, k_max)[0][0], assemble_by_blocks(d, c, k_max)
            )

    def test_undriven_blocks(self):
        d = drive(10.0, (0.0,))
        m = stack_of(d, coeffs(3.0, a=0.0, b=4.0), k_max=2)[0][0]
        w = np.linalg.eigvalsh(m)
        expected = sorted(
            s * 2.5 + k * 10.0 for s in (-1, 1) for k in (-2, -1, 0, 1, 2)
        )
        assert np.allclose(sorted(w), expected, atol=1e-12)

    def test_single_tone_band_structure(self):
        d = drive(10.0, (0.0, 0.5))
        a = 2.0
        m = stack_of(d, coeffs(3.0, a=a, b=0.0), k_max=2)[0][0]
        # exactly one off-diagonal band with entries a * p_1 * sigma_x
        block = m[2:4, 0:2]
        assert np.allclose(block, a * 0.5 * np.array([[0, 1], [1, 0]]))
        assert np.allclose(m[4:6, 0:2], 0.0)

    def test_hermitian(self, context):
        rng = np.random.default_rng(5)
        d = random_drive(rng, context)
        m = stack_of(d, context.coefficients, k_max=12)[0][0]
        assert np.max(np.abs(m - m.conj().T)) < 1e-12 * np.max(np.abs(m))

    def test_truncation_guard(self):
        d = drive(10.0, (0.0, 0.5, 0.5))
        with pytest.raises(TruncationError, match="k_max=1 would drop"):
            stack_of(d, coeffs(3.0), k_max=1)


class TestSolve:
    def test_static_closed_form(self):
        d = drive(10.0, (0.0,))
        sol = solve_row(d, coeffs(3.0, a=0.0, b=4.0), k_max=3)
        assert sol.omega_gap == pytest.approx(5.0, abs=1e-12)
        assert sol.eps_plus == pytest.approx(2.5, abs=1e-12)
        # only the central harmonic is populated
        for h in (sol.harmonics_plus, sol.harmonics_minus):
            mags = np.linalg.norm(h, axis=1)
            assert mags[sol.k_max] == pytest.approx(1.0, abs=1e-12)
            assert np.all(np.delete(mags, sol.k_max) < 1e-12)

    def test_commuting_case(self):
        d = drive(10.0, (0.0, 0.5 + 0.3j))
        sol = solve_row(d, coeffs(0.0, a=0.3, b=1.0), k_max=6)
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
            assert -d.omega_d / 2 < sol.eps_minus <= d.omega_d / 2
            assert 0.0 < sol.omega_gap < d.omega_d

    def test_degenerate_gap_is_not_ok(self):
        d = drive(3.0, (0.0,))
        *_, ok = fs.solve_floquet(*stack_of(d, coeffs(3.0, a=0.0, b=0.0), k_max=3))
        assert ok.tolist() == [False]

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
        m = stack_of(d, coeffs(REFERENCE_DELTA, a=a, b=b), k_max)[0][0]
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
            stack, omega_d = stack_of(
                d, context.coefficients, k_max
            )
            m = stack[0].copy()   # the solve shifts the stack's diagonal
            got_minus, got_plus, hp, hm, ok = fs.solve_floquet(stack, omega_d)
            if not ok[0]:
                continue
            eps_minus, eps_plus, h_minus, h_plus = central_pair_oracle(m, d.omega_d)
            assert got_plus[0] == pytest.approx(eps_plus, rel=1e-12)
            assert got_minus[0] == pytest.approx(eps_minus, rel=1e-12)
            for got, want in ((hp[0], h_plus), (hm[0], h_minus)):
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
        c = coeffs(delta, a=0.0, b=b)
        sol = solve_row(d, c, k_max=3)
        m = stack_of(d, c, k_max=3)[0][0]
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
        stack, omega_d = stack_of(d, context.coefficients, 12)
        assert fs.solve_floquet(stack, omega_d)[-1].tolist() == [False]
        genome = fs.Genome(p0=0.3, p_re=(0.2,) * 4, p_im=(0.1,) * 4, omega_d_frac=1.1)
        objs, rows = fs.evaluate_population(genome.to_vector()[None], context)
        assert objs.tolist() == [[np.inf, np.inf]] and not rows["ok"][0]

    def test_unresolved_small_gap_is_degenerate(self):
        # a gap of 1e-10 omega_d passes the degeneracy rule, but two
        # inverse-iteration steps cannot resolve its mode to 1e-10 of it
        d = drive(3.0, (1e-10,))
        stack, omega_d = stack_of(d, coeffs(0.0, a=-1.5, b=0.0), k_max=2)
        w = np.linalg.eigvalsh(stack[0])
        assert 1e-12 * 3.0 < 2 * np.min(np.abs(w)) < 1e-9
        assert fs.solve_floquet(stack, omega_d)[-1].tolist() == [False]

    def test_solve_copies_a_stack_it_cannot_shift_in_place(self, context):
        # the shift is written into a C-contiguous complex stack's diagonal;
        # any other stack is copied first and left as it was, with the same
        # bits out
        d = random_drive(np.random.default_rng(31), context)
        stack, omega_d = stack_of(d, context.coefficients, 8)
        fortran = np.asfortranarray(stack)
        before = stack.copy()
        got = fs.solve_floquet(fortran, omega_d)
        assert np.array_equal(fortran, before)
        want = fs.solve_floquet(stack, omega_d)
        assert not np.array_equal(stack, before)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


class TestPropagatorReference:
    def test_static_limit(self):
        d = drive(10.0, (0.0,))
        ref = fs.reference_floquet_via_propagator(
            d, coeffs(3.0, a=0.0, b=4.0), substeps=4096, k_max=3
        )
        assert ref.omega_gap == pytest.approx(5.0, abs=1e-9)
        assert ref.omega_gap == ref.eps_plus - ref.eps_minus
        assert ref.k_max == 3 and ref.harmonics_minus.shape == (7, 2)

    def test_matches_matrix_solver(self, context):
        rng = np.random.default_rng(23)
        for _ in range(3):
            d = random_drive(rng, context)
            sol, _ = solve_drive(d, context)
            ref = fs.reference_floquet_via_propagator(
                d, context.coefficients, k_max=sol.k_max
            )
            assert abs(ref.eps_plus - sol.eps_plus) < 3e-6
            assert fs.mode_infidelity(ref, sol) < 1e-10

    def test_commuting_phase_integral_oracle(self):
        # with delta = 0 everything commutes: quasienergies are the mean
        # longitudinal field and the mode phase is its running integral
        a, b = 0.4, 1.3
        d = drive(9.0, (0.2, 0.5 - 0.25j))
        ref = fs.reference_floquet_via_propagator(
            d, coeffs(0.0, a=a, b=b), substeps=8192, k_max=8
        )
        expected_gap = fold_to_zone(b + 2 * a * 0.2, 9.0)
        assert ref.omega_gap == pytest.approx(abs(expected_gap), abs=1e-8)
        # analytic mode: e^{-i a q(t)} |+x> with q(t) = int (P - p0)
        ts = np.linspace(0.1, 0.6, 4)
        from scipy.integrate import quad

        for t in ts:
            q, _ = quad(lambda s: d.waveform(s) - 0.2, 0.0, t, limit=200)
            mode = mode_at(ref, d.omega_d, t, "plus")[0]
            analytic = np.exp(-1j * a * q) * np.array([1.0, 1.0]) / np.sqrt(2)
            overlap = abs(np.vdot(analytic, mode))
            assert overlap == pytest.approx(1.0, abs=1e-7)

    def test_halving_check_raises_when_unconverged(self):
        # halving the 1000-step grid moves a quasienergy by 1.0e-6 rad/us,
        # far above the tolerance of 1e-9 omega_d = 1e-8 rad/us
        d = drive(10.0, (0.5, 1.0 + 1.0j))
        with pytest.raises(IntegrationError):
            fs.reference_floquet_via_propagator(
                d, coeffs(3.0, a=1.0, b=1.0), substeps=1000
            )

    def test_tree_product_is_the_monodromy(self):
        d = drive(10.0, (0.5, 1.0 + 1.0j))
        c = coeffs(3.0, a=1.0, b=1.0)
        steps = _su2_matrices(*_period_steps(d, c, 1001, 0, 1001))
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

    @pytest.mark.parametrize("dim", [2, 4])
    @pytest.mark.parametrize("n", [1, 2, 23, 500, 530])
    def test_prefix_products_keep_the_bits_of_the_broadcast_carry(self, n, dim):
        # the 2-qubit GRAPE scan runs on these products: a pulse keeps its
        # bits only if one product per block equals a product per step
        rng = np.random.default_rng(n * dim)
        z = rng.standard_normal((n, dim, dim)) + 1j * rng.standard_normal((n, dim, dim))
        steps, _ = np.linalg.qr(z)
        assert np.array_equal(_prefix_products(steps), prefix_products_broadcast(steps))

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

    @pytest.mark.parametrize(
        "substeps, p",
        [
            (16384, (0.5, 1.0 + 1.0j)),
            # not a multiple of the block, nor of the DFT width
            (3 * _REFERENCE_BLOCK + 1000, (0.5, 1.0 + 1.0j)),
            # one block, one step short; the strong drive above does not
            # pass the halving check on so coarse a grid
            (_REFERENCE_BLOCK - 1, (0.5, 0.3 + 0.3j)),
        ],
        ids=["whole-blocks", "ragged-last-block", "below-one-block"],
    )
    def test_block_harmonics_match_dense_dft_oracle(self, substeps, p):
        # the grid propagator by a step loop and the harmonics by a dense
        # (2 k_max + 1) x substeps DFT matrix
        d, c = drive(10.0, p), coeffs(3.0, a=1.0, b=1.0)
        k_max = 8
        ref = fs.reference_floquet_via_propagator(d, c, substeps, k_max)
        steps = _su2_matrices(*_period_steps(d, c, substeps, 0, substeps))
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

    def test_period_steps_ranges_join_up(self):
        d, c = drive(10.0, (0.5, 1.0 + 1.0j)), coeffs(3.0, a=1.0, b=1.0)
        whole = _period_steps(d, c, 5000, 0, 5000)
        head = _period_steps(d, c, 5000, 0, 1234)
        tail = _period_steps(d, c, 5000, 1234, 5000)
        for k in range(2):
            assert np.array_equal(np.concatenate([head[k], tail[k]]), whole[k])

    @pytest.mark.parametrize("name", ["dss-1", "dss-2", "dss-3"])
    @pytest.mark.parametrize(
        "substeps, lo, hi",
        [(5000, 0, 5000), (5000, 1234, 4321), (49152, 0, _REFERENCE_BLOCK)],
        ids=["whole", "ragged", "single-block"],
    )
    def test_period_steps_keep_the_inline_bits(
        self, benchmark_results, name, substeps, lo, hi
    ):
        # the reference steps by _midpoint_steps at scale 1, which must give
        # the bits of the rule written out in rad/us
        _, ctx, point = benchmark_results[name]
        args = (point.drive, ctx.coefficients, substeps, lo, hi)
        for got, expected in zip(_period_steps(*args), period_steps_inline(*args)):
            assert np.array_equal(got, expected)
        dt = point.drive.period / substeps
        t_mid = (np.arange(lo, hi) + 0.5) * dt
        helper = _midpoint_steps(*args[:2], t_mid, dt)
        for got, expected in zip(helper, period_steps_inline(*args)):
            assert np.array_equal(got, expected)

    def test_memory_is_one_block(self):
        # at 49,152 substeps and k_max = 19 the peak holds one block's arrays
        # (4096 steps, 64 KiB per complex vector): its steps and scan
        # temporaries (about 8 vectors), or its (4096, 2, 2) prefixes and the
        # trajectory of both modes (2 x 256 KiB); beside them the per-call
        # phase table (4096 x 2 complex, 128 KiB) and DFT matrix (39 x 256
        # complex, 156 KiB): about 0.8 MB.  One complex vector spanning the
        # grid (768 KiB) would push it past 1.5 MB.
        d = drive(10.0, (0.5, 0.3 + 0.2j, 0.1 - 0.4j, 0.2, 0.1j, 0.3))
        tracemalloc.start()
        try:
            fs.reference_floquet_via_propagator(
                d, coeffs(3.0, a=1.0, b=1.0), substeps=49152, k_max=19
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6

    def test_substep_floor_guard(self):
        d = drive(10.0, (0.0, 0.5))
        with pytest.raises(InvalidParameterError):
            fs.reference_floquet_via_propagator(
                d, coeffs(3.0, a=1.0, b=1.0), substeps=100
            )


class TestFilterWeights:
    def test_static_values(self):
        d = drive(10.0, (0.0,))
        g_z, g_plus, g_minus = weights_of(solve_row(d, coeffs(3.0, a=0.0, b=4.0), 3))
        center = 2 * 3
        assert abs(g_z[0, center]) == pytest.approx(0.8, abs=1e-12)
        assert abs(g_plus[0, center]) == pytest.approx(0.6, abs=1e-12)
        off_center = np.delete(np.abs(g_z[0]), center)
        assert np.all(off_center < 1e-12)
        assert parseval_sum(g_z, g_plus, g_minus) == pytest.approx([1.0], abs=1e-12)

    def test_commuting_case_weights(self):
        d = drive(10.0, (0.0, 0.5 + 0.3j))
        g_z, g_plus, g_minus = weights_of(solve_row(d, coeffs(0.0, a=0.3, b=1.0), 6))
        center = 2 * 6
        assert abs(g_z[0, center]) == pytest.approx(1.0, abs=1e-10)
        assert np.all(np.delete(np.abs(g_z[0]), center) < 1e-10)
        assert np.all(np.abs(g_plus) < 1e-10)
        assert np.all(np.abs(g_minus) < 1e-10)

    def test_static_sweet_spot_center_weight_vanishes(self):
        d = drive(10.0, (0.0,))
        g_z, _, _ = weights_of(solve_row(d, coeffs(3.0, a=0.0, b=0.0), 3))
        assert abs(g_z[0, 2 * 3]) < 1e-14

    def test_fft_oracle_agreement(self, context):
        rng = np.random.default_rng(37)
        for _ in range(4):
            d = random_drive(rng, context)
            sol, w = solve_drive(d, context)
            g_z, g_plus, g_minus = filter_weights_time_grid(sol, d.omega_d)
            assert np.max(np.abs(w.g_z - g_z)) < 1e-9
            assert np.max(np.abs(w.g_plus - g_plus)) < 1e-9
            assert np.max(np.abs(w.g_minus - g_minus)) < 1e-9

    def test_parseval_and_cross_symmetry(self, context):
        # fifty drives through the stages as one stack
        rng = np.random.default_rng(41)
        drives = [random_drive(rng, context) for _ in range(50)]
        omega_d = np.array([d.omega_d for d in drives])
        p = np.array([d.p for d in drives])
        stack = fs.assemble_floquet_matrix(
            omega_d, p, context.coefficients, 15
        )
        *_, h_plus, h_minus, ok = fs.solve_floquet(stack, omega_d)
        assert ok.all()
        g_z, g_plus, g_minus = fs.compute_filter_weights(h_plus, h_minus)
        parseval = parseval_sum(g_z, g_plus, g_minus)
        assert parseval == pytest.approx(np.ones(50), abs=1e-8)
        assert np.max(np.abs(np.abs(g_plus) - np.abs(g_minus[:, ::-1]))) < 1e-10

    def test_gauge_invariance(self, context):
        rng = np.random.default_rng(43)
        d = random_drive(rng, context)
        sol, w = solve_drive(d, context)
        g_z_rot, g_plus_rot, _ = fs.compute_filter_weights(
            sol.harmonics_plus[None] * np.exp(0.7j),
            sol.harmonics_minus[None] * np.exp(-1.1j),
        )
        assert np.allclose(np.abs(w.g_z), np.abs(g_z_rot[0]), atol=1e-12)
        assert np.allclose(np.abs(w.g_plus), np.abs(g_plus_rot[0]), atol=1e-12)
        # the dephasing family is phase-free, not only in magnitude
        assert np.allclose(w.g_z, g_z_rot[0], atol=1e-12)


def alternative_representative(sol, omega_d):
    """Fold the + branch down one zone (of a drive at ``omega_d``) and
    relabel the pair.

    Harmonic arrays are padded by one slot so the re-indexing loses nothing.
    """
    pad = np.zeros((1, 2), dtype=complex)
    plus = np.concatenate([pad, sol.harmonics_plus, pad])
    minus = np.concatenate([pad, sol.harmonics_minus, pad])
    shifted = np.zeros_like(plus)
    shifted[:-1] = plus[1:]   # harmonics re-indexed by -1
    return FloquetSolution(
        eps_plus=sol.eps_minus,
        eps_minus=sol.eps_plus - omega_d,
        harmonics_plus=minus,
        harmonics_minus=shifted,
    )


class TestFilterWeightOracle:
    @settings(max_examples=100, deadline=None)
    @given(box_drives())
    def test_equals_trace_form(self, context, drive_k):
        d, k_max = drive_k
        try:
            sol = solve_row(d, context.coefficients, k_max)
        except DegenerateGapError:
            assume(False)
        for s in (sol, alternative_representative(sol, d.omega_d)):
            g_z, g_plus, _ = weights_of(s)
            w = FilterWeights(g_z[0], g_plus[0])
            assert w.k_max == 2 * s.k_max
            oracle = filter_weights_by_traces(s)
            for name, want in zip(("g_z", "g_plus", "g_minus"), oracle):
                got = getattr(w, name)
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-15, name


def rates_of(weights, sol, omega_d, noise):
    """``(gamma_1, gamma_z)`` of one row of stacked filter weights at the
    gap of ``sol`` and the drive frequency ``omega_d``: the rate stage on a
    one-row stack."""
    gamma_z, gamma_plus, gamma_minus = fs.decoherence_rates(
        *weights, np.array([sol.omega_gap]), np.array([omega_d]), noise
    )
    return gamma_plus[0] + gamma_minus[0], gamma_z[0]


class TestRepresentationInvariance:
    def test_fold_and_swap_leaves_rates_invariant(self, context, noise):
        rng = np.random.default_rng(47)
        for _ in range(5):
            d = random_drive(rng, context)
            sol = solve_drive(d, context)[0]
            alt = alternative_representative(sol, d.omega_d)
            w, w_alt = weights_of(sol), weights_of(alt)
            gamma_1, gamma_z = rates_of(w, sol, d.omega_d, noise)
            gamma_1_alt, gamma_z_alt = rates_of(w_alt, alt, d.omega_d, noise)
            assert gamma_1_alt == pytest.approx(gamma_1, rel=1e-9)
            assert gamma_z_alt == pytest.approx(gamma_z, rel=1e-9)
            ref = np.sort(np.abs(w[0][0]))[::-1]
            alt = np.sort(np.abs(w_alt[0][0]))[::-1]
            assert np.allclose(alt[: ref.size], ref, atol=1e-9)
            assert np.all(alt[ref.size :] < 1e-12)

    def test_relaxation_rate_from_single_branch(self, context, noise):
        # gamma_1 can be written with the + weights alone against the
        # symmetrized spectrum; checks the branch-exchange symmetry
        rng = np.random.default_rng(53)
        d = random_drive(rng, context)
        sol, w = solve_drive(d, context)
        rates_gamma_1, _ = rates_of(weights_of(sol), sol, d.omega_d, noise)
        args = w.ks * d.omega_d - sol.omega_gap
        s_sym = fs.spectral_density(noise, args) + fs.spectral_density(noise, -args)
        gamma_1 = float(np.sum(np.abs(w.g_plus) ** 2 * s_sym))
        assert gamma_1 == pytest.approx(rates_gamma_1, rel=1e-9)


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
            d = fs.DriveSpec(omega_d=1.1 * context.omega_ge, p=tuple(p))
            ref = fs.reference_floquet_via_propagator(d, coeffs_ctx, k_max=3 * n + 2)
            infid = []
            for k_max in range(n, 3 * n + 1):
                sol = solve_row(d, coeffs_ctx, k_max)
                infid.append(fs.mode_infidelity(ref, sol))
            assert infid[-1] < 1e-10
            assert infid[0] > infid[-1]
