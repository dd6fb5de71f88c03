import numpy as np
import pytest
from hypothesis import strategies as st

import fluxspot as fs
from fluxspot.exceptions import DegenerateGapError

REFERENCE_CONTEXT = fs.build_context(fs.REFERENCE)


@pytest.fixture(scope="session")
def qubit():
    return REFERENCE_CONTEXT.qubit


@pytest.fixture(scope="session")
def context():
    return REFERENCE_CONTEXT


@pytest.fixture(scope="session")
def noise():
    return REFERENCE_CONTEXT.noise


@pytest.fixture(scope="session")
def benchmark_results():
    """Evaluated benchmark points: name -> (point, rates)."""
    out = {}
    for bench in fs.BENCHMARK_POINTS:
        ctx = fs.build_context(fs.REFERENCE, bench.phi_ac)
        _, point = fs.evaluate_genome(bench.genome, ctx)
        out[bench.name] = (bench, ctx, point)
    return out


def random_drive(rng, context, n=4, omega_frac=None):
    """A box-respecting random drive on the frequency scale of ``context``."""
    p = [complex(rng.uniform(0.0, 1.0), 0.0)]
    p += [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
    frac = omega_frac if omega_frac is not None else rng.uniform(0.5, 1.5)
    return fs.DriveSpec(omega_d=frac * context.omega_ge, p=tuple(p))


def drive_rows(drive):
    """One drive as the stage functions take it: ``omega_d`` ``(1,)`` and
    ``p`` ``(1, n + 1)``."""
    return np.array([drive.omega_d]), np.array([drive.p])


def weight_rows(w):
    """One row of :class:`FilterWeights` as the rate stage takes them."""
    return w.g_z[None], w.g_plus[None], w.g_minus[None]


def solve_row(drive, coeffs, k_max):
    """The Floquet solution of one drive of the model ``coeffs``, solved as a
    one-row stack; a row whose branch labels are undefined raises
    :class:`DegenerateGapError`."""
    omega_d, p = drive_rows(drive)
    stack = fs.assemble_floquet_matrix(omega_d, p, coeffs, k_max)
    eps_minus, eps_plus, h_plus, h_minus, ok = fs.solve_floquet(stack, omega_d)
    if not ok[0]:
        raise DegenerateGapError("branch labels undefined")
    return fs.FloquetSolution(float(eps_plus[0]), float(eps_minus[0]), h_plus[0], h_minus[0])


def weights_of(sol):
    """``(g_z, g_plus, g_minus)`` of a solution's modes, each ``(1, 4 k_max
    + 1)``: the filter-weight stage on a one-row stack."""
    return fs.compute_filter_weights(
        sol.harmonics_plus[None], sol.harmonics_minus[None]
    )


def solve_drive(drive, context):
    """(solution, weights) of one drive of the model at the working point of
    ``context`` (its coefficients), through the stacked stages."""
    k_max = 3 * max(drive.n, 1) + 3
    sol = solve_row(drive, context.coefficients, k_max)
    g_z, g_plus, _ = weights_of(sol)
    return sol, fs.FilterWeights(g_z[0], g_plus[0])


@st.composite
def box_drives(draw):
    """(drive, k_max): a drive of order n in 0..5 anywhere in the search box
    on the frequency scale of the reference context, ``p_0`` with a
    round-off imaginary part of up to 1e-9, and a harmonic truncation k_max
    in [n, n + 8]."""
    n = draw(st.integers(0, 5))
    unit = st.floats(-1.0, 1.0)
    p = [complex(draw(st.floats(0.0, 1.0)), draw(st.floats(-1e-9, 1e-9)))]
    p += [complex(draw(unit), draw(unit)) for _ in range(n)]
    omega_d = draw(st.floats(0.5, 1.5)) * REFERENCE_CONTEXT.omega_ge
    drive = fs.DriveSpec(omega_d=omega_d, p=tuple(p))
    return drive, draw(st.integers(n, n + 8))
