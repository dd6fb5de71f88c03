import numpy as np
import pytest
from hypothesis import strategies as st

import fluxspot as fs

REFERENCE_CONTEXT = fs.reference_context()


@pytest.fixture(scope="session")
def qubit():
    return fs.reference_qubit()


@pytest.fixture(scope="session")
def context():
    return REFERENCE_CONTEXT


@pytest.fixture(scope="session")
def noise(qubit):
    return fs.reference_noise(qubit)


@pytest.fixture(scope="session")
def benchmark_results():
    """Evaluated benchmark points: name -> (point, rates)."""
    out = {}
    for bench in fs.BENCHMARK_POINTS:
        ctx = fs.benchmark_context(bench)
        _, point = fs.evaluate_genome(bench.genome, ctx)
        out[bench.name] = (bench, ctx, point)
    return out


def random_drive(rng, context, n=4, phi_ac=None, omega_frac=None):
    """A box-respecting random drive at the reference working point."""
    p = [complex(rng.uniform(0.0, 1.0), 0.0)]
    p += [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
    frac = omega_frac if omega_frac is not None else rng.uniform(0.5, 1.5)
    return fs.DriveSpec(
        phi_dc=context.phi_dc,
        phi_ac=phi_ac if phi_ac is not None else context.phi_ac,
        omega_d=frac * context.omega_ge,
        p=tuple(p),
    )


def solve_drive(drive, context, phi_ac=None):
    """(solution, weights) of a drive under context coefficients."""
    coeffs = fs.effective_coefficients(
        context.qubit,
        context.e_l,
        drive.phi_dc,
        phi_ac if phi_ac is not None else drive.phi_ac,
    )
    k_max = 3 * max(drive.n, 1) + 3
    m = fs.assemble_floquet_matrix(drive, coeffs, context.qubit.delta, k_max)
    sol = fs.solve_floquet(m, drive.omega_d)
    return sol, fs.compute_filter_weights(sol)


@st.composite
def box_drives(draw):
    """(drive, k_max): a drive of order n in 0..5 anywhere in the search box,
    ``p_0`` with a round-off imaginary part of up to 1e-9, and a harmonic
    truncation k_max in [n, n + 8]."""
    n = draw(st.integers(0, 5))
    unit = st.floats(-1.0, 1.0)
    p = [complex(draw(st.floats(0.0, 1.0)), draw(st.floats(-1e-9, 1e-9)))]
    p += [complex(draw(unit), draw(unit)) for _ in range(n)]
    ctx = REFERENCE_CONTEXT
    drive = fs.DriveSpec(
        phi_dc=ctx.phi_dc,
        phi_ac=ctx.phi_ac,
        omega_d=draw(st.floats(0.5, 1.5)) * ctx.omega_ge,
        p=tuple(p),
    )
    return drive, draw(st.integers(n, n + 8))
