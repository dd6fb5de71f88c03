"""Reference device, bath and benchmark operating points.

The regression suite pins a single fluxonium device (E_C/2pi = 1 GHz,
E_L/2pi = 0.79 GHz, E_J/2pi = 4.43 GHz), a 1/f + dielectric bath and a flux
working point 3 percent past the half-quantum sweet spot.  Three benchmark
modulation waveforms are stored together with their validated coherence
times.

The published waveform coefficients are rounded to two decimals, which moves
the operating point slightly off its sweet spot.  ``calibrate_amplitude``
recovers the intended point by solving ``g_z[0] = 0`` along the modulation
amplitude; the pre-solved amplitudes stored below are verified against that
root-finder in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .circuit import CircuitParams, EffectiveQubit, diagonalize_circuit
from .evaluation import EvaluationContext, Genome, evaluate_drive, genome_to_drive
from .exceptions import InvalidParameterError
from .noise import NoiseModel
from .units import ghz

__all__ = [
    "BenchmarkPoint",
    "BENCHMARK_POINTS",
    "reference_circuit",
    "reference_qubit",
    "reference_noise",
    "reference_context",
    "calibrate_amplitude",
    "benchmark_context",
    "PHI_DC_BIASED",
    "STATIC_SWEET_SPOT_T1_US",
    "OFF_SWEET_SPOT_TIMES_US",
]

#: biased DC working point (radians); the sweet spot itself sits at pi
PHI_DC_BIASED = 1.03 * np.pi

#: default modulation amplitude scale for optimizer runs
DEFAULT_PHI_AC = 0.05

#: validated static coherence benchmarks (us)
STATIC_SWEET_SPOT_T1_US = 430.0
OFF_SWEET_SPOT_TIMES_US = (940.0, 1.0)

#: 1/f flux-noise amplitude (units of the flux quantum) and loss tangent
DELTA_F = 1.8e-6
TAN_DELTA_C = 1.1e-6
TEMPERATURE_K = 0.015


@dataclass(frozen=True)
class BenchmarkPoint:
    """One validated modulated operating point.

    ``phi_ac`` is the calibrated amplitude scale (see module docstring);
    ``times_us`` are the validated (T1, Tphi) coherence times.
    """

    name: str
    genome: Genome
    phi_ac: float
    times_us: tuple
    strategy: str


BENCHMARK_POINTS = (
    BenchmarkPoint(
        name="dss-1",
        genome=Genome(
            p0=0.23,
            p_re=(-0.55, 0.96, -0.58, 0.14),
            p_im=(0.21, -0.95, 0.31, -0.85),
            omega_d_frac=1.01,
        ),
        phi_ac=0.05481469714355,
        times_us=(877.0, 2036.0),
        strategy="ibea",
    ),
    BenchmarkPoint(
        name="dss-2",
        genome=Genome(
            p0=0.69,
            p_re=(0.73, 0.97, 0.28, -0.16),
            p_im=(-0.99, -0.88, 0.84, 0.58),
            omega_d_frac=1.13,
        ),
        phi_ac=0.04328921388672,
        times_us=(711.0, 3035.0),
        strategy="spea2",
    ),
    BenchmarkPoint(
        name="dss-3",
        genome=Genome(
            p0=0.37,
            p_re=(-0.99, 0.01, -0.99, 0.99),
            p_im=(-1.0, -0.87, 0.99, 1.0),
            omega_d_frac=0.99,
        ),
        phi_ac=0.04499702210739,
        times_us=(553.0, 7398.0),
        strategy="moead",
    ),
)


def reference_circuit(fock_dim: int = 110) -> CircuitParams:
    """The reference fluxonium device."""
    return CircuitParams(e_c=ghz(1.0), e_l=ghz(0.79), e_j=ghz(4.43), fock_dim=fock_dim)


@lru_cache(maxsize=8)
def _cached_qubit(fock_dim: int) -> EffectiveQubit:
    return diagonalize_circuit(reference_circuit(fock_dim), np.pi)


def reference_qubit(fock_dim: int = 110) -> EffectiveQubit:
    """Two-level reduction of the reference device at its sweet spot."""
    return _cached_qubit(fock_dim)


def reference_noise(qubit: EffectiveQubit | None = None, **kwargs) -> NoiseModel:
    """Reference bath: 1/f flux noise plus dielectric loss at 15 mK."""
    if qubit is None:
        qubit = reference_qubit()
    circuit = reference_circuit()
    return NoiseModel.from_loss_params(
        delta_f=DELTA_F,
        tan_delta_c=TAN_DELTA_C,
        e_l=circuit.e_l,
        e_c=circuit.e_c,
        phi_ge=qubit.phi_ge,
        temperature=TEMPERATURE_K,
        **kwargs,
    )


def reference_context(
    phi_dc: float = PHI_DC_BIASED,
    phi_ac: float = DEFAULT_PHI_AC,
    n: int = 4,
    fock_dim: int = 110,
) -> EvaluationContext:
    """Evaluation context of the reference device at the biased working point."""
    qubit = reference_qubit(fock_dim)
    return EvaluationContext(
        qubit=qubit,
        e_l=reference_circuit().e_l,
        phi_dc=phi_dc,
        phi_ac=phi_ac,
        noise=reference_noise(qubit),
        n=n,
    )


def calibrate_amplitude(
    genome: Genome,
    context: EvaluationContext,
    bracket: tuple = (0.02, 0.08),
    xtol: float = 1e-12,
) -> float:
    """Amplitude scale phi_ac at which the genome sits exactly on its sweet spot.

    Solves ``Re g_z[0] = 0`` (the central dephasing weight is real) along the
    amplitude axis by bisection inside ``bracket``.
    """
    # imported here, its only caller, so that importing fluxspot loads no scipy
    from scipy.optimize import brentq

    def central_weight(phi_ac: float) -> float:
        ctx = replace(context, phi_ac=phi_ac)
        point = evaluate_drive(genome_to_drive(genome, ctx), ctx)
        return point.weights.g_z0.real

    lo, hi = bracket
    f_lo, f_hi = central_weight(lo), central_weight(hi)
    if f_lo * f_hi > 0.0:
        raise InvalidParameterError(
            f"no sweet-spot crossing inside amplitude bracket {bracket}"
        )
    return float(brentq(central_weight, lo, hi, xtol=xtol))


def benchmark_context(point: BenchmarkPoint, n: int = 4) -> EvaluationContext:
    """Context evaluating a benchmark point at its calibrated amplitude."""
    return reference_context(phi_ac=point.phi_ac, n=n)
