"""Reference device, bath and benchmark operating points.

The regression suite and the CLI score every drive on one fluxonium device
(E_C/2pi = 1 GHz, E_L/2pi = 0.79 GHz, E_J/2pi = 4.43 GHz), a 1/f +
dielectric bath at 15 mK and a flux working point 3 percent past the
half-quantum sweet spot.  This reference run is the CLI's default config:
its values live in ``REFERENCE``, the config's ``circuit``, ``flux`` and
``noise`` tables (a few read from ``NoiseModel``'s and ``CircuitParams``'s
defaults).  ``build_context`` is the one builder of an evaluation context,
for ``REFERENCE`` as for any config: ``build_context(REFERENCE)`` is the
reference context, ``build_context(REFERENCE, point.phi_ac)`` that of a
benchmark point, ``dataclasses.replace`` moves its working point, and
``replace(build_circuit(REFERENCE), fock_dim=...)`` is the reference device
at another truncation.  Three benchmark modulation waveforms are stored
with their validated coherence times.

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

from .circuit import DEFAULT_FOCK_DIM, CircuitParams, EffectiveQubit, diagonalize_circuit
from .evaluation import _INFEASIBLE, EvaluationContext, Genome, evaluate_population
from .exceptions import DegenerateGapError, InvalidParameterError
from .noise import NoiseModel
from .units import TWO_PI, ghz

__all__ = [
    "REFERENCE",
    "BenchmarkPoint",
    "BENCHMARK_POINTS",
    "build_circuit",
    "build_context",
    "calibrate_amplitude",
]

#: The reference run's ``circuit``, ``flux`` and ``noise`` config tables.
REFERENCE = {
    "circuit": {"e_c_ghz": 1.0, "e_l_ghz": 0.79, "e_j_ghz": 4.43,
                "fock_dim": DEFAULT_FOCK_DIM},
    # the biased DC working point (the sweet spot is at 1) and the default
    # modulation amplitude scale
    "flux": {"phi_dc_over_pi": 1.03, "phi_ac": 0.05},
    "noise": {
        "delta_f": 1.8e-6,        # 1/f flux-noise amplitude, in flux quanta
        "tan_delta_c": 1.1e-6,    # dielectric loss tangent
        "temperature_k": NoiseModel.temperature,
        "omega_ir_hz": 1.0,
        "omega_uv_ghz": 3.0,
        "dephasing_log_factor": NoiseModel.dephasing_log_factor,
        "dephasing_scale": NoiseModel.dephasing_scale,
    },
}


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
    ),
)


def build_circuit(cfg: dict) -> CircuitParams:
    """The device of a config's ``circuit`` table."""
    c = cfg["circuit"]
    e_c, e_l, e_j = (ghz(c[f"{name}_ghz"]) for name in ("e_c", "e_l", "e_j"))
    return CircuitParams(e_c=e_c, e_l=e_l, e_j=e_j, fock_dim=c["fock_dim"])


@lru_cache(maxsize=8)
def _sweet_spot_qubit(circuit: CircuitParams) -> EffectiveQubit:
    """Two-level reduction of ``circuit`` at its sweet spot, once per device."""
    return diagonalize_circuit(circuit, np.pi)


def _bath(cfg: dict, circuit: CircuitParams, qubit: EffectiveQubit) -> NoiseModel:
    """The bath of a config's ``noise`` table, seen by ``qubit``."""
    n = cfg["noise"]
    return NoiseModel.from_loss_params(
        delta_f=n["delta_f"],
        tan_delta_c=n["tan_delta_c"],
        e_l=circuit.e_l,
        e_c=circuit.e_c,
        phi_ge=qubit.phi_ge,
        temperature=n["temperature_k"],
        omega_ir=TWO_PI * n["omega_ir_hz"] * 1e-6,
        omega_uv=ghz(n["omega_uv_ghz"]),
        dephasing_log_factor=n["dephasing_log_factor"],
        dephasing_scale=n["dephasing_scale"],
    )


def build_context(cfg: dict, phi_ac: float | None = None) -> EvaluationContext:
    """Evaluation context of a config's ``circuit``, ``flux`` and ``noise``
    tables (not ``optimizer.n``: each genome's order sets its truncation);
    ``phi_ac`` (default the config's) replaces the modulation amplitude."""
    circuit = build_circuit(cfg)
    qubit = _sweet_spot_qubit(circuit)
    flux = cfg["flux"]
    return EvaluationContext(
        qubit=qubit,
        e_l=circuit.e_l,
        phi_dc=flux["phi_dc_over_pi"] * np.pi,
        phi_ac=phi_ac if phi_ac is not None else flux["phi_ac"],
        noise=_bath(cfg, circuit, qubit),
    )


def calibrate_amplitude(
    genome: Genome,
    context: EvaluationContext,
    bracket: tuple = (0.02, 0.08),
    xtol: float = 1e-12,
) -> float:
    """Amplitude scale phi_ac at which the genome sits exactly on its sweet spot.

    Solves ``Re g_z[0] = 0`` (the central dephasing weight is real) along the
    amplitude axis by bisection inside ``bracket``, a finite ``(lo, hi)``
    with ``lo < hi``, down to a bracket no wider than ``xtol``; the result
    is its midpoint.  Each step evaluates the genome as a one-row
    :func:`evaluate_population`; an amplitude at which it is infeasible
    raises :class:`DegenerateGapError`.
    """
    if not xtol > 0.0:
        raise InvalidParameterError(f"xtol must be positive, got {xtol}")
    lo, hi = bracket
    if not -np.inf < lo < hi < np.inf:
        raise InvalidParameterError(
            f"amplitude bracket {bracket} must be finite with lo < hi"
        )
    vector = genome.to_vector()[None]

    def central_weight(phi_ac: float) -> float:
        _, rows = evaluate_population(vector, replace(context, phi_ac=phi_ac))
        if not rows["ok"][0]:
            raise DegenerateGapError(f"at phi_ac={phi_ac}, the genome is {_INFEASIBLE}")
        g_z = rows["g_z"][0]
        return g_z[g_z.size // 2].real

    f_lo = central_weight(lo)
    if f_lo * central_weight(hi) > 0.0:
        raise InvalidParameterError(
            f"no sweet-spot crossing inside amplitude bracket {bracket}"
        )
    # a count of halvings, not a width test: a width below the spacing of
    # floats near the root would never be reached
    for _ in range(int(np.ceil(np.log2((hi - lo) / xtol)))):
        mid = 0.5 * (lo + hi)
        f_mid = central_weight(mid)
        if f_mid * f_lo > 0.0:
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
