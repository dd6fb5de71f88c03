"""fluxspot: dynamical sweet spots of flux-modulated fluxonium qubits.

The library covers the full chain from circuit diagonalization through
Floquet decoherence rates, bi-objective Pareto search over modulation
waveforms, sweet-spot classification and relaxation bounds, to gate design
and open-system fidelity at the chosen operating point.
"""

__version__ = "0.1.0"

from .circuit import (
    CircuitParams,
    EffectiveCoefficients,
    EffectiveQubit,
    build_circuit_hamiltonian,
    diagonalize_circuit,
    effective_coefficients,
)
from .evaluation import (
    EvaluationContext,
    Genome,
    PointResult,
    evaluate_genome,
    evaluate_population,
)
from .floquet import (
    DriveSpec,
    FilterWeights,
    FloquetSolution,
    assemble_floquet_matrix,
    compute_filter_weights,
    mode_infidelity,
    reference_floquet_via_propagator,
    solve_floquet,
)
from .noise import NoiseModel, RateReport, decoherence_rates, spectral_density
from .pareto import (
    Individual,
    OptimizerConfig,
    aggregate_fronts,
    dominates,
    environmental_select,
    non_dominated_sort,
    run_stage1,
)
from .dss import (
    BoundReport,
    SensitivityReport,
    amplitude_sensitivity,
    classify_front,
    classify_point,
    distance_to_nearest_integer,
    evaluate_bounds,
    t1_upper_bound_dss,
    t1_upper_bound_general,
)
from .gates import (
    ControlContext,
    GateTarget,
    GrapeSettings,
    PulseResult,
    PulseSpec,
    gate_fidelity,
    gate_target,
    optimize_pulse,
    propagate_closed,
    rotating_frame_trajectory,
)
from .lindblad import average_gate_fidelity, process_matrix
from .reference import (
    BENCHMARK_POINTS,
    REFERENCE,
    BenchmarkPoint,
    build_context,
    calibrate_amplitude,
)
