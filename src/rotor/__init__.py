"""rotor: excitation-free fast rotations of a particle in a 2D anisotropic trap.

Design commensurate-frequency rotation protocols by symplectically
decoupling the rotating-frame dynamics into normal modes, then verify the
designs with exact classical propagation, closed-form quantum evolution of
Gaussian and one-quantum states, and truncated Fock-space simulation.
"""

from .classical import (
    Trajectory,
    lab_frame_state,
    propagate_normal,
    propagate_rotating,
    sample_trajectory,
)
from .core import (
    J,
    PhaseSpaceState,
    QuadraticForm,
    TrapConfig,
    build_rotating_hamiltonian,
    hamiltonian_value,
    williamson_valid,
)
from .designer import (
    RotationProtocol,
    commensurate_velocity,
    design_protocol,
    ground_state_sensitivity,
    kappa,
    minimal_time,
)
from .errors import (
    ConvergenceFailure,
    DegenerateOverlap,
    InfeasibleDesign,
    LogBranchFailure,
    RotorError,
    TruncationTooSmall,
    WilliamsonViolation,
)
from .quantum import (
    ClosedFormState,
    FockHamiltonian,
    ObservableSeries,
    QuantumState,
    SensitivityReport,
    TrackGrid,
    build_fock_hamiltonian,
    coherent_nmax,
    coherent_state,
    coherent_track,
    conjugation_check,
    converge_truncation,
    entangled_state,
    evolve,
    fock_state,
    mean_excitation,
    measure_sensitivity,
    revival_phase,
    stability_sweep,
    survival_probability,
    wavepacket_track,
)
from .symplectic import (
    NormalModes,
    SymplecticTransform,
    from_normal_coords,
    normal_frequencies,
    normal_mode_energy,
    normal_modes,
    step_transforms,
    symplectic_generator,
    to_normal_coords,
)

__version__ = "0.5.0"
