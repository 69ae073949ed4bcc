"""Numerical checks of the classical-to-quantum pipeline for the oscillator.

The package walks the whole chain at desk scale: classical Liouville
transport, the offset transform to two-point density fields, amplitude-action
splitting, the complex normal-mode map, the truncated ladder-operator picture,
and the two-mode spin construction, with residuals and spectra for every step.
"""

from .canonical import (
    NormalModePoint,
    phase_angle,
    to_normal_modes,
    transformed_hamiltonian,
)
from .fock import (
    BargmannPoly,
    bargmann_apply,
    bargmann_eval,
    bargmann_evolve,
    ho_spectrum,
    ladder_matrices,
    number_state,
    phase_circle_action,
)
from .madelung import (
    MadelungPair,
    compose,
    continuity_residual,
    decompose,
    qhj_residual,
    quantum_potential,
    transformed_pair_residuals,
)
from .phasespace import (
    NATURAL,
    PhaseDensity,
    PhaseGrid,
    PhasePoint,
    PhysParams,
    hamilton_flow,
    hamiltonian,
    liouville_propagate,
    poisson_bracket,
)
from .schrodinger import (
    PositionGrid,
    WaveFunction,
    coherent_state,
    equivalence_report,
    hermite_eigenstate,
    split_step_evolve,
)
from .spin import (
    Phase4Point,
    SpinValues,
    lambda_relation,
    spin_eigenvector,
    spin_functions,
    spin_spectrum,
    two_mode_operators,
    two_mode_transform,
)
from .wigner import (
    DensitySlice,
    EndpointMatrix,
    endpoint_matrix,
    factorize_pure,
    wavefunction_to_density,
    wavefunction_to_slice,
    wigner_forward,
    wigner_inverse,
)

__version__ = "0.1.0"
