"""Memory-assisted entropic uncertainty bounds, quantum correlations, and
two-qubit decoherence dynamics."""

from .bounds import (
    BoundReport,
    Observable,
    complementarity,
    evaluate_bounds,
    uncertainty_sum,
)
from .channels import (
    KrausChannel,
    apply_kraus,
    jc_state,
    jc_survival,
    local_channel,
    dephased_bell_diagonal,
    random_field_state,
)
from .correlations import (
    OptimizerConfig,
    bell_diagonal_classical_closed,
    classical_correlation,
    concurrence,
    discord,
    holevo_quantity,
)
from .entropy import (
    ProjectiveMeasurement,
    conditional_entropy,
    measured_conditional_entropy,
    mutual_information,
    von_neumann,
)
from .linalg import (
    DensityMatrix,
    kron,
    validate_density,
)
from .states import (
    bell_diagonal,
    bell_like,
    bell_mixture,
    isotropic,
    qubit_qudit,
    singlet,
    werner,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "DensityMatrix",
    "KrausChannel",
    "Observable",
    "OptimizerConfig",
    "ProjectiveMeasurement",
    "apply_kraus",
    "bell_diagonal",
    "bell_diagonal_classical_closed",
    "bell_like",
    "bell_mixture",
    "classical_correlation",
    "complementarity",
    "concurrence",
    "conditional_entropy",
    "discord",
    "evaluate_bounds",
    "holevo_quantity",
    "isotropic",
    "jc_state",
    "jc_survival",
    "kron",
    "local_channel",
    "dephased_bell_diagonal",
    "measured_conditional_entropy",
    "mutual_information",
    "qubit_qudit",
    "random_field_state",
    "singlet",
    "uncertainty_sum",
    "validate_density",
    "von_neumann",
    "werner",
]
