"""stosszahl: a numerical laboratory for collapse-driven entropy increase.

Contrasts entropy-conserving unitary dynamics with the non-unitary
measurement transition and Born-rule collapse, solves classical master
equations, and runs an event-driven emitter/absorber gas whose transaction
ledger reproduces master-equation relaxation and a strict micro-level arrow
of time.
"""

from .evolution import Propagator, evolve_observable, evolve_unitary, propagator
from .fock import fock_annihilate, fock_create
from .gas import (
    GasConfig,
    Ledger,
    audit_ledger,
    empirical_rates,
    macrostate_entropy,
    run,
)
from .master import (
    build_master_operator,
    equilibrium,
    entropy_series,
    evolve_probabilities,
    relative_entropy,
    two_state_closed_form,
    validate_master,
)
from .measurement import (
    CollapseOutcome,
    born_weights,
    collapse_sample,
    measure,
    process1,
)
from .states import (
    density_from_pure,
    mix_states,
    purity,
    shannon_entropy,
    vn_entropy,
)

__version__ = "0.1.0"

__all__ = [
    "CollapseOutcome",
    "GasConfig",
    "Ledger",
    "Propagator",
    "audit_ledger",
    "born_weights",
    "build_master_operator",
    "collapse_sample",
    "density_from_pure",
    "empirical_rates",
    "entropy_series",
    "equilibrium",
    "evolve_observable",
    "evolve_probabilities",
    "evolve_unitary",
    "fock_annihilate",
    "fock_create",
    "macrostate_entropy",
    "measure",
    "mix_states",
    "process1",
    "propagator",
    "purity",
    "relative_entropy",
    "run",
    "shannon_entropy",
    "two_state_closed_form",
    "validate_master",
    "vn_entropy",
]
