import stosszahl

# The package's public names. A name added to or dropped from
# ``stosszahl.__all__`` must show up as an edit of this set.
PUBLIC_NAMES = {
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
}


def test_public_surface_is_pinned():
    assert set(stosszahl.__all__) == PUBLIC_NAMES
    assert len(stosszahl.__all__) == len(PUBLIC_NAMES)
    assert all(hasattr(stosszahl, name) for name in PUBLIC_NAMES)
