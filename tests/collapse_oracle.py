"""Per-member reference of the unitary-vs-collapse scenario, for tests only.

``unitary_vs_collapse`` runs both branches one state at a time, with the 2-D
kernels: branch A steps and takes ``spectral_entropy`` after every step, and
branch B runs each collapse member to its horizon before the next one starts,
with one ``Propagator.evolve``, ``decohere`` and ``spectral_entropy`` call
per collapse. It defines what the scenario's lockstep ensemble must produce
bit for bit. ``where_pinching`` is ``decohere`` as it was written before it
clamped in place, through ``np.where``; ``decohere`` must stay bit-equal to
it. ``spectral_entropy`` is the entropy of ``vn_entropy`` without its
validation, so the reference runs on whatever state a member reaches. Nothing
in ``src/`` calls any of them.
"""

import math

import numpy as np

from stosszahl.csvio import fmt
from stosszahl.evolution import Propagator
from stosszahl.measurement import as_measurement_basis, decohere
from stosszahl.states import as_density_matrix, density_from_pure, neg_sum_x_ln_x, vn_entropy


def unitary_vs_collapse(params: dict, seed: int):
    """(CSV data rows, unitary drift, final mean collapse entropy, collapse count)."""
    gap, rate, t_max = params["gap"], params["collapse_rate"], params["t_max"]
    unitary = Propagator(np.array([[gap / 2.0, 0.0], [0.0, -gap / 2.0]], dtype=complex))
    rho0 = density_from_pure(np.array([1.0, 1.0]) / math.sqrt(2.0))
    basis = as_measurement_basis(
        np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
    )

    entropy_0 = vn_entropy(rho0)
    rho = rho0
    drift = 0.0
    dt = t_max / params["n_unitary_steps"]
    for _ in range(params["n_unitary_steps"]):
        rho = unitary.evolve(rho, dt)
        drift = max(drift, abs(spectral_entropy(rho) - entropy_0))
    as_density_matrix(rho, name="unitary branch final state")

    grid = np.linspace(0.0, t_max, params["n_samples"])
    mean_entropy = np.zeros(grid.size)
    collapses = 0
    for member, child in enumerate(np.random.SeedSequence(seed).spawn(params["n_seeds"])):
        rng = np.random.default_rng(child)
        times = [0.0]
        entropies = [entropy_0]
        rho = rho0
        t = 0.0
        while True:
            t += -math.log1p(-rng.random()) / rate
            if t > t_max:
                break
            rho = decohere(unitary.evolve(rho, t - times[-1]), basis)
            times.append(t)
            entropies.append(spectral_entropy(rho))
        collapses += len(times) - 1
        as_density_matrix(rho, name=f"collapse member {member} final state")
        idx = np.searchsorted(times, grid, side="right") - 1
        mean_entropy += np.asarray(entropies)[idx]
    mean_entropy /= params["n_seeds"]

    unitary_entropy = [spectral_entropy(unitary.evolve(rho0, float(t))) for t in grid]
    rows = [[fmt(t), fmt(su), fmt(sc)] for t, su, sc in zip(grid, unitary_entropy, mean_entropy)]
    return rows, drift, float(mean_entropy[-1]), collapses


def where_pinching(rho, basis):
    """The pinching of ``decohere``, its negative roundoff clamped by ``np.where``."""
    diagonal = np.einsum("ij,jk,ki->i", basis.conj().T, rho, basis).real
    diagonal = np.where(diagonal < 0.0, 0.0, diagonal)
    return (basis * diagonal) @ basis.conj().T


def spectral_entropy(rho):
    """The entropy of ``vn_entropy`` from numpy's ``eigh`` of ``rho``, which is not checked."""
    return neg_sum_x_ln_x(np.linalg.eigh(rho)[0])
