"""Errors of the entropy and HSW kernels against 40-digit mpmath values.

The entropy rows score seeded 4-dimensional states through
``von_neumann_entropy`` and ``quantum_relative_entropy``.  The HSW rows score
eight seeded pure-state ensembles of d^2 members on one channel, through the
validated ``hsw_chi`` and through one evaluation of the search's trusted
objective.  Each row bounds the largest absolute error in bits.  Each bound
is the error measured when the row was added, rounded up by at most 4x, so a
change that moves a result further from the true value than that fails here,
even where no golden pins its bits.  Pure states and identity(2)'s pure
outputs carry eigenvalue dust of about 1e-14 bits (ROADMAP defect 1).
"""

import numpy as np
import pytest
from mpmath import mp

from qinfo.capacity import _theta_to_ensemble, _unit_outputs, hsw_chi
from qinfo.qentropy import _holevo, quantum_relative_entropy, von_neumann_entropy
from qinfo.rng import stream
from qinfo.states import (depolarizing_channel, identity_channel, random_channel,
                          random_density_matrix)

import oracles_mp


def _error(got, exact) -> float:
    return float(abs(mp.mpf(float(got)) - exact))


# Measured max |error| in bits over 16 states when the rows were added,
# von_neumann_entropy then quantum_relative_entropy against a full-rank sigma:
# full-rank 7.79e-16 and 3.06e-14, pure 1.01e-14 and 2.74e-13.  The pure
# states' true entropy is dust below 1e-15, so their entropy bound is the
# positive eigenvalue dust the library keeps (ROADMAP defect 1)
@pytest.mark.parametrize("rank,entropy_bound,relative_bound", [
    (None, 2e-15, 1e-13),
    (1, 4e-14, 1e-12),
], ids=["full-rank-4", "pure-4"])
def test_entropies_within_pinned_error_of_40_digit_values(rank, entropy_bound, relative_bound):
    rng = stream(0, f"mp-oracle-entropy-{rank}")
    entropy_error = relative_error = 0.0
    for _ in range(16):
        rho, sigma = random_density_matrix(4, rng, rank), random_density_matrix(4, rng)
        entropy_error = max(entropy_error, _error(
            von_neumann_entropy(rho), oracles_mp.von_neumann_entropy(rho.mat)))
        relative_error = max(relative_error, _error(
            quantum_relative_entropy(rho, sigma), oracles_mp.relative_entropy(rho.mat, sigma.mat)))
    assert entropy_error <= entropy_bound
    assert relative_error <= relative_bound


# Measured max |error| in bits when the rows were added, hsw_chi then the
# objective: identity-2 6.02e-15 and 2.75e-15, depolarizing-0.5 2.50e-16 and
# 1.91e-16, random-3 4.39e-15 and 3.11e-15
@pytest.mark.parametrize("name,make,chi_bound,objective_bound", [
    ("identity-2", lambda: identity_channel(2), 2e-14, 1e-14),
    ("depolarizing-0.5", lambda: depolarizing_channel(0.5), 1e-15, 6e-16),
    ("random-3", lambda: random_channel(3, 2, stream(7, "mp-oracle-channel")), 1.6e-14, 1.2e-14),
])
def test_hsw_kernels_within_pinned_error_of_40_digit_chi(name, make, chi_bound, objective_bound):
    op = make()
    d = op.dim_in
    m = d * d
    chi_error = objective_error = 0.0
    for i in range(8):
        rng = stream(i, f"mp-oracle-{name}")
        weights = rng.dirichlet(np.ones(m))
        vecs = rng.normal(size=(m, d)) + 1j * rng.normal(size=(m, d))
        chi = hsw_chi(op, list(zip(weights.tolist(), vecs)))
        chi_error = max(chi_error, _error(chi, oracles_mp.holevo_chi(op.kraus, weights, vecs)))
        w, units = _theta_to_ensemble(rng.normal(size=m + m * 2 * d), d)
        value = -_holevo(w, _unit_outputs(op, units))   # the search minimises this
        objective_error = max(objective_error,
                              _error(-value, oracles_mp.holevo_chi(op.kraus, w, units)))
    assert chi_error <= chi_bound
    assert objective_error <= objective_bound


def test_oracle_matches_closed_forms():
    # log2 d on the identity's basis ensemble to 35 digits, and 1 - h(f/2)
    # for qubit depolarizing f on |0>, |1>, each with equal weights, to the
    # rounding of the float Kraus operators sqrt(1 - 3f/4) and sqrt(f/4)
    basis = np.eye(4, dtype=complex)
    chi = oracles_mp.holevo_chi(identity_channel(4).kraus, [0.25] * 4, basis)
    with mp.workdps(oracles_mp.DIGITS):
        assert abs(chi - 2) < mp.mpf(10) ** -35
        q = mp.mpf(0.5) / 2
        want = 1 + q * mp.log(q, 2) + (1 - q) * mp.log(1 - q, 2)
        chi = oracles_mp.holevo_chi(depolarizing_channel(0.5).kraus, [0.5, 0.5], basis[:2, :2])
        assert abs(chi - want) < mp.mpf(10) ** -15
        # 2 bits for I/4, and S(rho || I/4) = 2 - S(rho) = 1 for rho = diag(1/2, 1/2, 0, 0)
        assert abs(oracles_mp.von_neumann_entropy(basis / 4) - 2) < mp.mpf(10) ** -35
        half = np.diag([0.5, 0.5, 0, 0]).astype(complex)
        assert abs(oracles_mp.relative_entropy(half, basis / 4) - 1) < mp.mpf(10) ** -35
