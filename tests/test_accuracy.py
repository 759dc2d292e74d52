"""Errors of the HSW kernels against the 40-digit mpmath Holevo chi.

Each row scores eight seeded pure-state ensembles of d^2 members on one
channel, through the validated ``hsw_chi`` and through one evaluation of the
search's trusted objective, and bounds the largest absolute error in bits.
Each bound is the error measured when the row was added, rounded up by at
most 4x, so a change that moves a result further from the true value than
that fails here, even where no golden pins its bits.  identity(2) has pure outputs, whose
eigenvalue dust costs about 1e-14 bits (ROADMAP defect 1).
"""

import numpy as np
import pytest
from mpmath import mp

from qinfo.capacity import _theta_to_ensemble, _unit_outputs, hsw_chi
from qinfo.qentropy import _holevo
from qinfo.rng import stream
from qinfo.states import depolarizing_channel, identity_channel, random_channel

import oracles_mp


def _error(got, op, weights, vecs) -> float:
    return float(abs(mp.mpf(float(got)) - oracles_mp.holevo_chi(op.kraus, weights, vecs)))


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
        chi_error = max(chi_error, _error(chi, op, weights, vecs))
        w, units = _theta_to_ensemble(rng.normal(size=m + m * 2 * d), d)
        value = -_holevo(w, _unit_outputs(op, units))   # the search minimises this
        objective_error = max(objective_error, _error(-value, op, w, units))
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
