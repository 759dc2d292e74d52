"""Von Neumann entropy and the derived quantum information measures.

The bipartite measures expect a DensityMatrix carrying two subsystem dims
(left factor = A).  Ensembles are plain lists of ``(probability, state)``
pairs.  Entropies are in bits.

Unlike the classical case, the conditional entropy S(A|B) can be negative;
for a pure joint state that is exactly the signature of entanglement.
"""

from __future__ import annotations

import math

import numpy as np

from . import _check
from . import entropy as centropy
from .states import (
    TOL_EIG,
    TOL_RECON,
    DensityMatrix,
    QuantumChannel,
    _bipartite,
    _ordered_sum,
    apply_channel,
    as_density,
    clamp_spectrum,
    dag,
    eig_hermitian,
    outer,
    partial_trace,
    purify,
    random_pure_state,
)


def von_neumann_entropy(rho) -> float:
    """S(rho) = -tr(rho log2 rho); 0 iff pure, log2 d iff maximally mixed."""
    return centropy._neg_sum_plogp(as_density(rho).eigenvalues())


def quantum_relative_entropy(rho, sigma) -> float:
    """S(rho||sigma) = tr(rho log rho) - tr(rho log sigma), possibly inf.

    Nonnegative and zero iff the states coincide.  Evaluated in sigma's
    eigenbasis with clamped eigenvalues; if rho has weight on sigma's kernel
    the measure is infinite (support violation).
    """
    rho, sigma = _same_dim(rho, sigma)
    ws, vs = eig_hermitian(sigma.mat)
    ws = clamp_spectrum(ws)
    # weight of rho on each sigma eigenvector
    weight = np.einsum("ij,ji->i", dag(vs) @ rho.mat, vs).real
    weight = np.clip(weight, 0.0, None)
    kernel = ws <= TOL_EIG
    if np.any(weight[kernel] > TOL_RECON):
        return math.inf
    live = (~kernel) & (weight > 0.0)
    term_sigma = float(np.sum(weight[live] * np.log2(ws[live])))
    return -von_neumann_entropy(rho) - term_sigma


def _same_dim(rho, sigma) -> tuple[DensityMatrix, DensityMatrix]:
    """Both states as DensityMatrix, which must share a dimension."""
    rho, sigma = as_density(rho), as_density(sigma)
    if rho.dim != sigma.dim:
        raise ValueError(f"states must share a dimension, got {rho.dim} and {sigma.dim}")
    return rho, sigma


def _square_channel(rho, op: QuantumChannel) -> DensityMatrix:
    """rho as a DensityMatrix, for a channel that must map its space to itself."""
    rho = as_density(rho)
    if op.dim_in != rho.dim or op.dim_out != rho.dim:
        raise ValueError(f"channel {op.dim_in} -> {op.dim_out} must be square and match "
                         f"the state dimension {rho.dim}")
    return rho


def quantum_joint_entropy(rho_ab) -> float:
    """S(A,B), the entropy of the composite state."""
    return von_neumann_entropy(_bipartite(rho_ab))


def quantum_conditional_entropy(rho_ab) -> float:
    """S(A|B) = S(A,B) - S(B); negative values flag entanglement."""
    rho_ab = _bipartite(rho_ab)
    return von_neumann_entropy(rho_ab) - von_neumann_entropy(partial_trace(rho_ab, "B"))


def quantum_mutual_information(rho_ab) -> float:
    """S(A:B) = S(A) + S(B) - S(A,B)."""
    rho_ab = _bipartite(rho_ab)
    sa = von_neumann_entropy(partial_trace(rho_ab, "A"))
    sb = von_neumann_entropy(partial_trace(rho_ab, "B"))
    return sa + sb - von_neumann_entropy(rho_ab)


def is_entangled_pure(psi: np.ndarray, dims: tuple[int, int]) -> bool:
    """True iff the bipartite pure state has Schmidt rank > 1.

    Equivalent to S(A|B) < 0 for the pure joint state.  Mixed-state
    entanglement is out of scope for this criterion.
    """
    rho = DensityMatrix.pure(psi, tuple(dims))
    w = partial_trace(rho, "A").eigenvalues()
    return int(np.sum(w > TOL_EIG)) > 1


Ensemble = list  # alias: list of (probability, DensityMatrix) pairs


def _validate_ensemble(ensemble: Ensemble) -> tuple[np.ndarray, list[DensityMatrix]]:
    """Validated weights and member states of an ensemble of one dimension."""
    probs = centropy.validate_dist([p for p, _ in ensemble])
    states = [as_density(r) for _, r in ensemble]
    if any(s.dim != states[0].dim for s in states):
        raise ValueError("ensemble members must share a dimension")
    return probs, states


def _mix(probs: np.ndarray, mats) -> np.ndarray:
    """sum_x p_x mats[x], added in member order by ``_ordered_sum`` so results are reproducible.

    ``probs`` (m,) and ``mats`` (m, d, d) may carry one leading stack axis.
    """
    return _ordered_sum((probs[..., None, None] * np.asarray(mats)).swapaxes(0, -3))


def _holevo(probs: np.ndarray, mats: np.ndarray):
    """chi of trusted member density matrices stacked as (m, d, d).

    One eigvalsh covers the mixture and the members, clamped once for _chi.
    With one leading stack axis, ``probs`` (K, m) and ``mats`` (K, m, d, d)
    give K values, each bit-identical to its own unstacked call, since every
    step is elementwise or per matrix.  One ensemble gives a numpy float.
    """
    return _chi(probs, clamp_spectrum(np.linalg.eigvalsh(
        np.concatenate((_mix(probs, mats)[..., None, :, :], mats), axis=-3))[..., ::-1]))


def _chi(probs: np.ndarray, spectra: np.ndarray):
    """chi from the clamped, descending (m+1, d) spectra of the mixture and the members.

    ``chi - p * S`` runs in member order.  The result is
    bit-identical to taking ``_neg_sum_plogp`` of each clamped, descending
    row and skipping ``p == 0``.  A descending clamped row keeps its zeros at
    the end, and numpy sums a row of fewer than 8 entries in sequence, so the
    masked ``np.add.reduce(..., axis=-1)`` adds the same terms in the same
    order plus trailing zeros.  Rows of 8 or more entries are summed pairwise in blocks,
    where the inserted zeros would move the block boundaries, so those keep
    the per-row sum.  A zero weight times a finite entropy is a signed zero,
    and subtracting it leaves chi unchanged: chi starts as ``0.0 - sum``,
    which is never -0.0, and ``x - y`` is -0.0 only when ``x`` is.  A
    leading stack axis on ``probs`` and ``spectra`` is carried through.
    """
    if spectra.shape[-1] < 8:
        terms = spectra * np.log2(np.where(spectra > 0.0, spectra, 1.0))
        entropies = 0.0 - np.add.reduce(terms, axis=-1)
    else:
        entropies = np.array([centropy._neg_sum_plogp(w) for w in
                              spectra.reshape(-1, spectra.shape[-1])]).reshape(spectra.shape[:-1])
    entropies[..., 1:] *= probs
    return np.subtract.reduce(entropies, axis=-1)


def ensemble_state(ensemble: Ensemble) -> DensityMatrix:
    """Average state sum_x p_x rho_x of an ensemble."""
    probs, states = _validate_ensemble(ensemble)
    return DensityMatrix(_mix(probs, [s.mat for s in states]), states[0].dims)


def holevo_chi(ensemble: Ensemble) -> float:
    """chi = S(sum p rho) - sum p S(rho): the accessible-information bound.

    Nonnegative, at most H(p), and an upper bound on the classical mutual
    information extractable from the ensemble by any measurement.
    """
    probs, states = _validate_ensemble(ensemble)
    return float(_holevo(probs, np.stack([s.mat for s in states])))


def entropy_exchange(rho, op: QuantumChannel) -> float:
    """Noise S(rho, E) injected by a channel, via explicit purification.

    Purify rho with a reference R, apply I_R (x) E, and take the entropy of
    the joint output R'Q'.  Independent of the purification chosen.
    """
    rho = _square_channel(rho, op)
    return von_neumann_entropy(op.extend_left(rho.dim).apply_mat(outer(purify(rho))))


def coherent_information(rho, op: QuantumChannel) -> float:
    """I(rho, E) = S(E(rho)) - S(rho, E), the quantum mutual-information analogue."""
    rho = as_density(rho)
    return von_neumann_entropy(apply_channel(rho, op)) - entropy_exchange(rho, op)


def fidelity(rho, sigma) -> float:
    """F(rho, sigma) = tr sqrt(rho^1/2 sigma rho^1/2), in [0, 1].

    Symmetric, 1 iff the states coincide, and |<psi|phi>| on pure states.
    """
    rho, sigma = _same_dim(rho, sigma)
    w, v = eig_hermitian(rho.mat)
    sqrt_rho = v @ np.diag(np.sqrt(clamp_spectrum(w)).astype(complex)) @ dag(v)
    inner = sqrt_rho @ sigma.mat @ sqrt_rho
    mu = clamp_spectrum(np.linalg.eigvalsh(inner), tol=1e-8)
    return float(min(1.0, np.sum(np.sqrt(mu))))


def entanglement_fidelity(rho, op: QuantumChannel) -> float:
    """F(rho, E) = sum_i |tr(rho E_i)|^2: how well E preserves entanglement.

    Equals the squared overlap of a purification with the channel output on
    the purified state.
    """
    rho = _square_channel(rho, op)
    total = 0.0
    for k in op.kraus:
        total += abs(np.trace(rho.mat @ k)) ** 2
    return float(min(1.0, total))


def ensemble_average_fidelity(ensemble: Ensemble, op: QuantumChannel) -> float:
    """F-bar = sum_j p_j F(rho_j, E(rho_j))^2."""
    probs, states = _validate_ensemble(ensemble)
    total = 0.0
    for p, s in zip(probs, states):
        total += p * fidelity(s, apply_channel(s, op)) ** 2
    return float(total)


def min_fidelity_estimate(op: QuantumChannel, trials: int = 256,
                          rng: np.random.Generator | None = None,
                          refine_steps: int = 32) -> float:
    """Upper estimate of min over pure states of F(|psi>, E(|psi><psi|)).

    Samples ``trials`` uniform pure states, then runs a coordinate-descent
    refinement from the best one (step halving per round).  The estimate never
    lies below the true minimum; for a fixed generator stream it is
    nonincreasing in ``trials`` (exactly so with ``refine_steps=0``, up to
    refinement convergence jitter otherwise).
    """
    _check.integer(trials, "trials", 1)
    _check.integer(refine_steps, "refine_steps", 0)
    if rng is None:
        rng = np.random.default_rng(0)
    d = op.dim_in

    def pure_fidelity(psi: np.ndarray) -> float:
        out = op.apply_mat(outer(psi))
        val = np.real(np.conj(psi) @ out @ psi)
        return float(np.sqrt(max(val, 0.0)))

    best, best_psi = math.inf, None
    for _ in range(trials):
        psi = random_pure_state(d, rng)
        f = pure_fidelity(psi)
        if f < best:
            best, best_psi = f, psi

    step = 0.5
    coords = [(i, part) for i in range(d) for part in (1.0, 1j)]
    for _ in range(refine_steps):
        improved = False
        for i, part in coords:
            for sign in (1.0, -1.0):
                cand = best_psi.copy()
                cand[i] += sign * step * part
                cand /= np.linalg.norm(cand)
                f = pure_fidelity(cand)
                if f < best:
                    best, best_psi = f, cand
                    improved = True
        if not improved:
            step *= 0.5
    return best


def quantum_fano_gap(rho, op: QuantumChannel) -> float:
    """Slack of the noise bound S(rho,E) <= H(F) + (1-F) log2(d^2 - 1).

    F is the entanglement fidelity; the returned gap (bound minus entropy
    exchange) is nonnegative up to numerical tolerance.
    """
    rho = as_density(rho)
    f = entanglement_fidelity(rho, op)
    d2 = rho.dim ** 2
    bound = centropy.binary_entropy(f) + (1.0 - f) * math.log2(d2 - 1)
    return bound - entropy_exchange(rho, op)


def classical_quantum_state(ensemble: Ensemble) -> DensityMatrix:
    """Block state sum_i p_i |i><i| (x) rho_i used by the mixing bound."""
    probs, states = _validate_ensemble(ensemble)
    m, d = len(states), states[0].dim
    mat = np.zeros((m * d, m * d), dtype=complex)
    for i, (p, s) in enumerate(zip(probs, states)):
        mat[i * d:(i + 1) * d, i * d:(i + 1) * d] = p * s.mat
    return DensityMatrix(mat, (m, d))
