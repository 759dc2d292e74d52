"""Channel capacity: classical alternating optimisation and quantum estimates.

A classical channel is a row-stochastic matrix p(y|x).  Its capacity
max over inputs of H(X:Y) is computed by the standard alternating-optimisation
iteration; the quantum product-state capacity is lower-bounded by a direct
search over pure-state ensembles of the output Holevo quantity, evaluated on
trusted stacked arrays.  The square-root ("pretty good") measurement used by
block decoding is built explicitly from the signal projectors.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.optimize

from . import _check
from .entropy import mutual_information, validate_dist, validate_stochastic
from .qentropy import _holevo, _mix, von_neumann_entropy
from .rng import stream
from .states import (
    TOL_EIG,
    QuantumChannel,
    clamp_spectrum,
    dag,
    eig_hermitian,
)


def channel_mutual_info(px, transition) -> float:
    """H(X:Y) of the joint p(x) p(y|x) induced by feeding px into the channel."""
    px = validate_dist(px)
    t = validate_stochastic(transition)
    if t.shape[0] != px.size:
        raise ValueError("input distribution does not match the channel rows")
    return mutual_information(px[:, None] * t)


class ConvergenceError(RuntimeError):
    """Iteration cap reached; carries the best estimate found so far."""

    def __init__(self, capacity_bits: float, px: np.ndarray):
        super().__init__(f"capacity iteration did not converge (best {capacity_bits:.9f})")
        self.capacity_bits = capacity_bits
        self.px = px


def channel_capacity(transition, tol: float = 1e-9,
                     max_iter: int = 10_000) -> tuple[float, np.ndarray]:
    """Capacity of a discrete memoryless channel and a maximising input.

    Alternating optimisation over the input distribution and the backward
    channel; stops when the capacity increment falls below ``tol``.  Columns
    that no input can produce are dropped before iterating (support
    restriction), which also keeps every logarithm finite.
    """
    _check.real(tol, "tol", 0)
    _check.integer(max_iter, "max_iter", 1)
    t = validate_stochastic(transition)
    live_cols = t.sum(axis=0) > 0.0
    t = t[:, live_cols]
    m = t.shape[0]
    r = np.full(m, 1.0 / m)
    mask = t > 0.0

    def achieved(rx: np.ndarray) -> float:
        py = np.maximum(rx @ t, 1e-300)
        ratio = np.where(mask, t / py[None, :], 1.0)
        return float(np.sum(rx[:, None] * np.where(mask, t * np.log2(ratio), 0.0)))

    last = -math.inf
    for _ in range(max_iter):
        q = r[:, None] * t                    # backward channel, unnormalised
        q /= np.maximum(q.sum(axis=0, keepdims=True), 1e-300)
        logq = np.where(mask, np.log(np.maximum(q, 1e-300)), 0.0)
        # log q already carries log r, so this is the whole multiplicative step
        expo = np.sum(np.where(mask, t * logq, 0.0), axis=1)
        expo -= expo.max()
        r = np.exp(expo)
        r /= r.sum()
        cap = achieved(r)
        if abs(cap - last) < tol:
            return cap, r
        last = cap
    raise ConvergenceError(last, r)


def bsc(flip: float) -> np.ndarray:
    """Binary symmetric channel; capacity 1 - H_bin(flip)."""
    _check.real(flip, "flip", 0, 1)
    return np.array([[1.0 - flip, flip], [flip, 1.0 - flip]])


def bec(erase: float) -> np.ndarray:
    """Binary erasure channel (third output = erasure); capacity 1 - erase."""
    _check.real(erase, "erase", 0, 1)
    return np.array([[1.0 - erase, erase, 0.0], [0.0, erase, 1.0 - erase]])


def noiseless(k: int) -> np.ndarray:
    return np.eye(k)


def _row_norms(vecs: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row of a complex (m, d) stack, bit for bit."""
    return np.sqrt(np.vecdot(vecs.real, vecs.real) + np.vecdot(vecs.imag, vecs.imag))


def _unit_outputs(op: QuantumChannel, vecs: np.ndarray) -> np.ndarray:
    """Channel outputs (m, d_out, d_out) of the normalised rows of a trusted (m, d) stack."""
    u = vecs / _row_norms(vecs)[:, None]
    return op.apply_mat(u[:, :, None] * u.conj()[:, None, :])


def _pure_outputs(op: QuantumChannel, ensemble) -> tuple[np.ndarray, np.ndarray]:
    """Validated weights and the stacked channel outputs of (probability, vector) pairs."""
    weights, vecs = zip(*ensemble) if len(ensemble) else ((), ())
    probs = validate_dist(weights)
    try:
        vecs = np.array(vecs, dtype=complex).reshape(probs.size, op.dim_in)
    except ValueError:
        raise ValueError("ensemble state does not match the channel input") from None
    norms = _row_norms(vecs)
    bad = ~((0.0 < norms) & (norms < math.inf))
    if bad.any():
        raise ValueError(f"ensemble state vector has norm {norms[bad][0]}")
    return probs, _unit_outputs(op, vecs)


def hsw_chi(op: QuantumChannel, ensemble: list[tuple[float, np.ndarray]]) -> float:
    """Holevo quantity of the channel outputs for a pure-state input ensemble.

    ``ensemble`` holds (probability, state vector) pairs, normalised here.
    Its maximum over ensembles is the product-state capacity.
    """
    return _holevo(*_pure_outputs(op, ensemble))


def _theta_to_ensemble(theta: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Reals -> simplex weights and (d^2, d) unit rows; row j of norm < 1e-12 becomes |j mod d>."""
    m = d * d
    w = np.exp(theta[:m] - theta[:m].max())
    w /= w.sum()
    rest = theta[m:].reshape(m, 2 * d)
    vecs = rest[:, :d] + 1j * rest[:, d:]
    norms = _row_norms(vecs)
    dead = norms < 1e-12
    if dead.any():
        # a basis row has norm exactly 1.0, so one norm array serves both uses
        vecs[dead] = np.eye(d)[np.arange(m)[dead] % d]
        norms[dead] = 1.0
    return w, vecs / norms[:, None]


def hsw_capacity_estimate(op: QuantumChannel, restarts: int = 16, tol: float = 1e-8,
                          seed: int = 0) -> tuple[float, list[tuple[float, np.ndarray]]]:
    """Lower bound on the product-state capacity by direct ensemble search.

    Optimises ensembles of exactly d^2 pure states (enough for the maximum)
    with a derivative-free simplex search.  The first start is the
    computational-basis ensemble; the rest are random with seeds derived from
    ``seed``, so the result is deterministic and nondecreasing in
    ``restarts``.  Evaluations run the kernels behind ``hsw_chi`` on stacked
    arrays without validating; only the winner becomes a list of pairs.
    """
    _check.integer(restarts, "restarts", 0)
    _check.real(tol, "tol", 0)
    _check.integer(seed, "seed")
    d = op.dim_in
    m = d * d
    size = m + m * 2 * d

    def objective(theta: np.ndarray) -> float:
        w, vecs = _theta_to_ensemble(theta, d)
        return -_holevo(w, _unit_outputs(op, vecs))

    canonical = np.zeros(size)
    canonical[m:].reshape(m, 2 * d)[:, :d] = np.eye(d)[np.arange(m) % d]

    best_val = -math.inf
    best_theta = canonical
    for trial in range(restarts + 1):
        if trial == 0:
            theta0 = canonical
        else:
            rng = stream(seed, f"hsw-restart-{trial}")
            theta0 = rng.normal(size=size)
        res = scipy.optimize.minimize(
            objective, theta0, method="Nelder-Mead",
            options={"maxiter": 2000, "xatol": 1e-7, "fatol": tol, "adaptive": True})
        if -res.fun > best_val:
            best_val = -res.fun
            best_theta = res.x
    w, vecs = _theta_to_ensemble(best_theta, d)
    return best_val, list(zip(w.tolist(), vecs))


def square_root_measurement(p_global: np.ndarray,
                            signals: list[np.ndarray]) -> list[np.ndarray]:
    """POVM E_M = T^(-1/2) P P_M P T^(-1/2) with T = sum_M P P_M P.

    The inverse square root is taken on the support of T; the returned list
    carries one element per signal plus a final completion element
    I - (support projector), so the whole list sums to the identity.  Each
    element is positive semidefinite.
    """
    p = np.asarray(p_global, dtype=complex)
    d = p.shape[0]
    if d > 16:
        raise ValueError("square-root measurement capped at dimension 16")
    compressed = [p @ np.asarray(s, dtype=complex) @ p for s in signals]
    total = np.zeros((d, d), dtype=complex)
    for c in compressed:
        total += c
    w, v = eig_hermitian(total)
    w = clamp_spectrum(w, tol=1e-8)
    support = w > max(TOL_EIG, 1e-12 * max(w.max(), 1.0))
    inv_sqrt_diag = np.where(support, 1.0 / np.sqrt(np.where(support, w, 1.0)), 0.0)
    inv_sqrt = v @ np.diag(inv_sqrt_diag.astype(complex)) @ dag(v)
    povm = [inv_sqrt @ c @ inv_sqrt for c in compressed]
    support_proj = v @ np.diag(support.astype(complex)) @ dag(v)
    povm.append(np.eye(d, dtype=complex) - support_proj)
    return povm


def output_entropy_bound(op: QuantumChannel, ensemble) -> float:
    """S of the average channel output; an upper bound for the Holevo quantity."""
    return von_neumann_entropy(_mix(*_pure_outputs(op, ensemble)))
