"""Channel capacity: classical alternating optimisation and quantum estimates.

A classical channel is a row-stochastic matrix p(y|x).  Its capacity
max over inputs of H(X:Y) is computed by the standard alternating-optimisation
iteration; the quantum product-state capacity is lower-bounded by a direct
search over pure-state ensembles of the output Holevo quantity, evaluated on
trusted stacked arrays.  That search is a port of SciPy's adaptive Nelder-Mead
whose restarts run in lock-step, so nothing here loads SciPy.  The square-root
("pretty good") measurement used by block decoding is built explicitly from
the signal projectors.
"""

from __future__ import annotations

import math

import numpy as np

from . import _check
from .entropy import mutual_information, validate_dist, validate_stochastic
from .qentropy import _holevo, _mix, von_neumann_entropy
from .rng import stream
from .states import (
    TOL_EIG,
    QuantumChannel,
    _ordered_sum,
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
    return np.eye(_check.integer(k, "k", 1))


def _row_norms(vecs: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row of a complex (..., m, d) stack, bit for bit."""
    return np.sqrt(np.vecdot(vecs.real, vecs.real) + np.vecdot(vecs.imag, vecs.imag))


def _unit_outputs(op: QuantumChannel, vecs: np.ndarray) -> np.ndarray:
    """Outputs (..., m, d_out, d_out) of the normalised rows of a trusted (..., m, d) stack."""
    u = vecs / _row_norms(vecs)[..., None]
    return op.apply_mat(u[..., :, None] * u.conj()[..., None, :])


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
    return float(_holevo(*_pure_outputs(op, ensemble)))


def _theta_to_ensemble(theta: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Reals (..., size) -> simplex weights (..., d^2) and unit rows (..., d^2, d).

    Row j of norm < 1e-12 becomes |j mod d>.  Each point of a stack gets the bits of its own call.
    """
    m = d * d
    w = np.exp(theta[..., :m] - theta[..., :m].max(axis=-1, keepdims=True))
    w /= w.sum(axis=-1, keepdims=True)
    rest = theta[..., m:].reshape(theta.shape[:-1] + (m, 2 * d))
    vecs = rest[..., :d] + 1j * rest[..., d:]
    norms = _row_norms(vecs)
    dead = norms < 1e-12
    if dead.any():
        # a basis row has norm exactly 1.0, so one norm array serves both uses
        vecs[dead] = np.eye(d)[np.nonzero(dead)[-1] % d]
        norms[dead] = 1.0
    return w, vecs / norms[..., None]


def _nelder_mead(x0: np.ndarray, maxiter: int, xatol: float, fatol: float):
    """SciPy 1.17's adaptive Nelder-Mead (Gao & Han 2012) as a generator.

    Yields (k, n) stacks of points to score and receives their k values;
    returns ``(x, fun, nit)``.  Each step is SciPy's ``_minimize_neldermead``
    without bounds, callback or an evaluation cap, with reflection factor 1
    folded in, so every point and value matches ``minimize`` bit for bit.
    """
    n = x0.size
    chi, psi, sigma = 1 + 2 / n, 0.75 - 1 / (2 * n), 1 - 1 / n
    sim = np.tile(x0, (n + 1, 1))
    np.fill_diagonal(sim[1:], np.where(x0 != 0, 1.05 * x0, 0.00025))
    fsim = np.array((yield sim), dtype=float)
    for _ in range(2):   # SciPy sorts twice; argsort is unstable on ties
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    nit = 1
    while nit < maxiter:
        if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - sim[-1]
        (fxr,) = yield xr[None]
        if fxr < fsim[0]:
            xe = (1 + chi) * xbar - chi * sim[-1]
            (fxe,) = yield xe[None]
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:
                xc = (1 + psi) * xbar - psi * sim[-1]
                (fxc,) = yield xc[None]
                accept = fxc <= fxr
            else:
                xc = (1 - psi) * xbar + psi * sim[-1]
                (fxc,) = yield xc[None]
                accept = fxc < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:
                sim[1:] = sim[0] + sigma * (sim[1:] - sim[0])
                fsim[1:] = yield sim[1:]
        nit += 1
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    return sim[0], np.min(fsim), nit


def _lockstep(score, searches: list) -> list:
    """Drive ``_nelder_mead`` generators together; return their results in order.

    Each round, the points that every live search asks for go to ``score``
    as (k, n) stacks of at most 256 points, which it maps to k values; the
    cap keeps memory flat in the number of searches.  A round of one point
    passes that (n,) point alone, because the unstacked call is cheaper.
    """
    results = [None] * len(searches)
    asks = {i: next(s) for i, s in enumerate(searches)}
    while asks:
        stacks = list(asks.values())
        if len(stacks) == 1 and len(stacks[0]) == 1:
            values = [score(stacks[0][0])]
        else:
            points = np.concatenate(stacks)
            values = np.concatenate([score(points[j:j + 256]) for j in range(0, len(points), 256)])
        at = 0
        for i, pts in list(asks.items()):
            try:
                asks[i] = searches[i].send(values[at:at + len(pts)])
            except StopIteration as done:
                results[i] = done.value
                del asks[i]
            at += len(pts)
    return results


def hsw_capacity_estimate(op: QuantumChannel, restarts: int = 16, tol: float = 1e-8,
                          seed: int = 0) -> tuple[float, list[tuple[float, np.ndarray]]]:
    """Lower bound on the product-state capacity by direct ensemble search.

    Optimises ensembles of exactly d^2 pure states (enough for the maximum)
    with a derivative-free simplex search.  The first start is the
    computational-basis ensemble; the rest are random with seeds derived from
    ``seed``, so the result is deterministic and nondecreasing in
    ``restarts``.  The searches from all starts run in lock-step, and each
    round scores the points they ask for as one stack with the kernels behind
    ``hsw_chi``, without validating.  Every search takes the same steps as it
    would alone; only the winner becomes a list of pairs.
    """
    _check.integer(restarts, "restarts", 0)
    _check.real(tol, "tol", 0)
    _check.integer(seed, "seed")
    d = op.dim_in
    m = d * d
    size = m + m * 2 * d

    def objective(theta: np.ndarray):
        w, vecs = _theta_to_ensemble(theta, d)
        return -_holevo(w, _unit_outputs(op, vecs))

    canonical = np.zeros(size)
    canonical[m:].reshape(m, 2 * d)[:, :d] = np.eye(d)[np.arange(m) % d]
    starts = [canonical] + [stream(seed, f"hsw-restart-{trial}").normal(size=size)
                            for trial in range(1, restarts + 1)]
    best_val = -math.inf
    best_theta = canonical
    searches = [_nelder_mead(x0, maxiter=2000, xatol=1e-7, fatol=tol) for x0 in starts]
    for x, fun, _ in _lockstep(objective, searches):
        if -fun > best_val:
            best_val = -fun
            best_theta = x
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
    # a zero first term keeps T defined, and zero, for an empty list of signals
    w, v = eig_hermitian(_ordered_sum([np.zeros((d, d), dtype=complex)] + compressed))
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
