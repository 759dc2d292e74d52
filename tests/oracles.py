"""Independent oracles the library must agree with.

These deliberately avoid the library's own code paths: the W-matrix entropy
uses only the Kraus operators directly, the purified entanglement fidelity
goes through an explicit reference system, and the conditional-entropy bound
check enumerates every deterministic guessing map by brute force, and the
nearest-codeword decoder scans every codeword instead of a syndrome table.  The
per-member Holevo loop and the per-Kraus channel loop are the plain forms the
stacked kernels must reproduce bit for bit, and the standard library's
json.dumps is the reference for the transcript writer's bytes.  The dense
Schumacher fidelity builds rho^(x n) and the kept projector as full matrices
and sums one inner product per dropped eigenvector block, the form the
closed-form eigen-table fidelity replaced.  The SciPy restart loop is the HSW
search as it ran on ``scipy.optimize.minimize``, one restart after another,
on the library's own unstacked objective; the lock-step search must match it
bit for bit.  The exact compression row sums each composition's count times
its probability as a ``Fraction`` of the float symbol probabilities, so the
printed typical mass and reliability can be checked against the correctly
rounded value rather than against any float summation order.  The
single-trial BB84 run takes one trial at a time, one array per field, with
its own transport and sifting; every transcript of the stacked batch must
equal it field for field.
"""

import itertools
import json
import math
from collections import Counter
from fractions import Fraction

import numpy as np

from qinfo.bb84 import ProtocolTranscript, _p0_table, _reconcile_blocks
from qinfo.rng import stream


def holevo_per_member(probs: np.ndarray, mats: np.ndarray) -> float:
    """chi of (m, d, d) member matrices, one member entropy at a time.

    The mixture is summed from 0 in member order; each spectrum is reversed to
    descending order, clamped at 0 and summed over its positive entries; the
    members are subtracted in order, skipping zero weights.
    """
    def entropy(w: np.ndarray) -> float:
        w = np.where(w[::-1] < 0.0, 0.0, w[::-1])
        live = w[w > 0.0]
        return float(-np.sum(live * np.log2(live)))

    mix = sum(p * m for p, m in zip(probs, mats))
    spectra = np.linalg.eigvalsh(np.concatenate((mix[None], mats)))
    chi = entropy(spectra[0])
    for p, w in zip(probs, spectra[1:]):
        if p > 0.0:
            chi -= p * entropy(w)
    return float(chi)


def ordered_sum_loop(terms) -> np.ndarray:
    """terms[0] + terms[1] + ..., one in-place add at a time into a complex zero."""
    out = np.zeros(np.shape(terms[0]), dtype=complex)
    for t in terms:
        out += t
    return out


def apply_kraus_loop(kraus: list[np.ndarray], mat: np.ndarray) -> np.ndarray:
    """sum_i E_i mat E_i^dagger on a matrix or a stack, one operator at a time."""
    out = np.zeros(np.shape(mat)[:-2] + (kraus[0].shape[0],) * 2, dtype=complex)
    for k in kraus:
        out += k @ mat @ np.conj(k).T
    return out


def w_matrix_entropy(rho_mat: np.ndarray, kraus: list[np.ndarray]) -> float:
    """Entropy exchange from W_ij = tr(E_i rho E_j^dagger)."""
    k = len(kraus)
    w = np.zeros((k, k), dtype=complex)
    for i in range(k):
        for j in range(k):
            w[i, j] = np.trace(kraus[i] @ rho_mat @ kraus[j].conj().T)
    vals = np.linalg.eigvalsh(w)
    vals = vals[vals > 1e-12]
    return float(-np.sum(vals * np.log2(vals)))


def purified_entanglement_fidelity(rho_mat: np.ndarray, kraus: list[np.ndarray]) -> float:
    """<RQ| (I (x) E)(|RQ><RQ|) |RQ> for an explicit purification of rho."""
    d = rho_mat.shape[0]
    vals, vecs = np.linalg.eigh(rho_mat)
    psi = np.zeros(d * d, dtype=complex)
    for i in range(d):
        if vals[i] > 0.0:
            e = np.zeros(d, dtype=complex)
            e[i] = 1.0
            psi += math.sqrt(vals[i]) * np.kron(e, vecs[:, i])
    joint = np.outer(psi, psi.conj())
    out = np.zeros_like(joint)
    eye = np.eye(d, dtype=complex)
    for k in kraus:
        big = np.kron(eye, k)
        out += big @ joint @ big.conj().T
    return float(np.real(psi.conj() @ out @ psi))


def best_guess_conditional_entropy(joint: np.ndarray) -> tuple[float, float]:
    """(H(X|Y), best achievable error probability) by exhaustive guess maps."""
    joint = np.asarray(joint, dtype=float)
    py = joint.sum(axis=0)
    hxy = 0.0
    for x in range(joint.shape[0]):
        for y in range(joint.shape[1]):
            if joint[x, y] > 0.0:
                hxy -= joint[x, y] * math.log2(joint[x, y] / py[y])
    best_err = 1.0
    for guess in itertools.product(range(joint.shape[0]), repeat=joint.shape[1]):
        err = sum(joint[x, y] for y in range(joint.shape[1])
                  for x in range(joint.shape[0]) if x != guess[y])
        best_err = min(best_err, err)
    return hxy, best_err


def bloch_grid_min_fidelity(kraus: list[np.ndarray], steps: int = 40) -> float:
    """Dense Bloch-sphere grid minimum of the pure-state channel fidelity."""
    best = 1.0
    for i in range(steps + 1):
        theta = math.pi * i / steps
        for j in range(2 * steps):
            phi = math.pi * j / steps
            psi = np.array([math.cos(theta / 2),
                            complex(math.cos(phi), math.sin(phi)) * math.sin(theta / 2)])
            rho = np.outer(psi, psi.conj())
            out = sum(k @ rho @ k.conj().T for k in kraus)
            val = float(np.real(psi.conj() @ out @ psi))
            best = min(best, math.sqrt(max(val, 0.0)))
    return best


def nearest_codeword(codewords: np.ndarray, y: np.ndarray, t: int):
    """(codeword, error) of the codeword nearest to y, or None beyond weight t.

    Scans every codeword row for the minimum weight of y ^ c; a tie goes to
    the error whose positions come first in combinations order, that is the
    lexicographically smallest tuple of positions.
    """
    errors = codewords ^ y
    weights = errors.sum(axis=1)
    best = int(weights.min())
    if best > t:
        return None
    tied = np.nonzero(weights == best)[0]
    i = min(tied, key=lambda j: tuple(np.nonzero(errors[j])[0]))
    return codewords[i], errors[i]


def json_text(obj) -> str:
    """The standard library's indented, key-sorted JSON text of obj."""
    return json.dumps(obj, indent=2, sort_keys=True)


def _kron_power(m: np.ndarray, n: int) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for _ in range(n):
        out = np.kron(out, m)
    return out


def block_state(q) -> np.ndarray:
    """rho^(x n) of a quantum source model as a dense matrix."""
    return _kron_power(q.rho.mat, q.block_length)


def dense_schumacher_fidelity(rho_mat: np.ndarray, v: np.ndarray, kept: np.ndarray) -> float:
    """|tr(rho_n P)|^2 + sum_i |<i| rho_n |0>|^2 over the dropped eigenvector blocks.

    ``v`` holds the single-copy eigenvectors as columns and ``kept`` flags the
    eigenvector blocks of rho^(x n), in lexicographic order, that P spans.
    """
    n = 0
    while v.shape[1] ** n < kept.size:
        n += 1
    rho_n = _kron_power(rho_mat, n)
    vn = _kron_power(v, n)
    p = vn @ np.diag(kept.astype(complex)) @ vn.conj().T
    fid = abs(np.trace(rho_n @ p)) ** 2
    rho_e0 = rho_n[:, 0]
    for flat in np.nonzero(~kept)[0]:
        fid += abs(np.vdot(vn[:, flat], rho_e0)) ** 2
    return float(fid)


def hsw_estimate_scipy(op, restarts: int, tol: float = 1e-8, seed: int = 0) -> list:
    """``hsw_capacity_estimate(op, r, tol, seed)`` for every r in 0..restarts.

    Restart r's start depends only on ``seed`` and r, so one pass of the old
    loop gives each estimate as the running best after its trial r.
    """
    from scipy.optimize import minimize

    from qinfo.capacity import _theta_to_ensemble, _unit_outputs
    from qinfo.qentropy import _holevo
    from qinfo.rng import stream

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
    estimates = []
    for trial in range(restarts + 1):
        if trial == 0:
            theta0 = canonical
        else:
            theta0 = stream(seed, f"hsw-restart-{trial}").normal(size=size)
        res = minimize(
            objective, theta0, method="Nelder-Mead",
            options={"maxiter": 2000, "xatol": 1e-7, "fatol": tol, "adaptive": True})
        if -res.fun > best_val:
            best_val = -res.fun
            best_theta = res.x
        w, vecs = _theta_to_ensemble(best_theta, d)
        estimates.append((best_val, list(zip(w.tolist(), vecs))))
    return estimates


def exact_compress_row(probs, n: int, eps: float, rate: float) -> tuple[int, Fraction, Fraction]:
    """(set size, mass, reliability) of the Shannon scheme, mass and reliability exact.

    A composition is typical when its float surprisal per symbol sits within
    eps of H; one within 1e-9 of that boundary raises, since float rounding
    could then decide it.  Each class adds count * prod p_i^c_i in exact
    rationals of the float probabilities.  When the typical set exceeds the
    2^floor(rate n) - 1 indices, the reliability takes the most probable
    classes whole and then part of the next one.
    """
    h = -sum(p * math.log2(p) for p in probs if p > 0.0)
    classes = []
    for rep in itertools.combinations_with_replacement(range(len(probs)), n):
        comp = Counter(rep)
        if any(probs[s] == 0.0 for s in comp):
            continue
        gap = abs(sum(c * -math.log2(probs[s]) for s, c in comp.items()) / n - h) - eps
        if abs(gap) < 1e-9:
            raise ValueError(f"composition {dict(comp)} sits on the typicality boundary")
        if gap < 0.0:
            count = math.factorial(n)
            for c in comp.values():
                count //= math.factorial(c)
            prob = math.prod((Fraction(probs[s]) ** c for s, c in comp.items()), start=Fraction(1))
            classes.append((count, prob))
    size = sum(count for count, _ in classes)
    mass = sum((count * prob for count, prob in classes), Fraction(0))
    left, reliability = min(size, (1 << math.floor(rate * n)) - 1), Fraction(0)
    for count, prob in sorted(classes, key=lambda cp: -cp[1]):
        take = min(count, left)
        reliability += take * prob
        left -= take
    return size, mass, reliability


def _draw(p0: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    return (rng.random(p0.size) >= p0).astype(np.uint8)


def bb84_transport(states: np.ndarray, bases: np.ndarray, ch, seed: int):
    """Transport signal-state indices; returns (p0 in the given bases, Eve's fields)."""
    table = _p0_table(ch)
    if ch.kind != "intercept_resend":
        return table[states, bases], {}
    count = states.size
    mask = stream(seed, "eve-mask").random(count) < ch.param
    eve_bases = stream(seed, "eve-bases").integers(0, 2, count).astype(np.uint8)
    eve_bits = _draw(table[states, eve_bases], stream(seed, "eve-measure"))
    states = np.where(mask, 2 * eve_bases + eve_bits, states)
    return table[states, bases], dict(eve_mask=mask, eve_bases=eve_bases, eve_bits=eve_bits)


def run_bb84(cfg, ch) -> ProtocolTranscript:
    """One complete protocol run under cfg.master_seed, one trial on its own.

    Steps: random bits and bases, basis encoding, transport, random-basis
    measurement, basis announcement and sifting (abort below 2n survivors),
    random selection of n check bits (abort above the disagreement
    threshold), then codeword announcement, C1 decoding and coset key
    extraction for all blocks in one stacked pass.
    """
    seed = cfg.master_seed
    n, total = cfg.n, cfg.qubits_sent
    code = cfg.code

    alice_bits = stream(seed, "alice-bits").integers(0, 2, total).astype(np.uint8)
    alice_bases = stream(seed, "alice-bases").integers(0, 2, total).astype(np.uint8)
    bob_bases = stream(seed, "bob-bases").integers(0, 2, total).astype(np.uint8)

    p0, eve = bb84_transport(2 * alice_bases + alice_bits, bob_bases, ch, seed)
    bob_bits = _draw(p0, stream(seed, "bob-measure"))

    sift_mask = alice_bases == bob_bases
    sifted = np.nonzero(sift_mask)[0]
    run = dict(config_seed=int(seed), alice_bits=alice_bits, alice_bases=alice_bases,
               bob_bases=bob_bases, bob_bits=bob_bits, sift_mask=sift_mask, **eve)

    if sifted.size < 2 * n:
        return ProtocolTranscript(aborted=True, abort_reason="sifting left fewer than 2n bits",
                                  **run)

    perm = stream(seed, "selection").permutation(sifted.size)
    chosen = sifted[perm[:2 * n]]
    check_idx, keep_idx = np.sort(chosen[:n]), np.sort(chosen[n:])
    disagreements = int(np.sum(alice_bits[check_idx] != bob_bits[check_idx]))
    run.update(check_indices=check_idx, keep_indices=keep_idx,
               disagreements=disagreements, qber_estimate=disagreements / n)

    if disagreements > cfg.threshold:
        return ProtocolTranscript(aborted=True,
                                  abort_reason="check-bit disagreements above threshold", **run)

    n_blocks = n // code.n
    msgs = stream(seed, "codewords").integers(0, 2, (n_blocks, code.c1.k)).astype(np.uint8)
    kept = keep_idx[:n_blocks * code.n]
    keys_a, keys_b, success, offsets = _reconcile_blocks(
        code, alice_bits[kept].reshape(n_blocks, code.n),
        bob_bits[kept].reshape(n_blocks, code.n), msgs)
    return ProtocolTranscript(announced_offset=offsets.ravel(), alice_key=keys_a.ravel(),
                              bob_key=keys_b.ravel(), block_success=success, **run)
