"""Independent oracles the library must agree with.

These deliberately avoid the library's own code paths: the W-matrix entropy
uses only the Kraus operators directly, the purified entanglement fidelity
goes through an explicit reference system, and the conditional-entropy bound
check enumerates every deterministic guessing map by brute force, and the
nearest-codeword decoder scans every codeword instead of a syndrome table.  The
per-member Holevo loop and the per-Kraus channel loop are the plain forms the
stacked kernels must reproduce bit for bit.
"""

import itertools
import math

import numpy as np


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
