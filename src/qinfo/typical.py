"""Typical sequences, block compression schemes, and their quantum analogues.

A source emits i.i.d. symbols from a finite alphabet; a block of n symbols is
epsilon-typical when its per-symbol surprisal sits within epsilon of the source
entropy.  Everything here is exact at desk scale: one lexicographic table of
the typicality and probability of every length-n sequence backs every set,
mass, scheme and projector, the quantum ones densely in the source eigenbasis
(ambient dimension capped at 256).  A ``ShannonScheme`` reads the typical
set's size and mass from its one table and lists sequences only when asked
to compress or decompress; ``typical_set`` and ``typical_set_mass`` list and
sum member by member, and serve as its reference.  Asymptotic statements are
therefore checked as monotone trends over small n, never as limits.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, product

import numpy as np

from . import _check
from .entropy import shannon_entropy, validate_dist
from .states import DensityMatrix, as_density, clamp_spectrum, dag, eig_hermitian, ket, outer

ENUMERATION_CAP_BITS = 24   # typical_set enumerates at most 2^24 sequences
QUANTUM_DIM_CAP = 256       # dense projectors capped at d^n <= 256


@dataclass(frozen=True)
class SourceModel:
    """i.i.d. classical source: symbol distribution, block length, epsilon."""
    probs: tuple[float, ...]
    block_length: int
    epsilon: float

    def __post_init__(self):
        validate_dist(np.asarray(self.probs))
        _check.integer(self.block_length, "block length", 1)
        _check.real(self.epsilon, "epsilon", 0, strict=True)

    @property
    def alphabet_size(self) -> int:
        return len(self.probs)

    @property
    def entropy(self) -> float:
        return shannon_entropy(np.asarray(self.probs))


@dataclass(frozen=True)
class QuantumSourceModel:
    """i.i.d. quantum source: single-copy state, block length, epsilon."""
    rho: DensityMatrix
    block_length: int
    epsilon: float

    def __post_init__(self):
        object.__setattr__(self, "rho", as_density(self.rho))   # validated once, kept
        _check.integer(self.block_length, "block length", 1)
        _check.real(self.epsilon, "epsilon", 0, strict=True)


def sequence_prob(seq, probs) -> float:
    """Product probability of an i.i.d. symbol sequence."""
    return math.prod(map(list(probs).__getitem__, seq), start=1.0)


def is_typical(seq, model: SourceModel) -> bool:
    """|surprisal(seq)/n - H| <= epsilon.

    Sequences containing a zero-probability symbol have infinite surprisal and
    are never typical.
    """
    p = np.asarray(model.probs, dtype=float)
    n = model.block_length
    if len(seq) != n:
        raise ValueError(f"sequence length {len(seq)} != block length {n}")
    total = 0.0
    for s in seq:
        try:
            k = operator.index(s)
        except TypeError:   # a float is never a symbol, not even 1.0
            k = -1
        if not 0 <= k < p.size:
            raise ValueError(f"symbol {s} outside the alphabet")
        if p[k] == 0.0:
            return False
        total -= math.log2(p[k])
    return abs(total / n - model.entropy) <= model.epsilon


def _typical_table(model: SourceModel) -> tuple[np.ndarray, np.ndarray]:
    """Typicality flag and probability of every length-n sequence, lexicographic.

    Built one symbol at a time from the left, so each entry equals the scalar
    loops of ``is_typical`` and ``sequence_prob`` bit for bit.
    """
    n, a = model.block_length, model.alphabet_size
    if n * math.log2(a) > ENUMERATION_CAP_BITS:
        raise ValueError("typical set enumeration above the size cap")
    p = np.asarray(model.probs, dtype=float)
    sur = np.array([(-math.log2(x) if x > 0.0 else math.inf) for x in p])
    total, prob = np.zeros(1), np.ones(1)
    for _ in range(n):
        total = np.add.outer(total, sur).ravel()
        prob = np.multiply.outer(prob, p).ravel()
    mask = np.isfinite(total) & (np.abs(total / n - model.entropy) <= model.epsilon)
    return mask, prob


def _sequences(model: SourceModel, mask: np.ndarray) -> list[tuple[int, ...]]:
    """The sequences flagged in a table-shaped mask, in lexicographic order."""
    return list(compress(product(range(model.alphabet_size), repeat=model.block_length),
                         mask.tolist()))


def typical_set(model: SourceModel) -> list[tuple[int, ...]]:
    """Exact enumeration of the epsilon-typical set, in lexicographic order."""
    return _sequences(model, _typical_table(model)[0])


def typical_set_mass(model: SourceModel) -> float:
    """Exact total probability of the typical set, summed member by member.

    The per-member reference for ``ShannonScheme.set_mass``, which sums the
    same products in the same order straight from the table.
    """
    return float(sum(sequence_prob(seq, model.probs) for seq in typical_set(model)))


def multinomial_count(model: SourceModel) -> tuple[int, float]:
    """Exact count of sequences with the round(n p) composition, and 2^(nH).

    The ratio of the logarithms approaches 1 as n grows, which is the counting
    heart of block compression.  Requires the composition to round to integers
    summing to n.
    """
    n = model.block_length
    comp = [round(n * p) for p in model.probs]
    if sum(comp) != n:
        raise ValueError(f"composition {comp} does not sum to n={n}")
    exact = math.factorial(n)
    for c in comp:
        exact //= math.factorial(c)
    approx = 2.0 ** (n * model.entropy)
    return exact, approx


class CapacityError(ValueError):
    """Typical set does not fit the index space even though the rate exceeds H."""


class ShannonScheme:
    """Fixed-rate block compression built on the typical set.

    Sequences in ``included`` (a subset of the typical set) map bijectively to
    indices 1..len(included), assigned in lexicographic order; index 0 is the
    reserved failure index that every other sequence, and every sequence with
    a non-integer symbol, compresses to.  ``reliability`` is the exact
    probability that decompression inverts compression.  ``set_size`` and
    ``set_mass`` are the size and exact mass of the whole typical set, before
    an undersized rate trims it, so ``reliability == set_mass`` when nothing
    is trimmed.  ``included`` and the index map are built on first use by
    ``compress`` or ``decompress``; a scheme asked only for its numbers never
    lists a sequence.
    """

    def __init__(self, model: SourceModel, rate: float):
        # The table's size cap is checked before the rate, so a compress row
        # that fails both reports the cap.
        mask, prob = _typical_table(model)
        _check.real(rate, "rate")
        if rate * model.block_length < 1.0:
            raise ValueError("rate times block length must be at least 1 bit")
        self.model = model
        self.rate = rate
        self.index_bits = int(math.floor(rate * model.block_length))
        capacity = (1 << self.index_bits) - 1  # index 0 is reserved
        size = self.set_size = int(mask.sum())
        self.set_mass = self.reliability = float(sum(prob[mask].tolist()))
        if size > capacity:
            if rate > model.entropy:
                raise CapacityError(
                    f"typical set ({size}) exceeds {capacity} indices at rate {rate} > H")
            # Undersized rate: keep the most probable typical sequences, ties
            # going to the lexicographically first.
            typical = np.flatnonzero(mask)
            kept = typical[np.argsort(-prob[typical], kind="stable")[:capacity]]
            mask = np.zeros_like(mask)
            mask[kept] = True
            self.reliability = sum(prob[mask].tolist())
        self._mask = mask

    @cached_property
    def included(self) -> list[tuple[int, ...]]:
        return _sequences(self.model, self._mask)

    @cached_property
    def _to_index(self) -> dict[tuple[int, ...], int]:
        return {seq: i + 1 for i, seq in enumerate(self.included)}

    def compress(self, seq) -> int:
        try:
            key = tuple(map(operator.index, seq))
        except TypeError:   # a sequence with a non-integer symbol is never included
            return 0
        return self._to_index.get(key, 0)

    def decompress(self, index: int) -> tuple[int, ...] | None:
        if 1 <= index <= len(self.included):
            return self.included[index - 1]
        return None


def shannon_scheme(model: SourceModel, rate: float) -> ShannonScheme:
    return ShannonScheme(model, rate)


def _eigen_table(q: QuantumSourceModel) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Eigenvectors of the single-copy state and the typical table of its eigenvalues."""
    if q.rho.dim ** q.block_length > QUANTUM_DIM_CAP:
        raise ValueError("dense quantum block above the dimension cap")
    w, v = eig_hermitian(q.rho.mat)
    w = clamp_spectrum(w)
    w = w / w.sum()
    return v, _typical_table(SourceModel(tuple(w), q.block_length, q.epsilon))


def typical_subspace_projector(q: QuantumSourceModel) -> np.ndarray:
    """Projector onto the span of typical eigenvector blocks of rho^(x n).

    In the source eigenbasis this reduces exactly to the classical typical
    set, so its rank equals the classical set size and tr(P rho^(x n)) equals
    the classical typical mass.
    """
    v, (mask, _) = _eigen_table(q)
    vn = _kron_power(v, q.block_length)
    return vn @ np.diag(mask.astype(complex)) @ dag(vn)


def _kron_power(m: np.ndarray, n: int) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for _ in range(n):
        out = np.kron(out, m)
    return out


def block_state(q: QuantumSourceModel) -> np.ndarray:
    """rho^(x n) as a dense matrix."""
    return _kron_power(q.rho.mat, q.block_length)


def schumacher_compress(q: QuantumSourceModel, sigma) -> DensityMatrix:
    """Compression map: project onto the typical subspace, dump the rest on |0>.

    C(sigma) = P sigma P + tr((I-P) sigma) |0><0| with |0> the first
    computational basis vector of the ambient block space.  Trace preserving
    by construction; decompression is the identity.
    """
    p = typical_subspace_projector(q)
    sig = as_density(sigma, dims=None).mat
    if sig.shape != p.shape:
        raise ValueError("state dimension does not match the block space")
    dn = p.shape[0]
    rest = np.eye(dn) - p
    weight = float(np.trace(rest @ sig).real)
    out = p @ sig @ p + weight * outer(ket(0, dn))
    return DensityMatrix(out)


def schumacher_fidelity(q: QuantumSourceModel, max_rank: int | None = None) -> float:
    """Entanglement fidelity of the compression scheme on rho^(x n).

    F = |tr(rho_n P)|^2 + sum_i |<i| rho_n |0>|^2 over an orthonormal basis
    of the orthocomplement.  ``max_rank`` optionally caps the kept subspace at
    the most probable eigenvector blocks, for rate-limited experiments.
    """
    v, (typ, lam) = _eigen_table(q)
    if max_rank is not None:
        order = np.argsort(-lam, kind="stable")
        typ = np.zeros_like(typ)
        typ[order[:max_rank]] = True

    rho_n = block_state(q)
    vn = _kron_power(v, q.block_length)
    p = vn @ np.diag(typ.astype(complex)) @ dag(vn)
    fid = abs(np.trace(rho_n @ p)) ** 2
    rho_e0 = rho_n @ ket(0, typ.size)
    for flat in np.nonzero(~typ)[0]:
        fid += abs(np.vdot(vn[:, flat], rho_e0)) ** 2
    return float(fid)
