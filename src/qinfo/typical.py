"""Typical sequences, block compression schemes, and their quantum analogues.

A source emits i.i.d. symbols from a finite alphabet; a block of n symbols is
epsilon-typical when its per-symbol surprisal sits within epsilon of the source
entropy.  Typicality, probability and the Schumacher overlap factor depend
only on a block's composition, so every summary number (a ``ShannonScheme``'s
size, mass and reliability, ``schumacher_summary``'s rank, mass and fidelity)
is an exact-count sum over O(n^(a-1)) type classes, not a^n sequences.
``typical_set``, a scheme's index map and the dense d^n x d^n matrices of
``typical_subspace_projector`` and ``schumacher_compress`` (d^n capped at 256)
read one lexicographic table of every sequence; ``typical_set_mass`` sums it
member by member as the reference for the class sums.  Asymptotic statements
are checked as monotone trends over small n, never as limits.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import compress, product

import numpy as np

from . import _check
from .entropy import shannon_entropy, validate_dist
from .states import DensityMatrix, as_density, clamp_spectrum, dag, eig_hermitian, ket, outer

ENUMERATION_CAP_BITS = 24   # max(a, 2)^n <= 2^24: one symbol still takes n steps
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

    @cached_property   # frozen, so computed once; kept out of == and hash
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


def _symbol(s) -> int:
    """s as an alphabet index, or -1: a bool or float is never a symbol, not even 1.0."""
    try:
        return -1 if isinstance(s, bool) else operator.index(s)
    except TypeError:
        return -1


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
        k = _symbol(s)
        if not 0 <= k < p.size:
            raise ValueError(f"symbol {s} outside the alphabet")
        if p[k] == 0.0:
            return False
        total -= math.log2(p[k])
    return abs(total / n - model.entropy) <= model.epsilon


def _symbol_surprisals(model: SourceModel) -> tuple[np.ndarray, np.ndarray]:
    """Symbol probabilities and surprisals, once the block is within the size cap."""
    if model.block_length * math.log2(max(model.alphabet_size, 2)) > ENUMERATION_CAP_BITS:
        raise ValueError("typical set enumeration above the size cap")
    p = np.asarray(model.probs, dtype=float)
    return p, np.array([(-math.log2(x) if x > 0.0 else math.inf) for x in p])


def _flags(total: np.ndarray, model: SourceModel) -> np.ndarray:
    n = model.block_length
    return np.isfinite(total) & (np.abs(total / n - model.entropy) <= model.epsilon)


def _typical_table(model: SourceModel) -> tuple[np.ndarray, np.ndarray]:
    """Typicality flag and probability of every length-n sequence, lexicographic.

    Built one symbol at a time from the left, so each entry equals the scalar
    loops of ``is_typical`` and ``sequence_prob`` bit for bit.
    """
    p, sur = _symbol_surprisals(model)
    total, prob = np.zeros(1), np.ones(1)
    for _ in range(model.block_length):
        total = np.add.outer(total, sur).ravel()
        prob = np.multiply.outer(prob, p).ravel()
    return _flags(total, model), prob


def _class_table(model: SourceModel, *weights: np.ndarray):
    """Flag, size, probability and per-symbol weight products of each type class.

    A class is built as its sorted member, like ``_typical_table`` but appending
    no symbol below the last, so its flag and probability equal the full table's
    entry for that member bit for bit.  Its size n!/prod(c_i!) grows as
    count * k // run, run being the length of the trailing run of equal symbols.
    """
    p, sur = _symbol_surprisals(model)
    step = np.array([p, *weights])
    acc = np.array([[0.0]] + [[1.0]] * len(step))   # surprisal, then products
    last = run = np.zeros(1, dtype=np.int64)
    count = np.ones(1, dtype=np.int64)
    for k in range(1, model.block_length + 1):
        width = p.size - last
        end = width.cumsum()
        first = end - width   # each row's first child repeats its last symbol
        sym = np.arange(end[-1]) - (first - last).repeat(width)
        grown = np.ones(sym.size, dtype=np.int64)
        grown[first] += run
        count = count.repeat(width) * k // grown
        acc = acc.repeat(width, axis=1)
        acc[0] += sur.take(sym)
        acc[1:] *= step.take(sym, axis=1)
        last, run = sym, grown
    return (_flags(acc[0], model), count, *acc[1:])


def _most_probable(count: np.ndarray, prob: np.ndarray, limit: int) -> np.ndarray:
    """How many of the ``limit`` most probable sequences each class holds: whole
    classes by descending probability, ties to the earlier, then part of the next."""
    order = np.argsort(-prob, kind="stable")
    before = np.cumsum(count[order]) - count[order]
    kept = np.zeros_like(count)
    kept[order] = np.clip(min(int(limit), int(count.sum())) - before, 0, count[order])
    return kept


def _sequences(model: SourceModel, mask: np.ndarray) -> list[tuple[int, ...]]:
    """The sequences flagged in a table-shaped mask, in lexicographic order."""
    return list(compress(product(range(model.alphabet_size), repeat=model.block_length),
                         mask.tolist()))


def typical_set(model: SourceModel) -> list[tuple[int, ...]]:
    """Exact enumeration of the epsilon-typical set, in lexicographic order."""
    return _sequences(model, _typical_table(model)[0])


def typical_set_mass(model: SourceModel) -> float:
    """Total probability of the typical set, summed member by member with ``math.fsum``.

    The per-member reference for ``ShannonScheme.set_mass``, which sums over
    type classes; the two agree to within n rounding errors of the mass.
    """
    return math.fsum(sequence_prob(seq, model.probs) for seq in typical_set(model))


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
    a non-integer or bool symbol, compresses to.  ``reliability`` is the
    probability that decompression inverts compression.  ``set_size`` and
    ``set_mass`` are the size and mass of the whole typical set, before an
    undersized rate trims it, so ``reliability == set_mass`` when nothing is
    trimmed; all three are sums over type classes.  ``included`` and the index
    map are built on first use by ``compress`` or ``decompress``; a scheme
    asked only for its numbers never lists a sequence.
    """

    def __init__(self, model: SourceModel, rate: float):
        # The table's size cap is checked before the rate, so a compress row
        # that fails both reports the cap.
        typical, count, prob = _class_table(model)
        _check.real(rate, "rate")
        if rate * model.block_length < 1.0:
            raise ValueError("rate times block length must be at least 1 bit")
        self.model = model
        self.rate = rate
        self.index_bits = int(math.floor(rate * model.block_length))
        self._capacity = capacity = (1 << self.index_bits) - 1  # index 0 is reserved
        count, prob = count[typical], prob[typical]
        size = self.set_size = int(count.sum())
        self.set_mass = self.reliability = math.fsum((count * prob).tolist())
        if size > capacity:
            if rate > model.entropy:
                raise CapacityError(
                    f"typical set ({size}) exceeds {capacity} indices at rate {rate} > H")
            kept = _most_probable(count, prob, capacity)
            self.reliability = math.fsum((kept * prob).tolist())

    @cached_property
    def included(self) -> list[tuple[int, ...]]:
        # the most probable typical sequences as one-member classes, so an
        # undersized rate keeps the lexicographically first of a tie
        mask, prob = _typical_table(self.model)
        typical = np.flatnonzero(mask)
        mask[typical] = _most_probable(np.ones(typical.size, np.int64), prob[typical],
                                       self._capacity) > 0
        return _sequences(self.model, mask)

    @cached_property
    def _to_index(self) -> dict[tuple[int, ...], int]:
        return {seq: i + 1 for i, seq in enumerate(self.included)}

    def compress(self, seq) -> int:
        return self._to_index.get(tuple(map(_symbol, seq)), 0)

    def decompress(self, index: int) -> tuple[int, ...] | None:
        if 1 <= _check.integer(index, "index") <= len(self.included):
            return self.included[index - 1]
        return None


def shannon_scheme(model: SourceModel, rate: float) -> ShannonScheme:
    return ShannonScheme(model, rate)


def _eigen_source(q: QuantumSourceModel) -> tuple[np.ndarray, SourceModel]:
    """Eigenvectors of the single-copy state and the classical source of its eigenvalues."""
    if q.rho.dim ** q.block_length > QUANTUM_DIM_CAP:
        raise ValueError("dense quantum block above the dimension cap")
    w, v = eig_hermitian(q.rho.mat)
    w = clamp_spectrum(w)
    return v, SourceModel(tuple(w / w.sum()), q.block_length, q.epsilon)


def typical_subspace_projector(q: QuantumSourceModel) -> np.ndarray:
    """Projector onto the span of typical eigenvector blocks of rho^(x n).

    In the source eigenbasis this reduces exactly to the classical typical
    set, so its rank equals the classical set size and tr(P rho^(x n)) equals
    the classical typical mass.
    """
    v, model = _eigen_source(q)
    mask = _typical_table(model)[0]
    vn = reduce(np.kron, [v] * q.block_length, np.ones((1, 1), dtype=complex))
    return vn @ np.diag(mask.astype(complex)) @ dag(vn)


def schumacher_compress(q: QuantumSourceModel, sigma) -> DensityMatrix:
    """Compression map: project onto the typical subspace, dump the rest on |0>.

    C(sigma) = P sigma P + tr((I-P) sigma) |0><0| with |0> the first
    computational basis vector of the ambient block space.  Trace preserving
    by construction; decompression is the identity.
    """
    p = typical_subspace_projector(q)
    sig = as_density(sigma).mat
    if sig.shape != p.shape:
        raise ValueError("state dimension does not match the block space")
    dn = p.shape[0]
    rest = np.eye(dn) - p
    weight = float(np.trace(rest @ sig).real)
    out = p @ sig @ p + weight * outer(ket(0, dn))
    return DensityMatrix(out)


def schumacher_summary(q: QuantumSourceModel,
                       max_rank: int | None = None) -> tuple[int, float, float]:
    """Rank, mass tr(P rho^(x n)) and entanglement fidelity of the compression scheme.

    F = mass^2 + sum over dropped eigenvector blocks |v_i> of lam_i^2 |<0|v_i>|^2,
    each overlap a product of single-copy ones.  ``max_rank`` optionally keeps
    the most probable blocks instead, for rate-limited experiments.  All three
    are exact-count sums over the type classes of the eigenvalue source.
    """
    v, model = _eigen_source(q)
    typical, count, lam, overlap = _class_table(model, np.abs(v[0]) ** 2)
    kept = np.where(typical, count, 0)
    if max_rank is not None:
        _check.integer(max_rank, "max_rank", 0)
        kept = _most_probable(count, lam, max_rank)
    mass = math.fsum((kept * lam).tolist())
    fid = math.fsum([mass ** 2, *((count - kept) * lam ** 2 * overlap).tolist()])
    return int(kept.sum()), mass, fid


def schumacher_fidelity(q: QuantumSourceModel, max_rank: int | None = None) -> float:
    """Entanglement fidelity of the compression scheme; see ``schumacher_summary``."""
    return schumacher_summary(q, max_rank)[2]
