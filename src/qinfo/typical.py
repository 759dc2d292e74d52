"""Typical sequences, block compression schemes, and their quantum analogues.

A block of n i.i.d. symbols is epsilon-typical when its per-symbol surprisal
is within epsilon of the entropy.  That, its probability and its Schumacher
overlap depend only on its composition, so summary numbers are exact sums over
type classes, one table of them serving a whole sweep of block lengths; lists of
sequences and the dense d^n x d^n matrices (d^n <= 256) read every sequence.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cache, cached_property, reduce
from itertools import compress, product

import numpy as np

from . import _check
from .entropy import _neg_sum_plogp, validate_dist
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
        # probs passed validate_dist in __post_init__; its clip only zeroes
        # entries that _neg_sum_plogp skips anyway
        return _neg_sum_plogp(np.asarray(self.probs, dtype=float))


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
    """|surprisal(seq)/n - H| <= epsilon; a zero-probability symbol is never typical."""
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


def _check_caps(n: int, alphabet_size: int, dim: int = 1) -> None:
    """d^n <= 256, then n log2(max(a, 2)) <= 24, building no power or float for a huge n."""
    if dim > 1 and (n > QUANTUM_DIM_CAP.bit_length() or dim ** n > QUANTUM_DIM_CAP):
        raise ValueError("dense quantum block above the dimension cap")
    if n > ENUMERATION_CAP_BITS or n * math.log2(max(alphabet_size, 2)) > ENUMERATION_CAP_BITS:
        raise ValueError("typical set enumeration above the size cap")


def _surprisals(p: np.ndarray) -> np.ndarray:
    return np.array([(-math.log2(x) if x > 0.0 else math.inf) for x in p])


def _flags(total: np.ndarray, n: int, model: SourceModel) -> np.ndarray:
    return np.isfinite(total) & (np.abs(total / n - model.entropy) <= model.epsilon)


def _typical_table(model: SourceModel) -> tuple[np.ndarray, np.ndarray]:
    """Flag and probability of each length-n sequence, lexicographic, as ``is_typical``."""
    _check_caps(model.block_length, model.alphabet_size)
    p = np.asarray(model.probs, dtype=float)
    sur, total, prob = _surprisals(p), np.zeros(1), np.ones(1)
    for _ in range(model.block_length):
        total = np.add.outer(total, sur).ravel()
        prob = np.multiply.outer(prob, p).ravel()
    return _flags(total, model.block_length, model), prob


@cache
def _binomials() -> np.ndarray:
    """C(i, j) for i, j <= ENUMERATION_CAP_BITS, the longest block the cap admits."""
    k = range(ENUMERATION_CAP_BITS + 1)
    table = np.array([[math.comb(i, j) for j in k] for i in k], dtype=np.int64)
    table.flags.writeable = False   # one array serves every call
    return table


def _class_tables(model: SourceModel, blocks, *weights: np.ndarray, dim: int = 1):
    """Flag, size, probability and weight products of each type class, per block
    length, cut from one table; a failing block raises after the tables before it.
    Stage s extends each partial class 0^c0 1^c1 ... by every count of s that fits
    the longest block, highest first, so one length's classes come in lexicographic
    order and, ``accumulate`` summing along each run, equal ``_typical_table``'s entries."""
    admitted, failure = [], None
    try:
        for n in blocks:
            _check_caps(_check.integer(n, "block length", 1), model.alphabet_size, dim)
            admitted.append(n)
    except ValueError as exc:
        failure = exc
    if admitted:
        p, top = np.asarray(model.probs, dtype=float), max(admitted)
        step = np.array([_surprisals(p), p, *weights])
        acc = np.array([[0.0]] + [[1.0]] * (len(step) - 1))   # surprisal, then products
        used, comp = np.zeros(1, dtype=np.int64), np.zeros((0, 1), dtype=np.int64)
        runs = np.arange(top, -1, -1)   # counts of one symbol, highest first
        for s in range(p.size):
            row, run = np.nonzero(used[:, None] + runs <= top)
            grid = step[:, s, None, None].repeat(used.size, 1).repeat(top + 1, 2)
            grid[:, :, 0] = acc
            np.add.accumulate(grid[0], axis=1, out=grid[0])
            np.multiply.accumulate(grid[1:], axis=2, out=grid[1:])
            acc = grid[:, row, runs[run]]   # the entry after runs[run] steps of s
            comp = np.vstack([comp[:, row], runs[run]])
            used = used[row] + runs[run]
        count = _binomials()[np.cumsum(comp[::-1], axis=0)[::-1], comp].prod(axis=0)
        for n in admitted:
            rows = used == n
            yield (_flags(acc[0, rows], n, model), count[rows], *acc[1:, rows])
    if failure is not None:
        raise failure


def _class_table(model: SourceModel, *weights: np.ndarray):
    """``_class_tables`` of the model's one block."""
    return next(_class_tables(model, [model.block_length], *weights))


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
    """Typical set mass, member by member: ``ShannonScheme.set_mass``'s reference."""
    return math.fsum(sequence_prob(seq, model.probs) for seq in typical_set(model))


def multinomial_count(model: SourceModel) -> tuple[int, float]:
    """Exact count of sequences with the round(n p) composition (which must sum to
    n), and 2^(nH): the ratio of their logarithms approaches 1 as n grows."""
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

    The typical sequences in ``included`` (listed on first use) compress in order to
    1..len(included), any other sequence to 0.  ``reliability`` is the chance that
    decompression inverts compression; ``set_size`` and ``set_mass`` are untrimmed.
    """

    def __init__(self, model: SourceModel, rate: float):
        # the table's size cap is checked before the rate, so a row failing both reports the cap
        self.index_bits, self._capacity, self.set_size, self.set_mass, self.reliability = \
            _scheme_numbers(model.block_length, model.entropy, rate, *_class_table(model))
        self.model, self.rate = model, rate

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


def _scheme_numbers(n: int, entropy: float, rate: float, typical, count, prob):
    """Index bits and capacity, set size, set mass and reliability at ``rate``."""
    _check.real(rate, "rate")
    if rate * n < 1.0:
        raise ValueError("rate times block length must be at least 1 bit")
    # held at cap + 1 bits, which index any set, so rate * n overflowing to inf is harmless
    bits = int(math.floor(min(rate * n, ENUMERATION_CAP_BITS + 1)))
    count, prob = count[typical], prob[typical]
    size = capacity = int(count.sum())
    mass = reliability = math.fsum((count * prob).tolist())
    if size.bit_length() > bits:   # size > 2^bits - 1, built only when it binds
        capacity = (1 << bits) - 1   # index 0 is reserved
        if rate > entropy:
            raise CapacityError(
                f"typical set ({size}) exceeds {capacity} indices at rate {rate} > H")
        reliability = math.fsum((_most_probable(count, prob, capacity) * prob).tolist())
    return bits, capacity, size, mass, reliability


def shannon_scheme(model: SourceModel, rate: float) -> ShannonScheme:
    return ShannonScheme(model, rate)


def shannon_sweep(probs, blocks, epsilon: float, rate: float) -> list[tuple[int, float, float]]:
    """``shannon_scheme(SourceModel(probs, n, epsilon), rate)``'s set size, set mass and
    reliability, or first error, over the nonempty ``blocks``, from one class table."""
    model = SourceModel(probs, blocks[0], epsilon)
    return [_scheme_numbers(n, model.entropy, rate, *table)[2:]
            for n, table in zip(blocks, _class_tables(model, blocks))]


def _eigen_source(q: QuantumSourceModel) -> tuple[np.ndarray, SourceModel]:
    """Eigenvectors of the single-copy state and the classical source of its eigenvalues."""
    _check_caps(q.block_length, q.rho.dim, q.rho.dim)
    w, v = eig_hermitian(q.rho.mat)
    w = clamp_spectrum(w)
    return v, SourceModel(tuple(w / w.sum()), q.block_length, q.epsilon)


def typical_subspace_projector(q: QuantumSourceModel) -> np.ndarray:
    """Projector onto the span of typical eigenvector blocks of rho^(x n): in the
    eigenbasis, the classical typical set of the eigenvalue source."""
    v, model = _eigen_source(q)
    mask = _typical_table(model)[0]
    vn = reduce(np.kron, [v] * q.block_length, np.ones((1, 1), dtype=complex))
    return vn @ np.diag(mask.astype(complex)) @ dag(vn)


def schumacher_compress(q: QuantumSourceModel, sigma) -> DensityMatrix:
    """C(sigma) = P sigma P + tr((I-P) sigma) |0><0|, |0> the first basis vector of
    the block space: trace preserving, with the identity as decompression."""
    p = typical_subspace_projector(q)
    sig = as_density(sigma).mat
    if sig.shape != p.shape:
        raise ValueError("state dimension does not match the block space")
    dn = p.shape[0]
    rest = np.eye(dn) - p
    weight = float(np.trace(rest @ sig).real)
    out = p @ sig @ p + weight * outer(ket(0, dn))
    return DensityMatrix(out)


def _summary_numbers(typical, count, lam, overlap, max_rank: int | None = None):
    """Rank, mass and fidelity from the eigenvalue source's classes; see ``schumacher_summary``."""
    kept = np.where(typical, count, 0)
    if max_rank is not None:
        _check.integer(max_rank, "max_rank", 0)
        kept = _most_probable(count, lam, max_rank)
    mass = math.fsum((kept * lam).tolist())
    fid = math.fsum([mass ** 2, *((count - kept) * lam ** 2 * overlap).tolist()])
    return int(kept.sum()), mass, fid


def schumacher_summary(q: QuantumSourceModel,
                       max_rank: int | None = None) -> tuple[int, float, float]:
    """Rank, mass tr(P rho^(x n)) and entanglement fidelity of the compression scheme:
    F = mass^2 + sum over dropped eigenvector blocks |v_i> of lam_i^2 |<0|v_i>|^2.
    ``max_rank`` keeps the most probable blocks instead."""
    v, model = _eigen_source(q)
    return _summary_numbers(*_class_table(model, np.abs(v[0]) ** 2), max_rank)


def schumacher_sweep(rho, blocks, epsilon: float) -> list[tuple[int, float, float]]:
    """``schumacher_summary(QuantumSourceModel(rho, n, epsilon))`` at each n in
    ``blocks``, as ``shannon_sweep`` does, from one eigen-source."""
    q = QuantumSourceModel(rho, blocks[0], epsilon)
    v, model = _eigen_source(q)
    return [_summary_numbers(*table)
            for table in _class_tables(model, blocks, np.abs(v[0]) ** 2, dim=q.rho.dim)]


def schumacher_fidelity(q: QuantumSourceModel, max_rank: int | None = None) -> float:
    """Entanglement fidelity of the compression scheme; see ``schumacher_summary``."""
    return schumacher_summary(q, max_rank)[2]
