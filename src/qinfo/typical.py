"""Typical sequences, block compression schemes, and their quantum analogues.

A block of n i.i.d. symbols is epsilon-typical when its per-symbol surprisal
is within epsilon of the entropy.  That, its probability and its Schumacher
overlap depend only on its composition, so summary numbers are exact sums over
type classes.  One table serves a whole sweep of block lengths, each length's
classes one contiguous group of it, and every length's sums are taken in one
pass; lists of sequences and the dense d^n x d^n matrices (d^n <= 256) read
every sequence.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import compress, product

import numpy as np

from . import _check
from .entropy import _neg_sum_plogp, validate_dist
from .states import DensityMatrix, as_density, clamp_spectrum, dag, ket, outer

ENUMERATION_CAP_BITS = 24   # max(a, 2)^n <= 2^24: one symbol still takes n steps
QUANTUM_DIM_CAP = 256       # dense projectors capped at d^n <= 256
# C(i, j) for i, j <= ENUMERATION_CAP_BITS, the longest block the cap admits
_BINOMIALS = np.array([[math.comb(i, j) for j in range(ENUMERATION_CAP_BITS + 1)]
                       for i in range(ENUMERATION_CAP_BITS + 1)], dtype=np.int64)


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
        # validate_dist's clip would only zero entries that _neg_sum_plogp skips
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
    p, n = np.asarray(model.probs, dtype=float), model.block_length
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


def _typical_table(model: SourceModel) -> tuple[np.ndarray, np.ndarray]:
    """Flag and probability of each length-n sequence, lexicographic, as ``is_typical``."""
    n = model.block_length
    _check_caps(n, model.alphabet_size)
    p = np.asarray(model.probs, dtype=float)
    sur, total, prob = _surprisals(p), np.zeros(1), np.ones(1)
    for _ in range(n):
        total = np.add.outer(total, sur).ravel()
        prob = np.multiply.outer(prob, p).ravel()
    return np.isfinite(total) & (np.abs(total / n - model.entropy) <= model.epsilon), prob


def _class_groups(model: SourceModel, blocks, *weights: np.ndarray, dim: int = 1):
    """Type classes of each length in ``blocks`` before the first that fails its caps, as
    (that failure or None, each row's group, each group's first row, flags, sizes,
    probabilities, weight products), one contiguous group per length; a failing first
    length raises.  Stage s extends each partial class 0^c0 1^c1 ... by every count of s
    that fits, highest first, and the last stage by the count that fills each length, so
    a group lists its classes in lexicographic order, each summed as its sorted member."""
    admitted, failure = [], None
    try:
        for n in blocks:
            _check_caps(_check.integer(n, "block length", 1), model.alphabet_size, dim)
            admitted.append(n)
    except ValueError as exc:
        failure = exc
    if not admitted:
        raise failure
    p, lengths = np.asarray(model.probs, dtype=float), np.array(admitted, dtype=np.int64)
    step = np.array([_surprisals(p), p, *weights])
    runs = np.arange(max(admitted), -1, -1)   # counts of one symbol, highest first
    acc = np.array([[0.0]] + [[1.0]] * (len(step) - 1))   # surprisal, then products
    used, count = np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64)
    for s in range(p.size):
        grid = step[:, s, None, None].repeat(used.size, 1).repeat(runs.size, 2)
        grid[:, :, 0] = acc
        np.add.accumulate(grid[0], axis=1, out=grid[0])
        np.multiply.accumulate(grid[1:], axis=2, out=grid[1:])
        if s < p.size - 1:   # row by row, each count that fits, highest first
            row, run = np.nonzero(used[:, None] + runs <= runs[0])
            run = runs[run]
        else:   # length by length, each row's count that fills the length
            group, row = np.nonzero(lengths[:, None] >= used)
            run = lengths[group] - used[row]
        acc, used = grid[:, row, run], used[row] + run   # the entries after run steps of s
        count = count[row] * _BINOMIALS[used, run]   # (c0 + ... + cs)! / (c0! ... cs!)
    typical = np.isfinite(acc[0]) & (np.abs(acc[0] / used - model.entropy) <= model.epsilon)
    starts = np.searchsorted(group, range(lengths.size))   # no group is empty
    return failure, group, starts, typical, count, *acc[1:]


def _class_table(model: SourceModel, *weights: np.ndarray):
    """``_class_groups``'s flags, sizes, probabilities and weight products at the model's n."""
    return _class_groups(model, [model.block_length], *weights)[3:]


def _most_probable(count, prob, limits, group) -> np.ndarray:
    """How many of the ``limits[g]`` most probable sequences each class of group g holds:
    whole classes by descending probability, ties to the earlier, then part of the next."""
    order = np.lexsort((-prob, group))   # group ascends, so each group keeps its place
    before = np.cumsum(count[order]) - count[order]
    before -= before[np.searchsorted(group, group)]   # less the groups before
    return np.clip(limits[group] - before, 0, count[order])[np.argsort(order)]


def _group_lists(values: np.ndarray, starts: np.ndarray) -> list[list]:
    """One list per group; its ``math.fsum`` is exactly rounded, so zeros and order move no bit."""
    values, cut = values.tolist(), [*starts.tolist(), values.size]
    return [values[a:b] for a, b in zip(cut, cut[1:])]


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
    return math.factorial(n) // math.prod(map(math.factorial, comp)), 2.0 ** (n * model.entropy)


class CapacityError(ValueError):
    """Typical set does not fit the index space even though the rate exceeds H."""


class ShannonScheme:
    """Fixed-rate block compression built on the typical set.

    The typical sequences in ``included`` (listed on first use) compress in order to
    1..len(included), any other sequence to 0.  ``reliability`` is the chance that
    decompression inverts compression; ``set_size`` and ``set_mass`` are untrimmed.
    """

    def __init__(self, model: SourceModel, rate: float):
        self.index_bits, self._capacity, self.set_size, self.set_mass, self.reliability = \
            _scheme_numbers(model, [model.block_length], rate)[0]
        self.model, self.rate = model, rate

    @cached_property
    def included(self) -> list[tuple[int, ...]]:
        # the most probable typical sequences, the lexicographically first of a tie
        mask, prob = _typical_table(self.model)
        typical = np.flatnonzero(mask)
        mask[typical[np.argsort(-prob[typical], kind="stable")[self._capacity:]]] = False
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


def _scheme_numbers(model: SourceModel, blocks, rate: float) -> list[tuple]:
    """Index bits and capacity, set size, set mass and reliability at ``rate`` of each length
    in ``blocks``, or the first error that one scheme per length, in order, would raise."""
    failure, group, starts, typical, count, prob = _class_groups(model, blocks)
    sized, rows = np.where(typical, count, 0), []
    for n, size in zip(blocks, np.add.reduceat(sized, starts).tolist()):
        if _check.real(rate, "rate") * n < 1.0:
            raise ValueError("rate times block length must be at least 1 bit")
        # held at cap + 1 bits, which index any set, so rate * n overflowing to inf is harmless
        bits = int(math.floor(min(rate * n, ENUMERATION_CAP_BITS + 1)))
        capacity = min(size, (1 << bits) - 1)   # index 0 is reserved
        if capacity < size and rate > model.entropy:
            raise CapacityError(
                f"typical set ({size}) exceeds {capacity} indices at rate {rate} > H")
        rows.append((bits, capacity, size))
    if failure is not None:
        raise failure
    mass = reliability = list(map(math.fsum, _group_lists(sized * prob, starts)))
    if any(capacity < size for _, capacity, size in rows):
        kept = _most_probable(sized, prob, np.array([row[1] for row in rows]), group)
        reliability = list(map(math.fsum, _group_lists(kept * prob, starts)))
    return [(*row, m, r) for row, m, r in zip(rows, mass, reliability)]


def shannon_scheme(model: SourceModel, rate: float) -> ShannonScheme:
    return ShannonScheme(model, rate)


def shannon_sweep(probs, blocks, epsilon: float, rate: float) -> list[tuple[int, float, float]]:
    """``shannon_scheme(SourceModel(probs, n, epsilon), rate)``'s set size, set mass and
    reliability, or first error, over the nonempty ``blocks``, from one class table."""
    _check.integer(len(blocks), "len(blocks)", 1)
    model = SourceModel(probs, blocks[0], epsilon)
    return [row[2:] for row in _scheme_numbers(model, blocks, rate)]


def _eigen_source(q: QuantumSourceModel) -> tuple[np.ndarray, SourceModel]:
    """Eigenvectors of the single-copy state and the classical source of its eigenvalues,
    descending as ``eig_hermitian`` gives them; q checked its state, so neither checks again."""
    _check_caps(q.block_length, q.rho.dim, q.rho.dim)
    w, v = np.linalg.eigh(q.rho.mat)
    order = np.argsort(-w, kind="stable")
    w, model = clamp_spectrum(w[order]), SourceModel.__new__(SourceModel)
    vars(model).update(probs=tuple(w / w.sum()), block_length=q.block_length, epsilon=q.epsilon)
    return v[:, order], model


def typical_subspace_projector(q: QuantumSourceModel) -> np.ndarray:
    """Projector onto the span of typical eigenvector blocks of rho^(x n): in the
    eigenbasis, the classical typical set of the eigenvalue source."""
    v, model = _eigen_source(q)
    vn = reduce(np.kron, [v] * q.block_length, np.ones((1, 1), dtype=complex))
    return vn @ np.diag(_typical_table(model)[0].astype(complex)) @ dag(vn)


def schumacher_compress(q: QuantumSourceModel, sigma) -> DensityMatrix:
    """C(sigma) = P sigma P + tr((I-P) sigma) |0><0|, |0> the first basis vector of
    the block space: trace preserving, with the identity as decompression."""
    p = typical_subspace_projector(q)
    sig = as_density(sigma).mat
    if sig.shape != p.shape:
        raise ValueError("state dimension does not match the block space")
    weight = float(np.trace((np.eye(p.shape[0]) - p) @ sig).real)
    return DensityMatrix(p @ sig @ p + weight * outer(ket(0, p.shape[0])))


def _summary_numbers(q: QuantumSourceModel, blocks, max_rank=None) -> list[tuple]:
    """Rank, mass and fidelity of each length in ``blocks`` from the eigenvalue source's
    grouped classes; see ``schumacher_summary``.  ``max_rank`` cuts one block."""
    v, model = _eigen_source(q)
    failure, group, starts, typical, count, lam, overlap = \
        _class_groups(model, blocks, np.abs(v[0]) ** 2, dim=q.rho.dim)
    if failure is not None:
        raise failure
    kept = np.where(typical, count, 0)
    if max_rank is not None:
        _check.integer(max_rank, "max_rank", 0)
        kept = _most_probable(count, lam, np.array([min(max_rank, int(count.sum()))]), group)
    mass = list(map(math.fsum, _group_lists(kept * lam, starts)))
    fid = [math.fsum([m ** 2, *dropped]) for m, dropped in
           zip(mass, _group_lists((count - kept) * lam ** 2 * overlap, starts))]
    return list(zip(np.add.reduceat(kept, starts).tolist(), mass, fid))


def schumacher_summary(q: QuantumSourceModel,
                       max_rank: int | None = None) -> tuple[int, float, float]:
    """Rank, mass tr(P rho^(x n)) and entanglement fidelity of the compression scheme:
    F = mass^2 + sum over dropped eigenvector blocks |v_i> of lam_i^2 |<0|v_i>|^2.
    ``max_rank`` keeps the most probable blocks instead."""
    return _summary_numbers(q, [q.block_length], max_rank)[0]


def schumacher_sweep(rho, blocks, epsilon: float) -> list[tuple[int, float, float]]:
    """``schumacher_summary(QuantumSourceModel(rho, n, epsilon))`` at each n in
    ``blocks``, as ``shannon_sweep`` does, from one eigen-source."""
    _check.integer(len(blocks), "len(blocks)", 1)
    return _summary_numbers(QuantumSourceModel(rho, blocks[0], epsilon), blocks)


def schumacher_fidelity(q: QuantumSourceModel, max_rank: int | None = None) -> float:
    """Entanglement fidelity of the compression scheme; see ``schumacher_summary``."""
    return schumacher_summary(q, max_rank)[2]
