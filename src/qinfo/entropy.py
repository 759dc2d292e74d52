"""Classical information measures over discrete distributions.

Distributions are nonnegative numpy vectors summing to 1; joint distributions
are tensors with one axis per variable.  All entropies are in bits and the
``0 * log 0 == 0`` limit convention is applied cell by cell, so zero
probabilities never poison a sum.  Relative entropy may legitimately be
``math.inf`` (support violation); it is returned, not raised.
"""

from __future__ import annotations

import math

import numpy as np

from . import _check
from .states import TOL_NORM


def _check_entries(t: np.ndarray, what: str) -> None:
    """Reject non-finite and negative entries; ``what`` names one entry."""
    if not np.isfinite(t).all():
        raise ValueError("probabilities must be finite")
    if t.min() < -TOL_NORM:
        raise ValueError(f"negative {what} {float(t.min())}")


def validate_dist(p) -> np.ndarray:
    """Check finiteness, nonnegativity and normalisation, returning a float array."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("distribution must be a nonempty vector")
    return validate_joint(p)


def validate_joint(table) -> np.ndarray:
    t = np.asarray(table, dtype=float)
    if t.ndim < 1:
        raise ValueError("joint distribution must have at least one axis")
    _check_entries(t, "probability")
    if abs(t.sum() - 1.0) > TOL_NORM:
        raise ValueError(f"probabilities sum to {float(t.sum())}, expected 1")
    return np.clip(t, 0.0, None)


def _neg_sum_plogp(p: np.ndarray) -> float:
    mask = p > 0.0
    return float(0.0 - np.sum(p[mask] * np.log2(p[mask])))   # 0.0 - 0.0 is +0, not -0


def shannon_entropy(p) -> float:
    """H(X) = -sum_x p_x log2 p_x, between 0 and log2 |X|."""
    return _neg_sum_plogp(validate_dist(p))


def binary_entropy(p: float) -> float:
    """H(p, 1-p); symmetric about 1/2 where it attains its maximum 1."""
    _check.real(p, "p", 0, 1)
    out = 0.0
    if p > 0.0:
        out -= p * math.log2(p)
    if p < 1.0:
        out -= (1.0 - p) * math.log2(1.0 - p)
    return out


def relative_entropy(p, q) -> float:
    """H(p||q) = sum_x p_x log2(p_x / q_x); inf when support(p) not in support(q).

    Nonnegative, zero iff p == q.  Not symmetric, hence not a metric.
    """
    p = validate_dist(p)
    q = validate_dist(q)
    if p.shape != q.shape:
        raise ValueError("distributions must have equal cardinality")
    mask = p > 0.0
    if np.any(q[mask] == 0.0):
        return math.inf
    return float(np.sum(p[mask] * np.log2(p[mask] / q[mask])))


def marginal(table, axes: tuple[int, ...]) -> np.ndarray:
    """Marginal distribution over the given axes (order preserved)."""
    t = np.asarray(table, dtype=float)
    axes = _axis_tuple(axes, t.ndim)
    drop = tuple(i for i in range(t.ndim) if i not in axes)
    m = t.sum(axis=drop) if drop else t.copy()
    # sum() above collapses axes keeping relative order, which matches `axes`
    # sorted; transpose back to the requested order.
    order = np.argsort(np.argsort(axes))
    return np.transpose(m, order)


def _axis_tuple(axes, ndim: int) -> tuple[int, ...]:
    axes = tuple(axes) if np.iterable(axes) else (axes,)
    for a in axes:
        if _check.integer(a, "axis", 0) >= ndim:
            raise ValueError(f"axis {a} out of range for {ndim} variables")
    if len(set(axes)) != len(axes):
        raise ValueError("repeated axis")
    return axes


def joint_entropy(table) -> float:
    """Entropy of the full joint distribution."""
    return _neg_sum_plogp(validate_joint(table).ravel())


def conditional_entropy(table, given) -> float:
    """H(rest | given) = H(all) - H(given).

    ``given`` is an axis index or tuple of axis indices.  Computed through the
    defining identity (never per-row) so the identity is exact by construction.
    """
    t = validate_joint(table)
    given = _axis_tuple(given, t.ndim)
    return joint_entropy(t) - _neg_sum_plogp(marginal(t, given).ravel())


def mutual_information(table, axes_a=(0,), axes_b=(1,)) -> float:
    """H(A:B) = H(A) + H(B) - H(A,B) for disjoint groups of axes.

    Defaults to the two-variable case.  Symmetric in the two groups.
    """
    t = validate_joint(table)
    axes_a = _axis_tuple(axes_a, t.ndim)
    axes_b = _axis_tuple(axes_b, t.ndim)
    if set(axes_a) & set(axes_b):
        raise ValueError("axis groups must be disjoint")
    ha = _neg_sum_plogp(marginal(t, axes_a).ravel())
    hb = _neg_sum_plogp(marginal(t, axes_b).ravel())
    hab = _neg_sum_plogp(marginal(t, axes_a + axes_b).ravel())
    return ha + hb - hab


def fano_bound(p_err: float, alphabet_size: int) -> float:
    """H(p_e) + p_e log2(|X|-1), an upper bound on H(X|Y) at guessing error p_e."""
    _check.real(p_err, "p_err", 0, 1)
    _check.integer(alphabet_size, "alphabet_size", 2)
    return binary_entropy(p_err) + p_err * math.log2(alphabet_size - 1)


def validate_stochastic(t) -> np.ndarray:
    """Row-stochastic matrix check (each row a conditional distribution)."""
    t = np.asarray(t, dtype=float)
    if t.ndim != 2:
        raise ValueError("transition matrix must be two dimensional")
    _check_entries(t, "transition probability")
    if np.max(np.abs(t.sum(axis=1) - 1.0)) > TOL_NORM:
        raise ValueError("transition rows must each sum to 1")
    return np.clip(t, 0.0, None)


def markov_joint(px, t_xy, t_yz) -> np.ndarray:
    """Joint p(x,y,z) = p(x) p(y|x) p(z|y) of a three-step Markov chain."""
    px = validate_dist(px)
    t_xy = validate_stochastic(t_xy)
    t_yz = validate_stochastic(t_yz)
    if t_xy.shape[0] != px.size or t_yz.shape[0] != t_xy.shape[1]:
        raise ValueError("chain dimensions do not match")
    return np.einsum("x,xy,yz->xyz", px, t_xy, t_yz)


def average_code_length(probs, lengths) -> float:
    """Expected codeword length sum_x p_x len_x of an explicit code map."""
    p = validate_dist(probs)
    lengths = np.asarray(lengths, dtype=float)
    if lengths.shape != p.shape:
        raise ValueError("one length per symbol required")
    return float(np.sum(p * lengths))


def random_dist(size: int, rng: np.random.Generator) -> np.ndarray:
    """Full-support random distribution (normalised exponentials)."""
    p = rng.exponential(size=size)
    return p / p.sum()


def random_joint(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Full-support random joint table (normalised exponentials per cell)."""
    t = rng.exponential(size=shape)
    return t / t.sum()
