import math

import numpy as np
import pytest

from qinfo.entropy import (
    average_code_length,
    binary_entropy,
    conditional_entropy,
    fano_bound,
    joint_entropy,
    marginal,
    markov_joint,
    mutual_information,
    random_dist,
    random_joint,
    relative_entropy,
    shannon_entropy,
    validate_dist,
    validate_joint,
    validate_stochastic,
)

from oracles import best_guess_conditional_entropy

ATOL = 1e-9


class TestShannonEntropy:
    def test_definite_state(self):
        assert shannon_entropy([1.0, 0.0]) == 0.0

    def test_uniform_bit(self):
        assert shannon_entropy([0.5, 0.5]) == pytest.approx(1.0, abs=ATOL)

    def test_four_letter_fixture(self):
        # direct evaluation oracle for (3/4, 1/8, 1/16, 1/16)
        expected = -(0.75 * math.log2(0.75) + 0.125 * math.log2(0.125)
                     + 2 * 0.0625 * math.log2(0.0625))
        h = shannon_entropy([0.75, 0.125, 0.0625, 0.0625])
        assert h == pytest.approx(expected, abs=ATOL)
        assert h == pytest.approx(1.1862781244591328, abs=ATOL)

    def test_bounds(self, rng):
        for _ in range(50):
            k = int(rng.integers(2, 6))
            p = random_dist(k, rng)
            h = shannon_entropy(p)
            assert -ATOL <= h <= math.log2(k) + ATOL

    def test_rejects_unnormalised(self):
        with pytest.raises(ValueError):
            shannon_entropy([0.5, 0.6])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("validate,table", [
    (validate_dist, [None, 1.0]),
    (validate_joint, [[None, 1.0], [0.0, 0.0]]),
    (validate_stochastic, [[None, 1.0], [0.0, 1.0]]),
], ids=["dist", "joint", "stochastic"])
def test_validators_reject_non_finite(validate, table, bad):
    t = np.array(table, dtype=float)   # None becomes NaN and marks the bad entry
    t[np.isnan(t)] = bad
    with pytest.raises(ValueError, match="finite"):
        validate(t)


class TestCodeLengthFixture:
    def test_four_letter_code_average(self):
        # explicit map A->1, B->01, C->010, D->011
        lengths = [len(c) for c in ("1", "01", "010", "011")]
        avg = average_code_length([0.75, 0.125, 0.0625, 0.0625], lengths)
        assert avg == pytest.approx(11 / 8, abs=1e-15)


class TestRelativeEntropy:
    def test_identical(self, rng):
        p = random_dist(4, rng)
        assert relative_entropy(p, p) == pytest.approx(0.0, abs=ATOL)

    def test_point_mass_versus_uniform(self):
        assert relative_entropy([1.0, 0.0], [0.5, 0.5]) == pytest.approx(1.0, abs=ATOL)

    def test_support_violation_is_infinite(self):
        assert relative_entropy([0.5, 0.5], [1.0, 0.0]) == math.inf

    def test_nonnegative(self, rng):
        for _ in range(100):
            p = random_dist(3, rng)
            q = random_dist(3, rng)
            assert relative_entropy(p, q) >= -ATOL


class TestJointFamily:
    def test_independent_uniform_bits(self):
        j = np.full((2, 2), 0.25)
        assert joint_entropy(j) == pytest.approx(2.0, abs=ATOL)
        assert conditional_entropy(j, given=1) == pytest.approx(1.0, abs=ATOL)
        assert mutual_information(j) == pytest.approx(0.0, abs=ATOL)

    def test_perfectly_correlated(self):
        j = np.diag([0.5, 0.5])
        assert joint_entropy(j) == pytest.approx(1.0, abs=ATOL)
        assert mutual_information(j) == pytest.approx(1.0, abs=ATOL)

    def test_identities_hold(self, rng):
        for _ in range(50):
            j = random_joint((3, 4), rng)
            hx = shannon_entropy(marginal(j, (0,)).ravel())
            hy = shannon_entropy(marginal(j, (1,)).ravel())
            hxy = joint_entropy(j)
            assert conditional_entropy(j, given=1) == pytest.approx(hxy - hy, abs=ATOL)
            assert mutual_information(j) == pytest.approx(hx + hy - hxy, abs=ATOL)
            assert mutual_information(j) == pytest.approx(
                mutual_information(j, (1,), (0,)), abs=ATOL)

    def test_axis_out_of_range(self):
        with pytest.raises(ValueError):
            conditional_entropy(np.full((2, 2), 0.25), given=2)


class TestXorCounterexample:
    def test_mutual_information_not_subadditive(self):
        # X, Y independent uniform bits, Z = X xor Y
        j = np.zeros((2, 2, 2))
        for x in range(2):
            for y in range(2):
                j[x, y, x ^ y] = 0.25
        assert mutual_information(j, (0, 1), (2,)) == pytest.approx(1.0, abs=ATOL)
        total = mutual_information(j, (0,), (2,)) + mutual_information(j, (1,), (2,))
        assert total == pytest.approx(0.0, abs=ATOL)

    def test_mutual_information_not_superadditive(self):
        # X1 uniform, X2 = Y1 = Y2 = X1: variables (X1, X2, Y1, Y2)
        j = np.zeros((2, 2, 2, 2))
        j[0, 0, 0, 0] = 0.5
        j[1, 1, 1, 1] = 0.5
        per_pair = (mutual_information(j, (0,), (2,))
                    + mutual_information(j, (1,), (3,)))
        assert per_pair == pytest.approx(2.0, abs=ATOL)
        assert mutual_information(j, (0, 1), (2, 3)) == pytest.approx(1.0, abs=ATOL)


class TestFano:
    def test_zero_error(self):
        assert fano_bound(0.0, 4) == 0.0

    def test_direct_formula(self):
        expected = binary_entropy(0.25) + 0.25 * math.log2(3)
        assert fano_bound(0.25, 4) == pytest.approx(expected, abs=ATOL)
        assert fano_bound(0.25, 4) == pytest.approx(1.2075187496394219, abs=1e-12)

    def test_bounds_conditional_entropy(self, rng):
        # exhaustive best-guess oracle on random small joints
        for _ in range(60):
            j = random_joint((3, 3), rng)
            hxy, p_err = best_guess_conditional_entropy(j)
            assert hxy <= fano_bound(p_err, 3) + 1e-9

    def test_small_alphabet_rejected(self):
        with pytest.raises(ValueError):
            fano_bound(0.1, 1)


class TestBinaryEntropy:
    def test_endpoints_and_max(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == pytest.approx(1.0, abs=ATOL)

    def test_value_at_011(self):
        expected = -(0.11 * math.log2(0.11) + 0.89 * math.log2(0.89))
        assert binary_entropy(0.11) == pytest.approx(expected, abs=1e-15)

    def test_symmetry(self, rng):
        for _ in range(25):
            p = float(rng.random())
            assert binary_entropy(p) == pytest.approx(binary_entropy(1 - p), abs=ATOL)


class TestMarkov:
    def test_deterministic_chain(self):
        eye = np.eye(2)
        j = markov_joint([0.5, 0.5], eye, eye)
        assert j[0, 0, 0] == pytest.approx(0.5)
        assert j[1, 1, 1] == pytest.approx(0.5)
        assert j.sum() == pytest.approx(1.0)

    def test_double_bsc_flip_probability(self):
        f = 0.2
        bsc = np.array([[1 - f, f], [f, 1 - f]])
        j = markov_joint([0.5, 0.5], bsc, bsc)
        p_flip = j[0, :, 1].sum() + j[1, :, 0].sum()
        assert p_flip == pytest.approx(2 * f * (1 - f), abs=ATOL)

    def test_marginals_consistent(self, rng):
        px = random_dist(3, rng)
        t1 = np.stack([random_dist(2, rng) for _ in range(3)])
        t2 = np.stack([random_dist(4, rng) for _ in range(2)])
        j = markov_joint(px, t1, t2)
        assert np.allclose(marginal(j, (0,)), px)
        assert np.allclose(marginal(j, (0, 1)), px[:, None] * t1)


class TestShannonProperties:
    """The nine basic properties, randomised over small joints."""

    def _joints(self, rng, count=60):
        for _ in range(count):
            shape = tuple(int(rng.integers(2, 5)) for _ in range(3))
            yield random_joint(shape, rng)

    def test_p1_symmetry(self, rng):
        for j in self._joints(rng):
            assert joint_entropy(j) == pytest.approx(
                joint_entropy(np.transpose(j, (1, 0, 2))), abs=ATOL)
            assert mutual_information(j, (0,), (1,)) == pytest.approx(
                mutual_information(j, (1,), (0,)), abs=ATOL)

    def test_p2_conditional_nonneg_and_function_equality(self, rng):
        for j in self._joints(rng):
            assert conditional_entropy(j, given=0) >= -ATOL
            hy = shannon_entropy(marginal(j, (1,)).ravel())
            assert mutual_information(j, (0,), (1,)) <= hy + ATOL
        # equality when Y = f(X)
        px = random_dist(3, rng)
        f_map = np.zeros((3, 3))
        for x, y in enumerate((2, 0, 2)):
            f_map[x, y] = 1.0
        j = px[:, None] * f_map
        hy = shannon_entropy(marginal(j, (1,)).ravel())
        assert mutual_information(j) == pytest.approx(hy, abs=ATOL)

    def test_p3_joint_dominates_marginal(self, rng):
        for j in self._joints(rng):
            assert shannon_entropy(marginal(j, (0,)).ravel()) <= joint_entropy(
                marginal(j, (0, 1))) + ATOL

    def test_p4_subadditivity(self, rng):
        for j in self._joints(rng):
            m = marginal(j, (0, 1))
            hx = shannon_entropy(m.sum(axis=1))
            hy = shannon_entropy(m.sum(axis=0))
            assert joint_entropy(m) <= hx + hy + ATOL
        # equality on product joints
        p, q = random_dist(3, rng), random_dist(4, rng)
        prod = np.outer(p, q)
        assert joint_entropy(prod) == pytest.approx(
            shannon_entropy(p) + shannon_entropy(q), abs=ATOL)

    def test_p5_conditioning_below_marginal(self, rng):
        for j in self._joints(rng):
            m = marginal(j, (0, 1))
            assert conditional_entropy(m, given=0) <= shannon_entropy(m.sum(axis=0)) + ATOL
            assert mutual_information(m) >= -ATOL

    def test_p6_strong_subadditivity(self, rng):
        for j in self._joints(rng):
            lhs = joint_entropy(j) + shannon_entropy(marginal(j, (1,)).ravel())
            rhs = joint_entropy(marginal(j, (0, 1))) + joint_entropy(marginal(j, (1, 2)))
            assert lhs <= rhs + ATOL
        # equality exactly on Markov chains
        px = random_dist(3, rng)
        t1 = np.stack([random_dist(3, rng) for _ in range(3)])
        t2 = np.stack([random_dist(3, rng) for _ in range(3)])
        j = markov_joint(px, t1, t2)
        lhs = joint_entropy(j) + shannon_entropy(marginal(j, (1,)).ravel())
        rhs = joint_entropy(marginal(j, (0, 1))) + joint_entropy(marginal(j, (1, 2)))
        assert lhs == pytest.approx(rhs, abs=ATOL)

    def test_p7_conditioning_reduces_entropy(self, rng):
        for j in self._joints(rng):
            assert conditional_entropy(j, given=(1, 2)) <= conditional_entropy(
                marginal(j, (0, 1)), given=1) + ATOL

    def test_p8_chaining(self, rng):
        for j in self._joints(rng):
            # H(X1, X2 | Y) = H(X2 | Y, X1) + H(X1 | Y), with Y = axis 2
            lhs = conditional_entropy(j, given=2)
            rhs = conditional_entropy(j, given=(2, 0)) + conditional_entropy(
                marginal(j, (0, 2)), given=1)
            assert lhs == pytest.approx(rhs, abs=ATOL)

    def test_p9_concavity(self, rng):
        for _ in range(60):
            k = int(rng.integers(2, 5))
            weights = random_dist(3, rng)
            dists = [random_dist(k, rng) for _ in range(3)]
            mixed = sum(w * d for w, d in zip(weights, dists))
            avg = sum(w * shannon_entropy(d) for w, d in zip(weights, dists))
            assert shannon_entropy(mixed) >= avg - ATOL
        # equality iff the components coincide
        p = random_dist(4, rng)
        assert shannon_entropy(0.3 * p + 0.7 * p) == pytest.approx(
            shannon_entropy(p), abs=ATOL)


class TestDataProcessing:
    def test_inequality_chain(self, rng):
        for _ in range(60):
            px = random_dist(3, rng)
            t1 = np.stack([random_dist(3, rng) for _ in range(3)])
            t2 = np.stack([random_dist(3, rng) for _ in range(3)])
            j = markov_joint(px, t1, t2)
            hx = shannon_entropy(px)
            ixy = mutual_information(j, (0,), (1,))
            ixz = mutual_information(j, (0,), (2,))
            assert hx >= ixy - ATOL
            assert ixy >= ixz - ATOL

    def test_pipelining(self, rng):
        for _ in range(60):
            px = random_dist(2, rng)
            t1 = np.stack([random_dist(3, rng) for _ in range(2)])
            t2 = np.stack([random_dist(2, rng) for _ in range(3)])
            j = markov_joint(px, t1, t2)
            izy = mutual_information(j, (2,), (1,))
            izx = mutual_information(j, (2,), (0,))
            assert izy >= izx - ATOL
