import collections
import math
import operator
from functools import reduce
from itertools import combinations_with_replacement, product

import numpy as np
import pytest

from oracles import block_state, dense_schumacher_fidelity
from qinfo.entropy import shannon_entropy
from qinfo.qentropy import von_neumann_entropy
from qinfo.states import DensityMatrix, dag, random_unitary
from qinfo.typical import (
    ENUMERATION_CAP_BITS,
    QUANTUM_DIM_CAP,
    CapacityError,
    QuantumSourceModel,
    ShannonScheme,
    SourceModel,
    _class_groups,
    _class_table,
    _eigen_source,
    _typical_table,
    is_typical,
    multinomial_count,
    schumacher_compress,
    schumacher_fidelity,
    schumacher_summary,
    schumacher_sweep,
    sequence_prob,
    shannon_scheme,
    shannon_sweep,
    typical_set,
    typical_set_mass,
    typical_subspace_projector,
)

SKEWED = (0.75, 0.25)


def within_fsum_bound(got: float, reference: float, n: int) -> bool:
    """|got - reference| <= n 2^-53 reference: a class sum against its members' fsum.

    The members of one type class multiply the same factors in different
    orders, so each product may differ from the class's in its last bits; n
    rounding steps bound that.
    """
    return abs(got - reference) <= n * 2.0 ** -53 * reference


def diag_source(n: int, eps: float) -> QuantumSourceModel:
    return QuantumSourceModel(DensityMatrix(np.diag(SKEWED).astype(complex)), n, eps)


class TestTypicality:
    def test_fair_coin_every_sequence_typical(self):
        m = SourceModel((0.5, 0.5), 6, 1e-9)
        assert all(is_typical(seq, m) for seq in product((0, 1), repeat=6))

    def test_boundary_sequence_exactly_typical(self):
        # surprisal of AAAB under (3/4, 1/4) at n=4 equals H exactly
        m = SourceModel(SKEWED, 4, 1e-12)
        assert is_typical((0, 0, 0, 1), m)

    def test_all_ones_not_typical(self):
        m = SourceModel(SKEWED, 4, 0.5)
        # per-symbol surprisal 2 bits, |2 - 0.811| > 0.5
        assert not is_typical((1, 1, 1, 1), m)

    def test_zero_probability_symbol_never_typical(self):
        m = SourceModel((1.0, 0.0), 3, 100.0)
        assert not is_typical((0, 1, 0), m)
        assert is_typical((0, 0, 0), m)

    def test_alphabet_violation(self):
        with pytest.raises(ValueError):
            is_typical((0, 2), SourceModel(SKEWED, 2, 0.1))

    @pytest.mark.parametrize("seq", [[0.9, 0, 0, 1], [0, 0, 0, 1.0], [0, 0, 0, np.float64(1)]],
                             ids=["fraction", "integral-float", "numpy-float"])
    def test_non_integer_symbol_rejected(self, seq):
        with pytest.raises(ValueError, match="outside the alphabet"):
            is_typical(seq, SourceModel(SKEWED, 4, 0.3))

    def test_bool_is_never_a_symbol(self):
        m = SourceModel((0.5, 0.5), 2, 0.1)
        with pytest.raises(ValueError, match="outside the alphabet"):
            is_typical((True, False), m)
        s = shannon_scheme(m, 1.0)
        assert s.compress((1, 0)) > 0
        assert s.compress((True, False)) == 0
        assert s.compress(np.array([True, False])) == 0

    def test_numpy_integer_symbols(self):
        m = SourceModel(SKEWED, 4, 1e-12)
        assert is_typical(np.array([0, 0, 0, 1]), m)
        assert is_typical([np.uint8(0), np.int16(0), 0, np.int64(1)], m)
        assert not is_typical(np.array([1, 1, 1, 1]), m)


class TestBlockLength:
    @pytest.mark.parametrize("n", [4.5, 4.0, np.float64(4), True, "4"],
                             ids=["fraction", "integral-float", "numpy-float", "bool", "str"])
    def test_non_integer_rejected(self, n):
        with pytest.raises(ValueError, match="block length must be an integer"):
            SourceModel(SKEWED, n, 0.3)
        with pytest.raises(ValueError, match="block length must be an integer"):
            diag_source(n, 0.3)

    def test_numpy_integer_accepted(self):
        assert len(typical_set(SourceModel(SKEWED, np.int64(4), 0.3))) == 4
        assert np.trace(typical_subspace_projector(diag_source(np.int32(4), 0.3))).real == \
            pytest.approx(4.0)

    @pytest.mark.parametrize("n", [10 ** 12, 10 ** 400], ids=["1e12", "401-digit"])
    def test_huge_block_fails_on_the_cap_without_building_its_size(self, n):
        # the caps compare n first, so neither d^n nor a float of n is built
        m = SourceModel(SKEWED, n, 0.3)
        for call in (typical_set, lambda m: shannon_scheme(m, 1.0)):
            with pytest.raises(ValueError, match="above the size cap"):
                call(m)
        for call in (typical_subspace_projector, schumacher_summary):
            with pytest.raises(ValueError, match="above the dimension cap"):
                call(diag_source(n, 0.3))


class TestTypicalSet:
    def test_uniform_source_gives_everything(self):
        m = SourceModel((0.5, 0.5), 5, 0.01)
        assert len(typical_set(m)) == 32

    @pytest.mark.parametrize("probs,n,eps", [
        (SKEWED, 8, 0.2),
        ((0.5, 0.3, 0.2), 6, 0.15),
        ((0.7, 0.0, 0.3), 5, 0.4),
        (SKEWED, 4, 1e-12),                   # AAAB-type classes sit exactly on H
    ], ids=["binary", "ternary", "zero-symbol", "boundary"])
    def test_agrees_with_membership_pointwise(self, probs, n, eps):
        m = SourceModel(probs, n, eps)
        found = typical_set(m)
        members = set(found)
        assert found == sorted(members)       # lexicographic, no repeats
        for seq in product(range(len(probs)), repeat=n):
            assert (seq in members) == is_typical(seq, m)

    def test_size_respects_counting_bound(self):
        m = SourceModel(SKEWED, 8, 0.2)
        assert len(typical_set(m)) <= 2 ** (8 * (m.entropy + 0.2))

    def test_mass_grows_with_block_length(self):
        masses = [typical_set_mass(SourceModel(SKEWED, n, 0.3)) for n in (4, 8, 12)]
        assert masses[0] < masses[1] < masses[2]

    def test_size_cap(self):
        with pytest.raises(ValueError):
            typical_set(SourceModel((0.5, 0.5), 30, 0.1))

    def test_one_symbol_source_is_capped_like_two(self):
        n = ENUMERATION_CAP_BITS
        one = DensityMatrix(np.ones((1, 1)))
        assert typical_set(SourceModel((1.0,), n, 0.3)) == [(0,) * n]
        assert shannon_scheme(SourceModel((1.0,), n, 0.3), 1.0).set_size == 1
        assert schumacher_summary(QuantumSourceModel(one, n, 0.3)) == (1, 1.0, 1.0)
        assert typical_subspace_projector(QuantumSourceModel(one, n, 0.3)).tolist() == [[1]]
        over = SourceModel((1.0,), n + 1, 0.3)
        for build in (typical_set, lambda m: shannon_scheme(m, 1.0)):
            with pytest.raises(ValueError, match="above the size cap"):
                build(over)
        for build in (schumacher_summary, typical_subspace_projector):
            with pytest.raises(ValueError, match="above the size cap"):
                build(QuantumSourceModel(one, n + 1, 0.3))

    def test_entropy_is_computed_once_and_stays_out_of_equality(self):
        m = SourceModel((0.5, 0.25, 0.25), 4, 0.3)
        assert m.entropy is m.entropy and m.entropy == 1.5
        fresh = SourceModel((0.5, 0.25, 0.25), 4, 0.3)
        assert m == fresh and hash(m) == hash(fresh)

    @pytest.mark.parametrize("probs", [(0.5, 0.0, 0.5), (0.75, 0.25 + 1e-13, -1e-13)],
                             ids=["zero", "negative-dust"])
    def test_entropy_equals_shannon_entropy(self, probs):
        assert SourceModel(probs, 4, 0.3).entropy == shannon_entropy(probs)


class TestMultinomialCount:
    def test_exact_binomial_at_n4(self):
        exact, approx = multinomial_count(SourceModel((0.5, 0.5), 4, 0.1))
        assert exact == 6
        assert approx == pytest.approx(16.0)

    def test_log_ratio_tightens_at_n64(self):
        exact, _ = multinomial_count(SourceModel((0.5, 0.5), 64, 0.1))
        assert exact == math.comb(64, 32)
        assert math.log2(exact) == pytest.approx(60.6686166, abs=1e-6)
        assert math.log2(exact) / 64 > 0.94
        exact32, _ = multinomial_count(SourceModel((0.5, 0.5), 32, 0.1))
        assert math.log2(exact) / 64 > math.log2(exact32) / 32

    def test_three_letter_composition(self):
        exact, _ = multinomial_count(SourceModel((0.5, 0.25, 0.25), 8, 0.1))
        assert exact == math.factorial(8) // (
            math.factorial(4) * math.factorial(2) * math.factorial(2))
        assert exact == 420

    def test_non_integral_composition_rejected(self):
        with pytest.raises(ValueError):
            multinomial_count(SourceModel((1 / 3, 1 / 3, 1 / 3), 4, 0.1))


class TestShannonScheme:
    def test_deterministic_source(self):
        m = SourceModel((1.0, 0.0), 4, 0.5)
        s = shannon_scheme(m, 0.5)
        assert s.reliability == pytest.approx(1.0)

    def test_round_trip_exactly_on_included_set(self):
        m = SourceModel(SKEWED, 8, 0.25)
        for rate in (0.95, 0.5):   # the whole typical set, then a trimmed one
            s = shannon_scheme(m, rate)
            # nothing is listed until compress, decompress or included asks for it
            assert "included" not in vars(s) and "_to_index" not in vars(s)
            assert s.decompress(1) == s.included[0]
            included = set(s.included)
            assert len(included) == min(s.set_size, (1 << s.index_bits) - 1)
            if rate == 0.95:
                assert s.included == typical_set(m)
            for seq in product((0, 1), repeat=8):
                idx = s.compress(seq)
                if seq in included:
                    assert s.decompress(idx) == seq
                else:
                    assert idx == 0 and s.decompress(idx) is None

    def test_decompress_numpy_and_out_of_range_integers(self):
        # bool and float indices are in test_check's integer table
        s = shannon_scheme(SourceModel(SKEWED, 4, 0.3), 1.0)
        size = len(s.included)
        for index in (1, np.int64(1), np.uint8(size), size):
            assert s.decompress(index) == s.included[int(index) - 1]
        for index in (0, -1, np.int64(-5), size + 1, 2 ** 70):
            assert s.decompress(index) is None

    def test_non_integer_symbols_compress_to_failure(self):
        s = shannon_scheme(SourceModel(SKEWED, 4, 0.3), 1.0)
        idx = s.compress((0, 0, 0, 1))
        assert idx > 0 and s.decompress(idx) == (0, 0, 0, 1)
        assert s.compress(np.array([0, 0, 0, 1])) == idx
        assert s.compress(x for x in (0, 0, 0, np.int64(1))) == idx
        assert s.compress([0.9, 0, 0, 1.7]) == 0
        assert s.compress([0, 0, 0, 1.0]) == 0
        assert s.compress(np.array([0.0, 0.0, 0.0, 1.0])) == 0

    def test_high_rate_is_reliable(self):
        s = shannon_scheme(SourceModel(SKEWED, 12, 0.3), 0.95)
        assert s.reliability > 0.8

    def test_low_rate_degrades_and_worsens_with_n(self):
        r12 = shannon_scheme(SourceModel(SKEWED, 12, 0.3), 0.5).reliability
        r16 = shannon_scheme(SourceModel(SKEWED, 16, 0.3), 0.5).reliability
        assert r12 < 0.5
        assert r16 < r12

    # Binary (3/4, 1/4) masses are dyadic, so every product and sum is exact;
    # the ternary products are not, and the bound pins how far they may drift.
    @pytest.mark.parametrize("probs,n,rate", [
        (SKEWED, 8, 0.95), (SKEWED, 8, 0.5), ((0.5, 0.3, 0.2), 7, 1.3),
    ], ids=["sized", "undersized", "ternary-undersized"])
    def test_reliability_is_exact_mass(self, probs, n, rate):
        s = shannon_scheme(SourceModel(probs, n, 0.25), rate)
        member_mass = math.fsum(sequence_prob(seq, probs) for seq in s.included)
        assert within_fsum_bound(s.reliability, member_mass, n)

    # The scheme sums count times probability over type classes; typical_set
    # and typical_set_mass list and sum member by member.  The sizes agree
    # exactly and the masses within the fsum bound, on both rate paths.  The
    # first rate of each pair indexes the whole typical set; the second trims
    # it in every family from n = 4 on.
    @pytest.mark.parametrize("probs,n,eps,rates", [
        pytest.param(probs, n, eps, rates, id=f"{name}-n{n}")
        for name, probs, eps, rates, top in [
            ("binary", SKEWED, 0.3, (1.0, 0.7), 18),
            ("ternary", (0.5, 0.3, 0.2), 0.3, (1.75, 1.3), 11),
            ("zero-symbol", (0.7, 0.0, 0.3), 0.4, (1.2, 0.5), 9),
        ] for n in range(1, top + 1)])
    def test_table_sums_equal_the_member_sums(self, probs, n, eps, rates):
        m = SourceModel(probs, n, eps)
        size, mass = len(typical_set(m)), typical_set_mass(m)
        schemes = [shannon_scheme(m, rate) for rate in rates if rate * n >= 1.0]
        for s in schemes:
            assert s.set_size == size and within_fsum_bound(s.set_mass, mass, n)
        assert schemes[0].reliability == schemes[0].set_mass
        if n >= 4:
            assert len(schemes[1].included) < size and schemes[1].reliability < mass

    @pytest.mark.parametrize("a", [2, 3, 4])
    def test_class_sizes_equal_the_table_at_every_n_below_the_cap(self, a, rng):
        # the full table's flag count is len(typical_set(m)) without listing it
        n = 1
        while a ** n < 2 ** ENUMERATION_CAP_BITS:
            probs = tuple(float(p) for p in rng.dirichlet(np.ones(a)))
            m = SourceModel(probs, n, float(rng.uniform(0.05, 0.5)))
            mask, prob = _typical_table(m)
            s = shannon_scheme(m, math.log2(a) + 1 / n)   # indexes the whole set
            assert s.set_size == int(mask.sum()), (probs, n)
            assert within_fsum_bound(s.set_mass, math.fsum(prob[mask].tolist()), n)
            n += 1

    def test_sequence_prob_equals_the_running_product(self, rng):
        for _ in range(5000):
            a = int(rng.integers(1, 5))
            probs = tuple(float(p) for p in rng.dirichlet(np.ones(a)))
            seq = tuple(int(s) for s in rng.integers(0, a, int(rng.integers(0, 13))))
            expected = 1.0
            for s in seq:
                expected *= np.asarray(probs)[s]
            got = sequence_prob(seq, probs)
            assert type(got) is float and got == expected
        assert type(sequence_prob((), SKEWED)) is float

    def test_overflow_at_high_rate_reported(self):
        # huge epsilon floods the typical set past the index budget
        with pytest.raises(CapacityError):
            shannon_scheme(SourceModel(SKEWED, 6, 5.0), 0.9)


class TestClassTable:
    # Each row against its sorted member, in the order that
    # combinations_with_replacement lists the sorted members: lexicographic.
    # Above TABLE_LIMIT the a^n table takes up to half a gigabyte, so the
    # scalar loops that each of its entries equals stand in for it.
    TABLE_LIMIT = 2 ** 20

    @staticmethod
    def boundary_epsilon(members, m, rng) -> float:
        """The deviation |surprisal/n - H| of a random member, summed from the
        left in Python, so that member's flag turns on the surprisal's last bit."""
        deviations = []
        for member in members:
            total = 0.0
            for s in member:
                total += -math.log2(m.probs[s]) if m.probs[s] > 0 else math.inf
            deviations.append(abs(total / m.block_length - m.entropy))
        deviations = [d for d in deviations if 0 < d < math.inf]
        return float(rng.choice(deviations)) if deviations else float(rng.uniform(0.05, 0.5))

    @pytest.mark.parametrize("a", [1, 2, 3, 4, 5])
    def test_rows_equal_their_sorted_members_at_every_n_up_to_the_cap(self, a, rng):
        n = 1
        while n * math.log2(max(a, 2)) <= ENUMERATION_CAP_BITS:
            for zero in [False, True][:a]:   # one model with a zero-probability symbol
                probs = rng.dirichlet(np.ones(a))
                if zero:
                    probs[rng.integers(a)] = 0.0
                    probs /= probs.sum()
                members = list(combinations_with_replacement(range(a), n))
                m = SourceModel(tuple(probs.tolist()), n, 0.3)
                m = SourceModel(m.probs, n, self.boundary_epsilon(members, m, rng))
                weights = rng.random((2, a))
                typical, count, prob, *products = _class_table(m, *weights)
                assert members == sorted(members) and len(count) == len(members)
                if a ** n <= self.TABLE_LIMIT:
                    mask, table = _typical_table(m)
                    index = [reduce(lambda i, s: i * a + s, member, 0) for member in members]
                    assert typical.tolist() == mask[index].tolist()
                    assert prob.tolist() == table[index].tolist()
                else:
                    assert typical.tolist() == [is_typical(member, m) for member in members]
                    assert prob.tolist() == [sequence_prob(member, m.probs) for member in members]
                for w, got in zip(weights.tolist(), products, strict=True):
                    assert got.tolist() == [
                        reduce(operator.mul, [w[s] for s in member], 1.0) for member in members]
                assert count.tolist() == [
                    math.factorial(n) // math.prod(math.factorial(member.count(s)) for s in range(a))
                    for member in members]
            n += 1
        with pytest.raises(ValueError, match="size cap"):
            _class_table(SourceModel(m.probs, n, 0.3))


class TestTypicalSubspace:
    def test_pure_source_rank_one(self):
        q = QuantumSourceModel(DensityMatrix.pure(np.array([1, 0])), 3, 0.5)
        p = typical_subspace_projector(q)
        assert np.trace(p).real == pytest.approx(1.0)
        assert np.trace(p @ block_state(q)).real == pytest.approx(1.0)

    def test_projector_properties(self):
        q = diag_source(4, 0.2)
        p = typical_subspace_projector(q)
        assert np.max(np.abs(p @ p - p)) < 1e-7
        assert np.max(np.abs(p - dag(p))) < 1e-9

    def test_trace_grows_with_n(self):
        t4 = np.trace(typical_subspace_projector(diag_source(4, 0.2)) @ block_state(diag_source(4, 0.2))).real
        t8 = np.trace(typical_subspace_projector(diag_source(8, 0.2)) @ block_state(diag_source(8, 0.2))).real
        assert t8 > t4

    def test_rank_matches_classical_set_and_mass(self):
        for n in (4, 6):
            q = diag_source(n, 0.2)
            cls = SourceModel(SKEWED, n, 0.2)
            p = typical_subspace_projector(q)
            assert round(np.trace(p).real) == len(typical_set(cls))
            assert np.trace(p @ block_state(q)).real == pytest.approx(
                typical_set_mass(cls), abs=1e-9)

    def test_basis_independence(self, rng):
        # conjugating the source must conjugate the projector
        u = random_unitary(2, rng)
        rho = DensityMatrix(u @ np.diag(SKEWED).astype(complex) @ dag(u))
        q = QuantumSourceModel(rho, 3, 0.2)
        p = typical_subspace_projector(q)
        p_diag = typical_subspace_projector(diag_source(3, 0.2))
        un = np.kron(np.kron(u, u), u)
        assert np.max(np.abs(p - un @ p_diag @ dag(un))) < 1e-7

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            typical_subspace_projector(diag_source(9, 0.2))


class TestSchumacher:
    def test_output_is_valid_state(self):
        q = diag_source(4, 0.2)
        out = schumacher_compress(q, DensityMatrix(block_state(q)))
        assert abs(np.trace(out.mat) - 1) < 1e-9

    def test_pure_source_perfect_fidelity(self):
        q = QuantumSourceModel(DensityMatrix.pure(np.array([1, 0])), 1, 0.5)
        assert schumacher_fidelity(q) == pytest.approx(1.0, abs=1e-9)

    def test_fidelity_improves_with_n(self):
        f4 = schumacher_fidelity(diag_source(4, 0.2))
        f8 = schumacher_fidelity(diag_source(8, 0.2))
        assert f8 > f4

    def test_undersized_rank_keeps_fidelity_away_from_one(self):
        # a rate below S(rho) = 1 forces rank 2^(nR) < 2^n on the mixed source
        rho = DensityMatrix.maximally_mixed(2)
        q = QuantumSourceModel(rho, 6, 0.1)
        rank = 2 ** 3                    # rate 1/2
        fid = schumacher_fidelity(q, max_rank=rank)
        kept = rank / 2 ** 6
        assert fid < kept + 0.05
        assert fid < 0.25

    @pytest.mark.parametrize("d,n_max", [(2, 8), (3, 5), (4, 4)])
    @pytest.mark.parametrize("capped", [False, True])
    def test_summary_matches_dense_projector_and_oracle(self, d, n_max, capped, rng):
        # the eigen-table closed form against rho^(x n), P and the per-block loop
        for n in range(1, n_max + 1):
            u = random_unitary(d, rng)
            w = rng.dirichlet(np.ones(d))
            rho = DensityMatrix(u @ np.diag(w).astype(complex) @ dag(u))
            q = QuantumSourceModel(rho, n, float(rng.uniform(0.05, 0.6)))
            rho_n = block_state(q)
            v, model = _eigen_source(q)
            kept, lam = _typical_table(model)
            if capped:
                max_rank = int(rng.integers(0, d ** n + 2))
                kept = np.zeros_like(kept)
                kept[np.argsort(-lam, kind="stable")[:max_rank]] = True
                rank, mass, fid = schumacher_summary(q, max_rank)
                assert rank == min(max_rank, d ** n)
                top = np.sort(np.linalg.eigvalsh(rho_n))[::-1][:max_rank]
                assert abs(mass - top.sum()) < 1e-13
            else:
                rank, mass, fid = schumacher_summary(q)
                p = typical_subspace_projector(q)
                assert rank == round(np.trace(p).real)
                assert abs(mass - np.trace(p @ rho_n).real) < 1e-13
            assert abs(fid - dense_schumacher_fidelity(rho.mat, v, kept)) < 1e-13
            assert fid == schumacher_fidelity(q, max_rank if capped else None)

    @pytest.mark.parametrize("max_rank,kept", [
        (-1, None), (True, None), (1.5, None), (np.float64(2.0), None), (0, (0, 0.0)),
        (9, (8, pytest.approx(1.0))),   # above d^n = 8 keeps every block
    ])
    def test_max_rank_is_a_non_negative_integer(self, max_rank, kept):
        q = diag_source(3, 0.2)
        if kept is None:
            with pytest.raises(ValueError, match="max_rank"):
                schumacher_fidelity(q, max_rank=max_rank)
        else:
            assert schumacher_summary(q, max_rank)[:2] == kept

    def test_fidelity_against_von_neumann_rate(self):
        # S(rho) ~ 0.811 < 1, so typical compression keeps climbing with n
        f4, f8 = schumacher_fidelity(diag_source(4, 0.3)), schumacher_fidelity(diag_source(8, 0.3))
        assert f8 > f4 and f8 > 0.6
        assert von_neumann_entropy(DensityMatrix(np.diag(SKEWED).astype(complex))) < 1.0


def outcome(rows):
    """repr of rows(), which pins every bit and type, or the type and message of its error."""
    try:
        return repr(rows())
    except ValueError as exc:
        return type(exc), str(exc)


def scheme_numbers(probs, n, eps, rate) -> tuple[int, float, float]:
    s = ShannonScheme(SourceModel(probs, n, eps), rate)
    return s.set_size, s.set_mass, s.reliability


class TestSweeps:
    """A sweep's rows, and its first error, equal one scheme or summary per block
    length in order, bit for bit, though the sweep builds one grouped class table."""

    @staticmethod
    def random_probs(rng, a: int) -> tuple[float, ...]:
        probs = rng.dirichlet(np.ones(a))
        if a > 1 and rng.random() < 0.4:   # a zero-probability symbol
            probs[rng.integers(a)] = 0.0
            probs /= probs.sum()
        return tuple(probs.tolist())

    @staticmethod
    def random_blocks(rng, top: int) -> list[int]:
        """Unsorted lengths up to top, at times one repeated and one above the cap."""
        blocks = rng.integers(1, top + 1, int(rng.integers(1, 6))).tolist()
        if rng.random() < 0.5:
            blocks.append(blocks[int(rng.integers(len(blocks)))])
        if rng.random() < 0.2:
            blocks.insert(int(rng.integers(len(blocks) + 1)), top + 1)
        return blocks

    def test_random_shannon_sweeps_equal_one_scheme_per_length(self, rng):
        seen = collections.Counter()
        for _ in range(300):
            a = int(rng.integers(1, 5))
            probs = self.random_probs(rng, a)
            blocks = self.random_blocks(rng, int(ENUMERATION_CAP_BITS / math.log2(max(a, 2))))
            eps = float(rng.uniform(0.05, 0.6))
            entropy = SourceModel(probs, 1, eps).entropy
            # near H, to trim and overflow the index space; at times below 1 bit per block
            rate = (float(rng.uniform(0.6, 1.4)) * max(entropy, 0.2) if rng.random() < 0.8
                    else float(rng.uniform(0.05, 0.3)))
            expected = outcome(lambda: [scheme_numbers(probs, n, eps, rate) for n in blocks])
            assert outcome(lambda: shannon_sweep(probs, blocks, eps, rate)) == expected, (
                probs, blocks, eps, rate)
            seen[expected[0].__name__ if isinstance(expected, tuple) else "rows"] += 1
            seen["size cap"] += "above the size cap" in str(expected)
            seen["rate"] += "rate times block length" in str(expected)
        assert seen["rows"] >= 100 and seen["CapacityError"] >= 10, seen
        assert seen["size cap"] >= 10 and seen["rate"] >= 10, seen

    def test_random_schumacher_sweeps_equal_one_summary_per_length(self, rng):
        seen = collections.Counter()
        for _ in range(150):
            d = int(rng.integers(1, 4))
            u = random_unitary(d, rng)
            w = np.asarray(self.random_probs(rng, d))
            rho = DensityMatrix(u @ np.diag(w).astype(complex) @ dag(u))
            top = 24 if d == 1 else int(math.log(QUANTUM_DIM_CAP, d) + 1e-9)
            blocks = self.random_blocks(rng, top)
            eps = float(rng.uniform(0.05, 0.6))
            expected = outcome(lambda: [schumacher_summary(QuantumSourceModel(rho, n, eps))
                                        for n in blocks])
            assert outcome(lambda: schumacher_sweep(rho, blocks, eps)) == expected, (
                d, blocks, eps)
            seen["rows" if isinstance(expected, str) else "error"] += 1
        assert seen["rows"] >= 100 and seen["error"] >= 10, seen

    @pytest.mark.parametrize("blocks,rate,fragment", [
        ([6, 30], 0.1, "rate times block length must be at least 1 bit"),
        ([30, 6], 0.1, "typical set enumeration above the size cap"),
        ([4, 8, 30], 0.85, "typical set (92) exceeds 63 indices at rate 0.85 > H"),
        ([4, 30, 8], 0.85, "typical set enumeration above the size cap"),
    ], ids=["rate-before-a-later-cap", "cap-first", "capacity", "cap-before-a-later-capacity"])
    def test_first_error_of_the_per_length_loop(self, blocks, rate, fragment):
        expected = outcome(lambda: [scheme_numbers(SKEWED, n, 0.3, rate) for n in blocks])
        assert expected[1] == fragment
        assert outcome(lambda: shannon_sweep(SKEWED, blocks, 0.3, rate)) == expected

    @pytest.mark.parametrize("blocks", [[], ()], ids=["list", "tuple"])
    def test_empty_blocks_rejected_by_name(self, blocks):
        with pytest.raises(ValueError, match=r"^len\(blocks\) must be >= 1"):
            shannon_sweep(SKEWED, blocks, 0.3, 1.0)
        with pytest.raises(ValueError, match=r"^len\(blocks\) must be >= 1"):
            schumacher_sweep(np.diag(SKEWED).astype(complex), blocks, 0.3)

    @pytest.mark.parametrize("a", [1, 2, 3, 4])
    def test_each_group_equals_the_class_table_of_its_length(self, a, rng):
        m = SourceModel(self.random_probs(rng, a), 1, 0.3)
        blocks = [5, 2, 5, 1, 7, 30]   # the last is above the cap
        weights = rng.random((2, a))
        failure, group, starts, *table = _class_groups(m, blocks, *weights)
        assert "above the size cap" in str(failure)
        assert group.tolist() == sorted(group.tolist()) and starts.tolist() == [
            group.tolist().index(g) for g in range(len(blocks) - 1)]
        for g, n in enumerate(blocks[:-1]):
            expected = _class_table(SourceModel(m.probs, n, m.epsilon), *weights)
            for got, want in zip(table, expected, strict=True):
                assert got[group == g].tolist() == want.tolist()
