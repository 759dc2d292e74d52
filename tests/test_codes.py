import hashlib
import inspect
import itertools
from pathlib import Path

import numpy as np
import pytest

from qinfo import codes
from qinfo.codes import (
    CssCode,
    LinearCode,
    _coset_keys,
    _decode_rows,
    apply_bit_flips,
    apply_phase_flips,
    bits,
    bits_to_index,
    bits_to_str,
    canonical_coset_rep,
    code_bounds,
    coset_key,
    css_basis_state,
    css_code_bounds,
    css_construct,
    decode,
    dual_code,
    encode,
    gf2_mul,
    gf2_nullspace,
    gf2_rank,
    gf2_solve,
    hadamard_all,
    hamming_7_4,
    hamming_distance,
    in_sphere,
    index_to_bits,
    is_weakly_self_dual,
    parity_code,
    repetition_code,
    simplex_7_3,
    simulate_css_correction,
    steane_css,
    syndrome,
    syndrome_table,
)
from qinfo.entropy import binary_entropy
from qinfo.rng import stream

from oracles import nearest_codeword


class TestHammingGeometry:
    def test_zero_distance(self):
        assert hamming_distance("0000", "0000") == 0

    def test_counted_positions(self):
        assert hamming_distance("10110", "11010") == 2

    def test_sphere_membership(self):
        assert not in_sphere("000", "011", 1)
        assert in_sphere("000", "010", 1)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            hamming_distance("00", "000")

    @pytest.mark.parametrize("value", [[0.5, 1.7], [0.5], [-1], [2], [256], "0120", [1, np.nan]],
                             ids=["fractions", "half", "negative", "two", "byte-wrap", "string",
                                  "nan"])
    def test_bits_rejects_anything_but_0_and_1(self, value):
        with pytest.raises(ValueError, match="bits must be 0 or 1"):
            bits(value)
        with pytest.raises(ValueError, match="bits must be 0 or 1"):
            hamming_distance(value, [0] * len(value))

    def test_bits_accepts_exact_0_and_1_of_any_type(self):
        for value in ([0, 1, 1], [0.0, 1.0, 1.0], [False, True, True], "011",
                      np.array([0, 1, 1], dtype=np.int64)):
            b = bits(value)
            assert b.dtype == np.uint8 and b.tolist() == [0, 1, 1]


def per_bit_str(b) -> str:
    return "".join(str(int(x)) for x in b)


def per_bit_index(b) -> int:
    idx = 0
    for x in b:
        idx = (idx << 1) | int(x)
    return idx


def per_bit_bits(idx: int, n: int) -> np.ndarray:
    return np.array([(idx >> (n - 1 - i)) & 1 for i in range(n)], dtype=np.uint8)


class TestBitCodec:
    """The vectorised codec against the per-bit loops it replaced."""

    @pytest.mark.parametrize("make", [
        lambda r: r.integers(0, 2, 2560).astype(np.uint8),
        lambda r: r.integers(0, 2, 300).astype(bool),
        lambda r: r.integers(0, 2, 300).astype(np.int64),
        lambda r: hamming_7_4().generator[:, 2],
        lambda r: np.zeros(0, dtype=np.uint8),
    ], ids=["uint8", "bool", "int64", "generator-column", "empty"])
    def test_bits_to_str_matches_per_bit_join(self, rng, make):
        b = make(rng)
        assert bits_to_str(b) == per_bit_str(b)

    def test_generator_column_is_a_strided_view(self):
        assert not hamming_7_4().generator[:, 2].flags.c_contiguous

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 64, 100])
    def test_index_round_trips(self, rng, n):
        for b in [np.zeros(n, np.uint8), np.ones(n, np.uint8),
                  *rng.integers(0, 2, (50, n)).astype(np.uint8)]:
            idx = bits_to_index(b)
            assert type(idx) is int and idx == per_bit_index(b)
            back = index_to_bits(idx, n)
            assert back.dtype == np.uint8 and np.array_equal(back, b)
        assert bits_to_index(np.ones(n, np.uint8)) == 2 ** n - 1

    @pytest.mark.parametrize("n", range(0, 11))
    def test_every_index_matches_the_per_bit_forms(self, n):
        for idx in range(2 ** n):
            assert np.array_equal(index_to_bits(idx, n), per_bit_bits(idx, n))
            assert bits_to_index(per_bit_bits(idx, n)) == idx


class TestGf2:
    def test_rank_and_nullspace(self, rng):
        for _ in range(20):
            m = rng.integers(0, 2, size=(4, 6)).astype(np.uint8)
            ns = gf2_nullspace(m)
            assert gf2_rank(m) + ns.shape[0] == 6
            for row in ns:
                assert not np.any(gf2_mul(m, row))

    def test_solve(self, rng):
        g = hamming_7_4().generator
        for _ in range(10):
            msg = rng.integers(0, 2, size=4).astype(np.uint8)
            word = gf2_mul(g, msg)
            sol = gf2_solve(g, word)
            assert np.array_equal(sol, msg)
        assert gf2_solve(g, bits("1000000")) is None


class TestLinearCode:
    def test_hamming_parameters(self):
        c = hamming_7_4()
        assert (c.n, c.k, c.distance) == (7, 4, 3)
        assert not np.any(gf2_mul(c.parity_check, c.generator))

    def test_declared_distance_verified(self):
        with pytest.raises(ValueError):
            LinearCode(hamming_7_4().generator, distance=4)

    def test_encode_zero(self):
        assert not np.any(encode(hamming_7_4(), "0000"))

    def test_encode_first_generator_column(self):
        out = encode(hamming_7_4(), "1000")
        assert np.array_equal(out, hamming_7_4().generator[:, 0])
        assert np.array_equal(out, bits("1000011"))

    def test_every_codeword_has_zero_syndrome(self):
        c = hamming_7_4()
        for word in c.codewords():
            assert not np.any(syndrome(c, word))

    def test_syndrome_of_single_error_is_h_column(self):
        c = hamming_7_4()
        word = encode(c, "1011")
        for i in range(7):
            e = np.zeros(7, dtype=np.uint8)
            e[i] = 1
            assert np.array_equal(syndrome(c, word ^ e), c.parity_check[:, i])

    def test_syndrome_depends_only_on_error(self, rng):
        c = hamming_7_4()
        for _ in range(20):
            word = encode(c, rng.integers(0, 2, size=4).astype(np.uint8))
            e = rng.integers(0, 2, size=7).astype(np.uint8)
            assert np.array_equal(syndrome(c, word ^ e), syndrome(c, e))


class TestDecode:
    def test_clean_codeword(self):
        c = hamming_7_4()
        word = encode(c, "0110")
        out = decode(c, word, 1)
        assert np.array_equal(out[0], word)
        assert not np.any(out[1])

    def test_all_single_errors_exhaustive(self):
        c = hamming_7_4()
        for m in range(16):
            word = encode(c, index_to_bits(m, 4))
            for i in range(7):
                e = np.zeros(7, dtype=np.uint8)
                e[i] = 1
                out = decode(c, word ^ e, 1)
                assert out is not None
                assert np.array_equal(out[0], word)
                assert np.array_equal(out[1], e)

    def test_double_errors_never_correct(self):
        # a perfect code maps every syndrome to a weight <= 1 pattern, so a
        # double flip decodes to the wrong codeword (documented behaviour)
        c = hamming_7_4()
        word = encode(c, "1010")
        for i, j in itertools.combinations(range(7), 2):
            e = np.zeros(7, dtype=np.uint8)
            e[[i, j]] = 1
            out = decode(c, word ^ e, 1)
            assert out is None or not np.array_equal(out[0], word)

    def test_radius_limited_by_distance(self):
        with pytest.raises(ValueError):
            decode(hamming_7_4(), "0000000", 2)

    @pytest.mark.parametrize("t", [-1, 1.5, 1.0, "1", None],
                             ids=["negative", "fraction", "float-one", "string", "none"])
    def test_radius_must_be_a_non_negative_integer(self, t):
        c = repetition_code(5)   # d = 5, so 1.5 passes the radius check
        decode(c, "10000", 1)    # a float equal to a cached t must not hit the cache
        for call in (lambda: decode(c, "10000", t),
                     lambda: _decode_rows(c, np.zeros((1, 5), dtype=np.uint8), t)):
            with pytest.raises(ValueError, match="non-negative integer"):
                call()

    def test_numpy_integer_radius_accepted(self):
        assert decode(hamming_7_4(), "0100000", np.int64(1))[1].tolist() == [0, 1, 0, 0, 0, 0, 0]

    @pytest.mark.parametrize("c,t", [
        (repetition_code(3), 1), (repetition_code(5), 2), (parity_code(3), 0),
        (hamming_7_4(), 0), (hamming_7_4(), 1), (simplex_7_3(), 1),
    ], ids=["rep3-t1", "rep5-t2", "parity3-t0", "hamming-t0", "hamming-t1", "simplex-t1"])
    def test_every_word_matches_the_brute_force_oracle(self, c, t):
        words = np.array(list(itertools.product((0, 1), repeat=c.n)), dtype=np.uint8)
        fixed, found = _decode_rows(c, words, t)
        assert fixed.dtype == np.uint8
        for y, v, ok in zip(words, fixed, found):
            want = nearest_codeword(c.codewords(), y, t)
            out = decode(c, y, t)
            if want is None:
                assert out is None and not ok and not v.any()
            else:
                assert ok and np.array_equal(v, want[0])
                assert np.array_equal(out[0], want[0]) and np.array_equal(out[1], want[1])

    @pytest.mark.parametrize("c", [parity_code(4), repetition_code(4)], ids=["parity4", "rep4"])
    def test_oracle_breaks_ties_like_the_table(self, c):
        # past the correction radius the table's tie-break decides; both
        # must pick the lowest positions in combinations order
        table = syndrome_table(c, 2)
        for y in itertools.product((0, 1), repeat=4):
            y = np.array(y, dtype=np.uint8)
            assert np.array_equal(nearest_codeword(c.codewords(), y, 2)[1],
                                  table[syndrome(c, y).tobytes()])

    def test_failure_marker_when_syndrome_unexplained(self):
        # the [3,1] repetition code with t = 1 corrects everything, so use the
        # [3,2] parity code at t = 0: any error gives an unexplained syndrome
        c = parity_code(3)
        assert decode(c, "100", 0) is None

    def test_ties_broken_to_lowest_index(self):
        c = parity_code(3)   # d = 2: weight-1 syndromes collide
        table = syndrome_table(c, 1)
        e = table[syndrome(c, "100").tobytes()]
        assert np.array_equal(e, bits("100"))

    def test_decode_builds_its_table_once_per_radius(self, monkeypatch):
        built = []
        monkeypatch.setattr(codes, "syndrome_table",
                            lambda c, t: built.append(t) or syndrome_table(c, t))
        c = hamming_7_4()
        for word in ("1000000", "0000001", "1000000"):
            assert decode(c, word, 1)[0].sum() == 0
        assert built == [1]
        assert decode(c, "1000000", 0) is None
        assert built == [1, 0]

    def test_mutated_pattern_cannot_corrupt_the_next_decode(self):
        c = hamming_7_4()
        fixed, e = decode(c, "0100000", 1)
        fixed[:] = 1
        e[:] = 1
        fixed, e = decode(c, "0100000", 1)
        assert np.array_equal(e, bits("0100000"))
        assert np.array_equal(fixed, np.zeros(7, dtype=np.uint8))

    def test_stacked_decode_builds_its_table_once(self, monkeypatch):
        built = []
        monkeypatch.setattr(codes, "syndrome_table",
                            lambda c, t: built.append(t) or syndrome_table(c, t))
        for decode_first in (False, True):
            built.clear()
            s = steane_css()
            if decode_first:   # the one-row decode fills the table the stack reads
                assert decode(s.c1, "0000100", s.t)[1].tolist() == [0, 0, 0, 0, 1, 0, 0]
            words = s.c1.codewords() ^ np.eye(16, 7, dtype=np.uint8)
            for _ in range(2):
                fixed, found = _decode_rows(s.c1, words, s.t)
                assert found.all() and np.array_equal(fixed, s.c1.codewords())
            assert built == [1]

    @pytest.mark.parametrize("c1,t,fragment", [
        (hamming_7_4(), 2, "correction radius"),
        (repetition_code(66), 1, "n - k <= 64"),
    ], ids=["radius", "65-checks"])
    def test_stacked_decode_rejects_what_it_cannot_serve(self, c1, t, fragment):
        with pytest.raises(ValueError, match=fragment):
            _decode_rows(c1, np.zeros((1, c1.n), dtype=np.uint8), t)
        with pytest.raises(ValueError, match=fragment):
            decode(c1, np.zeros(c1.n, dtype=np.uint8), t)

    def test_round_trips_all_correctable_errors(self, rng):
        for c in (repetition_code(3), hamming_7_4(), simplex_7_3()):
            t = (c.distance - 1) // 2
            if t == 0:
                continue
            for _ in range(10):
                word = encode(c, rng.integers(0, 2, size=c.k).astype(np.uint8))
                weight = int(rng.integers(1, t + 1))
                pos = rng.choice(c.n, size=weight, replace=False)
                e = np.zeros(c.n, dtype=np.uint8)
                e[pos] = 1
                out = decode(c, word ^ e, t)
                assert np.array_equal(out[0], word)


class TestDuals:
    def test_repetition_dual_is_parity(self):
        d = dual_code(repetition_code(3))
        assert (d.n, d.k, d.distance) == (3, 2, 2)
        expected = {tuple(w) for w in parity_code(3).codewords()}
        assert {tuple(w) for w in d.codewords()} == expected

    def test_hamming_dual_is_simplex_and_contained(self):
        s = simplex_7_3()
        assert (s.n, s.k, s.distance) == (7, 3, 4)
        h = hamming_7_4()
        for w in s.codewords():
            assert h.contains(w)
        assert is_weakly_self_dual(s)

    def test_dual_orthogonality_exhaustive(self):
        for c in (repetition_code(3), parity_code(3), hamming_7_4()):
            d = dual_code(c)
            for u in c.codewords():
                for w in d.codewords():
                    assert int(gf2_mul(u[None, :], w)[0]) == 0

    def test_dual_of_dual(self):
        c = hamming_7_4()
        dd = dual_code(dual_code(c))
        assert {tuple(w) for w in dd.codewords()} == {tuple(w) for w in c.codewords()}


class TestBounds:
    def test_hamming(self):
        rep = code_bounds(hamming_7_4())
        assert rep.singleton_ok and rep.t == 1

    def test_repetition(self):
        rep = code_bounds(repetition_code(3))
        assert rep.singleton_ok          # 3 - 1 = 2 >= 2

    def test_gv_rate_at_011(self):
        # binary_entropy(0.11) ~ 0.4999, so the rate floor sits just above 1/2
        assert 1 - binary_entropy(0.11) == pytest.approx(0.500084041835472, abs=1e-12)

    def test_distance_required(self):
        # codes with k > 16 skip the exhaustive scan, leaving distance unknown
        c = LinearCode(np.eye(17, dtype=np.uint8), distance=None)
        assert c.distance is None
        with pytest.raises(ValueError):
            code_bounds(c)

    def test_steane_quantum_bounds(self):
        rep = css_code_bounds(steane_css())
        assert (rep.n, rep.k, rep.distance) == (7, 1, 3)
        assert rep.quantum_singleton_ok          # 7 - 1 >= 2 * 2
        assert rep.quantum_gv_rate == pytest.approx(
            1 - 2 * binary_entropy(2 / 7), abs=1e-12)


class TestCssConstruction:
    def test_steane_parameters(self):
        s = steane_css()
        assert (s.n, s.logical_bits, s.t) == (7, 1, 1)

    def test_containment_checked(self):
        with pytest.raises(ValueError):
            css_construct(repetition_code(3), parity_code(3))

    def test_equal_codes_give_zero_logical_bits(self):
        h = hamming_7_4()
        code = css_construct(h, h)
        assert code.logical_bits == 0

    def test_insufficient_distance_rejected(self):
        p = parity_code(3)
        with pytest.raises(ValueError):
            css_construct(p, dual_code(p))   # parity code only detects

    def test_negative_radius_rejected(self):
        h = hamming_7_4()
        with pytest.raises(ValueError, match="t must be >= 0"):
            CssCode(h, dual_code(h), t=-1)

    @pytest.mark.parametrize("t", [1.7, 1.0, "1"])
    def test_non_integer_radius_rejected(self, t):
        # same rule as decode's radius: a fractional t is not truncated
        h = hamming_7_4()
        with pytest.raises(ValueError, match="non-negative integer"):
            CssCode(h, dual_code(h), t=t)

    def test_steane_builds_each_dual_once(self, monkeypatch):
        calls = []

        def counting_dual(code):
            calls.append(code)
            return dual_code(code)

        monkeypatch.setattr(codes, "dual_code", counting_dual)
        s = steane_css()
        assert s.dual_c2.distance == 3
        assert len(calls) == 2   # C2 = dual(C1), then dual(C2), shared with the cache


class TestCssBasisStates:
    def test_trivial_subcode_gives_basis_vector(self):
        h = hamming_7_4()
        zero_code = LinearCode(np.zeros((7, 0), dtype=np.uint8))
        code = CssCode(h, zero_code, t=1)
        x = encode(h, "1001")
        vec = css_basis_state(code, x)
        assert np.abs(vec[bits_to_index(x)]) == pytest.approx(1.0, abs=1e-12)

    def test_steane_equal_superposition(self):
        s = steane_css()
        vec = css_basis_state(s, np.zeros(7, dtype=np.uint8))
        hot = np.abs(vec) > 1e-12
        assert hot.sum() == 8
        assert np.allclose(vec[hot], 1 / np.sqrt(8))

    def test_coset_representatives_give_same_state(self):
        s = steane_css()
        x = s.c1.codewords()[5]
        y = s.c2.codewords()[3]
        assert np.allclose(css_basis_state(s, x), css_basis_state(s, x ^ y))

    def test_cosets_orthonormal(self):
        s = steane_css()
        reps, seen = [], set()
        for w in s.c1.codewords():
            key = tuple(canonical_coset_rep(s.c2, w))
            if key not in seen:
                seen.add(key)
                reps.append(w)
        assert len(reps) == 2
        vs = [css_basis_state(s, r) for r in reps]
        assert abs(np.vdot(vs[0], vs[1])) < 1e-12
        assert np.linalg.norm(vs[0]) == pytest.approx(1.0)

    def test_rejects_non_codeword(self):
        with pytest.raises(ValueError):
            css_basis_state(steane_css(), "1000000")


class TestDualSumIdentity:
    def test_character_sum_over_steane_c2(self):
        # sum over y in C2 of (-1)^(y.z) is |C2| on the dual and 0 elsewhere
        s = steane_css()
        dual_words = {tuple(w) for w in dual_code(s.c2).codewords()}
        for z in itertools.product((0, 1), repeat=7):
            z = np.array(z, dtype=np.uint8)
            total = sum((-1) ** int(gf2_mul(y[None, :], z)[0]) for y in s.c2.codewords())
            assert total == (8 if tuple(z) in dual_words else 0)


class TestCssCorrection:
    def test_identity_recovery(self):
        s = steane_css()
        zero = np.zeros(7, dtype=np.uint8)
        x = s.c1.codewords()[9]
        res = simulate_css_correction(s, x, zero, zero)
        assert res.success

    def test_all_single_bit_flips(self):
        s = steane_css()
        zero = np.zeros(7, dtype=np.uint8)
        x = s.c1.codewords()[9]
        for i in range(7):
            e = np.zeros(7, dtype=np.uint8)
            e[i] = 1
            assert simulate_css_correction(s, x, e, zero).success

    def test_all_single_phase_flips(self):
        s = steane_css()
        zero = np.zeros(7, dtype=np.uint8)
        x = s.c1.codewords()[9]
        for i in range(7):
            e = np.zeros(7, dtype=np.uint8)
            e[i] = 1
            assert simulate_css_correction(s, x, zero, e).success

    def test_hadamard_frame_matches_dual_form(self):
        # after fixing e1 and rotating, the state must be
        # sqrt(|C2|/2^n) sum over z' in the dual of C2 of (-1)^(x.z') |z' + e2>
        s = steane_css()
        x = s.c1.codewords()[3]
        e2 = np.zeros(7, dtype=np.uint8)
        e2[4] = 1
        e1 = np.zeros(7, dtype=np.uint8)
        e1[2] = 1
        res = simulate_css_correction(s, x, e1, e2)
        expected = np.zeros(128, dtype=complex)
        amp = np.sqrt(8 / 128)
        for z in dual_code(s.c2).codewords():
            sign = (-1.0) ** int(gf2_mul(x[None, :], z)[0])
            expected[bits_to_index(z ^ e2)] += sign * amp
        assert np.max(np.abs(res.dual_frame - expected)) < 1e-7

    def test_overweight_errors_may_fail(self):
        s = steane_css()
        x = s.c1.codewords()[1]
        e = bits("1100000")
        res = simulate_css_correction(s, x, e, np.zeros(7, dtype=np.uint8))
        assert not res.success

    @pytest.mark.parametrize("e", ["010", "01000000"], ids=["3-bits", "8-bits"])
    def test_wrong_length_error_pattern_rejected(self, e):
        s = steane_css()
        x, zero = s.c1.codewords()[9], np.zeros(7, dtype=np.uint8)
        for e1, e2 in ((e, zero), (zero, e)):
            with pytest.raises(ValueError, match="need 7 bits"):
                simulate_css_correction(s, x, e1, e2)

    def test_each_table_is_built_once_across_calls(self, monkeypatch):
        built = []
        monkeypatch.setattr(codes, "syndrome_table",
                            lambda c, t: built.append(c) or syndrome_table(c, t))
        s = steane_css()
        x, e = s.c1.codewords()[9], bits("0010000")
        for _ in range(2):
            assert simulate_css_correction(s, x, e, e).success
        assert len(built) == 2 and built[0] is s.c1 and built[1] is s.dual_c2


class TestCosetKey:
    def test_steane_key_bits(self):
        s = steane_css()
        keys = {tuple(coset_key(s, w)) for w in s.c1.codewords()}
        assert keys == {(0,), (1,)}

    def test_key_constant_on_cosets(self):
        s = steane_css()
        for w in s.c1.codewords():
            for y in s.c2.codewords():
                assert np.array_equal(coset_key(s, w), coset_key(s, w ^ y))

    def test_rejects_non_codeword(self):
        with pytest.raises(ValueError):
            coset_key(steane_css(), "1000000")

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="length 3"):
            coset_key(steane_css(), "000")

    def test_stack_matches_single_words_and_checks_every_row(self):
        s = steane_css()
        words = s.c1.codewords()
        keys = _coset_keys(s, words)
        assert keys.dtype == np.uint8 and keys.shape == (16, 1)
        assert all(np.array_equal(k, coset_key(s, w)) for k, w in zip(keys, words))
        bad = words.copy()
        bad[5, 0] ^= 1
        with pytest.raises(ValueError, match="not a codeword"):
            _coset_keys(s, bad)


class TestStatevectorHelpers:
    def test_bit_flip_permutes(self):
        vec = np.zeros(8, dtype=complex)
        vec[bits_to_index(bits("010"))] = 1.0
        out = apply_bit_flips(vec, "011", 3)
        assert out[bits_to_index(bits("001"))] == 1.0

    def test_phase_flip_signs(self):
        vec = np.ones(4, dtype=complex) / 2
        out = apply_phase_flips(vec, "01", 2)
        assert np.allclose(out * 2, [1, -1, 1, -1])

    @pytest.mark.parametrize("flip", [apply_bit_flips, apply_phase_flips])
    @pytest.mark.parametrize("e,size", [("010", 128), ("01000000", 128), ("0100000", 64)],
                             ids=["3-bits", "8-bits", "short-vector"])
    def test_rejects_pattern_or_vector_of_the_wrong_size(self, flip, e, size):
        with pytest.raises(ValueError, match="need 7 bits and 128 amplitudes"):
            flip(np.ones(size, dtype=complex), e, 7)

    def test_hadamard_involution(self, rng):
        vec = rng.normal(size=16) + 1j * rng.normal(size=16)
        vec /= np.linalg.norm(vec)
        assert np.allclose(hadamard_all(hadamard_all(vec)), vec)


def code_family():
    """Four fixtures and 40 seeded random codes with n = 4 ... 12 and k = 0 ... n."""
    r = stream(14, "code-family")
    family = [hamming_7_4(), simplex_7_3(), repetition_code(5), parity_code(6)]
    while len(family) < 44:
        n = int(r.integers(4, 13))
        g = r.integers(0, 2, (n, int(r.integers(0, n + 1)))).astype(np.uint8)
        if gf2_rank(g) == g.shape[1]:
            family.append(LinearCode(g))
    return family


def subcodes(c1, r):
    """C2 within C1 of every dimension 0 ... k1, each from a random full-rank message map."""
    out = []
    for k2 in range(c1.k + 1):
        while True:
            m = r.integers(0, 2, (c1.k, k2)).astype(np.uint8)
            if gf2_rank(m) == k2:
                break
        out.append(LinearCode(gf2_mul(c1.generator, m)))
    return out


class TestPinnedCodeFamily:
    # sha256 captured before the echelon form and the key machinery were
    # shared; parity checks, distances, coset reps and keys must not move
    DIGEST = "893ebb46d3f0fa69044f43de4198dd5915c18dc8f1bd1fd830f9a7b8866a41bf"

    def test_parity_checks_reps_and_keys_are_byte_identical(self):
        r = stream(14, "code-family-words")
        h = hashlib.sha256()
        pairs = 0
        for c1 in code_family():
            h.update(c1.parity_check.tobytes() + bytes([c1.distance or 0]))
            words = (np.array(list(itertools.product((0, 1), repeat=c1.n)), dtype=np.uint8)
                     if c1.n <= 9 else r.integers(0, 2, (512, c1.n)).astype(np.uint8))
            for w in words:
                h.update(canonical_coset_rep(c1, w).tobytes())
            for c2 in subcodes(c1, r):
                h.update(c2.parity_check.tobytes())
                if c1.k:   # k1 = 0 has only the empty key (TestCosetKey)
                    h.update(_coset_keys(CssCode(c1, c2), c1.codewords()).tobytes())
                pairs += 1
        assert pairs == 220
        assert h.hexdigest() == self.DIGEST


class TestOneEchelonForm:
    @pytest.fixture
    def rref_calls(self, monkeypatch):
        calls = []
        real = codes.gf2_rref
        monkeypatch.setattr(codes, "gf2_rref", lambda m: calls.append(m.shape) or real(m))
        return calls

    @pytest.mark.parametrize("g", [hamming_7_4().generator, np.zeros((3, 0), np.uint8),
                                   np.eye(4, dtype=np.uint8)], ids=["hamming", "k0", "k=n"])
    def test_derived_parity_check_costs_one_elimination(self, rref_calls, g):
        c = LinearCode(g)
        assert rref_calls == [g.T.shape]
        assert np.array_equal(c.parity_check, gf2_nullspace(g.T))
        assert not c._echelon[0].flags.writeable and not c._echelon[1].flags.writeable

    def test_supplied_parity_check_is_still_checked(self, rref_calls):
        h = hamming_7_4()
        assert len(rref_calls) == 1
        with pytest.raises(ValueError, match="independent"):
            LinearCode(h.generator, np.vstack([h.parity_check[:2]] * 2)[:3])
        with pytest.raises(ValueError, match="annihilate"):
            LinearCode(h.generator, np.roll(h.parity_check, 1, axis=1))
        rref_calls.clear()
        dual_code(h)
        assert len(rref_calls) == 2   # the echelon form, then the supplied H's rank

    def test_reps_and_keys_reuse_the_echelon_form(self, rref_calls):
        s = css_construct(hamming_7_4(), simplex_7_3())
        words = s.c1.codewords()
        coset_key(s, words[1])
        rref_calls.clear()
        for w in words:
            coset_key(s, w)
            canonical_coset_rep(s.c1, w)
            canonical_coset_rep(s.c2, w)
        _coset_keys(s, words)
        assert rref_calls == []

    def test_keys_never_solve_per_column(self, monkeypatch):
        monkeypatch.setattr(codes, "gf2_solve", None)
        s = css_construct(hamming_7_4(), simplex_7_3())
        assert {tuple(coset_key(s, w)) for w in s.c1.codewords()} == {(0,), (1,)}
        for path in Path(codes.__file__).parent.glob("*.py"):
            text = path.read_text()
            assert text.count("gf2_solve(") == text.count("def gf2_solve("), path.name

    def test_css_code_carries_no_offsets_or_hand_cache(self):
        s = steane_css()
        for name in ("u", "v", "_key_cache"):
            assert not hasattr(s, name)
        for fn in (CssCode, css_construct):
            assert not {"u", "v"} & set(inspect.signature(fn).parameters)

    def test_empty_c1_gives_an_empty_key(self):
        # the key machinery indexed C1's pivots with a float array when k1 = 0
        z = LinearCode(np.zeros((3, 0), np.uint8))
        key = coset_key(CssCode(z, z), "000")
        assert key.dtype == np.uint8 and key.shape == (0,)
        with pytest.raises(ValueError, match="not a codeword"):
            coset_key(CssCode(z, z), "010")

    def test_coset_rep_needs_a_word_of_length_n(self):
        with pytest.raises(ValueError, match="length 3 != 7"):
            canonical_coset_rep(hamming_7_4(), "000")
