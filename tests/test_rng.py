"""The named-stream contract: every call is a fresh Philox generator under a sha256 key,
re-keying a used generator gives it exactly that fresh state, and ``bits`` reads the
fair bits of ``integers(0, 2, k)`` off its raw words."""

import hashlib
import itertools
import os
import subprocess
import sys
import threading
import types
from pathlib import Path

import numpy as np
import pytest

from qinfo import bb84, rng
from qinfo.codes import steane_css
from qinfo.rng import bits, rekey, stream


def keyed(master_seed, *labels) -> np.random.Generator:
    """The stream as np.random.Philox(key=...) builds it, with its unused SeedSequence."""
    tag = ":".join(str(part) for part in labels)
    digest = hashlib.sha256(f"{master_seed}|{tag}".encode()).digest()
    return np.random.Generator(np.random.Philox(key=np.frombuffer(digest[:16], dtype="<u8")))


SEEDS = ([0, 1, -1, 42, 2 ** 62 - 1, -(2 ** 63), 2 ** 80, 20240811]
         + [int(s) for s in np.random.Generator(np.random.Philox(key=[1, 2])).integers(
             0, 2 ** 62, 32)]
         + [np.int64(5), np.int64(-7), np.int32(11), np.uint64(2 ** 63 + 1), np.int8(9),
            np.uint8(200), np.int16(-300), np.intp(2 ** 40)])
LABELS = [(), ("alice-bits",), ("alice-bases",), ("bob-measure",), ("eve-mask",),
          ("codewords",), ("trial", "17"), ("trial", 17), ("hsw-restart-3",),
          ("a", "b", "c"), ("", ""), ("tests",)]
# the six draw kinds every stream comparison checks byte for byte
DRAWS = (lambda g: g.integers(0, 2, 257), lambda g: g.integers(0, 2 ** 62),
         lambda g: g.integers(0, 2, (3, 5)), lambda g: g.random(33),
         lambda g: g.permutation(41), lambda g: g.normal(size=4))


class TestStreamMatchesKeyedPhilox:
    def test_state_and_draws_are_identical(self):
        pairs = list(itertools.product(SEEDS, LABELS))
        assert len(pairs) >= 500
        for seed, labels in pairs:
            got, want = stream(seed, *labels), keyed(seed, *labels)
            np.testing.assert_equal(got.bit_generator.state, want.bit_generator.state)
            for draw in DRAWS:
                a, b = draw(got), draw(want)
                assert np.asarray(a).dtype == np.asarray(b).dtype
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), (seed, labels)
            np.testing.assert_equal(got.bit_generator.state, want.bit_generator.state)

    def test_each_call_is_a_fresh_independent_generator(self):
        a, b = stream(3, "x"), stream(3, "x")
        assert a is not b and a.bit_generator is not b.bit_generator
        first = a.random(10)
        assert b.random(10).tobytes() == first.tobytes()
        assert stream(3, "x").random(10).tobytes() == first.tobytes()

    def test_no_seed_sequence_is_built(self):
        # the key stands in as the seed sequence, so no OS entropy is drawn
        assert isinstance(stream(3, "x").bit_generator.seed_seq, rng._key_type())


class TestRekeyMatchesStream:
    def test_state_and_draws_equal_a_fresh_stream(self):
        for k, (seed, labels) in enumerate(itertools.product(SEEDS, LABELS)):
            # 1, 3 or 5 32-bit draws leave a spare half word and a part-used buffer
            gen = stream(k, "used")
            gen.integers(0, 2 ** 32, 2 * (k % 3) + 1, dtype=np.uint32)
            state = gen.bit_generator.state
            assert state["has_uint32"] == 1 and state["buffer_pos"] < 4
            # then once more after the six draws, as a loop over streams re-keys
            for _ in range(2):
                assert rekey(gen, seed, *labels) is gen
                want = stream(seed, *labels)
                np.testing.assert_equal(gen.bit_generator.state, want.bit_generator.state)
                for draw in DRAWS:
                    a, b = draw(gen), draw(want)
                    assert np.asarray(a).dtype == np.asarray(b).dtype
                    assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), (seed, labels)
                np.testing.assert_equal(gen.bit_generator.state, want.bit_generator.state)


class TestKeyWords:
    def test_key_is_two_python_ints_read_as_little_endian_uint64(self):
        high = 0
        for seed, labels in itertools.product(SEEDS, LABELS):
            words = rng._key(seed, *labels)
            assert type(words) is tuple and [type(w) for w in words] == [int, int]
            want = keyed(seed, *labels).bit_generator.state["state"]["key"]
            assert np.array(words, dtype=np.uint64).tobytes() == want.tobytes()
            high += max(words) >= 2 ** 63
        assert high >= 100   # words the int64 range cannot hold reach Philox too

    def test_rekey_from_words_at_or_above_2_63_equals_stream(self):
        gen = stream(0)
        pairs = [(s, labels) for s, labels in itertools.product(SEEDS, LABELS)
                 if max(rng._key(s, *labels)) >= 2 ** 63]
        assert len(pairs) >= 100
        for seed, labels in pairs:
            want = stream(seed, *labels)
            np.testing.assert_equal(rekey(gen, seed, *labels).bit_generator.state,
                                    want.bit_generator.state)
            assert gen.random(9).tobytes() == want.random(9).tobytes()


class TestBitsMatchIntegers:
    LENGTHS = (0, 1, 2, 3, 36, 292, 293, 2559, 2560)

    def test_bits_after_rekey_equal_integers_0_2(self):
        gen = stream(0)
        for seed, labels in itertools.product(SEEDS, LABELS):
            for k in self.LENGTHS:
                got = bits(rekey(gen, seed, *labels), k)
                fresh = stream(seed, *labels)
                want = fresh.integers(0, 2, k)
                assert got.shape == (k,) and got.astype(want.dtype).tobytes() == want.tobytes(), (
                    seed, labels, k)
                # both read the same ceil(k/2) 64-bit words
                assert (gen.bit_generator.state["state"]["counter"].tobytes()
                        == fresh.bit_generator.state["state"]["counter"].tobytes())

    def test_bits_are_read_low_half_first(self):
        raw = stream(5, "x").bit_generator.random_raw(2)
        want = [(int(w) >> shift) & 1 for w in raw for shift in (31, 63)]
        assert bits(stream(5, "x"), 4).tolist() == want


class TestUniformCuts:
    # p = 0, the least subnormal, p just below 1/2 and just below 1, and 1
    P = (0.0, 5e-324, 0.05, float(np.nextafter(0.5, 0)), 0.5, 0.95, 1 - 2 ** -53, 1.0)

    def test_top_53_bits_against_the_cut_equal_uniforms_against_p(self):
        gen, cuts = stream(0), rng.cut(np.array(self.P))
        assert [rng.cut(p) for p in self.P] == cuts.tolist()
        for seed, labels in itertools.product(SEEDS, LABELS):
            u = stream(seed, *labels).random(37)   # an odd length
            top = rekey(gen, seed, *labels).bit_generator.random_raw(37) >> 11
            assert u.tobytes() == (top * 2.0 ** -53).tobytes()
            for p, c in zip(self.P, cuts):
                assert np.array_equal(u >= p, top >= c), (seed, labels, p)
                assert np.array_equal(u < p, top < c), (seed, labels, p)

    def test_the_cut_is_the_first_53_bit_integer_whose_uniform_reaches_p(self):
        for p, c in zip(self.P, rng.cut(np.array(self.P)).tolist()):
            assert 0 <= c <= 2 ** 53
            for m in (c - 1, c):
                if 0 <= m < 2 ** 53:
                    assert (m * 2.0 ** -53 >= p) == (m >= c), (p, m)


class TestTrialSeedsFromRawWords:
    def test_shifted_raw_word_after_rekey_equals_integers_0_2_62(self):
        # Lemire's bounded draw never rejects on a 2^62 range: value = word >> 2
        gen = stream(0)
        for seed in SEEDS:
            for i in range(50):
                got = int(rekey(gen, seed, "trial", str(i)).bit_generator.random_raw()) >> 2
                assert got == int(stream(seed, "trial", str(i)).integers(0, 2 ** 62)), (seed, i)


class TestLabelTags:
    def test_labels_join_with_a_colon(self):
        assert rng._key(7, "a:b") == rng._key(7, "a", "b") != rng._key(7, "ab")

    def test_the_labels_qinfo_uses_name_distinct_tags(self, monkeypatch):
        # every BB84 label, recorded from a batch that reaches each draw
        used = set()

        def recording_rekey(gen, seed, *labels):
            used.add(labels)
            return rekey(gen, seed, *labels)

        monkeypatch.setattr(bb84, "rekey", recording_rekey)
        cfg = bb84.ProtocolConfig(n=14, delta=1.0, threshold=3, code=steane_css(), master_seed=1)
        # at rate 0 or 1 Eve's mask is constant and its stream is never keyed
        bb84.run_batch(cfg, bb84.ChannelModel("intercept_resend", 0.5), 3)
        bb84_labels = {labels for labels in used if labels[0] != "trial"}
        assert bb84_labels == {
            (name,) for name in ("alice-bits", "alice-bases", "bob-bases", "eve-mask", "eve-bases",
                                 "eve-measure", "bob-measure", "selection", "codewords")}
        labels = (bb84_labels | {("trial", str(i)) for i in range(2000)}
                  | {(f"hsw-restart-{r}",) for r in range(2000)})
        assert len({":".join(parts) for parts in labels}) == len(labels)
        assert len({rng._key(1, *parts) for parts in labels}) == len(labels)


class TestRekeyThreads:
    def test_threads_rekeying_their_own_generators_draw_their_streams(self):
        # a state shared between threads could let one thread's key reach another's
        # generator; a short switch interval interleaves the threads' calls
        pairs = list(itertools.product(SEEDS, LABELS))
        want = {(repr(seed), labels): int(stream(seed, *labels).bit_generator.random_raw())
                for seed, labels in pairs}
        bad = []

        def work(order):
            gen = stream(0)
            for _ in range(20):
                for seed, labels in order:
                    word = int(rekey(gen, seed, *labels).bit_generator.random_raw())
                    if word != want[repr(seed), labels]:
                        bad.append((seed, labels))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(order,))
                       for order in (pairs, pairs[::-1], pairs[1::2] + pairs[::2])]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert not bad

    def test_another_threads_rekey_mid_call_leaves_this_key(self):
        # the setter lets a second thread re-key its own generator after this call
        # built its state and before Philox reads it
        other = stream(0)

        class HandOff:
            def __init__(self):
                self.philox = stream(0).bit_generator

            @property
            def state(self):
                return self.philox.state

            @state.setter
            def state(self, value):
                thread = threading.Thread(target=rekey, args=(other, 2, "bob-bases"))
                thread.start()
                thread.join()
                self.philox.state = value

        gen = types.SimpleNamespace(bit_generator=HandOff())
        assert rekey(gen, 1, "alice-bits") is gen
        np.testing.assert_equal(gen.bit_generator.state,
                                stream(1, "alice-bits").bit_generator.state)
        np.testing.assert_equal(other.bit_generator.state,
                                stream(2, "bob-bases").bit_generator.state)


class TestLabelJoin:
    @pytest.mark.parametrize("labels,tag", [
        (("trial", 5), "trial:5"), (("trial", "5"), "trial:5"), ((5,), "5"),
        ((np.int64(-3),), "-3"), (("a", "b", "c"), "a:b:c"), ((), ""), (("",), "")])
    def test_several_or_non_str_labels_hash_the_joined_tag(self, labels, tag):
        gen = stream(0)
        for seed in SEEDS:
            digest = hashlib.sha256(f"{seed}|{tag}".encode()).digest()
            # two little-endian words on any machine
            words = (int.from_bytes(digest[:8], "little"), int.from_bytes(digest[8:16], "little"))
            assert rng._key(seed, *labels) == rng._key(seed, tag) == words
            want = stream(seed, tag).bit_generator.random_raw(3).tolist()
            assert stream(seed, *labels).bit_generator.random_raw(3).tolist() == want
            assert rekey(gen, seed, *labels).bit_generator.random_raw(3).tolist() == want


class TestKeyRequests:
    KEY = np.array([7, 9], dtype=np.uint64)

    @pytest.mark.parametrize("dtype", [np.uint64, np.dtype(np.uint64), "uint64"])
    def test_two_uint64_words_return_the_key(self, dtype):
        assert rng._key_type()(self.KEY).generate_state(2, dtype).tobytes() == self.KEY.tobytes()

    @pytest.mark.parametrize("n_words,dtype", [
        (1, np.uint64), (3, np.uint64), (4, np.uint64), (0, np.uint64),
        (2, np.uint32), (4, np.uint32), (2, np.int64), (2, np.float64),
    ])
    def test_any_other_request_raises(self, n_words, dtype):
        with pytest.raises(ValueError, match="2 uint64 words"):
            rng._key_type()(self.KEY).generate_state(n_words, dtype)

    def test_default_dtype_request_raises(self):
        with pytest.raises(ValueError, match="2 uint64 words"):
            rng._key_type()(self.KEY).generate_state(2)


def test_importing_qinfo_leaves_numpy_random_unloaded():
    # the key type is built on the first stream, so set-up does not pay for
    # numpy.random (about 10 ms) before anything draws
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = ("import sys, qinfo.bb84, qinfo.capacity, qinfo.cli, qinfo.typical; "
              "print('numpy.random' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "False"
