import dataclasses
import hashlib
import io
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from qinfo import bb84, formats
from qinfo.bb84 import (
    COMPUTATIONAL,
    HADAMARD_BASIS,
    STATE_MATRICES,
    ChannelModel,
    ProtocolConfig,
    _reconcile_blocks,
    bb84_state,
    eve_holevo_bound,
    eve_information_estimate,
    measure_qubit,
    privacy_lower_bound,
    reconcile_and_amplify,
    run_batch,
    run_bb84,
)
from qinfo.codes import (
    CssCode,
    LinearCode,
    coset_key,
    decode,
    dual_code,
    encode,
    hamming_7_4,
    repetition_code,
    steane_css,
)
from qinfo.rng import cut, rekey, stream
from qinfo.states import (
    KET_0,
    KET_1,
    KET_MINUS,
    KET_PLUS,
    DensityMatrix,
    apply_channel,
)

import oracles
from oracles import w_matrix_entropy

STEANE = steane_css()
# C1 = [5, 1] repetition code at t=1: six of its 16 syndromes have a pattern
REP5 = CssCode(repetition_code(5), LinearCode(np.zeros((5, 0), dtype=np.uint8)), t=1)


def config(n=64, delta=1.0, threshold=None, seed=11) -> ProtocolConfig:
    t = round(0.11 * n) if threshold is None else threshold
    return ProtocolConfig(n=n, delta=delta, threshold=t, code=STEANE, master_seed=seed)


class TestSignalStates:
    def test_four_states(self):
        assert np.allclose(bb84_state(0, COMPUTATIONAL), KET_0)
        assert np.allclose(bb84_state(1, COMPUTATIONAL), KET_1)
        assert np.allclose(bb84_state(0, HADAMARD_BASIS), KET_PLUS)
        assert np.allclose(bb84_state(1, HADAMARD_BASIS), KET_MINUS)

    def test_channel_models_are_trace_preserving(self):
        for ch in (ChannelModel("ideal"), ChannelModel("depolarizing", 0.3),
                   ChannelModel("intercept_resend", 0.7)):
            op = ch.operation()     # construction validates the Kraus sum
            rho = DensityMatrix.pure(KET_PLUS)
            assert abs(np.trace(apply_channel(rho, op).mat) - 1) < 1e-9

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ChannelModel("teleport")


class TestMeasureQubit:
    def test_deterministic_same_basis(self):
        rng = stream(0, "m")
        rho = DensityMatrix.pure(KET_0)
        assert all(measure_qubit(rho, COMPUTATIONAL, rng) == 0 for _ in range(20))

    def test_uniform_cross_basis(self):
        rng = stream(1, "m")
        rho = DensityMatrix.pure(KET_0)
        hits = [measure_qubit(rho, HADAMARD_BASIS, rng) for _ in range(2000)]
        assert abs(np.mean(hits) - 0.5) < 0.05

    def test_depolarized_flip_rate(self):
        f = 0.4
        rng = stream(2, "m")
        rho = apply_channel(DensityMatrix.pure(KET_PLUS), ChannelModel("depolarizing", f).operation())
        hits = [measure_qubit(rho, HADAMARD_BASIS, rng) for _ in range(4000)]
        assert abs(np.mean(hits) - f / 2) < 0.02


class TestReconcile:
    def test_equal_strings(self, rng):
        x = rng.integers(0, 2, 7).astype(np.uint8)
        v = encode(STEANE.c1, rng.integers(0, 2, 4).astype(np.uint8))
        ka, kb, ok, _ = reconcile_and_amplify(STEANE, x, x, v)
        assert ok and np.array_equal(ka, kb)
        assert np.array_equal(ka, coset_key(STEANE, v))

    def test_all_single_bit_discrepancies(self, rng):
        x = rng.integers(0, 2, 7).astype(np.uint8)
        v = encode(STEANE.c1, rng.integers(0, 2, 4).astype(np.uint8))
        for i in range(7):
            e = np.zeros(7, dtype=np.uint8)
            e[i] = 1
            ka, kb, ok, _ = reconcile_and_amplify(STEANE, x, x ^ e, v)
            assert ok and np.array_equal(ka, kb)

    def test_double_discrepancy_not_guaranteed(self, rng):
        x = np.zeros(7, dtype=np.uint8)
        v = encode(STEANE.c1, np.array([1, 0, 1, 0], dtype=np.uint8))
        failures = 0
        for i in range(7):
            for j in range(i + 1, 7):
                e = np.zeros(7, dtype=np.uint8)
                e[[i, j]] = 1
                _, _, ok, _ = reconcile_and_amplify(STEANE, x, x ^ e, v)
                failures += not ok
        assert failures > 0

    @pytest.mark.parametrize("code,undecodable", [(STEANE, False), (REP5, True)],
                             ids=["steane", "rep5-t1"])
    def test_stacked_pass_matches_single_block_reference(self, rng, code, undecodable):
        blocks = 300
        msgs = rng.integers(0, 2, (blocks, code.c1.k)).astype(np.uint8)
        x_alice = rng.integers(0, 2, (blocks, code.n)).astype(np.uint8)
        errors = np.zeros_like(x_alice)
        for row, weight in zip(errors, rng.integers(0, 4, blocks)):
            row[rng.choice(code.n, weight, replace=False)] = 1
        x_bob = x_alice ^ errors
        keys_a, keys_b, success, offsets = _reconcile_blocks(code, x_alice, x_bob, msgs)
        missed = 0
        for b in range(blocks):
            ka, kb, ok, offset = reconcile_and_amplify(
                code, x_alice[b], x_bob[b], encode(code.c1, msgs[b]))
            missed += decode(code.c1, x_bob[b] ^ offset, code.t) is None
            for want, got in ((ka, keys_a[b]), (kb, keys_b[b]), (offset, offsets[b])):
                assert got.dtype == want.dtype and np.array_equal(got, want)
            assert success[b] == ok
        assert (missed > 0) == undecodable
        assert success.dtype == bool and not success.all()

    def test_offset_announced_not_key(self, rng):
        x = rng.integers(0, 2, 7).astype(np.uint8)
        v = encode(STEANE.c1, rng.integers(0, 2, 4).astype(np.uint8))
        _, _, _, offset = reconcile_and_amplify(STEANE, x, x, v)
        assert np.array_equal(offset, x ^ v)


class TestProtocolRuns:
    def test_ideal_run_agrees(self):
        t = run_bb84(config(), ChannelModel("ideal"))
        assert not t.aborted
        assert t.qber_estimate == 0.0
        assert t.keys_match
        assert t.alice_key.size == (64 // 7) * STEANE.logical_bits

    def test_determinism_bit_exact(self):
        a = run_bb84(config(seed=99), ChannelModel("depolarizing", 0.08))
        b = run_bb84(config(seed=99), ChannelModel("depolarizing", 0.08))
        for field in ("alice_bits", "alice_bases", "bob_bases", "bob_bits",
                      "check_indices", "keep_indices", "announced_offset",
                      "alice_key", "bob_key"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
        assert a.qber_estimate == b.qber_estimate

    def test_different_seeds_differ(self):
        a = run_bb84(config(seed=1), ChannelModel("ideal"))
        b = run_bb84(config(seed=2), ChannelModel("ideal"))
        assert not np.array_equal(a.alice_bits, b.alice_bits)

    def test_sifting_abort(self):
        # delta = 0 leaves the expected sifted count right at 2n, so some
        # seeds must abort; probe a few to find one
        aborted = []
        for seed in range(30):
            t = run_bb84(ProtocolConfig(n=32, delta=0.0, threshold=3,
                                        code=STEANE, master_seed=seed),
                         ChannelModel("ideal"))
            aborted.append(t.aborted)
        assert any(aborted)
        idx = aborted.index(True)
        t = run_bb84(ProtocolConfig(n=32, delta=0.0, threshold=3,
                                    code=STEANE, master_seed=idx),
                     ChannelModel("ideal"))
        assert t.abort_reason.startswith("sifting")
        assert t.alice_key.size == 0

    def test_threshold_abort_keeps_qber(self):
        t = run_bb84(config(threshold=0), ChannelModel("intercept_resend", 1.0))
        assert t.aborted
        assert t.abort_reason.startswith("check-bit")
        assert t.qber_estimate > 0.1

    def test_announced_data_excludes_key_bits(self):
        t = run_bb84(config(), ChannelModel("ideal"))
        assert not set(t.check_indices) & set(t.keep_indices)
        # the announced offset masks the kept bits with a random codeword
        n_blocks = t.alice_key.size
        kept = t.alice_bits[t.keep_indices][:7 * n_blocks]
        assert not np.array_equal(t.announced_offset, kept)

    def test_key_block_shorter_than_code_block_rejected(self):
        with pytest.raises(ValueError, match="shorter than one code block"):
            config(n=6, threshold=0)

    @pytest.mark.parametrize("delta", [1e308, 1.7976931348623157e308])
    def test_delta_overflowing_the_qubit_count_rejected(self, delta):
        # (4 + delta) * n is inf, which qubits_sent could not round to a count
        with pytest.raises(ValueError, match=r"delta must keep \(4 \+ delta\) \* 64 finite"):
            config(delta=delta)
        assert config(delta=1e300).qubits_sent == math.ceil((4 + 1e300) * 64)

    # (4 + delta) * 64 = 2^22 + 1 qubits, one above the cap, and a count far past it
    @pytest.mark.parametrize("delta,sent", [(65532.015625, "4194305"), (1e300, "6400000000")],
                             ids=["cap-plus-one", "1e300"])
    def test_trial_above_the_qubit_cap_fails_before_it_allocates(self, delta, sent):
        cfg, ch = config(delta=delta), ChannelModel("ideal")
        for run in (lambda: run_bb84(cfg, ch), lambda: run_batch(cfg, ch, 3)):
            with pytest.raises(ValueError) as err:
                run()
            text = str(err.value)
            assert f"= {sent}" in text and f"n = 64 or delta = {delta}" in text and len(text) < 160
        assert run_batch(cfg, ch, 0) == []

    @pytest.mark.parametrize("sent,chunk", [(2560, 256), (4096, 256), (4097, 255),
                                            (2 ** 19, 2), (2 ** 20 + 1, 1), (2 ** 22, 1)])
    def test_chunks_hold_at_most_2_20_qubits(self, monkeypatch, sent, chunk):
        # each chunk's seeds, with no trial run
        monkeypatch.setattr(bb84, "_run_trials", lambda cfg, ch, seeds: seeds)
        cfg = config(delta=sent / 64 - 4)
        assert cfg.qubits_sent == sent
        lengths = [len(c) for c in bb84.run_chunks(cfg, ChannelModel("ideal"), 2 * chunk + 1)]
        assert lengths == [chunk, chunk, 1]

    @pytest.mark.parametrize("n", [10 ** 400, 2 ** 1024], ids=["401-digit", "2^1024"])
    def test_key_block_beyond_a_float_rejected_by_name(self, n):
        # (4 + delta) * n cannot convert n to a float; the message cuts n short
        with pytest.raises(ValueError) as err:
            config(n=n, threshold=3)
        message = str(err.value)
        assert message.startswith("n must be <= 1.79769e+308, got ") and len(message) < 80
        assert config(n=2 ** 64, threshold=3).n == 2 ** 64   # a float holds it
    @pytest.mark.parametrize("code,fragment", [
        (CssCode(hamming_7_4(), dual_code(hamming_7_4()), t=2), "correction radius"),
        (CssCode(repetition_code(66), LinearCode(np.zeros((66, 0), dtype=np.uint8)), t=1),
         "n - k <= 64"),
    ], ids=["radius", "65-checks"])
    def test_code_the_stacked_decoder_cannot_serve_rejected(self, code, fragment):
        # a batch whose trials all abort at the check never reaches
        # reconciliation, so the config itself must refuse the code
        with pytest.raises(ValueError, match=fragment):
            ProtocolConfig(n=128, delta=1.0, threshold=0, code=code, master_seed=0)

    def test_sift_statistics(self):
        t = run_bb84(config(n=256), ChannelModel("ideal"))
        total = t.alice_bits.size
        sifted = int(t.sift_mask.sum())
        sigma = np.sqrt(total * 0.25)
        assert abs(sifted - total / 2) < 3 * sigma


class TestBatches:
    def test_ideal_batch_always_agrees(self):
        ts = run_batch(config(n=64, seed=5), ChannelModel("ideal"), 100)
        assert sum(t.aborted for t in ts) == 0
        assert all(t.keys_match for t in ts)

    def test_depolarizing_qber_calibration(self):
        # measuring (1-f) rho + f I/2 in the preparation basis flips w.p. f/2
        ts = run_batch(config(n=128, seed=6, threshold=127), ChannelModel("depolarizing", 0.1), 300)
        qber = float(np.mean([t.qber_estimate for t in ts]))
        assert abs(qber - 0.05) < 0.01

    def test_intercept_resend_qber_quarter(self):
        ts = run_batch(config(n=128, seed=7, threshold=127),
                       ChannelModel("intercept_resend", 1.0), 300)
        qber = float(np.mean([t.qber_estimate for t in ts]))
        assert abs(qber - 0.25) < 0.01

    def test_batch_determinism(self):
        a = run_batch(config(seed=8), ChannelModel("ideal"), 5)
        b = run_batch(config(seed=8), ChannelModel("ideal"), 5)
        for x, y in zip(a, b):
            assert np.array_equal(x.alice_key, y.alice_key)
            assert x.config_seed == y.config_seed


class TestEveInformation:
    def test_no_eve_gives_zero(self):
        ts = run_batch(config(seed=13), ChannelModel("ideal"), 20)
        mi, bound = eve_information_estimate(ts)
        assert mi == 0.0
        assert bound == pytest.approx(1.0, abs=1e-9)

    def test_full_intercept_half_bit(self):
        ts = run_batch(config(n=128, seed=14, threshold=127),
                       ChannelModel("intercept_resend", 1.0), 40)
        mi, bound = eve_information_estimate(ts)
        assert abs(mi - 0.5) < 0.02
        assert mi <= bound + 1e-9

    def test_estimate_below_holevo_for_partial_interception(self):
        ts = run_batch(config(n=128, seed=15, threshold=127),
                       ChannelModel("intercept_resend", 0.4), 40)
        mi, bound = eve_information_estimate(ts)
        assert 0.0 < mi <= bound + 1e-9

    def test_no_intercepted_sifted_position_adds_nothing(self):
        # rate 0 keeps Eve's fields on every transcript, with an all-zero mask
        quiet = run_batch(config(seed=16), ChannelModel("intercept_resend", 0.0), 3)
        assert all(t.eve_mask is not None and not t.eve_mask.any() for t in quiet)
        assert eve_information_estimate(quiet) == (0.0, eve_holevo_bound())
        busy = run_batch(config(n=128, seed=15, threshold=127),
                         ChannelModel("intercept_resend", 0.4), 5)
        assert eve_information_estimate(quiet + busy) == eve_information_estimate(busy)

    def test_holevo_bound_value(self):
        assert eve_holevo_bound() == pytest.approx(1.0, abs=1e-9)


class TestPrivacyBound:
    def test_ideal_channel(self):
        assert privacy_lower_bound(DensityMatrix.maximally_mixed(2),
                                   ChannelModel("ideal")) == pytest.approx(1.0, abs=1e-7)

    def test_fully_depolarizing(self):
        assert privacy_lower_bound(DensityMatrix.maximally_mixed(2),
                                   ChannelModel("depolarizing", 1.0)) == pytest.approx(-1.0, abs=1e-7)

    def test_monotone_in_noise(self):
        rho = DensityMatrix.maximally_mixed(2)
        vals = [privacy_lower_bound(rho, ChannelModel("depolarizing", f))
                for f in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_against_w_matrix_oracle(self):
        # coherent information recomputed from the oracle entropy exchange
        rho = DensityMatrix.maximally_mixed(2)
        for f in (0.1, 0.4, 0.8):
            op = ChannelModel("depolarizing", f).operation()
            out = apply_channel(rho, op)
            from qinfo.qentropy import von_neumann_entropy
            oracle = von_neumann_entropy(out) - w_matrix_entropy(rho.mat, op.kraus)
            assert privacy_lower_bound(rho, op) == pytest.approx(oracle, abs=1e-7)


class TestBatchTransportAgreesWithSingleQubit:
    def test_born_rule_consistency(self):
        # the batched path's Born table and the public measure_qubit op draw
        # identical bits from identical streams
        rng1 = stream(21, "compare")
        rng2 = stream(21, "compare")
        bits = np.array([0, 1, 0, 1, 1, 0], dtype=np.uint8)
        bases = np.array([0, 0, 1, 1, 0, 1], dtype=np.uint8)
        meas = np.array([1, 0, 0, 1, 1, 0], dtype=np.uint8)
        rhos = STATE_MATRICES[bases, bits]
        p0 = bb84._p0_table(ChannelModel("ideal"))[2 * bases + bits, meas]
        batch = (rng1.random(6) >= p0).astype(np.uint8)
        single = np.array([measure_qubit(DensityMatrix(rhos[i]), int(meas[i]), rng2)
                           for i in range(6)], dtype=np.uint8)
        assert np.array_equal(batch, single)


# |0>, |1>, |+>, |-> up to their norms, at index 2*basis + bit
EXACT_KETS = ((1, 0), (0, 1), (1, 1), (1, -1))


def exact_signal(state: int, f=Fraction(0)) -> list[list[Fraction]]:
    """Density matrix of a signal after depolarizing f, in exact rationals."""
    u = EXACT_KETS[state]
    norm = Fraction(u[0] ** 2 + u[1] ** 2)
    return [[(1 - f) * u[i] * u[j] / norm + (f / 2 if i == j else 0) for j in (0, 1)]
            for i in (0, 1)]


def exact_p0(rho, basis: int) -> Fraction:
    """tr(|v><v| rho) for the basis' outcome-0 ket v, in exact rationals."""
    v = EXACT_KETS[2 * basis]
    return sum(v[i] * rho[i][j] * v[j] for i in (0, 1) for j in (0, 1)) / (v[0] ** 2 + v[1] ** 2)


def density_matrix_transport(bits, bases, meas, ch, seed):
    """Reference transport on one exact rational density matrix per qubit.

    Applies the channel to every qubit's matrix on the Fraction of its float
    parameter (intercept-resend measures in Eve's bases from her three
    streams and resends her states), then rounds each Born probability once.
    Returns (p0 in the measurement bases, Eve's transcript fields).
    """
    f = Fraction(ch.param) if ch.kind == "depolarizing" else Fraction(0)
    rhos = [exact_signal(2 * int(b) + int(x), f) for b, x in zip(bases, bits)]
    eve = {}
    if ch.kind == "intercept_resend":
        count = len(rhos)
        mask = stream(seed, "eve-mask").random(count) < ch.param
        eve_bases = stream(seed, "eve-bases").integers(0, 2, count).astype(np.uint8)
        eve_p0 = np.array([float(exact_p0(r, b)) for r, b in zip(rhos, eve_bases)])
        eve_bits = (stream(seed, "eve-measure").random(count) >= eve_p0).astype(np.uint8)
        rhos = [exact_signal(2 * int(b) + int(x)) if hit else r
                for r, hit, b, x in zip(rhos, mask, eve_bases, eve_bits)]
        eve = dict(eve_mask=mask, eve_bases=eve_bases, eve_bits=eve_bits)
    return np.array([float(exact_p0(r, b)) for r, b in zip(rhos, meas)]), eve


class TestIndexTransportMatchesDensityMatrices:
    @pytest.mark.parametrize("kind,param", [
        ("ideal", 0.0), ("depolarizing", 0.1), ("depolarizing", 0.137),
        ("intercept_resend", 0.3), ("intercept_resend", 1.0),
    ])
    @pytest.mark.parametrize("count", [1, 7, 2304])
    def test_bit_for_bit(self, kind, param, count):
        bits, bases, meas = stream(count, "transport").integers(0, 2, (3, count)).astype(np.uint8)
        ch = ChannelModel(kind, param)
        p0, eve = oracles.bb84_transport(2 * bases + bits, meas, ch, 5)
        ref_p0, ref_eve = density_matrix_transport(bits, bases, meas, ch, 5)
        assert p0.tobytes() == ref_p0.tobytes()
        assert eve.keys() == ref_eve.keys()
        for key, want in ref_eve.items():
            assert eve[key].dtype == want.dtype and np.array_equal(eve[key], want)

    @pytest.mark.parametrize("kind,param,want", [
        # p0[state, basis] row by row: |0>, |1>, |+>, |-> in the computational
        # and the Hadamard basis; a pure signal's entries are exactly 1, 1/2, 0
        ("ideal", 0.0, ["0x1.0000000000000p+0", "0x1.0000000000000p-1",
                        "0x0.0p+0", "0x1.0000000000000p-1",
                        "0x1.0000000000000p-1", "0x1.0000000000000p+0",
                        "0x1.0000000000000p-1", "0x0.0p+0"]),
        ("intercept_resend", 0.3, ["0x1.0000000000000p+0", "0x1.0000000000000p-1",
                                   "0x0.0p+0", "0x1.0000000000000p-1",
                                   "0x1.0000000000000p-1", "0x1.0000000000000p+0",
                                   "0x1.0000000000000p-1", "0x0.0p+0"]),
        ("depolarizing", 0.1, ["0x1.e666666666666p-1", "0x1.0000000000000p-1",
                               "0x1.999999999999ap-5", "0x1.0000000000000p-1",
                               "0x1.0000000000000p-1", "0x1.e666666666666p-1",
                               "0x1.0000000000000p-1", "0x1.999999999999ap-5"]),
    ])
    def test_p0_table_pinned_in_hex(self, kind, param, want):
        table = bb84._p0_table(ChannelModel(kind, param))
        assert [float(p).hex() for p in table.ravel()] == want

    def test_ideal_cuts_are_exact(self):
        # so an ideal channel never flips a matched-basis bit
        cuts = cut(bb84._p0_table(ChannelModel("ideal")).ravel())
        assert cuts.tolist() == [2 ** 53, 2 ** 52, 0, 2 ** 52, 2 ** 52, 2 ** 53, 2 ** 52, 0]



class TestNoUnusedWork:
    @pytest.mark.parametrize("kind,param", [("ideal", 0.0), ("depolarizing", 0.1)])
    def test_p0_table_is_cached_and_read_only(self, kind, param):
        table = bb84._p0_table(ChannelModel(kind, param))
        assert bb84._p0_table(ChannelModel(kind, param)) is table
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0.5

    def test_aborted_trial_never_builds_the_codewords_stream(self, monkeypatch):
        labels = []

        def recording_rekey(gen, seed, *names):
            labels.append(names)
            return rekey(gen, seed, *names)

        monkeypatch.setattr(bb84, "rekey", recording_rekey)
        t = run_bb84(config(threshold=0), ChannelModel("intercept_resend", 1.0))
        assert t.abort_reason.startswith("check-bit")
        assert ("selection",) in labels and ("codewords",) not in labels
        labels.clear()
        assert not run_bb84(config(), ChannelModel("ideal")).aborted
        assert labels.count(("codewords",)) == 1


def trial_seeds(cfg, trials):
    """run_batch's per-trial master seeds: trial i's is drawn from stream ("trial", i)."""
    return [int(stream(cfg.master_seed, "trial", str(i)).integers(0, 2 ** 62))
            for i in range(trials)]


def assert_same_transcript(got, want):
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert isinstance(a, np.ndarray), f.name
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), f.name
        else:
            assert (type(a), repr(a)) == (type(b), repr(b)), f.name


# (n, delta, threshold, kind, param): delta 0 gives sifting aborts, a low
# threshold check aborts, and the rest reconcile, some with failed blocks
ORACLE_CASES = {
    "ideal-sift": (32, 0.0, 3, "ideal", 0.0),
    "depolarizing": (64, 1.0, 7, "depolarizing", 0.1),
    "depolarizing-check": (64, 0.0, 3, "depolarizing", 0.25),
    "eve": (64, 0.0, 7, "intercept_resend", 0.3),
    # at rate 0 or 1 the batch fills Eve's mask without drawing it; the oracle draws it
    "eve-never": (64, 0.0, 7, "intercept_resend", 0.0),
    "eve-always": (64, 1.0, 7, "intercept_resend", 1.0),
}


def oracle_config(case, seed=17):
    n, delta, threshold, _, _ = ORACLE_CASES[case]
    return ProtocolConfig(n=n, delta=delta, threshold=threshold, code=STEANE, master_seed=seed)


def oracle_channel(case):
    return ChannelModel(*ORACLE_CASES[case][3:])


class TestStackedCoreMatchesSingleTrialOracle:
    # 300 trials cross the 256-trial chunk boundary
    @pytest.mark.parametrize("trials", [0, 1, 300])
    @pytest.mark.parametrize("case", list(ORACLE_CASES))
    def test_run_batch_field_for_field(self, case, trials):
        cfg, ch = oracle_config(case), oracle_channel(case)
        batch = run_batch(cfg, ch, trials)
        assert len(batch) == trials
        for t, seed in zip(batch, trial_seeds(cfg, trials)):
            want = oracles.run_bb84(dataclasses.replace(cfg, master_seed=seed), ch)
            assert_same_transcript(t, want)

    def test_cases_cover_every_outcome(self):
        reasons, failed_blocks = Counter(), 0
        for case in ORACLE_CASES:
            for t in run_batch(oracle_config(case), oracle_channel(case), 300):
                reasons[t.abort_reason and t.abort_reason.split()[0]] += 1
                failed_blocks += int(np.sum(~t.block_success))
        assert reasons.keys() == {None, "sifting", "check-bit"}
        assert failed_blocks > 0

    @pytest.mark.parametrize("case", list(ORACLE_CASES))
    @pytest.mark.parametrize("seed", [0, 5, np.int64(9)])
    def test_run_bb84_field_for_field(self, case, seed):
        cfg, ch = oracle_config(case, seed), oracle_channel(case)
        assert_same_transcript(run_bb84(cfg, ch), oracles.run_bb84(cfg, ch))

    def test_writing_one_transcript_changes_no_other(self):
        batch = run_batch(oracle_config("eve"), oracle_channel("eve"), 12)

        def arrays(t):
            return [getattr(t, f.name) for f in dataclasses.fields(t)
                    if isinstance(getattr(t, f.name), np.ndarray)]

        for j, t in enumerate(batch):
            before = [[a.tobytes() for a in arrays(u)] for u in batch]
            for a in arrays(t):
                a.view(np.uint8)[...] ^= 1
            for k, u in enumerate(batch):
                after = [a.tobytes() for a in arrays(u)]
                if k == j:
                    assert all(x != y for x, y in zip(before[k], after) if x)
                else:
                    assert after == before[k]

    @pytest.mark.parametrize("case", list(ORACLE_CASES))
    def test_batch_draws_the_oracle_streams_once_per_trial(self, monkeypatch, case):
        cfg, ch = oracle_config(case), oracle_channel(case)
        drawn, expected = Counter(), Counter((cfg.master_seed, ("trial", str(i)))
                                             for i in range(300))

        def recording_rekey(gen, seed, *names):
            drawn[seed, names] += 1
            return rekey(gen, seed, *names)

        def recording_stream(seed, *names):
            expected[seed, names] += 1
            return stream(seed, *names)

        monkeypatch.setattr(bb84, "rekey", recording_rekey)
        monkeypatch.setattr(oracles, "stream", recording_stream)
        run_batch(cfg, ch, 300)
        for seed in trial_seeds(cfg, 300):
            oracles.run_bb84(dataclasses.replace(cfg, master_seed=seed), ch)
        if ch.kind == "intercept_resend" and ch.param in (0.0, 1.0):   # a constant mask
            masks = [key for key in expected if key[1] == ("eve-mask",)]
            assert len(masks) == 300
            for key in masks:
                del expected[key]
        assert drawn == expected
        assert set(drawn.values()) == {1}


# sha256 of formats.dump_json over four run_batch transcripts, Steane code,
# threshold round(0.11 n).  n=64 runs at delta=0, so sifting aborts occur;
# n=512 runs at delta=1.  The set holds ideal runs, runs with failed blocks
# and aborts of both kinds (see test_golden_set_covers_every_outcome).
GOLDEN_DELTA = {64: 0.0, 512: 1.0}
GOLDEN = [
    (64, 0, "ideal", 0.0, "cbcb98a84a28e5b450d2aced2d7af6210a54793d57cfc05ac85575f118f10497"),
    (64, 0, "depolarizing", 0.1, "4919d81df29123271930013152e07139d23c85380bf7cf8a15e415cbfbb579f4"),
    (64, 0, "depolarizing", 0.25, "8e0fa303b7a10f6a04cb72c12b7fb5b70f56a4115bc1e175d9abd5580b11fcd8"),
    (64, 0, "intercept_resend", 0.3, "afb9f9da5aac769a96eeda13aee1d9715a0fde352efd7b3fd4c22b22cee51ccf"),
    (64, 4, "ideal", 0.0, "c44e292a50033a70eb3740fd9b35843deb233e6607ca05ab93b6ac8507883512"),
    (64, 4, "depolarizing", 0.1, "3bd652a6f44a14debff6a9fa7c781708baf4735f4a9c1780cff6b94db54c3b4a"),
    (64, 4, "depolarizing", 0.25, "8b4bbe5f186a4111dedefb35d59f7475cfab318832b5909e36249a1ddbcfe44c"),
    (64, 4, "intercept_resend", 0.3, "c813a9b042258803f496adaf56e3da0b531a88fb07fb4c2c479bb797414386b4"),
    (512, 0, "ideal", 0.0, "df7f49b0f4442437f6623991aa0478eca8345f4e31962cd3ac4561143d061748"),
    (512, 0, "depolarizing", 0.1, "28b591f3ab0c0f72c2c0d60d100c0c573e6a52b6ac52b28365fde8cefd80b61a"),
    (512, 0, "depolarizing", 0.25, "0558a589e6c91d5e6b54a073120fa9e1af4670cfd932d88ce867df55fd1d24af"),
    (512, 0, "intercept_resend", 0.3, "98d7c2f07a8a3ae71762e207cfd63efd1a2cdea1564a3e426d190ad6776e4a45"),
    (512, 4, "ideal", 0.0, "f9feaa6528c0e4a52b911ff22f8f6dffc2e30e73a1ba1963ad9d9d411a569215"),
    (512, 4, "depolarizing", 0.1, "f08ac53dbc3701ecab144977e37176b1a1d9621d7877bafaca5c9c427097d4f6"),
    (512, 4, "depolarizing", 0.25, "ba3921f9d29ddcaa4be794d90ac0f457f75dc89755bd1cc9559669edd21920f9"),
    (512, 4, "intercept_resend", 0.3, "667a0b39f8aad96bac5d8b626ec4009c81ba17524f639c73e073ee3b66a2578b"),
]


def golden_batch(n, seed, kind, param):
    cfg = ProtocolConfig(n=n, delta=GOLDEN_DELTA[n], threshold=round(0.11 * n),
                         code=STEANE, master_seed=seed)
    return run_batch(cfg, ChannelModel(kind, param), 4)


class TestGoldenTranscripts:
    @pytest.mark.parametrize("n,seed,kind,param,digest", GOLDEN,
                             ids=[f"n{c[0]}-s{c[1]}-{c[2]}-{c[3]}" for c in GOLDEN])
    def test_transcripts_are_byte_identical(self, n, seed, kind, param, digest):
        ts = golden_batch(n, seed, kind, param)
        text = formats.dump_json([formats.transcript_to_json(t) for t in ts])
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("row", [GOLDEN[7], GOLDEN[9]], ids=["n64-eve", "n512-depolarizing"])
    def test_numpy_integer_parameters_give_the_same_bytes(self, row):
        # rng.stream keys every stream on an f-string of the seed, so a NumPy
        # integer must format and compare exactly like the Python int
        n, seed, kind, param, digest = row
        cfg = ProtocolConfig(n=np.int64(n), delta=GOLDEN_DELTA[n],
                             threshold=np.int64(round(0.11 * n)), code=STEANE,
                             master_seed=np.int64(seed))
        ts = run_batch(cfg, ChannelModel(kind, param), np.int64(4))
        text = formats.dump_json([formats.transcript_to_json(t) for t in ts])
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_golden_set_covers_every_outcome(self):
        reasons, failed_blocks = set(), 0
        for n, seed, kind, param, _ in GOLDEN:
            for t in golden_batch(n, seed, kind, param):
                reasons.add(t.abort_reason and t.abort_reason.split()[0])
                failed_blocks += int(np.sum(~t.block_success))
        assert reasons == {None, "sifting", "check-bit"}
        assert failed_blocks > 0

    @pytest.mark.parametrize("n,seed,kind,param,digest", GOLDEN,
                             ids=[f"n{c[0]}-s{c[1]}-{c[2]}-{c[3]}" for c in GOLDEN])
    def test_writer_gives_the_golden_bytes(self, n, seed, kind, param, digest):
        buf = io.StringIO()
        formats.write_transcripts(golden_batch(n, seed, kind, param), buf)
        text = buf.getvalue()
        assert text.endswith("]\n")
        assert hashlib.sha256(text[:-1].encode()).hexdigest() == digest


def written(transcripts) -> str:
    buf = io.StringIO()
    formats.write_transcripts(transcripts, buf)
    return buf.getvalue()


def reference_text(transcripts) -> str:
    return formats.dump_json([formats.transcript_to_json(t) for t in transcripts]) + "\n"


# bit fields of unequal lengths, so a slice one off shows in the text
HAND_BUILT_BITS = ("alice_bits", "alice_bases", "bob_bases", "bob_bits", "sift_mask",
                   "announced_offset", "alice_key", "bob_key", "block_success", "eve_mask",
                   "eve_bases", "eve_bits")
_HAND = np.array([1, 0, 1, 1, 0, 0, 1], np.uint8)
HAND_BUILT_BASE = dict(
    config_seed=5, alice_bits=_HAND, alice_bases=_HAND[::-1], bob_bases=_HAND[1:],
    bob_bits=1 - _HAND, sift_mask=_HAND[:5].astype(bool), check_indices=np.array([0, 3]),
    keep_indices=np.array([2, 5, 6]), disagreements=1, qber_estimate=0.5,
    announced_offset=_HAND[:3], alice_key=_HAND[2:4], bob_key=_HAND[3:4],
    block_success=np.array([True, False]), eve_mask=_HAND[:6].astype(bool),
    eve_bases=_HAND[::2], eve_bits=_HAND[1::3])
HAND_BUILT = {
    "as-built": {},
    "no-eve-mask": dict(eve_mask=None),
    "no-eve-bases": dict(eve_bases=None),
    "no-eve-bits": dict(eve_bits=None),
    "no-eve": dict(eve_mask=None, eve_bases=None, eve_bits=None),
    "int64-bits": {k: HAND_BUILT_BASE[k].astype(np.int64) for k in HAND_BUILT_BITS},
    "bool-bits": {k: HAND_BUILT_BASE[k].astype(bool) for k in HAND_BUILT_BITS},
    "empty-keys": dict(announced_offset=np.array([], np.uint8), alice_key=np.array([], np.uint8),
                       bob_key=np.array([], np.uint8), block_success=np.array([], bool)),
    "no-indices": dict(check_indices=np.array([], np.intp), keep_indices=np.array([], np.intp)),
    "one-index": dict(check_indices=np.array([6]), keep_indices=np.array([0])),
    "index-at-alice-bits-length": dict(check_indices=np.array([0, 7])),
    "index-past-alice-bits": dict(check_indices=np.array([3, 12]),
                                  keep_indices=np.array([1000, 7, 2])),
    "negative-index": dict(keep_indices=np.array([4, -1, 2])),
    "float-indices": dict(check_indices=np.array([0.5, 2.0])),
    "bool-indices": dict(keep_indices=np.array([True, False])),
    "nul-in-abort-reason": dict(aborted=True, abort_reason="a NUL \0 parts no scalar"),
}


class TestTranscriptWriter:
    def test_every_outcome_equals_dump_json(self):
        outcomes = Counter()
        for case in ORACLE_CASES:
            batch = run_batch(oracle_config(case), oracle_channel(case), 40)
            assert written(batch) == reference_text(batch)
            for t in batch:
                assert written([t]) == reference_text([t])
                outcomes[t.abort_reason and t.abort_reason.split()[0]] += 1
                outcomes["eve"] += t.eve_mask is not None
                outcomes["failed-block"] += bool(np.sum(~t.block_success))
        assert set(outcomes) == {None, "sifting", "check-bit", "eve", "failed-block"}
        assert min(outcomes.values()) > 0

    def test_no_trials_write_an_empty_array(self):
        assert written([]) == reference_text([]) == "[]\n"
        assert written(iter(())) == "[]\n"

    def test_lazy_iterable_is_written_as_it_comes(self):
        batch = run_batch(oracle_config("eve"), oracle_channel("eve"), 5)
        taken, taken_at_write = [], []

        def lazy():
            for t in batch:
                taken.append(t)
                yield t

        class Recorder(io.StringIO):
            def write(self, text):
                taken_at_write.append(len(taken))
                return super().write(text)

        buf = Recorder()
        formats.write_transcripts(lazy(), buf)
        assert buf.getvalue() == reference_text(batch)
        assert taken_at_write == [1, 2, 3, 4, 5, 5]   # one write per transcript, then "]"

    @pytest.mark.parametrize("qber", [np.nan, -0.0, 5e-324], ids=["nan", "minus-zero", "subnormal"])
    def test_escaped_scalars_equal_dump_json(self, qber):
        # no real run sends an escaped character or a 71-bit seed through the scalar path
        bits = np.array([1, 0, 1, 1], np.uint8)
        t = bb84.ProtocolTranscript(
            config_seed=2 ** 70, alice_bits=bits, alice_bases=bits, bob_bases=bits,
            bob_bits=bits, sift_mask=bits, aborted=True,
            abort_reason='quote " backslash \\ newline \n e-acute \u00e9',
            check_indices=np.array([0, 3]), keep_indices=np.array([2]), disagreements=1,
            qber_estimate=qber)
        assert written([t]) == reference_text([t])

    @pytest.mark.parametrize("case", list(HAND_BUILT))
    def test_hand_built_transcripts_equal_dump_json(self, case):
        t = bb84.ProtocolTranscript(**{**HAND_BUILT_BASE, **HAND_BUILT[case]})
        assert written([t]) == reference_text([t])
        assert written([t, t]) == reference_text([t, t])

    def test_one_index_table_stays_cached(self):
        # a run writes one qubit count, so a second count's table replaces the first
        small, large = run_bb84(config(n=64), ChannelModel("ideal")), run_bb84(
            config(n=140), ChannelModel("ideal"))
        assert len(small.alice_bits) != len(large.alice_bits)
        formats._index_cells.cache_clear()
        assert written([small]) == reference_text([small])
        assert written([large]) == reference_text([large])
        assert formats._index_cells.cache_info().currsize == 1
        formats._index_cells(len(large.alice_bits))
        assert formats._index_cells.cache_info().hits == 1   # the table kept is the last one

    @pytest.mark.parametrize("case", list(ORACLE_CASES))
    def test_numpy_integer_seed_exports_like_the_python_int(self, case):
        ch = oracle_channel(case)
        t = run_bb84(oracle_config(case, np.int64(3)), ch)
        assert type(t.config_seed) is int
        want = run_bb84(oracle_config(case, 3), ch)
        assert formats.dump_json(formats.transcript_to_json(t)) == formats.dump_json(
            formats.transcript_to_json(want))
        assert written([t]) == written([want]) == reference_text([want])


class TestChunks:
    def test_chunks_split_the_batch_and_keep_every_trial(self, monkeypatch):
        cfg, ch = oracle_config("eve"), oracle_channel("eve")
        whole = run_batch(cfg, ch, 10)
        monkeypatch.setattr(bb84, "_CHUNK", 3)
        chunks = list(bb84.run_chunks(cfg, ch, 10))
        assert [len(c) for c in chunks] == [3, 3, 3, 1]
        for got, want in zip([t for c in chunks for t in c], whole, strict=True):
            assert_same_transcript(got, want)


# dtype and shape of every array field, captured before the transcript fields
# gained defaults; the golden digests print an empty array of any dtype as []
IDX = np.dtype(np.intp)
U8, B = np.dtype(np.uint8), np.dtype(bool)
SENT = {32: 128, 64: 320}
DTYPE_CASES = {
    "sifting-abort": (32, 0.0, 3, 0, "ideal", 0.0, dict(
        check_indices=(U8, 0), keep_indices=(U8, 0), announced_offset=(U8, 0),
        alice_key=(U8, 0), bob_key=(U8, 0), block_success=(B, 0))),
    "check-abort": (64, 1.0, 0, 11, "intercept_resend", 1.0, dict(
        check_indices=(IDX, 64), keep_indices=(IDX, 64), announced_offset=(U8, 0),
        alice_key=(U8, 0), bob_key=(U8, 0), block_success=(B, 0))),
    "completed": (64, 1.0, 7, 11, "depolarizing", 0.1, dict(
        check_indices=(IDX, 64), keep_indices=(IDX, 64), announced_offset=(U8, 63),
        alice_key=(U8, 9), bob_key=(U8, 9), block_success=(B, 9))),
    "eve": (64, 1.0, 20, 11, "intercept_resend", 0.3, dict(
        check_indices=(IDX, 64), keep_indices=(IDX, 64), announced_offset=(U8, 63),
        alice_key=(U8, 9), bob_key=(U8, 9), block_success=(B, 9))),
}


class TestTranscriptFieldTypes:
    @pytest.mark.parametrize("case", list(DTYPE_CASES))
    def test_every_array_field_keeps_its_dtype_and_shape(self, case):
        n, delta, threshold, seed, kind, param, tail = DTYPE_CASES[case]
        t = run_bb84(ProtocolConfig(n=n, delta=delta, threshold=threshold, code=STEANE,
                                    master_seed=seed), ChannelModel(kind, param))
        assert t.aborted == case.endswith("abort")
        sent = SENT[n]
        want = dict(alice_bits=(U8, sent), alice_bases=(U8, sent), bob_bases=(U8, sent),
                    bob_bits=(U8, sent), sift_mask=(B, sent), **tail)
        if kind == "intercept_resend":
            want.update(eve_mask=(B, sent), eve_bases=(U8, sent), eve_bits=(U8, sent))
        got = {f.name: (getattr(t, f.name).dtype, getattr(t, f.name).shape[0])
               for f in dataclasses.fields(t) if isinstance(getattr(t, f.name), np.ndarray)}
        assert got == want
        assert all(getattr(t, f.name).ndim == 1 for f in dataclasses.fields(t) if f.name in got)
        assert (t.eve_mask is None) == (kind != "intercept_resend")
        assert type(t.disagreements) is int and type(t.qber_estimate) is float

    @pytest.mark.parametrize("case", list(DTYPE_CASES))
    def test_run_passes_only_the_fields_it_reached(self, monkeypatch, case):
        passed, real = [], bb84.ProtocolTranscript

        def recording(**fields):
            passed.append(fields)
            return real(**fields)

        n, delta, threshold, seed, kind, param, _ = DTYPE_CASES[case]
        monkeypatch.setattr(bb84, "ProtocolTranscript", recording)
        run_bb84(ProtocolConfig(n=n, delta=delta, threshold=threshold, code=STEANE,
                                master_seed=seed), ChannelModel(kind, param))
        (fields,) = passed
        assert not [k for k, v in fields.items() if isinstance(v, np.ndarray) and v.size == 0]
        assert ("announced_offset" in fields) == (not case.endswith("abort"))
        assert ("check_indices" in fields) == (case != "sifting-abort")
