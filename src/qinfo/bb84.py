"""Monte-Carlo simulator of BB84 key distribution with CSS reconciliation.

One protocol run follows the classical-computation variant end to end: random
bits are basis-encoded into qubits, pushed one by one through a noise model,
measured by the receiver in random bases, sifted, spot-checked against a
disagreement threshold, reconciled blockwise with the C1 code of a CSS pair,
and privacy-amplified down to the coset key of C2 in C1.  Every signal is one
of four states, so a qubit travels as its index 2*basis + bit (never a joint
state): the Born probabilities come from a 4 x 2 table, one _born_p0 call on
the 8 transported signal matrices, and an intercept-resend Eve swaps indices.

Aborts are ordinary outcomes recorded on the transcript, not errors.  All
randomness comes from named per-purpose streams of the master seed, so a
transcript replays bit-exactly (a pseudorandom generator only approximates
ideal protocol bits).  A batch re-keys one Philox per (trial, label) stream:
a row of fair bits is rng.bits of its raw words, and a measurement row compares
the top 53 bits of its raw words, the integers behind random(), with rng.cut of
the flat p0 table at 2*state + basis.  At an intercept-resend rate of 0 or 1
Eve's mask is constant (a uniform in [0, 1) is always below 1 and never below
0), so its stream is never keyed or drawn.
"""

from __future__ import annotations

import functools
import math
import reprlib
import sys
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from . import _check
from .codes import CssCode, _decode_rows, _message_keys, _syndrome_lookup, coset_key, decode
from .entropy import mutual_information
from .qentropy import coherent_information, holevo_chi
from .rng import bits, cut, rekey, stream
from .states import (
    HADAMARD,
    ID2,
    KET_0,
    KET_1,
    KET_MINUS,
    KET_PLUS,
    DensityMatrix,
    QuantumChannel,
    _ordered_sum,
    as_density,
    depolarizing_channel,
    identity_channel,
    measure,
    outer,
    projective_measurement,
)

COMPUTATIONAL, HADAMARD_BASIS = 0, 1

# state_vectors[basis][bit]; bit 0/1 in the computational or Hadamard basis
STATE_VECTORS = np.array([[KET_0, KET_1], [KET_PLUS, KET_MINUS]])
STATE_MATRICES = np.array([[outer(KET_0), outer(KET_1)],
                           [outer(KET_PLUS), outer(KET_MINUS)]])


def bb84_state(bit: int, basis: int) -> np.ndarray:
    """The signal state for one (bit, basis) pair: |0>, |1>, |+> or |->."""
    return STATE_VECTORS[basis][bit]


def basis_matrix(basis: int) -> np.ndarray:
    return ID2 if basis == COMPUTATIONAL else HADAMARD


@dataclass(frozen=True)
class ChannelModel:
    """Per-qubit transport model: ideal, depolarizing(f) or intercept_resend(q)."""
    kind: str
    param: float = 0.0

    def __post_init__(self):
        if self.kind not in ("ideal", "depolarizing", "intercept_resend"):
            # reprlib cuts a long or deeply nested kind to a few dozen characters
            raise ValueError(f"unknown channel kind {reprlib.repr(self.kind)}; expected "
                             "'ideal', 'depolarizing' or 'intercept_resend'")
        _check.real(self.param, "param", 0, 1)

    def operation(self) -> QuantumChannel:
        """The model as a single-qubit trace-preserving operation."""
        if self.kind == "ideal":
            return identity_channel(2)
        if self.kind == "depolarizing":
            return depolarizing_channel(self.param)
        q = self.param
        kraus = [np.sqrt(1.0 - q) * ID2]
        for basis in (COMPUTATIONAL, HADAMARD_BASIS):
            for bit in (0, 1):
                kraus.append(np.sqrt(q / 2.0) * STATE_MATRICES[basis][bit])
        return QuantumChannel(kraus)


@dataclass(frozen=True)
class ProtocolConfig:
    """Run parameters: key block n, qubit overhead delta, abort threshold, code."""
    n: int
    delta: float
    threshold: int
    code: CssCode
    master_seed: int

    def __post_init__(self):
        if _check.integer(self.n, "n", 1) > sys.float_info.max:   # exact: no float built
            raise ValueError(f"n must be <= {sys.float_info.max:g}, got {reprlib.repr(self.n)}")
        if not math.isfinite((4 + _check.real(self.delta, "delta", 0)) * self.n):
            raise ValueError(f"delta must keep (4 + delta) * {reprlib.repr(self.n)} finite, "
                             f"got {self.delta}")
        if _check.integer(self.threshold, "threshold", 0) >= self.n:
            raise ValueError(f"threshold must be < n = {self.n}, got {self.threshold}")
        _check.integer(self.master_seed, "master_seed")
        if self.code.logical_bits < 0 or self.code.t < 1:
            raise ValueError("reconciliation needs a CSS code correcting >= 1 error")
        if self.n < self.code.n:
            raise ValueError(f"key block n={self.n} shorter than one code block ({self.code.n})")
        _syndrome_lookup(self.code.c1, self.code.t)

    @property
    def qubits_sent(self) -> int:
        return math.ceil((4 + self.delta) * self.n)


def _empty(dtype=np.uint8):
    return field(default_factory=lambda: np.zeros(0, dtype=dtype))


@dataclass(frozen=True)
class ProtocolTranscript:
    """Complete replayable record of one protocol run.

    The six fields every run records come first.  The others default to a run
    that never reached them: empty uint8 arrays (bool for block_success),
    disagreements 0, qber NaN, no abort and no Eve fields.
    """
    config_seed: int
    alice_bits: np.ndarray
    alice_bases: np.ndarray
    bob_bases: np.ndarray
    bob_bits: np.ndarray
    sift_mask: np.ndarray
    aborted: bool = False
    abort_reason: str | None = None
    check_indices: np.ndarray = _empty()
    keep_indices: np.ndarray = _empty()
    disagreements: int = 0
    qber_estimate: float = math.nan
    announced_offset: np.ndarray = _empty()     # per block, x - v_k (mod 2), flattened
    alice_key: np.ndarray = _empty()
    bob_key: np.ndarray = _empty()
    block_success: np.ndarray = _empty(bool)
    eve_mask: np.ndarray | None = None
    eve_bases: np.ndarray | None = None
    eve_bits: np.ndarray | None = None

    @property
    def keys_match(self) -> bool:
        return (not self.aborted and self.alice_key.size > 0
                and np.array_equal(self.alice_key, self.bob_key))


def _born_p0(rhos: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """Probability of outcome 0 for each qubit measured in its own basis."""
    v0 = STATE_VECTORS[bases, 0]
    return np.einsum("ni,nij,nj->n", v0.conj(), rhos, v0).real


def measure_qubit(rho, basis: int, rng: np.random.Generator) -> int:
    """Measure one qubit state in the computational or Hadamard basis."""
    ops = projective_measurement(basis_matrix(basis))
    p0 = measure(as_density(rho), ops)[0][0]
    return 0 if rng.random() < p0 else 1


@functools.lru_cache(maxsize=64)
def _p0_table(ch: ChannelModel) -> np.ndarray:
    """p0[state, basis] of the four signals after transport, state = 2*basis + bit.

    One _born_p0 call on the 8-row batch, so each entry equals a full stack's.
    Cached per (frozen) model and returned read-only.
    """
    rhos = STATE_MATRICES.reshape(4, 2, 2)
    if ch.kind == "depolarizing":
        rhos = (1.0 - ch.param) * rhos + (ch.param / 2.0) * ID2
    table = _born_p0(np.repeat(rhos, 2, axis=0), np.tile([0, 1], 4)).reshape(4, 2)
    table.flags.writeable = False
    return table


def reconcile_and_amplify(code: CssCode, x_alice: np.ndarray, x_bob: np.ndarray,
                          v: np.ndarray):
    """One reconciliation + privacy amplification block.

    Alice announces offset = x_alice - v; Bob decodes x_bob - offset with C1
    to recover v, and both reduce to the coset key of v + C2 in C1.  Returns
    (key_alice, key_bob, success, offset); success means Bob's decode landed
    on v exactly, which is guaranteed when the strings differ in <= t places.
    """
    offset = (np.asarray(x_alice, dtype=np.uint8) ^ v).astype(np.uint8)
    key_a = coset_key(code, v)
    word = (np.asarray(x_bob, dtype=np.uint8) ^ offset).astype(np.uint8)
    out = decode(code.c1, word, code.t)
    if out is None:
        return key_a, np.zeros_like(key_a), False, offset
    v_hat = out[0]
    key_b = coset_key(code, v_hat)
    return key_a, key_b, bool(np.array_equal(v_hat, v)), offset


def _reconcile_blocks(code: CssCode, x_alice: np.ndarray, x_bob: np.ndarray,
                      msgs: np.ndarray):
    """reconcile_and_amplify on every row of (B, n) bit stacks at once.

    Returns (keys_a, keys_b, success, offsets), one row per block.
    """
    v = msgs @ code.c1.generator.T % 2
    offsets = x_alice ^ v
    v_hat, decoded = _decode_rows(code.c1, x_bob ^ offsets, code.t)
    pivot_rows, inv = code._key_machinery[:2]   # v_hat is in C1: decoded, or zero
    keys_b = _message_keys(code, v_hat[:, pivot_rows] @ inv.T % 2)
    success = decoded & np.all(v_hat == v, axis=1)
    return _message_keys(code, msgs), keys_b, success, offsets


_CHUNK = 256   # trials per stack: temporaries stay a few MB at any batch size
_MAX_QUBITS = 2 ** 22   # per trial: one trial at the cap peaks near 170 MB


def _run_trials(cfg: ProtocolConfig, ch: ChannelModel, seeds: list) -> list[ProtocolTranscript]:
    """One protocol run per master seed, all as one stack of (trials, qubits) rows."""
    if cfg.qubits_sent > _MAX_QUBITS:
        raise ValueError(f"a trial sends (4 + delta) * n = {reprlib.repr(cfg.qubits_sent)} qubits, "
                         f"above {_MAX_QUBITS}: lower n = {reprlib.repr(cfg.n)} or "
                         f"delta = {cfg.delta}")
    n, total, code, cuts = cfg.n, cfg.qubits_sent, cfg.code, cut(_p0_table(ch).ravel())
    n_blocks, every = n // code.n, range(len(seeds))
    gen = stream(0)   # one Philox re-keyed per stream

    def draw(label, make=None, trials=every, width=total, dtype=np.uint8):
        out = np.empty((len(trials), width), dtype)   # row j from stream label of trials[j]
        for row, i in enumerate(trials):   # fair bits unless make says otherwise
            rng = rekey(gen, seeds[i], label)
            out[row] = bits(rng, width) if make is None else make(rng, i)
        return out

    def top53(rng):   # random(total) is these integers times 2^-53
        return rng.bit_generator.random_raw(total) >> 11

    def measure(label, states, bases):
        p0 = 2 * states + bases   # index of p0[state, basis] in the flat table
        return draw(label, lambda rng, i: top53(rng) >= cuts.take(p0[i]))

    alice_bits, alice_bases, bob_bases = map(draw, ("alice-bits", "alice-bases", "bob-bases"))
    states, eve = 2 * alice_bases + alice_bits, {}
    if ch.kind == "intercept_resend":
        if ch.param in (0.0, 1.0):   # a uniform in [0, 1) is always < 1 and never < 0
            mask = np.full((len(seeds), total), ch.param == 1.0)
        else:
            below = cut(ch.param)
            mask = draw("eve-mask", lambda rng, i: top53(rng) < below, dtype=bool)
        eve_bases = draw("eve-bases")
        eve_bits = measure("eve-measure", states, eve_bases)
        states = np.where(mask, 2 * eve_bases + eve_bits, states)
        eve = dict(eve_mask=mask, eve_bases=eve_bases, eve_bits=eve_bits)
    bob_bits = measure("bob-measure", states, bob_bases)

    sift_mask = alice_bases == bob_bases
    enough = sift_mask.sum(axis=1) >= 2 * n
    chosen = np.zeros((len(seeds), 2, n), np.intp)   # check, keep; zero where sifting aborts
    for i in np.flatnonzero(enough):
        sifted = np.flatnonzero(sift_mask[i])   # shuffled with permutation(sifted.size)'s swaps
        rekey(gen, seeds[i], "selection").shuffle(sifted)
        chosen[i].flat = sifted[:2 * n]
    chosen.sort(axis=2)
    disagreements = np.take_along_axis(alice_bits != bob_bits, chosen[:, 0], 1).sum(axis=1)
    good = np.flatnonzero(enough & (disagreements <= cfg.threshold))
    msgs = draw("codewords", trials=good, width=n_blocks * code.c1.k).reshape(-1, code.c1.k)
    kept = chosen[good, 1, :n_blocks * code.n]
    x_alice, x_bob = (np.take_along_axis(x[good], kept, 1) for x in (alice_bits, bob_bits))
    blocks = (a.reshape(good.size, n_blocks, *a.shape[1:]) for a in _reconcile_blocks(
        code, x_alice.reshape(-1, code.n), x_bob.reshape(-1, code.n), msgs))

    runs = [dict(config_seed=int(seed), alice_bits=alice_bits[i], alice_bases=alice_bases[i],
                 bob_bases=bob_bases[i], bob_bits=bob_bits[i], sift_mask=sift_mask[i],
                 **{name: rows[i] for name, rows in eve.items()}) for i, seed in enumerate(seeds)]
    for i, d in zip(np.flatnonzero(enough), disagreements[enough].tolist()):
        runs[i].update(check_indices=chosen[i, 0], keep_indices=chosen[i, 1], disagreements=d,
                       qber_estimate=d / n)
    for i in np.flatnonzero(~enough | (disagreements > cfg.threshold)):
        runs[i].update(aborted=True, abort_reason="check-bit disagreements above threshold"
                       if enough[i] else "sifting left fewer than 2n bits")
    for i, key_a, key_b, success, offset in zip(good, *blocks):
        runs[i].update(announced_offset=offset.ravel(), alice_key=key_a.ravel(),
                       bob_key=key_b.ravel(), block_success=success)
    return [ProtocolTranscript(**run) for run in runs]


def run_bb84(cfg: ProtocolConfig, ch: ChannelModel) -> ProtocolTranscript:
    """Execute one complete protocol run: the batch core on cfg.master_seed alone."""
    return _run_trials(cfg, ch, [cfg.master_seed])[0]


def run_chunks(cfg: ProtocolConfig, ch: ChannelModel,
               trials: int) -> Iterator[list[ProtocolTranscript]]:
    """Independent protocol runs with per-trial seeds derived from the master.

    Trial i is run_bb84 under the seed from stream ("trial", i), its first raw
    word shifted right by 2: integers(0, 2**62) without the call, as Lemire's
    bounded draw never rejects on a power-of-two range.  Yields the transcripts
    as lists of at most _CHUNK consecutive trials, fewer where a trial sends
    more than 4096 qubits, one stack at a time, so a consumer that drops each
    list runs in constant memory.
    """
    trials, gen = _check.integer(trials, "trials", 0), stream(0)
    chunk = min(_CHUNK, max(1, 2 ** 20 // cfg.qubits_sent))   # at most 2^20 qubits a stack
    for at in range(0, trials, chunk):
        seeds = [int(rekey(gen, cfg.master_seed, "trial", str(i)).bit_generator.random_raw()) >> 2
                 for i in range(at, min(at + chunk, trials))]
        yield _run_trials(cfg, ch, seeds)


def run_batch(cfg: ProtocolConfig, ch: ChannelModel, trials: int) -> list[ProtocolTranscript]:
    """Every transcript of run_chunks, in trial order."""
    return [t for chunk in run_chunks(cfg, ch, trials) for t in chunk]


def privacy_lower_bound(rho, op) -> float:
    """Guaranteed excess information of the receiver over the eavesdropper.

    Equals the coherent information of the transport channel on the signal
    state; negative values mean no privacy can be certified this way.
    """
    if isinstance(op, ChannelModel):
        op = op.operation()
    return coherent_information(as_density(rho), op)


def eve_holevo_bound() -> float:
    """Holevo bound on intercept-resend leakage per sifted bit.

    Eve's side information per signal is her intercepted qubit together with
    the basis announced afterwards, modelled as the block states
    sum_b 1/2 |psi_(a,b)><psi_(a,b)| (x) |b><b| conditioned on the key bit a.
    """
    blocks = [_ordered_sum([0.5 * np.kron(STATE_MATRICES[b][a], outer(ID2[b]))
                            for b in (COMPUTATIONAL, HADAMARD_BASIS)]) for a in (0, 1)]
    return holevo_chi([(0.5, DensityMatrix(big, (2, 2))) for big in blocks])


def eve_information_estimate(transcripts: list[ProtocolTranscript]) -> tuple[float, float]:
    """Empirical eavesdropper information, with its Holevo ceiling.

    Pools every sifted position Eve intercepted and plugs the joint counts of
    (Alice bit) versus (Eve bit, basis-matched flag) into the mutual
    information; the matched flag is available to Eve once bases are public.
    Returns (bits per intercepted sifted bit, Holevo bound).  No intercepted
    material gives 0.
    """
    counts = np.zeros((2, 4))
    for t in transcripts:
        if t.eve_mask is None:
            continue
        pos = np.nonzero(t.sift_mask & t.eve_mask)[0]
        if pos.size == 0:
            continue
        a = t.alice_bits[pos]
        e = t.eve_bits[pos]
        matched = (t.eve_bases[pos] == t.alice_bases[pos]).astype(np.uint8)
        np.add.at(counts, (a, e + 2 * matched), 1)
    total = counts.sum()
    if total == 0:
        return 0.0, eve_holevo_bound()
    return mutual_information(counts / total), eve_holevo_bound()
