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
randomness comes from named per-purpose streams derived from the master seed,
so a transcript can be replayed bit-exactly; note that a pseudorandom
generator only approximates the ideal of perfectly random protocol bits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import _check
from .codes import CssCode, _coset_keys, _decode_rows, _syndrome_lookup, coset_key, decode
from .entropy import mutual_information
from .qentropy import coherent_information, holevo_chi
from .rng import stream
from .states import (
    HADAMARD,
    ID2,
    KET_0,
    KET_1,
    KET_MINUS,
    KET_PLUS,
    DensityMatrix,
    QuantumChannel,
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
            raise ValueError(f"unknown channel kind {self.kind!r}")
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
        _check.integer(self.n, "n", 1)
        _check.real(self.delta, "delta", 0)
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


@dataclass(frozen=True)
class ProtocolTranscript:
    """Complete replayable record of one protocol run."""
    config_seed: int
    aborted: bool
    abort_reason: str | None
    alice_bits: np.ndarray
    alice_bases: np.ndarray
    bob_bases: np.ndarray
    bob_bits: np.ndarray
    sift_mask: np.ndarray
    check_indices: np.ndarray
    keep_indices: np.ndarray
    disagreements: int
    qber_estimate: float
    announced_offset: np.ndarray     # per block, x - v_k (mod 2), flattened
    alice_key: np.ndarray
    bob_key: np.ndarray
    block_success: np.ndarray
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


def _draw(p0: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    return (rng.random(p0.size) >= p0).astype(np.uint8)


def _transport(states: np.ndarray, bases: np.ndarray, ch: ChannelModel, seed: int):
    """Transport signal-state indices; returns (p0 in the given bases, Eve's fields)."""
    table = _p0_table(ch)
    if ch.kind != "intercept_resend":
        return table[states, bases], {}
    count = states.size
    mask = stream(seed, "eve-mask").random(count) < ch.param
    eve_bases = stream(seed, "eve-bases").integers(0, 2, count).astype(np.uint8)
    eve_bits = _draw(table[states, eve_bases], stream(seed, "eve-measure"))
    states = np.where(mask, 2 * eve_bases + eve_bits, states)
    return table[states, bases], dict(eve_mask=mask, eve_bases=eve_bases, eve_bits=eve_bits)


def reconcile_and_amplify(code: CssCode, x_alice: np.ndarray, x_bob: np.ndarray,
                          v: np.ndarray):
    """One reconciliation + privacy amplification block.

    Alice announces offset = x_alice - v; Bob decodes x_bob - offset with C1
    to recover v, and both reduce to the coset key of v + C2 in C1.  Returns
    (key_alice, key_bob, success); success means Bob's decode landed on v
    exactly, which is guaranteed when the strings differ in <= t places.
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
    keys = _coset_keys(code, np.concatenate([v, v_hat]))
    success = decoded & np.all(v_hat == v, axis=1)
    return keys[:len(v)], keys[len(v):], success, offsets


def run_bb84(cfg: ProtocolConfig, ch: ChannelModel) -> ProtocolTranscript:
    """Execute one complete protocol run.

    Steps: random bits and bases, basis encoding, transport, random-basis
    measurement, basis announcement and sifting (abort below 2n survivors),
    random selection of n check bits (abort above the disagreement
    threshold), then codeword announcement, C1 decoding and coset key
    extraction for all blocks in one stacked pass.
    """
    seed = cfg.master_seed
    n, total = cfg.n, cfg.qubits_sent
    code = cfg.code

    alice_bits = stream(seed, "alice-bits").integers(0, 2, total).astype(np.uint8)
    alice_bases = stream(seed, "alice-bases").integers(0, 2, total).astype(np.uint8)
    bob_bases = stream(seed, "bob-bases").integers(0, 2, total).astype(np.uint8)

    p0, eve = _transport(2 * alice_bases + alice_bits, bob_bases, ch, seed)
    bob_bits = _draw(p0, stream(seed, "bob-measure"))

    sift_mask = alice_bases == bob_bases
    sifted = np.nonzero(sift_mask)[0]
    base = dict(
        config_seed=seed,
        alice_bits=alice_bits, alice_bases=alice_bases,
        bob_bases=bob_bases, bob_bits=bob_bits, sift_mask=sift_mask,
        **eve,
    )
    empty = np.zeros(0, dtype=np.uint8)

    if sifted.size < 2 * n:
        return ProtocolTranscript(
            aborted=True, abort_reason="sifting left fewer than 2n bits",
            check_indices=empty, keep_indices=empty, disagreements=0,
            qber_estimate=float("nan"), announced_offset=empty,
            alice_key=empty, bob_key=empty,
            block_success=np.zeros(0, dtype=bool), **base)

    perm = stream(seed, "selection").permutation(sifted.size)
    chosen = sifted[perm[:2 * n]]
    check_idx = np.sort(chosen[:n])
    keep_idx = np.sort(chosen[n:])
    disagreements = int(np.sum(alice_bits[check_idx] != bob_bits[check_idx]))
    qber = disagreements / n

    if disagreements > cfg.threshold:
        return ProtocolTranscript(
            aborted=True, abort_reason="check-bit disagreements above threshold",
            check_indices=check_idx, keep_indices=keep_idx,
            disagreements=disagreements, qber_estimate=qber,
            announced_offset=empty, alice_key=empty, bob_key=empty,
            block_success=np.zeros(0, dtype=bool), **base)

    n_blocks = n // code.n
    msgs = stream(seed, "codewords").integers(0, 2, (n_blocks, code.c1.k)).astype(np.uint8)
    kept = keep_idx[:n_blocks * code.n]
    keys_a, keys_b, success, offsets = _reconcile_blocks(
        code, alice_bits[kept].reshape(n_blocks, code.n),
        bob_bits[kept].reshape(n_blocks, code.n), msgs)

    return ProtocolTranscript(
        aborted=False, abort_reason=None,
        check_indices=check_idx, keep_indices=keep_idx,
        disagreements=disagreements, qber_estimate=qber,
        announced_offset=offsets.ravel(), alice_key=keys_a.ravel(),
        bob_key=keys_b.ravel(), block_success=success, **base)


def run_batch(cfg: ProtocolConfig, ch: ChannelModel, trials: int) -> list[ProtocolTranscript]:
    """Independent protocol runs with per-trial seeds derived from the master."""
    out = []
    for i in range(_check.integer(trials, "trials", 0)):
        trial_seed = int(stream(cfg.master_seed, "trial", str(i)).integers(0, 2 ** 62))
        out.append(run_bb84(replace(cfg, master_seed=trial_seed), ch))
    return out


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
    blocks = []
    for a in (0, 1):
        big = np.zeros((4, 4), dtype=complex)
        for b in (COMPUTATIONAL, HADAMARD_BASIS):
            big += 0.5 * np.kron(STATE_MATRICES[b][a], outer(np.eye(2, dtype=complex)[b]))
        blocks.append((0.5, DensityMatrix(big, (2, 2))))
    return holevo_chi(blocks)


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
