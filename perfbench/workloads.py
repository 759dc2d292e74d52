"""The four benchmark workloads.

Each workload is a closed loop with one caller: the next op starts only after
the previous one has returned and its output has been checked.  A pass is a
fixed list of ops, and throughput counts the workload's unit of work (a BB84
trial, an HSW estimate, a compress sweep) per second of op time.  Inputs come
from the workload seed alone; qinfo receives only these generated inputs.
Every op calls the public qinfo API or ``qinfo.cli.main`` through its module
attribute, so the traced run can interpose on it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import shutil
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from qinfo import bb84, capacity, cli, codes, states

from . import oracles


@dataclass
class Checked:
    """What the untimed check of one op found."""
    problems: list[str]
    digest: bytes                                   # stable bytes of the output
    outcomes: Counter = field(default_factory=Counter)  # BB84 outcome counts


@dataclass
class Op:
    label: str
    call: Callable[[], object]           # the timed call into qinfo
    verify: Callable[[object], Checked]  # oracle and digest, outside the timing


class Workload:
    name = ""
    unit = ""
    units_per_pass = 1

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch

    def setup(self) -> None:
        """Build the fixtures the ops need; may run again after teardown."""

    def teardown(self) -> None:
        """Release what setup made."""

    def pass_ops(self, index: int) -> list[Op]:
        raise NotImplementedError

    def _rng(self, *labels) -> random.Random:
        # String seeds are hashed with SHA-512, so they do not depend on
        # PYTHONHASHSEED.
        return random.Random("/".join(str(x) for x in (self.name, self.seed) + labels))

    def _make_dir(self) -> Path:
        return Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.scratch))


def _sha(*chunks: bytes) -> bytes:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.digest()


def _transcript_bytes(t) -> bytes:
    parts = []
    for f in dataclasses.fields(t):
        v = getattr(t, f.name)
        if isinstance(v, np.ndarray):
            parts.append(f"{f.name}:{v.dtype}:{v.shape}:".encode() + v.tobytes())
        else:
            parts.append(f"{f.name}={v!r}".encode())
    return b"|".join(parts)


def _outcomes(rows) -> Counter:
    """Sum (aborted, reason, blocks, failed blocks, key bits, qubits) rows."""
    c = Counter()
    for aborted, reason, blocks, failures, key_bits, qubits in rows:
        c["trials"] += 1
        c["aborts_sift"] += bool(aborted and reason.startswith("sifting"))
        c["aborts_check"] += bool(aborted and reason.startswith("check"))
        c["blocks_reconciled"] += blocks
        c["block_failures"] += failures
        c["key_bits"] += key_bits
        c["qubits_sent"] += qubits
    return c


class QkdKeygen(Workload):
    """``bb84.run_batch`` on the Steane code, n=512, delta=1.

    Batches of 100 trials alternate between the ideal channel (threshold 56)
    and depolarizing 0.1 (threshold 511), so every trial reaches
    reconciliation and the per-block encode/decode/coset_key loop does most of
    the work."""

    name, unit = "qkd-keygen", "trial"
    N, DELTA, TRIALS = 512, 1.0, 100
    BATCHES = (("ideal", 0.0, 56), ("depolarizing", 0.1, 511))
    units_per_pass = TRIALS * len(BATCHES)

    def setup(self):
        self.code = codes.steane_css()
        self.channels = {kind: bb84.ChannelModel(kind, p) for kind, p, _ in self.BATCHES}

    def pass_ops(self, index):
        rng = self._rng(index)
        ops = []
        for kind, _, threshold in self.BATCHES:
            cfg = bb84.ProtocolConfig(n=self.N, delta=self.DELTA, threshold=threshold,
                                      code=self.code, master_seed=rng.getrandbits(62))
            ch = self.channels[kind]
            ops.append(Op(kind,
                          lambda cfg=cfg, ch=ch: bb84.run_batch(cfg, ch, self.TRIALS),
                          lambda out, kind=kind: self._verify(out, kind)))
        return ops

    def _verify(self, transcripts, kind):
        return Checked(
            oracles.check_keygen_batch(transcripts, kind, self.N),
            _sha(*(_transcript_bytes(t) for t in transcripts)),
            _outcomes((t.aborted, t.abort_reason or "", t.block_success.size,
                       int(np.sum(~t.block_success)), t.alice_key.size, t.alice_bits.size)
                      for t in transcripts))


class QkdAudit(Workload):
    """``qinfo qkd`` through ``cli.main``: 100 trials at intercept_resend 1.0
    with threshold 76, per-trial CSV and full transcripts written to files.

    Nearly every trial aborts at the check, so no ``codes`` work runs, while
    Eve's extra streams and the transcript write path do."""

    name, unit = "qkd-audit", "trial"
    N, TRIALS, THRESHOLD = 512, 100, 76
    units_per_pass = TRIALS

    def setup(self):
        self.dir = self._make_dir()
        self.config = self.dir / "protocol.json"
        self.config.write_text(json.dumps({
            "n": self.N, "delta": 1.0, "threshold": self.THRESHOLD, "code": "steane",
            "channel": {"kind": "intercept_resend", "param": 1.0}}))
        self.csv = self.dir / "trials.csv"
        self.transcripts = self.dir / "transcripts.json"

    def teardown(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def pass_ops(self, index):
        argv = ["qkd", "--config", str(self.config),
                "--seed", str(self._rng(index).getrandbits(62)),
                "--trials", str(self.TRIALS),
                "--out", str(self.csv), "--transcripts", str(self.transcripts)]
        return [Op("qkd", lambda: cli.main(argv), self._verify)]

    def _verify(self, exit_code):
        try:
            csv_text, tr_text = self.csv.read_text(), self.transcripts.read_text()
        except OSError as exc:
            return Checked([f"output missing: {exc}"], b"")
        # Remove the outputs so that a later op that writes nothing is caught.
        self.csv.unlink()
        self.transcripts.unlink()
        problems = oracles.check_audit(exit_code, csv_text, tr_text, self.TRIALS, self.N)
        outcomes = Counter()
        if not problems:
            outcomes = _outcomes(
                (t["aborted"], t["abort_reason"] or "", len(t["block_success"] or ""),
                 (t["block_success"] or "").count("0"), len(t["alice_key"] or ""),
                 len(t["alice_bits"]))
                for t in json.loads(tr_text))
        return Checked(problems, _sha(csv_text.encode(), tr_text.encode()), outcomes)


def qutrit_depolarizing(f: float) -> states.QuantumChannel:
    """rho -> (1-f) rho + f I/3 from the nine Weyl operators X^a Z^b."""
    d = 3
    shift = np.roll(np.eye(d), 1, axis=0)
    clock = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    kraus = []
    for a in range(d):
        for b in range(d):
            weight = 1.0 - f + f / d ** 2 if a == b == 0 else f / d ** 2
            kraus.append(np.sqrt(weight) * np.linalg.matrix_power(shift, a)
                         @ np.linalg.matrix_power(clock, b))
    return states.QuantumChannel(kraus)


class Hsw(Workload):
    """``capacity.hsw_capacity_estimate`` on identity(2) with restarts=1,
    depolarizing(0.5) with restarts=2 and a qutrit depolarizing(0.3) with
    restarts=0; the restart seed comes from the workload seed.

    Nelder-Mead objective evaluations through capacity, qentropy and states
    take nearly all the time, at d=2 and d=3."""

    name, unit = "hsw", "estimate"
    units_per_pass = 3

    def setup(self):
        self.cases = [
            ("identity-2", states.identity_channel(2), 1),
            ("depolarizing-0.5", states.depolarizing_channel(0.5), 2),
            ("qutrit-depolarizing-0.3", qutrit_depolarizing(0.3), 0),
        ]
        self.restart_seed = self._rng().getrandbits(31)

    def pass_ops(self, index):
        return [Op(case,
                   lambda ch=ch, r=r: capacity.hsw_capacity_estimate(
                       ch, restarts=r, seed=self.restart_seed),
                   lambda out, case=case: self._verify(case, out))
                for case, ch, r in self.cases]

    @staticmethod
    def _verify(case, out):
        chi, ensemble = out
        digest = _sha(float(chi).hex().encode(),
                      *(float(w).hex().encode() + np.asarray(v).tobytes() for w, v in ensemble))
        return Checked(oracles.check_hsw(case, float(chi)), digest)


class Compress(Workload):
    """``qinfo compress`` through ``cli.main`` over a fixed sweep set:
    binary (0.75, 0.25) up to n=18 at one rate above H and one below it,
    ternary (0.5, 0.3, 0.2) up to n=11, and ``--quantum`` on the diagonal
    binary source up to d^n=256, all at eps 0.3.

    Typical-set enumeration is almost all the work; the sweep varies the
    alphabet size, the block length and the scheme path.  The seed draws the
    rates from ranges in which every block length can be indexed."""

    name, unit = "compress", "sweep"
    EPS = 0.3
    BINARY, TERNARY = (0.75, 0.25), (0.5, 0.3, 0.2)

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        rng = self._rng()
        self.sweep = [  # (probs, blocks, rate; None for --quantum)
            (self.BINARY, (6, 10, 14, 18), round(rng.uniform(0.95, 1.0), 6)),
            (self.BINARY, (6, 10, 14, 18), round(rng.uniform(0.6, 0.75), 6)),
            (self.TERNARY, (3, 5, 7, 9, 11), round(rng.uniform(1.7, 1.8), 6)),
            (self.BINARY, (2, 4, 6, 8), None),
        ]

    def setup(self):
        self.dir = self._make_dir()
        self.out = self.dir / "sweep.csv"
        self.argvs = []
        for probs, blocks, rate in self.sweep:
            argv = ["compress", "--probs", json.dumps(list(probs)),
                    "--blocks", ",".join(map(str, blocks)), "--eps", repr(self.EPS),
                    "--out", str(self.out)]
            argv += ["--quantum"] if rate is None else ["--rate", repr(rate)]
            self.argvs.append(argv)

    def teardown(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def pass_ops(self, index):
        return [Op(f"probs {list(probs)} rate {rate}",
                   lambda argv=argv: cli.main(argv),
                   lambda code, p=probs, b=blocks, r=rate: self._verify(code, p, b, r))
                for argv, (probs, blocks, rate) in zip(self.argvs, self.sweep)]

    def _verify(self, exit_code, probs, blocks, rate):
        try:
            text = self.out.read_text()
        except OSError as exc:
            return Checked([f"exit code {exit_code}, output missing: {exc}"], b"")
        self.out.unlink()
        problems = [f"exit code {exit_code}"] if exit_code else []
        problems += oracles.check_compress(text, probs, blocks, self.EPS, rate)
        return Checked(problems, _sha(text.encode()))


WORKLOADS = {w.name: w for w in (QkdKeygen, QkdAudit, Hsw, Compress)}
