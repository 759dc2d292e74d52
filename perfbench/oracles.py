"""Output oracles behind the benchmark's failure count.

Every check here is written from the protocol and the mathematics, not from
qinfo's code: it holds its own parity-check matrix, its own closed forms and
its own composition sums, and it never calls into qinfo.  A check returns a
list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache

import numpy as np

# Parity-check matrix [P | I] of the systematic Hamming [7, 4] code (generator
# [I; P]) that the Steane construction uses as C1.
STEANE_C1_PARITY = np.array([
    [0, 1, 1, 1, 1, 0, 0],
    [1, 0, 1, 1, 0, 1, 0],
    [1, 1, 0, 1, 0, 0, 1],
], dtype=np.uint8)

# Tolerance for a value printed with 12 significant digits.
PRINTED_REL_TOL = 1e-11


def entropy_bits(*probs: float) -> float:
    return -sum(p * math.log2(p) for p in probs if p > 0.0)


# Closed-form product-state capacities of the three HSW cases.
HSW_CAPACITY = {
    "identity-2": 1.0,
    "depolarizing-0.5": 1.0 - entropy_bits(0.25, 0.75),
    "qutrit-depolarizing-0.3": math.log2(3) - entropy_bits(0.8, 0.1, 0.1),
}


# --- BB84 ---------------------------------------------------------------

def check_keygen_batch(transcripts, channel: str, n: int,
                       parity: np.ndarray = STEANE_C1_PARITY) -> list[str]:
    """Ideal batches never abort and every key matches; depolarizing(0.1)
    batches have mean QBER 0.05 +- 0.01.  In every trial that reached
    reconciliation, offset XOR Alice's kept bits is a C1 codeword in every
    block, and the keys agree on every block marked successful."""
    problems = []
    block = parity.shape[1]
    if channel == "ideal":
        for i, t in enumerate(transcripts):
            if t.aborted:
                problems.append(f"trial {i}: aborted on the ideal channel")
            elif t.alice_key.size == 0 or not np.array_equal(t.alice_key, t.bob_key):
                problems.append(f"trial {i}: keys differ on the ideal channel")
    else:
        qber = float(np.mean([t.qber_estimate for t in transcripts]))
        if not abs(qber - 0.05) <= 0.01:
            problems.append(f"batch QBER {qber} outside 0.05 +- 0.01")
    for i, t in enumerate(transcripts):
        if t.aborted:
            continue
        blocks = n // block
        offset = np.asarray(t.announced_offset, dtype=np.uint8)
        if offset.size != blocks * block:
            problems.append(f"trial {i}: offset has {offset.size} bits, expected {blocks * block}")
            continue
        kept = np.asarray(t.alice_bits, dtype=np.uint8)[np.asarray(t.keep_indices)]
        words = (kept[:offset.size] ^ offset).reshape(blocks, block)
        if np.any(words.astype(np.int64) @ parity.T.astype(np.int64) % 2):
            problems.append(f"trial {i}: offset XOR kept bits is not a C1 codeword")
        ka, kb = np.asarray(t.alice_key), np.asarray(t.bob_key)
        ok = np.asarray(t.block_success, dtype=bool)
        if ok.size != blocks or ka.size != kb.size or ka.size % blocks:
            problems.append(f"trial {i}: key or success flags do not split into {blocks} blocks")
            continue
        ka, kb = ka.reshape(blocks, -1), kb.reshape(blocks, -1)
        if np.any(ka[ok] != kb[ok]):
            problems.append(f"trial {i}: keys differ on a block marked successful")
    return problems


AUDIT_HEADER = "trial,aborted,sifted_count,qber,key_len,keys_match"


def check_audit(exit_code: int, csv_text: str, transcripts_text: str,
                trials: int, n: int) -> list[str]:
    """Exit 0; header, one CSV row per trial and the aggregate line; one
    transcript per trial whose check bits reproduce the row's QBER; abort
    share >= 0.95 and batch QBER 0.25 +- 0.02."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    lines = csv_text.splitlines()
    if len(lines) != trials + 2 or lines[0] != AUDIT_HEADER:
        return [f"CSV has {len(lines)} lines or a wrong header; expected {trials + 2}"]
    if not lines[-1].startswith("aggregate,") or len(lines[-1].split(",")) != 4:
        return ["CSV lacks the aggregate line"]
    rows = [line.split(",") for line in lines[1:-1]]
    if any(len(r) != 6 or r[0] != str(i) for i, r in enumerate(rows)):
        return ["CSV rows are not numbered 0..trials-1 with six fields"]
    try:
        payload = json.loads(transcripts_text)
    except ValueError as exc:
        return [f"transcript file does not parse: {exc}"]
    if not isinstance(payload, list) or len(payload) != trials:
        return [f"transcript file holds {len(payload)} entries, expected {trials}"]
    problems = []
    for i, (row, tr) in enumerate(zip(rows, payload)):
        if int(row[1]) != int(bool(tr["aborted"])):
            problems.append(f"trial {i}: CSV and transcript disagree on the abort")
        checks = tr["check_indices"]
        if not checks:
            continue
        a, b = tr["alice_bits"], tr["bob_bits"]
        qber = sum(a[j] != b[j] for j in checks) / n
        if not math.isclose(float(row[3]), qber, rel_tol=PRINTED_REL_TOL):
            problems.append(f"trial {i}: CSV QBER {row[3]} but check bits give {qber}")
    abort_share = sum(int(r[1]) for r in rows) / trials
    if abort_share < 0.95:
        problems.append(f"abort share {abort_share} below 0.95")
    qbers = [float(r[3]) for r in rows if r[3]]
    qber = sum(qbers) / len(qbers) if qbers else math.nan
    if not abs(qber - 0.25) <= 0.02:
        problems.append(f"batch QBER {qber} outside 0.25 +- 0.02")
    return problems


# --- HSW ----------------------------------------------------------------

def check_hsw(case: str, chi: float) -> list[str]:
    """C - 1e-3 <= chi <= C + 1e-9 against the closed-form capacity C."""
    cap = HSW_CAPACITY[case]
    if not cap - 1e-3 <= chi <= cap + 1e-9:
        return [f"{case}: chi {chi!r} outside [{cap - 1e-3!r}, {cap + 1e-9!r}]"]
    return []


# --- compression --------------------------------------------------------

def _compositions(n: int, a: int):
    if a == 1:
        yield (n,)
        return
    for first in range(n, -1, -1):
        for rest in _compositions(n - first, a - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def typical_classes(probs: tuple[float, ...], n: int, eps: float):
    """Typical type classes as (sequence count, per-sequence probability).

    A sequence is typical exactly when its composition c has
    |sum_i c_i (-log2 p_i) / n - H| <= eps and uses no zero-probability
    symbol, so the typical set is a union of whole type classes.
    """
    h = entropy_bits(*probs)
    out = []
    for comp in _compositions(n, len(probs)):
        if any(c and p == 0.0 for c, p in zip(comp, probs)):
            continue
        surprisal = sum(c * -math.log2(p) for c, p in zip(comp, probs) if c)
        gap = abs(surprisal / n - h) - eps
        if abs(gap) < 1e-9:
            raise ValueError(f"composition {comp} sits on the typicality boundary")
        if gap < 0.0:
            count = math.factorial(n)
            for c in comp:
                count //= math.factorial(c)
            out.append((count, math.prod(p ** c for c, p in zip(comp, probs))))
    return tuple(out)


def typical_size_mass(probs, n: int, eps: float) -> tuple[int, float]:
    classes = typical_classes(tuple(probs), n, eps)
    return sum(c for c, _ in classes), sum(c * p for c, p in classes)


def expected_classical_row(probs, n: int, eps: float, rate: float):
    """(set size, mass, reliability) of the Shannon scheme at this rate.

    Returns None where the scheme must refuse: the set exceeds the index
    space although the rate is above H."""
    classes = typical_classes(tuple(probs), n, eps)
    size, mass = typical_size_mass(probs, n, eps)
    capacity = (1 << math.floor(rate * n)) - 1
    if size <= capacity:
        return size, mass, mass
    if rate > entropy_bits(*probs):
        return None
    left, rel = capacity, 0.0
    for count, p in sorted(classes, key=lambda cp: -cp[1]):
        take = min(count, left)
        rel += take * p
        left -= take
    return size, mass, rel


def _close(printed: str, value: float) -> bool:
    return math.isclose(float(printed), value, rel_tol=PRINTED_REL_TOL, abs_tol=1e-15)


def check_compress(csv_text: str, probs, blocks, eps: float, rate: float | None) -> list[str]:
    """Every row matches the composition-sum oracle at printed precision.

    ``rate`` None marks a --quantum sweep: rank is the classical set size and
    fidelity is mass^2 + [0^n atypical] p_0^(2n)."""
    lines = csv_text.splitlines()
    quantum = rate is None
    header = ("n,epsilon,rank,typical_mass,fidelity" if quantum
              else "n,epsilon,set_size,typical_mass,reliability")
    if len(lines) != len(blocks) + 1 or lines[0] != header:
        return [f"compress CSV has {len(lines)} lines or a wrong header"]
    problems = []
    for line, n in zip(lines[1:], blocks):
        row = line.split(",")
        if len(row) != 5 or row[0] != str(n) or not _close(row[1], eps):
            problems.append(f"row {line!r}: wrong shape or echo of n={n}")
            continue
        if quantum:
            size, mass = typical_size_mass(probs, n, eps)
            zero_typical = abs(-math.log2(probs[0]) - entropy_bits(*probs)) <= eps
            rel = mass ** 2 + (0.0 if zero_typical else probs[0] ** (2 * n))
        else:
            expected = expected_classical_row(probs, n, eps, rate)
            if expected is None:
                problems.append(f"n={n}: rate {rate} cannot index the typical set")
                continue
            size, mass, rel = expected
        if int(row[2]) != size:
            problems.append(f"n={n}: size {row[2]}, oracle {size}")
        if not _close(row[3], mass):
            problems.append(f"n={n}: mass {row[3]}, oracle {mass!r}")
        if not _close(row[4], rel):
            problems.append(f"n={n}: {'fidelity' if quantum else 'reliability'} {row[4]}, "
                            f"oracle {rel!r}")
    return problems
