"""GF(2) linear block codes, syndrome decoding, and CSS quantum codes.

Bit strings are numpy uint8 vectors of 0/1.  A generator matrix G is n x k and
acts on column messages (codeword = G m mod 2); the parity check H is
(n - k) x n with H G = 0.  Decoding is an exhaustive syndrome lookup over
error patterns of weight <= t, exact at desk scale (n <= 24): a LinearCode
caches per t its patterns sorted by integer syndrome (at most 64 checks), so
one searchsorted decodes a (B, n) stack of words; decode is the one-row case.
A code eliminates G^T once; H, coset representatives and the CSS coset-key
machinery reuse that echelon form, so the keys of a stack are one product.

The CSS section builds quantum codes from a nested classical pair C2 within C1
and verifies the correction procedure with a dense statevector simulation
(n <= 10 qubits).  Qubit 0 is the leftmost bit and owns the most significant
index bit of the 2^n amplitude vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from . import _check
from .entropy import binary_entropy

TOL_AMP = 1e-9  # amplitudes below this are treated as zero


def bits(value) -> np.ndarray:
    """Coerce a 0/1 sequence (or "0110"-style string) to a uint8 vector."""
    if isinstance(value, str):
        value = [int(c) for c in value]
    b = np.asarray(value, dtype=float)
    if b.ndim != 1 or b.size == 0:
        raise ValueError("bit string must be a nonempty vector")
    if not np.all((b == 0.0) | (b == 1.0)):
        raise ValueError("bits must be 0 or 1")
    return b.astype(np.uint8)


def _sized_bits(value, size: int, what: str = "word") -> np.ndarray:
    """bits(value), which must hold exactly size bits."""
    b = bits(value)
    if b.size != size:
        raise ValueError(f"{what} length {b.size} != {size}")
    return b


def bits_to_str(b: np.ndarray) -> str:
    return (np.asarray(b, np.uint8) + 48).tobytes().decode("ascii")


def bits_to_index(b: np.ndarray) -> int:
    """Big-endian integer of a bit string (bit 0 most significant)."""
    return int.from_bytes(np.packbits(b).tobytes(), "big") >> (-len(b) % 8)


def index_to_bits(idx: int, n: int) -> np.ndarray:
    _check.integer(idx, "idx", 0)
    _check.integer(n, "n", int(idx).bit_length())   # n bits must hold idx
    return np.unpackbits(np.frombuffer(int(idx).to_bytes((n + 7) // 8, "big"), np.uint8))[-n % 8:]


def hamming_distance(a, b) -> int:
    """Number of positions where two equal-length bit strings differ."""
    a = bits(a)
    return int(np.sum(a ^ _sized_bits(b, a.size, "bit string")))


def in_sphere(center, s, radius: int) -> bool:
    """Membership of s in the Hamming sphere around center."""
    return hamming_distance(center, s) <= radius


# GF(2) linear algebra

def gf2_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a.astype(np.uint8) @ b.astype(np.uint8)) % 2


def gf2_rref(m: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(2); returns (rref, pivot columns)."""
    r = np.array(m, dtype=np.uint8) % 2
    rows, cols = r.shape
    pivots = []
    row = 0
    for col in range(cols):
        if row >= rows:
            break
        hot = np.nonzero(r[row:, col])[0]
        if hot.size == 0:
            continue
        pivot = row + hot[0]
        r[[row, pivot]] = r[[pivot, row]]
        for other in range(rows):
            if other != row and r[other, col]:
                r[other] ^= r[row]
        pivots.append(col)
        row += 1
    return r, pivots


def gf2_rank(m: np.ndarray) -> int:
    if m.size == 0:
        return 0
    return len(gf2_rref(m)[1])


def _nullspace_basis(r: np.ndarray, pivots) -> np.ndarray:
    """gf2_nullspace from the matrix's (rref, pivots): one row per free column."""
    free = np.setdiff1d(np.arange(r.shape[1]), pivots)
    basis = np.zeros((free.size, r.shape[1]), dtype=np.uint8)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = r[:len(pivots)][:, free].T
    return basis


def gf2_nullspace(m: np.ndarray) -> np.ndarray:
    """Rows span {x : m x = 0 over GF(2)}; shape (cols - rank, cols)."""
    return _nullspace_basis(*gf2_rref(m))


def gf2_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """One solution x of a x = b over GF(2), or None when inconsistent."""
    rows, cols = a.shape
    aug = np.concatenate([a % 2, (b % 2).reshape(-1, 1)], axis=1).astype(np.uint8)
    r, pivots = gf2_rref(aug)
    if cols in pivots:
        return None
    x = np.zeros(cols, dtype=np.uint8)
    for prow, pc in enumerate(pivots):
        x[pc] = r[prow, cols]
    return x


def gf2_inv(a: np.ndarray) -> np.ndarray:
    """Inverse of a square full-rank matrix over GF(2)."""
    k = a.shape[0]
    aug = np.concatenate([a % 2, np.eye(k, dtype=np.uint8)], axis=1).astype(np.uint8)
    r, pivots = gf2_rref(aug)
    if pivots[:k] != list(range(k)):
        raise ValueError("matrix is singular over GF(2)")
    return r[:, k:]


class LinearCode:
    """An [n, k] (optionally [n, k, d]) binary linear code.

    The minimum distance is computed exhaustively at construction whenever
    k <= 16, and a caller-supplied distance is verified the same way.  A
    derived H is independent and annihilates G by construction, so only a
    caller-supplied H is checked.
    """

    def __init__(self, generator: np.ndarray, parity_check: np.ndarray | None = None,
                 distance: int | None = None):
        g = np.array(generator, dtype=np.uint8) % 2
        if g.ndim != 2:
            raise ValueError("generator must be an n x k matrix")
        n, k = g.shape
        rref, pivots = gf2_rref(g.T)
        if len(pivots) != k:
            raise ValueError("generator columns must be independent")
        if parity_check is None:
            h = _nullspace_basis(rref, pivots)
        else:
            h = np.array(parity_check, dtype=np.uint8) % 2
            if h.shape != (n - k, n):
                raise ValueError(f"parity check must be {(n - k, n)}, got {h.shape}")
            if h.size and gf2_rank(h) != n - k:
                raise ValueError("parity check rows must be independent")
            if h.size and k and np.any(gf2_mul(h, g)):
                raise ValueError("parity check does not annihilate the generator (HG != 0)")
        pivots = np.array(pivots, dtype=np.intp)
        for a in (g, h, rref, pivots):
            a.setflags(write=False)
        self.generator = g
        self.parity_check = h
        self._echelon = (rref, pivots)   # of G^T, shared by H, coset reps and keys
        self._syndrome_tables = {}   # t -> _syndrome_lookup(self, t)
        if k == 0:
            self.distance = None
        elif k <= 16:
            true_d = self._min_weight()
            if distance is not None and distance != true_d:
                raise ValueError(f"declared distance {distance} but found {true_d}")
            self.distance = true_d
        else:
            self.distance = distance

    @property
    def n(self) -> int:
        return self.generator.shape[0]

    @property
    def k(self) -> int:
        return self.generator.shape[1]

    def messages(self) -> np.ndarray:
        """All 2^k messages as rows (k <= 16 only)."""
        if self.k > 16:
            raise ValueError("message enumeration capped at k <= 16")
        count = 1 << self.k
        m = ((np.arange(count)[:, None] >> np.arange(self.k - 1, -1, -1)) & 1)
        return m.astype(np.uint8)

    def codewords(self) -> np.ndarray:
        """All 2^k codewords as rows (k <= 16 only)."""
        return gf2_mul(self.messages(), self.generator.T)

    def _min_weight(self) -> int:
        words = self.codewords()
        weights = words.sum(axis=1)
        return int(weights[weights > 0].min())

    def contains(self, word) -> bool:
        return not np.any(syndrome(self, word))

    def __repr__(self) -> str:
        return f"LinearCode[n={self.n}, k={self.k}, d={self.distance}]"


def encode(code: LinearCode, msg) -> np.ndarray:
    """Codeword G m of a k-bit message."""
    m = _sized_bits(msg, code.k, "message") if code.k else np.zeros(0, dtype=np.uint8)
    return gf2_mul(code.generator, m)


def syndrome(code: LinearCode, received) -> np.ndarray:
    """H y: zero exactly on codewords, and H(y + e) = H e."""
    return gf2_mul(code.parity_check, _sized_bits(received, code.n))


def syndrome_table(code: LinearCode, t: int) -> dict[bytes, np.ndarray]:
    """Syndrome -> minimum-weight error pattern, for weights <= t.

    Patterns are enumerated by increasing weight and, within a weight, by
    position order, so the lowest-index pattern deterministically wins a tie.
    """
    _check.integer(t, "t", 0)
    table: dict[bytes, np.ndarray] = {}
    for w in range(t + 1):
        for positions in combinations(range(code.n), w):
            e = np.zeros(code.n, dtype=np.uint8)
            e[list(positions)] = 1
            s = gf2_mul(code.parity_check, e).tobytes()
            if s not in table:
                table[s] = e
    return table


def _syndrome_lookup(code: LinearCode, t: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorted uint64 syndrome keys, patterns and bit weights of syndrome_table, cached per t."""
    _check.integer(t, "t", 0)   # also keeps a float such as 1.0 off the cache key 1
    if code.distance is not None and 2 * t + 1 > code.distance:
        raise ValueError(f"t={t} exceeds the correction radius of d={code.distance}")
    lookup = code._syndrome_tables.get(t)
    if lookup is None:
        h = code.parity_check
        if h.shape[0] > 64:
            raise ValueError(f"syndrome lookup needs n - k <= 64, got {h.shape[0]} checks")
        weights = np.uint64(1) << np.arange(h.shape[0] - 1, -1, -1, dtype=np.uint64)
        patterns = np.array(list(syndrome_table(code, t).values()), dtype=np.uint8)
        keys = (patterns @ h.T % 2).astype(np.uint64) @ weights
        order = np.argsort(keys)
        lookup = code._syndrome_tables[t] = (keys[order], patterns[order], weights)
    return lookup


def _decode_rows(code: LinearCode, words: np.ndarray, t: int) -> tuple[np.ndarray, np.ndarray]:
    """decode(code, word, t) of each row of a (B, n) uint8 stack.

    Returns (codewords, found).  A row whose syndrome has no pattern of weight
    <= t comes back as the zero codeword with found False.
    """
    keys, patterns, weights = _syndrome_lookup(code, t)
    s = (words @ code.parity_check.T % 2).astype(np.uint64) @ weights
    pos = np.minimum(np.searchsorted(keys, s), keys.size - 1)
    found = keys[pos] == s
    return np.where(found[:, None], words ^ patterns[pos], 0), found


def decode(code: LinearCode, received, t: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Nearest-codeword decoding within radius t via syndrome lookup.

    Returns ``(codeword, error_pattern)`` or None when no pattern of weight
    <= t explains the syndrome.  Raises ValueError unless n - k <= 64 and,
    when the distance is known, 2t + 1 <= d, so the correction is unique.
    """
    y = _sized_bits(received, code.n)
    v, found = _decode_rows(code, y[None, :], t)
    return (v[0], y ^ v[0]) if found[0] else None


def dual_code(code: LinearCode) -> LinearCode:
    """The [n, n-k] dual: generator H^T, parity check G^T."""
    return LinearCode(code.parity_check.T, code.generator.T)


def is_weakly_self_dual(code: LinearCode) -> bool:
    """C subset of its dual, i.e. all pairs of codewords are orthogonal."""
    return not np.any(gf2_mul(code.generator.T, code.generator))


@dataclass(frozen=True)
class BoundsReport:
    n: int
    k: int
    distance: int
    t: int
    singleton_ok: bool        # n - k >= d - 1
    gv_rate: float            # 1 - H_bin(t/n)
    meets_gv_rate: bool       # k/n >= gv_rate


def _known_distance(code: LinearCode) -> int:
    """code.distance, which bounds and CSS radii need (it is None above k = 16)."""
    if code.distance is None:
        raise ValueError(f"distance of {code!r} unavailable")
    return code.distance


def code_bounds(code: LinearCode) -> BoundsReport:
    """Singleton check and Gilbert-Varshamov rate for a code of known distance."""
    d = _known_distance(code)
    t = (d - 1) // 2
    gv = 1.0 - binary_entropy(t / code.n)
    return BoundsReport(
        n=code.n, k=code.k, distance=d, t=t,
        singleton_ok=(code.n - code.k >= d - 1),
        gv_rate=gv,
        meets_gv_rate=(code.k / code.n >= gv),
    )


@dataclass(frozen=True)
class QuantumBoundsReport:
    n: int
    k: int
    distance: int
    quantum_singleton_ok: bool   # n - k >= 2 (d - 1)
    quantum_gv_rate: float       # 1 - 2 H_bin(2t/n), reported only


def css_code_bounds(code: "CssCode") -> QuantumBoundsReport:
    """Quantum Singleton check and quantum GV rate for a CSS code.

    The code distance is the smaller of d(C1) and d(dual C2); the GV rate is
    informational only (no construction attains it here).
    """
    d = min(_known_distance(code.c1), _known_distance(code.dual_c2))
    k = code.logical_bits
    return QuantumBoundsReport(
        n=code.n, k=k, distance=d,
        quantum_singleton_ok=(code.n - k >= 2 * (d - 1)),
        quantum_gv_rate=1.0 - 2.0 * binary_entropy(min(2 * code.t / code.n, 1.0)),
    )


class CssCode:
    """Quantum code CSS(C1, C2) built from classical codes C2 within C1.

    Logical dimension is 2^(k1 - k2); it corrects t bit flips through C1 and
    t phase flips through the dual of C2.  Its basis states are the plain
    coset states of C2 in C1 (no bit offset or phase pattern).
    """

    def __init__(self, c1: LinearCode, c2: LinearCode, t: int = 0):
        if c1.n != c2.n:
            raise ValueError("component codes must share the block length n")
        if np.any(gf2_mul(c1.parity_check, c2.generator)):
            raise ValueError("C2 is not contained in C1")
        self.c1 = c1
        self.c2 = c2
        self.t = int(_check.integer(t, "t", 0))

    @property
    def n(self) -> int:
        return self.c1.n

    @property
    def logical_bits(self) -> int:
        return self.c1.k - self.c2.k

    @cached_property
    def dual_c2(self) -> LinearCode:
        """The dual of C2, built once so its syndrome lookups are cached too."""
        return dual_code(self.c2)

    @cached_property
    def _key_machinery(self):
        """coset_key's pieces: C1's pivot rows, the G1 left inverse on them, and the
        rref of C2's message image G1^-1 G2 with its pivot and free columns."""
        rows = self.c1._echelon[1]
        inv = gf2_inv(self.c1.generator[rows])
        red, pivots = gf2_rref(self.c2.generator[rows].T @ inv.T % 2)
        return rows, inv, red, pivots, np.setdiff1d(np.arange(self.c1.k), pivots)

    def __repr__(self) -> str:
        return f"CssCode[[{self.n}, {self.logical_bits}]] (t={self.t})"


def css_construct(c1: LinearCode, c2: LinearCode) -> CssCode:
    """Validated CSS code of C1 over C2.

    Requires C2 within C1 and derives t from the distances of C1 and of the
    dual of C2 (both must correct at least one error).
    """
    c2perp = dual_code(c2)
    d1, d2perp = _known_distance(c1), _known_distance(c2perp)
    t = min((d1 - 1) // 2, (d2perp - 1) // 2)
    if t < 1:
        raise ValueError(f"insufficient distance: C1 d={d1}, dual(C2) d={d2perp}")
    code = CssCode(c1, c2, t=t)
    code.dual_c2 = c2perp   # fills the cached property, so the dual is built once
    return code


def canonical_coset_rep(code: LinearCode, word) -> np.ndarray:
    """Deterministic representative of word + C: zero out the pivot positions
    (one product, as each rref row of G^T is zero at every other pivot)."""
    w = _sized_bits(word, code.n)
    basis, pivots = code._echelon
    return w ^ (w[pivots] @ basis % 2)


def _message_keys(code: CssCode, m: np.ndarray) -> np.ndarray:
    """Coset key of each row of a (B, k1) stack of C1 messages.

    Reducing m modulo the rref rows of the C2 image, one row per pivot, is a
    single product because each row is zero at every other pivot column.
    """
    _, _, red, pivots, free = code._key_machinery
    return (m[:, free] + m[:, pivots] @ red[:, free]) % 2


def _coset_keys(code: CssCode, words: np.ndarray) -> np.ndarray:
    """coset_key of each row of a (B, n) uint8 stack of C1 codewords."""
    pivot_rows, inv = code._key_machinery[:2]
    m = words[:, pivot_rows] @ inv.T % 2
    if np.any(m @ code.c1.generator.T % 2 != words):
        raise ValueError("word is not a codeword of C1")
    return _message_keys(code, m)


def coset_key(code: CssCode, v) -> np.ndarray:
    """Label of the coset v + C2 in C1 as k1 - k2 key bits.

    Solves G1 m = v for the message m, reduces m modulo the image of C2 in
    message space (rref pivots), and reads the surviving free coordinates in
    ascending position order.  Representatives of the same coset map to the
    same key.
    """
    return _coset_keys(code, _sized_bits(v, code.n)[None, :])[0]


def css_basis_state(code: CssCode, x) -> np.ndarray:
    """Amplitude vector of the logical basis state for a coset of C2 in C1.

    The state is the equal superposition over x + y for y in C2, normalised
    by sqrt(|C2|).  It depends on x only through
    its coset, and distinct cosets give orthogonal states.  Dense scale cap:
    n <= 16.
    """
    if code.n > 16:
        raise ValueError("dense basis states capped at n <= 16")
    x = bits(x)
    if not code.c1.contains(x):
        raise ValueError("x must be a codeword of C1")
    vec = np.zeros(1 << code.n, dtype=complex)
    vec[[bits_to_index(x ^ y) for y in code.c2.codewords()]] = 1.0 / math.sqrt(1 << code.c2.k)
    return vec


def _flip_mask(vec: np.ndarray, e, n: int) -> int:
    e = bits(e)
    if e.size != n or vec.size != 1 << n:
        raise ValueError(f"need {n} bits and {1 << n} amplitudes, got {e.size} and {vec.size}")
    return bits_to_index(e)


def apply_bit_flips(vec: np.ndarray, e, n: int) -> np.ndarray:
    """X errors: permute amplitudes by XOR with the error pattern."""
    mask = _flip_mask(vec, e, n)
    perm = np.arange(vec.size) ^ mask
    return vec[perm]


def apply_phase_flips(vec: np.ndarray, e, n: int) -> np.ndarray:
    """Z errors: sign (-1)^(bits(i) . e) on each amplitude."""
    mask = _flip_mask(vec, e, n)
    parity = np.bitwise_count(np.arange(vec.size) & mask) & 1
    return vec * np.where(parity, -1.0, 1.0)


def hadamard_all(vec: np.ndarray) -> np.ndarray:
    """Normalised Walsh-Hadamard transform (a Hadamard gate on every qubit)."""
    out = np.array(vec, dtype=complex)
    size = out.size
    h = 1
    while h < size:
        for start in range(0, size, 2 * h):
            a = out[start:start + h].copy()
            b = out[start + h:start + 2 * h].copy()
            out[start:start + h] = a + b
            out[start + h:start + 2 * h] = a - b
        h *= 2
    return out / math.sqrt(size)


def _support_word(vec: np.ndarray, n: int) -> np.ndarray:
    idx = int(np.argmax(np.abs(vec) > TOL_AMP))
    return index_to_bits(idx, n)


@dataclass(frozen=True)
class CssCorrectionResult:
    recovered: np.ndarray            # canonical representative of the decoded coset
    success: bool
    dual_frame: np.ndarray           # state right after the Hadamard step


def simulate_css_correction(code: CssCode, x, e1, e2) -> CssCorrectionResult:
    """Run the CSS correction procedure on a dense statevector.

    Starting from the basis state of x + C2, injects bit flips e1 and phase
    flips e2, corrects the bit flips with C1's decoder, moves to the Hadamard
    frame (where the phase flips become bit flips on the dual-code words),
    corrects those with the decoder of the dual of C2, and reads back the
    coset.  Success requires both decodes to return the injected patterns;
    it is guaranteed when both error weights are <= t.  Cap: n <= 10.
    """
    if code.n > 10:
        raise ValueError("dense correction simulation capped at n <= 10")
    x = bits(x)
    vec = css_basis_state(code, x)
    vec = apply_bit_flips(vec, e1, code.n)
    vec = apply_phase_flips(vec, e2, code.n)

    target = canonical_coset_rep(code.c2, x)
    failed = CssCorrectionResult(np.zeros(code.n, dtype=np.uint8), False,
                                 np.zeros_like(vec))

    # Bit-flip round: every support word shares the syndrome H1 e1.
    out = decode(code.c1, _support_word(vec, code.n), code.t)
    if out is None:
        return failed
    vec = apply_bit_flips(vec, out[1], code.n)

    # Hadamard frame: phase flips now look like bit flips on C2-dual words.
    vec = hadamard_all(vec)
    dual_frame = vec.copy()
    out = decode(code.dual_c2, _support_word(vec, code.n), code.t)
    if out is None:
        return CssCorrectionResult(np.zeros(code.n, dtype=np.uint8), False, dual_frame)
    vec = apply_bit_flips(vec, out[1], code.n)

    # Back to the computational frame: the dual-frame fix moved only a phase, so
    # the support is v + C2 for some v in C1, the recovered coset.
    vec = hadamard_all(vec)
    recovered = canonical_coset_rep(code.c2, _support_word(vec, code.n))
    return CssCorrectionResult(recovered, bool(np.array_equal(recovered, target)), dual_frame)


# Shipped code fixtures.  The Hamming generator is in systematic form
# (message bits first, three parity bits after), so encode(hamming_7_4(),
# [1,0,0,0]) == [1,0,0,0,0,1,1].

def repetition_code(n: int = 3) -> LinearCode:
    _check.integer(n, "n", 1)
    return LinearCode(np.ones((n, 1), dtype=np.uint8))


def parity_code(n: int = 3) -> LinearCode:
    """[n, n-1, 2] even-weight code."""
    _check.integer(n, "n", 1)
    g = np.vstack([np.eye(n - 1, dtype=np.uint8), np.ones((1, n - 1), dtype=np.uint8)])
    return LinearCode(g)


def hamming_7_4() -> LinearCode:
    g = np.array([
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
        [0, 1, 1, 1],
        [1, 0, 1, 1],
        [1, 1, 0, 1],
    ], dtype=np.uint8)
    return LinearCode(g)


def simplex_7_3() -> LinearCode:
    return dual_code(hamming_7_4())


def steane_css() -> CssCode:
    """The [[7, 1]] code: Hamming [7,4,3] over its own dual."""
    c1 = hamming_7_4()
    return css_construct(c1, dual_code(c1))
