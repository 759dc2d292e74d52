"""Deterministic named random streams.

Every stochastic component draws from a counter-based Philox generator keyed
by hashing a master seed with a purpose label, so independent streams replay
bit-exactly whatever the draw order.  No stream draws OS entropy.  A Philox
stream is just its key, so a loop over many streams re-keys one generator
(``rekey``) and reads its raw words; both make the same draws as a fresh
``stream``.  The BB84 labels, and the raw-word function behind each:

- ``trial`` (tag ``trial:i`` for trial i, under the master seed): the trial's
  seed, ``integers(0, 2**62)``, is the first raw word shifted right by 2, as
  Lemire's method never rejects on a power-of-two range;
- ``alice-bits``, ``alice-bases``, ``bob-bases``, ``eve-bases``,
  ``codewords``: fair bits, ``bits``;
- ``eve-mask``, ``eve-measure``, ``bob-measure``: a uniform ``random()`` is
  ``(word >> 11) * 2**-53``, so it is below a probability p exactly when
  ``word >> 11 < cut(p)``: Eve intercepts below ``cut(rate)`` (no draw at a
  rate of 0 or 1), and a measurement reads 1 from ``cut(p0)`` up;
- ``selection``: ``Generator.shuffle`` of the sifted positions, NumPy's
  algorithm over the raw words.
"""

from __future__ import annotations

import functools
import hashlib
import struct
import threading

import numpy as np

_KEY_WORDS = struct.Struct("<2Q")
_ZEROS = (0, 0, 0, 0)
_fresh = threading.local()   # each thread's Philox state for rekey, whose key it sets


@functools.cache
def _key_type() -> type:
    """The seed-sequence type that hands Philox a fixed key, built on first use
    so that importing qinfo does not load numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class Key(ISeedSequence):
        """A fixed Philox key posing as a seed sequence, so that no unused
        ``SeedSequence`` draws OS entropy as ``Philox(key=...)`` does.  Any
        request but Philox's two uint64 words raises rather than give another key.
        """

        def __init__(self, words):
            self._words = np.array(words, dtype=np.uint64)

        def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
            if n_words != 2 or np.dtype(dtype) != np.uint64:
                raise ValueError(f"a stream key is 2 uint64 words, not {n_words!r} of {dtype!r}")
            return self._words

    return Key


def _key(master_seed: int, *labels: str) -> tuple[int, int]:
    """The Philox key of a stream: the first 16 bytes of sha256("seed|label:label"),
    read as two little-endian 64-bit words.  One str label is its own tag."""
    tag = labels[0] if len(labels) == 1 and type(labels[0]) is str else ":".join(map(str, labels))
    return _KEY_WORDS.unpack_from(hashlib.sha256(f"{master_seed}|{tag}".encode()).digest())


def stream(master_seed: int, *labels: str) -> np.random.Generator:
    """Generator for the stream named by ``labels`` under ``master_seed``.  The labels
    join with ":" into one tag: ``stream(s, "a:b")`` is ``stream(s, "a", "b")``."""
    return np.random.Generator(np.random.Philox(_key_type()(_key(master_seed, *labels))))


def rekey(gen: np.random.Generator, master_seed: int, *labels: str) -> np.random.Generator:
    """Set a Philox ``gen`` to the fresh state of ``stream(master_seed, *labels)``; return it.
    A Philox stream is its key: counter, buffer and spare 32-bit word restart at zero."""
    try:
        state = _fresh.state
    except AttributeError:   # the thread's first rekey
        state = _fresh.state = {"bit_generator": "Philox", "state": {"counter": _ZEROS},
                                "buffer": _ZEROS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    state["state"]["key"] = _key(master_seed, *labels)
    gen.bit_generator.state = state
    return gen


def bits(gen: np.random.Generator, k: int) -> np.ndarray:
    """``gen.integers(0, 2, k)`` as uint32 when ``gen`` holds no spare 32-bit word: with
    range 2 Lemire's bounded draw never rejects, so value j is bit 31 of the j-th 32-bit
    half of the raw Philox words, the low half first in any byte order."""
    raw = gen.bit_generator.random_raw(-(-k // 2))
    return (raw.astype("<u8", copy=False).view("<u4") >> 31)[:k]


def cut(p):
    """ceil(p * 2^53) as uint64, for p in [0, 1], a float or an array.  A Philox ``random()``
    is (w >> 11) * 2^-53 of its raw word w, so it is >= p exactly when w >> 11 >= cut(p),
    and < p exactly when w >> 11 < cut(p); scaling by 2^53 is exact, even for a subnormal p."""
    return np.ceil(np.multiply(p, 2.0 ** 53)).astype(np.uint64)
