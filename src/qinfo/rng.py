"""Deterministic named random streams.

Every stochastic component draws from a counter-based 64-bit generator
(Philox) keyed by hashing a master seed together with a purpose label, so
independent streams ("alice-bits", "bob-bases", ...) can be replayed
bit-exactly and never interfere with each other regardless of draw order.
No stream draws OS entropy: the key reaches Philox as its seed sequence.
A loop over many streams builds one generator and re-keys it per stream
(``rekey``): a Philox stream is just its key, so the re-keyed generator
makes the same draws as a fresh ``stream`` at about half the cost.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np


@functools.cache
def _key_type() -> type:
    """The seed-sequence type that hands Philox a fixed key.

    Built on first use, so that importing qinfo does not load numpy.random.
    """
    from numpy.random.bit_generator import ISeedSequence

    class Key(ISeedSequence):
        """A fixed Philox key posing as a seed sequence.

        ``np.random.Philox(key=...)`` also seeds a ``SeedSequence`` from OS
        entropy that a keyed generator never uses; handing the key over as the
        seed skips that draw.  Philox asks for its key as two uint64 words,
        and any other request raises rather than give a stream some other key.
        """

        def __init__(self, words: np.ndarray):
            self._words = words

        def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
            if n_words != 2 or np.dtype(dtype) != np.uint64:
                raise ValueError(f"a stream key is 2 uint64 words, not {n_words!r} of {dtype!r}")
            return self._words

    return Key


def _key(master_seed: int, *labels: str) -> np.ndarray:
    """The Philox key of a stream: the first 16 bytes of sha256("seed|label:label")."""
    tag = ":".join(str(part) for part in labels)
    digest = hashlib.sha256(f"{master_seed}|{tag}".encode()).digest()
    return np.frombuffer(digest[:16], dtype=np.uint64)


def stream(master_seed: int, *labels: str) -> np.random.Generator:
    """Generator for the stream named by ``labels`` under ``master_seed``."""
    return np.random.Generator(np.random.Philox(_key_type()(_key(master_seed, *labels))))


_ZEROS = np.zeros(4, dtype=np.uint64)


def rekey(gen: np.random.Generator, master_seed: int, *labels: str) -> np.random.Generator:
    """Set a Philox ``gen`` to the fresh state of ``stream(master_seed, *labels)``; return it.

    A Philox stream is its key: counter, buffer and the spare 32-bit word all
    start at zero, so every later draw equals the new generator's.
    """
    gen.bit_generator.state = {
        "bit_generator": "Philox", "state": {"counter": _ZEROS, "key": _key(master_seed, *labels)},
        "buffer": _ZEROS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return gen
