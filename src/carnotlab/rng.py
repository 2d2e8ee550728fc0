"""Deterministic random streams built on a counter-based generator.

Every stochastic estimate in the package draws from a Philox stream whose
key is derived from (master seed, operation id, stratum index).  Philox is
counter-based, so the n-th variate of a stream depends only on the key and
the counter position, never on execution order across streams.  Identical
(seed, op_id, index) triples therefore reproduce bit-identical samples.
"""

import functools
import hashlib

import numpy as np


@functools.cache
def _key_type():
    """The type of a Philox key posing as the seed sequence it is drawn
    from: Philox seeded by it asks for two uint64 words and gets the key,
    the same generator as Philox(key=key), which would first build (and
    discard) a SeedSequence from OS entropy.  Built on the first stream, so
    that importing the package leaves numpy.random unloaded."""
    from numpy.random.bit_generator import ISeedSequence

    class Key(ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 2 or np.dtype(dtype) != np.uint64:
                raise ValueError("a Philox key is two uint64 words")
            return self.words

    return Key


def stream(seed, op_id, index=0):
    """Return a numpy Generator for the (seed, op_id, index) stream."""
    seed = int(seed) & 0xFFFFFFFFFFFFFFFF
    digest = hashlib.blake2s(
        f"{op_id}|{int(index)}".encode(),
        key=seed.to_bytes(8, "little"),
    ).digest()
    key = np.frombuffer(digest[:16], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_key_type()(key)))
