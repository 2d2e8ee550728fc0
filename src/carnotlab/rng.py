"""Deterministic random streams built on a counter-based generator.

Every stochastic estimate in the package draws from a Philox stream whose
key is derived from (master seed, operation id, stratum index).  Philox is
counter-based, so the n-th variate of a stream depends only on the key and
the counter position, never on execution order across streams.  Identical
(seed, op_id, index) triples therefore reproduce bit-identical samples.
"""

import hashlib

import numpy as np


def stream(seed, op_id, index=0):
    """Return a numpy Generator for the (seed, op_id, index) stream."""
    seed = int(seed) & 0xFFFFFFFFFFFFFFFF
    digest = hashlib.blake2s(
        f"{op_id}|{int(index)}".encode(),
        key=seed.to_bytes(8, "little"),
    ).digest()
    key = np.frombuffer(digest[:16], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
