import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import carnotlab
from carnotlab.rng import stream


def _philox_from_key(seed, op_id, index):
    """The stream's generator built the documented way, Philox(key=...)."""
    digest = hashlib.blake2s(
        f"{op_id}|{int(index)}".encode(),
        key=(int(seed) & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little"),
    ).digest()
    return np.random.Generator(np.random.Philox(key=np.frombuffer(digest[:16], dtype=np.uint64)))


def test_stream_is_philox_from_its_key():
    # 200 random (seed, op_id, index) triples: the same state and the same
    # first 1000 draws as Philox(key=...)
    rng = np.random.default_rng(2027)
    for _ in range(200):
        seed = int(rng.integers(-(2**63), 2**63))
        op_id = "/".join(str(x) for x in rng.integers(0, 10**6, rng.integers(1, 4)))
        index = int(rng.integers(0, 2**31))
        got, want = stream(seed, op_id, index), _philox_from_key(seed, op_id, index)
        assert str(got.bit_generator.state) == str(want.bit_generator.state)
        assert got.random(1000).tobytes() == want.random(1000).tobytes()


def test_stream_key_refuses_other_state_requests():
    # the key is two uint64 words; anything else asked of it is an error
    seed_seq = stream(1, "key").bit_generator.seed_seq
    assert seed_seq.generate_state(2, np.uint64).tobytes() == (
        _philox_from_key(1, "key", 0).bit_generator.state["state"]["key"].tobytes()
    )
    with pytest.raises(ValueError):
        seed_seq.generate_state(4, np.uint32)


def test_importing_the_package_leaves_numpy_random_unloaded():
    # the key's seed-sequence type is built on the first stream: a run that
    # draws nothing (the counterexample tables) does not pay numpy.random's
    # import and memory
    code = "import sys, carnotlab; print('numpy.random' in sys.modules)"
    src = str(Path(carnotlab.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "False"
