"""``repro.hashing.sha256`` is CPython's built-in SHA-256, not OpenSSL's."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.amoeba import Port
from repro.hashing import sha256
from repro.sim.randomness import RngStreams

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("data", [
    b"0:net.link(a->b)",  # a stream seed: f"{seed}:{name}"
    b"12345:rpc.spread.c0-1",
    b"port:dir.service",  # Port.for_service
    b"",
    b"x" * 1000,
])
def test_digests_equal_hashlib(data):
    assert sha256(data).digest() == hashlib.sha256(data).digest()
    assert sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()


def test_stream_seeds_and_ports_are_unchanged():
    digest = hashlib.sha256(b"7:client.3.workload").digest()
    expected = int.from_bytes(digest[:8], "big")
    import random

    assert RngStreams(7).stream("client.3.workload").random() == random.Random(expected).random()
    assert bytes(Port.for_service("dir")) == hashlib.sha256(b"port:dir").digest()[:6]


def test_importing_the_package_loads_no_openssl():
    code = (
        "import sys, repro.bench.harness, repro.hashing; "
        "print(repro.hashing.sha256.__module__, '_hashlib' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert out[0] in ("_sha256", "_sha2") and out[1] == "False"
