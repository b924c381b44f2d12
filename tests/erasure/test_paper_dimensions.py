"""Reed-Solomon at the paper's exact dimensions (k = 128, m = 128).

Section 2.1's worked example, executed: "if k = 128 and m = 128, the
system will store the data on 256 different nodes using twice the
initial storage, but supporting until 128 node failures without losing
any data."
"""

import hashlib

import numpy as np
import pytest

from repro.erasure.matrix import CODEC_BACKENDS
from repro.erasure.reed_solomon import ErasureCodingError, ReedSolomonCode

#: SHA-256 of the 128 seeded 64-byte data blocks of ``paper_blocks``.
DATA_SHA256 = "c5f8bfbe11faa35414e1c75b18dbe26d20c57b1d3a6dcd3ca753a83bddaaa2f6"

#: SHA-256 of the 256 coded blocks ``ReedSolomonCode(128, 128)`` makes
#: from them: a committed test vector, not a round trip.
CODED_SHA256 = "906a325d33e1c6a8f7c96fd6a28618b1f2350461c381099ec59e4b46b87dcf53"


def sha256_of(blocks):
    return hashlib.sha256(b"".join(blocks)).hexdigest()


@pytest.fixture(scope="module")
def paper_code():
    return ReedSolomonCode(128, 128)


@pytest.fixture(scope="module")
def paper_blocks(paper_code):
    rng = np.random.default_rng(7)
    data = [
        rng.integers(0, 256, 64, dtype=np.uint8).tobytes() for _ in range(128)
    ]
    return data, paper_code.encode(data)


class TestPaperExample:
    def test_twice_the_storage(self, paper_code):
        assert paper_code.n == 2 * paper_code.k == 256

    def test_survives_128_failures(self, paper_code, paper_blocks):
        data, coded = paper_blocks
        rng = np.random.default_rng(1)
        failed = set(rng.choice(256, size=128, replace=False).tolist())
        available = {i: coded[i] for i in range(256) if i not in failed}
        assert len(available) == 128
        assert paper_code.decode(available) == data

    def test_129_failures_lose_data(self, paper_code, paper_blocks):
        _, coded = paper_blocks
        available = {i: coded[i] for i in range(127)}
        with pytest.raises(ErasureCodingError):
            paper_code.decode(available)

    def test_parity_only_decode(self, paper_code, paper_blocks):
        data, coded = paper_blocks
        available = {i: coded[i] for i in range(128, 256)}
        assert paper_code.decode(available) == data

    def test_single_block_repair_at_paper_width(self, paper_code, paper_blocks):
        _, coded = paper_blocks
        available = {i: coded[i] for i in range(256) if i != 200}
        assert paper_code.reconstruct_block(available, 200) == coded[200]


class TestPaperTestVector:
    def test_seeded_input_is_the_pinned_one(self, paper_blocks):
        data, _ = paper_blocks
        assert sha256_of(data) == DATA_SHA256

    def test_encoding_matches_the_pinned_vector(self, paper_blocks):
        _, coded = paper_blocks
        assert len(coded) == 256
        assert sha256_of(coded) == CODED_SHA256

    @pytest.mark.parametrize("backend", CODEC_BACKENDS.names())
    def test_parity_only_decode_per_backend(self, backend, paper_blocks):
        # Decoding from parity alone runs the backend's matrix.invert
        # over GF(256): its output must hash to the pinned input.
        _, coded = paper_blocks
        code = ReedSolomonCode(128, 128, backend=backend)
        available = {i: coded[i] for i in range(128, 256)}
        assert sha256_of(code.decode(available)) == DATA_SHA256
