"""Micro-benchmarks of the substrates the reproduction is built on.

Not paper artifacts, but the numbers that bound what the harness can
simulate: Reed-Solomon encode/decode throughput at the paper's code
dimensions and simulator event throughput.
"""

import numpy as np

from repro.erasure import ArchiveCodec, ReedSolomonCode, gf256, matrix
from repro.sim.config import SimulationConfig
from repro.sim.engine import run_simulation


def test_gf256_dot_product(benchmark):
    """Pure-python inner-product throughput (the matrix-algebra hot path).

    Exercises the 256x256 product-table lookups that replaced the
    log/antilog arithmetic in ``gf256`` inner loops.
    """
    rng = np.random.default_rng(2)
    xs = [int(v) for v in rng.integers(0, 256, 4096)]
    ys = [int(v) for v in rng.integers(0, 256, 4096)]

    def many():
        total = 0
        for _ in range(50):
            total ^= gf256.dot_product(xs, ys)
        return total

    benchmark(many)


def test_gf256_matrix_invert_python(benchmark):
    """Gauss-Jordan inversion of a 64x64 Cauchy matrix, pure python.

    The ``python`` backend spends its time in ``scale_vector`` row
    lookups; this was the decoder's dominant term at paper-scale k
    before the vectorised backend landed.
    """
    cauchy = matrix.cauchy(list(range(64, 128)), list(range(64)))
    inverted = benchmark(matrix.invert, cauchy, backend="python")
    product = matrix.multiply(cauchy, inverted)
    assert product == matrix.identity(64)


def test_gf256_matrix_invert_numpy(benchmark):
    """Same inversion through the ``numpy`` codec backend (the default).

    Row elimination collapses to fancy-indexed product-table lookups
    plus XORs — roughly an order of magnitude over the python loops.
    """
    cauchy = matrix.cauchy(list(range(64, 128)), list(range(64)))
    inverted = benchmark(matrix.invert, cauchy, backend="numpy")
    product = matrix.multiply(cauchy, inverted)
    assert product == matrix.identity(64)


def test_reed_solomon_encode_paper_dimensions(benchmark):
    """Encode throughput at the paper's (k=128, m=128) geometry."""
    code = ReedSolomonCode(128, 128)
    rng = np.random.default_rng(0)
    width = 2048  # bytes per block: 256 KiB archive equivalent
    data = [rng.integers(0, 256, width, dtype=np.uint8).tobytes()
            for _ in range(128)]
    blocks = benchmark(code.encode, data)
    assert len(blocks) == 256


def test_reed_solomon_decode_from_parity(benchmark):
    """Worst-case decode: all k originals lost, recover from parity."""
    code = ReedSolomonCode(32, 32)
    rng = np.random.default_rng(0)
    data = [rng.integers(0, 256, 4096, dtype=np.uint8).tobytes()
            for _ in range(32)]
    coded = code.encode(data)
    available = {i: coded[i] for i in range(32, 64)}
    recovered = benchmark(code.decode, available)
    assert recovered == data


def test_archive_codec_roundtrip(benchmark):
    """Split + reassemble a 64 KiB archive through the (16, 16) codec."""
    codec = ArchiveCodec(16, 16)
    payload = np.random.default_rng(1).integers(
        0, 256, 64 * 1024, dtype=np.uint8
    ).tobytes()

    def roundtrip():
        blocks = codec.split(payload)
        subset = {b.index: b for b in blocks[codec.k:]}
        return codec.reassemble(subset)

    assert benchmark(roundtrip) == payload


def test_simulator_round_throughput(benchmark):
    """Rounds per second of the event-driven engine on a small network."""
    config = SimulationConfig(
        population=200,
        rounds=2000,
        data_blocks=16,
        parity_blocks=16,
        repair_threshold=18,
        quota=48,
        seed=0,
    )
    result = benchmark.pedantic(
        run_simulation, args=(config,), iterations=1, rounds=1
    )
    assert result.final_round == 2000
