"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accelerators import (
    AES128,
    Regex,
    aes_gcm_decrypt,
    aes_gcm_encrypt,
    fft_radix2,
    hash_join,
    lz77_compress,
    lz77_decompress,
)
from repro.drx import (
    DRXCompiler,
    DRXConfig,
    DRXMemory,
    DRXTimingModel,
    FunctionalDRX,
    assemble,
    disassemble,
    normalize_kernel,
    transpose_kernel,
)
from repro.profiles import WorkProfile, scale_profile
from repro.restructuring import (
    BytesToRecords,
    HashPartition,
    Quantize,
    Dequantize,
    RecordsToBytes,
    RowsToColumnar,
    fnv1a32,
)
from repro.serve import LatencyTracker
from repro.sim import Simulator, Resource, exact_percentile


# -- crypto ------------------------------------------------------------------


@given(st.binary(min_size=0, max_size=500), st.binary(min_size=16, max_size=16))
@settings(max_examples=25, deadline=None)
def test_gcm_roundtrip_any_plaintext(plaintext, key):
    iv = b"nonce-12byte"
    ciphertext, tag = aes_gcm_encrypt(key, iv, plaintext)
    assert aes_gcm_decrypt(key, iv, ciphertext, tag) == plaintext


@given(st.binary(min_size=16, max_size=16), st.binary(min_size=16, max_size=16))
@settings(max_examples=25, deadline=None)
def test_aes_block_is_a_permutation(key, block):
    """Distinct keys map the same block to (almost surely) distinct outputs,
    and encryption output length is preserved."""
    blocks = np.frombuffer(block, dtype=np.uint8).reshape(1, 16)
    out = AES128(key).encrypt_blocks(blocks)
    assert out.shape == (1, 16)
    # Determinism.
    np.testing.assert_array_equal(out, AES128(key).encrypt_blocks(blocks))


# -- compression ----------------------------------------------------------------


@given(st.binary(min_size=0, max_size=4000))
@settings(max_examples=40, deadline=None)
def test_lz77_roundtrip_arbitrary_bytes(data):
    assert lz77_decompress(lz77_compress(data)) == data


@given(st.binary(min_size=1, max_size=64), st.integers(2, 200))
@settings(max_examples=25, deadline=None)
def test_lz77_repetition_compresses(chunk, repeats):
    data = chunk * repeats
    compressed = lz77_compress(data)
    assert lz77_decompress(compressed) == data
    if len(data) > 1000:
        assert len(compressed) < len(data)


# -- FFT ------------------------------------------------------------------------


@given(
    st.integers(3, 9),  # log2 of the transform length
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=25, deadline=None)
def test_fft_parseval_energy_conservation(log_n, seed):
    n = 1 << log_n
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    spectrum = fft_radix2(x)
    time_energy = np.sum(np.abs(x) ** 2)
    freq_energy = np.sum(np.abs(spectrum) ** 2) / n
    assert freq_energy == pytest.approx(time_energy, rel=1e-9)


# -- restructuring invariants -------------------------------------------------------


@given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126),
               min_size=0, max_size=400),
       st.integers(8, 64))
@settings(max_examples=40, deadline=None)
def test_records_roundtrip_preserves_content(text, record_len):
    # Normalize: the codec treats newline as separator and drops blanks.
    lines = [ln for ln in text.split("\n") if ln]
    data = np.frombuffer("\n".join(lines).encode(), dtype=np.uint8).copy()
    if data.size == 0:
        return
    records = BytesToRecords(record_len).apply(data)
    restored = RecordsToBytes().apply(records).tobytes().decode()
    # Wrapping may split long lines; content survives minus separators.
    assert restored.replace("\n", "") == "".join(lines).rstrip("\x00")


@given(st.integers(1, 400), st.integers(2, 6), st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_columnar_pivot_preserves_multiset(n_rows, n_cols, seed):
    rng = np.random.default_rng(seed)
    values = rng.integers(-(2**31), 2**31 - 1, (n_rows, n_cols),
                          dtype=np.int64).astype("<i4")
    rows = values.view(np.uint8).reshape(n_rows, n_cols * 4)
    columnar = RowsToColumnar(n_cols).apply(rows)
    np.testing.assert_array_equal(columnar, values.T)


@given(st.integers(1, 300), st.integers(1, 32), st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_hash_partition_is_a_permutation(n_rows, n_partitions, seed):
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 1000, n_rows).astype(np.int32)
    payload = np.arange(n_rows, dtype=np.int32)
    out = HashPartition(0, n_partitions).apply(np.stack([keys, payload]))
    # No row created or lost; partition ids nondecreasing.
    assert sorted(out[1].tolist()) == list(range(n_rows))
    parts = fnv1a32(out[0]) % np.uint32(n_partitions)
    assert np.all(np.diff(parts.astype(np.int64)) >= 0)


@given(st.lists(st.floats(-3.0, 3.0, allow_nan=False), min_size=1,
                max_size=200))
@settings(max_examples=30, deadline=None)
def test_quantize_dequantize_bounded_error(values):
    data = np.asarray(values, dtype=np.float32)
    scale = 3.0 / 127
    restored = Dequantize(scale).apply(Quantize(scale).apply(data))
    assert np.max(np.abs(restored - np.clip(data, -128 * scale, 127 * scale))
                  ) <= scale / 2 + 1e-6


# -- hash join -----------------------------------------------------------------------


@given(st.integers(0, 50), st.integers(0, 80), st.integers(1, 20),
       st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_hash_join_matches_set_semantics(n_build, n_probe, key_range, seed):
    rng = np.random.default_rng(seed)
    build = np.stack([
        rng.integers(0, key_range, max(n_build, 1)),
        rng.integers(0, 100, max(n_build, 1)),
    ]).astype(np.int32)
    probe = np.stack([
        rng.integers(0, key_range, max(n_probe, 1)),
        np.arange(max(n_probe, 1)),
    ]).astype(np.int32)
    result = hash_join(build, probe)
    expected_pairs = sum(
        int(np.sum(build[0] == key)) for key in probe[0]
    )
    assert result.shape[1] == expected_pairs


# -- regex engine vs stdlib ---------------------------------------------------------


@given(st.text(alphabet="ab-19 .", min_size=0, max_size=60))
@settings(max_examples=50, deadline=None)
def test_regex_ssn_matches_stdlib(text):
    import re as stdlib_re

    pattern = r"\d{3}-\d{2}-\d{4}"
    ours = Regex(pattern).finditer(text)
    theirs = [m.span() for m in stdlib_re.finditer(pattern, text)]
    assert ours == theirs


# -- DRX compiler -------------------------------------------------------------------


@given(st.integers(1, 5000),
       st.floats(-100, 100, allow_nan=False),
       st.floats(0.25, 8.0, allow_nan=False),
       st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_compiled_normalize_matches_numpy_any_size(n, offset, scale, seed):
    rng = np.random.default_rng(seed)
    data = (rng.random(n) * 50).astype(np.float32)
    program = DRXCompiler().compile(normalize_kernel(n, offset, scale))
    mem = DRXMemory()
    mem.bind("in", data)
    mem.allocate("out", n, np.float32)
    FunctionalDRX(mem).execute(program)
    np.testing.assert_allclose(
        mem.read("out"), (data - np.float32(offset)) / np.float32(scale),
        rtol=1e-5, atol=1e-5,
    )


@given(st.integers(1, 40), st.integers(1, 40), st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_compiled_transpose_matches_numpy_any_shape(rows, cols, seed):
    rng = np.random.default_rng(seed)
    data = rng.random((rows, cols)).astype(np.float32)
    program = DRXCompiler().compile(transpose_kernel(rows, cols))
    mem = DRXMemory()
    mem.bind("in", data)
    mem.allocate("out", rows * cols, np.float32)
    FunctionalDRX(mem).execute(program)
    np.testing.assert_array_equal(
        mem.read("out").reshape(cols, rows), data.T
    )


@given(st.integers(1, 64), st.integers(1, 1000))
@settings(max_examples=20, deadline=None)
def test_assembler_roundtrip_generated_programs(count, tile):
    text = f"""
    SYNC.START
    LOOP {count}
      LD v0, in[0,+{tile}], {tile}
      VMULI v1, v0, 2.0
      ST out[0,+{tile}], v1, {tile}
    ENDLOOP
    SYNC.END
    """
    program = assemble(text)
    assert assemble(disassemble(program)).instructions == program.instructions


# -- profiles ------------------------------------------------------------------------


@given(st.integers(0, 10**9), st.integers(0, 10**9), st.integers(0, 10**7),
       st.floats(0, 1000, allow_nan=False),
       st.floats(0.1, 100.0, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_scale_profile_linear_in_volume(bytes_in, bytes_out, elements, ops,
                                        factor):
    profile = WorkProfile("p", bytes_in, bytes_out, elements, ops)
    scaled = scale_profile(profile, factor)
    assert scaled.bytes_in == int(round(bytes_in * factor))
    assert scaled.elements == int(round(elements * factor))
    assert scaled.ops_per_element == profile.ops_per_element


@given(st.integers(0, 10**9), st.integers(0, 10**9), st.integers(0, 10**7),
       st.floats(0, 1000, allow_nan=False),
       st.floats(0, 1, allow_nan=False),
       st.floats(0, 1e-3, allow_nan=False),
       st.sampled_from([250e6, 1e9, 1.7e9]))
@settings(max_examples=200, deadline=None)
def test_batch_of_one_prices_exactly_like_one_job(bytes_in, bytes_out,
                                                  elements, ops, vectorizable,
                                                  launch, frequency):
    """A one-member DRX batch costs bit-for-bit what the single job does:
    a request is a batch of one, so ``submit_batch(i, 1)`` and
    ``submit(i)`` must hold the unit for the same float."""
    profile = WorkProfile("p", bytes_in, bytes_out, elements, ops,
                          vectorizable_fraction=vectorizable)
    timing = DRXTimingModel(DRXConfig(kernel_launch_overhead_s=launch,
                                      frequency_hz=frequency))
    single = timing.time_for_profile(profile)
    batch = timing.time_for_profile_batch([profile])
    assert batch.hex() == single.hex()


# -- DES engine ---------------------------------------------------------------------


@given(st.lists(st.floats(0.001, 10.0, allow_nan=False), min_size=1,
                max_size=20))
@settings(max_examples=30, deadline=None)
def test_des_resource_conserves_work(durations):
    """Total busy time on a capacity-1 resource equals the sum of holds,
    and the makespan equals it too (perfect serialization)."""
    sim = Simulator()
    resource = Resource(sim, capacity=1)

    def job(sim, duration):
        yield from resource.use(duration)

    for duration in durations:
        sim.spawn(job(sim, duration))
    sim.run()
    assert sim.now == pytest.approx(sum(durations), rel=1e-9)
    assert resource.busy_time() == pytest.approx(sum(durations), rel=1e-9)


@given(st.integers(1, 8),
       st.lists(st.floats(0.01, 1.0, allow_nan=False), min_size=1,
                max_size=24))
@settings(max_examples=30, deadline=None)
def test_des_parallel_capacity_lower_bounds(capacity, durations):
    """Makespan with capacity C is at least total/C and at least max."""
    sim = Simulator()
    resource = Resource(sim, capacity=capacity)

    def job(sim, duration):
        yield from resource.use(duration)

    for duration in durations:
        sim.spawn(job(sim, duration))
    sim.run()
    assert sim.now >= max(durations) - 1e-12
    assert sim.now >= sum(durations) / capacity - 1e-9


# -- serving latency accounting -------------------------------------------------


@given(st.lists(
    st.one_of(
        st.tuples(st.just("add"),
                  st.floats(0.0, 1e3, allow_nan=False, allow_infinity=False)),
        st.tuples(st.just("percentile"), st.floats(0.0, 1.0)),
    ),
    min_size=1, max_size=60,
))
@settings(max_examples=100, deadline=None)
def test_tracker_percentile_equals_exact_percentile_of_samples(ops):
    """Whatever interleaving of adds and queries, a query answers from
    every sample added so far: the cached sorted view never goes stale."""
    tracker = LatencyTracker()
    samples = []
    for op, value in ops:
        if op == "add":
            tracker.add(value)
            samples.append(value)
        elif samples:
            expected = exact_percentile(sorted(samples), value)
            assert tracker.percentile(value).hex() == expected.hex()
