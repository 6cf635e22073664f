import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dquant import (
    MpoChain,
    QuantizedTensor,
    compression_report,
    deco_quantize,
    decompose,
    pack,
    plan_shapes,
    quantize_rtn,
)
from dquant.compress import factorize
from dquant.errors import MalformedFile
from dquant.formats import read_mpo, read_tensor, write_mpo, write_tensor


def test_float_tensor_golden_bytes(tmp_path):
    t = np.array([[1.0, -2.0], [0.5, 4.0]], dtype=np.float32)
    path = tmp_path / "t.dqt"
    write_tensor(path, t)
    expected = (
        b"DQT1"
        + bytes([0, 2])
        + struct.pack("<QQ", 2, 2)
        + np.array([1.0, -2.0, 0.5, 4.0], "<f4").tobytes()
    )
    assert path.read_bytes() == expected


def test_quantized_tensor_golden_bytes(tmp_path):
    q = QuantizedTensor(shape=(2, 2), bits=4, scale=0.5, payload=pack([1, -1, 7, -7], 4))
    path = tmp_path / "q.dqt"
    write_tensor(path, q)
    expected = (
        b"DQT1"
        + bytes([1, 2])
        + struct.pack("<QQ", 2, 2)
        + struct.pack("<Bf", 4, 0.5)
        + b"\xf1\x97"
    )
    assert path.read_bytes() == expected


def test_tensor_roundtrip_float(tmp_path):
    t = np.random.default_rng(0).standard_normal((5, 7, 2)).astype(np.float32)
    path = tmp_path / "t.dqt"
    write_tensor(path, t)
    got = read_tensor(path)
    np.testing.assert_array_equal(got, t)
    # byte-stable re-serialization
    path2 = tmp_path / "t2.dqt"
    write_tensor(path2, got)
    assert path.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize("shape", [(), (0,), (3, 0), (5,)])
def test_tensor_roundtrip_keeps_shape(tmp_path, shape):
    t = np.arange(1, 1 + int(np.prod(shape)), dtype=np.float32).reshape(shape)
    path = tmp_path / "t.dqt"
    write_tensor(path, t)
    got = read_tensor(path)
    assert got.shape == shape and got.dtype == np.float32
    assert got.tobytes() == t.tobytes()


def test_tensor_roundtrip_quantized(tmp_path):
    q = QuantizedTensor(shape=(3,), bits=2, scale=1.25, payload=pack([1, 0, -1], 2))
    path = tmp_path / "q.dqt"
    write_tensor(path, q)
    got = read_tensor(path)
    assert got == q


def test_mpo_roundtrip_byte_exact(tmp_path):
    m = np.random.default_rng(1).standard_normal((48, 32)).astype(np.float32)
    q = deco_quantize(m, 4)
    p1, p2 = tmp_path / "a.dqz", tmp_path / "b.dqz"
    write_mpo(p1, q)
    got = read_mpo(p1)
    assert got.bits == q.bits and got.plan == q.plan
    write_mpo(p2, got)
    assert p1.read_bytes() == p2.read_bytes()


def bits_offset(n):
    """Offset of a DQZ1 header's bits byte: magic, version, n, two factor lists."""
    return 4 + 2 + 8 * 2 * n


@st.composite
def chains(draw):
    """A chain in one of the three core layouts the package builds.

    deco_quantize's (first core float32, the rest packed), decompose's (all
    float32), and the deco-both sweep arm's (every core of factorize's chain
    packed), at n = 2-3 and b2/4/8.
    """
    n = draw(st.sampled_from([2, 3]))
    bits = draw(st.sampled_from([2, 4, 8]))
    rows, cols = draw(st.integers(1, 48)), draw(st.integers(1, 48))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    m = rng.standard_normal((rows, cols)).astype(np.float32)
    layout = draw(st.sampled_from(["deco", "float", "all-packed"]))
    if layout == "deco":
        return deco_quantize(m, bits, n)
    if layout == "float":
        return decompose(m, plan_shapes(rows, cols, n))
    return MpoChain(tuple(quantize_rtn(t, bits) for t in factorize(m, n).local_tensors))


def stored_bits(t):
    """Stored bits of one core: codes plus a 16-bit scale, or 16 bits a value."""
    if isinstance(t, QuantizedTensor):
        return t.count * t.bits + 16
    return t.size * 16


@settings(max_examples=80, deadline=None)
@given(chain=chains())
def test_every_core_layout_round_trips_and_reports(tmp_path_factory, chain):
    root = tmp_path_factory.mktemp("layouts")
    p1, p2 = root / "a.dqz", root / "b.dqz"
    write_mpo(p1, chain)
    got = read_mpo(p1)
    write_mpo(p2, got)
    assert p1.read_bytes() == p2.read_bytes()
    assert got.bits == chain.bits
    assert p1.read_bytes()[bits_offset(chain.n)] == (chain.bits or 0)
    want = sum(stored_bits(t) for t in chain.local_tensors) / (
        chain.rows * chain.cols * 16
    )
    assert compression_report(chain).ratio == want
    assert compression_report(got) == compression_report(chain)


@pytest.mark.parametrize("bits,header", [(None, 4), (4, 0), (4, 8), (8, 2)])
def test_header_width_disagreeing_with_the_cores(tmp_path, bits, header):
    m = np.random.default_rng(4).standard_normal((24, 16)).astype(np.float32)
    if bits is None:
        chain = decompose(m, plan_shapes(24, 16, 2))
    else:
        chain = deco_quantize(m, bits)
    path = tmp_path / "a.dqz"
    write_mpo(path, chain)
    data = bytearray(path.read_bytes())
    data[bits_offset(2)] = header
    path.write_bytes(bytes(data))
    with pytest.raises(MalformedFile):
        read_mpo(path)


@pytest.mark.parametrize("offset,value", [(4, 0), (4, 2), (5, 0), (5, 1)])
def test_bad_version_or_chain_length(tmp_path, offset, value):
    path = tmp_path / "a.dqz"
    write_mpo(path, deco_quantize(np.ones((8, 8), np.float32), 4))
    data = bytearray(path.read_bytes())
    data[offset] = value
    path.write_bytes(bytes(data))
    with pytest.raises(MalformedFile, match="version" if offset == 4 else "length"):
        read_mpo(path)


def test_bad_magic(tmp_path):
    path = tmp_path / "x.dqt"
    path.write_bytes(b"NOPE" + bytes(10))
    with pytest.raises(MalformedFile):
        read_tensor(path)
    with pytest.raises(MalformedFile):
        read_mpo(path)


def test_truncated_tensor(tmp_path):
    t = np.ones((4, 4), np.float32)
    path = tmp_path / "t.dqt"
    write_tensor(path, t)
    data = path.read_bytes()
    path.write_bytes(data[:-3])
    with pytest.raises(MalformedFile):
        read_tensor(path)


def test_trailing_garbage(tmp_path):
    t = np.ones((2, 2), np.float32)
    path = tmp_path / "t.dqt"
    write_tensor(path, t)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(MalformedFile):
        read_tensor(path)


def test_truncated_mpo(tmp_path):
    q = deco_quantize(np.ones((8, 8), np.float32), 8)
    path = tmp_path / "a.dqz"
    write_mpo(path, q)
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(MalformedFile):
        read_mpo(path)


def test_flag_payload_mismatch(tmp_path):
    q = deco_quantize(np.ones((8, 8), np.float32), 8)
    path = tmp_path / "a.dqz"
    write_mpo(path, q)
    data = bytearray(path.read_bytes())
    # flip the first core's flag (it is stored full precision)
    flag_offset = 4 + 2 + 8 * 2 * 2 + 1
    data[flag_offset] ^= 1
    path.write_bytes(bytes(data))
    with pytest.raises(MalformedFile):
        read_mpo(path)


def test_dims_beyond_the_file(tmp_path):
    # 2**80 float32 values: the count is bounded by the bytes left, not read
    path = tmp_path / "huge.dqt"
    path.write_bytes(b"DQT1" + bytes([0, 2]) + struct.pack("<QQ", 1 << 40, 1 << 40))
    with pytest.raises(MalformedFile):
        read_tensor(path)



# DQZ1 header plus the first core's body header (n = 2: 41 + 39 bytes)
HEADER_BYTES = 96


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """Bytes of valid float DQT1, packed DQT1 and DQZ1 files, and a path to mutate."""
    root = tmp_path_factory.mktemp("fuzz")
    m = np.random.default_rng(2).standard_normal((16, 8)).astype(np.float32)
    write_tensor(root / "float.dqt", m)
    packed = QuantizedTensor((3, 5), 2, 0.25, pack([1] * 15, 2))
    write_tensor(root / "packed.dqt", packed)
    write_mpo(root / "chain.dqz", deco_quantize(m, 4))
    names = ("float.dqt", "packed.dqt", "chain.dqz")
    seeds = [(root / name).read_bytes() for name in names]
    return seeds, root / "mutated"


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_files_raise_only_malformed(fuzz_files, data):
    seeds, path = fuzz_files
    blob = data.draw(st.sampled_from(seeds))
    op = data.draw(st.sampled_from(("truncate", "flip", "splice")))
    if op == "truncate":
        blob = blob[: data.draw(st.integers(0, len(blob) - 1))]
    elif op == "flip":
        i = data.draw(st.integers(0, min(len(blob), HEADER_BYTES) - 1))
        flipped = blob[i] ^ data.draw(st.integers(1, 255))
        blob = blob[:i] + bytes([flipped]) + blob[i + 1 :]
    else:
        other = data.draw(st.sampled_from(seeds))
        blob = blob[: data.draw(st.integers(0, len(blob)))]
        blob += other[data.draw(st.integers(0, len(other))) :]
    path.write_bytes(blob)
    for read in (read_tensor, read_mpo):
        try:
            read(path)
        except MalformedFile:
            pass
