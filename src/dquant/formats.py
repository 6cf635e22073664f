"""Binary file formats: DQT1 single tensors and DQZ1 compressed chains.

All integers are little-endian. Layouts are fixed and covered by golden
byte-level tests.

DQT1 (single tensor):
    magic   4s   "DQT1"
    dtype   u8   0 = float32, 1 = packed quantized
    ndim    u8
    dims    ndim * u64
    [quantized only] bits u8, scale f32
    payload      row-major float32, or packed codes (ceil(count*bits/8) bytes)

DQZ1 (compressed chain):
    magic     4s   "DQZ1"
    version   u8   1
    n         u8   chain length
    i_factors n * u64
    j_factors n * u64
    bits      u8   the packed cores' width, 0 when no core is packed
    flags     n * u8   1 = core is packed, 0 = full precision
    bodies scroll     each core as a DQT1 body (everything after the magic)

The DQZ1 reader checks the cores' bonds and widths through mpo.MpoChain,
then checks once, against that chain, the header's bits byte and its
factor lists; a mismatch is MalformedFile.
"""

import io
import math
import struct

import numpy as np

from .errors import MalformedFile
from .mpo import MpoChain
from .quantize import QuantizedTensor, payload_size

TENSOR_MAGIC = b"DQT1"
MPO_MAGIC = b"DQZ1"
MPO_VERSION = 1

DTYPE_FLOAT32 = 0
DTYPE_PACKED = 1


def _require_left(f, n, what):
    """Raise unless n more bytes remain, before anything of size n is allocated."""
    here = f.tell()
    if n > f.seek(0, io.SEEK_END) - here:
        raise MalformedFile(f"truncated file while reading {what}")
    f.seek(here)


def _read_exact(f, n, what):
    """Read n bytes; a size beyond the end of the file is never allocated."""
    _require_left(f, n, what)
    data = f.read(n)
    if len(data) != n:
        raise MalformedFile(f"truncated file while reading {what}")
    return data


def _write_tensor_body(f, t):
    if isinstance(t, QuantizedTensor):
        f.write(struct.pack("<BB", DTYPE_PACKED, len(t.shape)))
        f.write(struct.pack(f"<{len(t.shape)}Q", *t.shape))
        f.write(struct.pack("<Bf", t.bits, t.scale))
        f.write(t.payload)
    else:
        arr = np.asarray(t, dtype=np.float32)
        f.write(struct.pack("<BB", DTYPE_FLOAT32, arr.ndim))
        f.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        f.write(arr.astype("<f4").tobytes())


def _read_tensor_body(f):
    dtype, ndim = struct.unpack("<BB", _read_exact(f, 2, "tensor header"))
    if dtype not in (DTYPE_FLOAT32, DTYPE_PACKED):
        raise MalformedFile(f"unknown dtype code {dtype}")
    dims = struct.unpack(f"<{ndim}Q", _read_exact(f, 8 * ndim, "dims"))
    if any(d > 1 << 40 for d in dims):
        raise MalformedFile("implausible dimension size")
    count = math.prod(dims)
    if dtype == DTYPE_FLOAT32:
        _require_left(f, 4 * count, "float payload")
        arr = np.empty(dims, dtype="<f4")
        if f.readinto(arr) != arr.nbytes:
            raise MalformedFile("truncated file while reading float payload")
        return arr.astype(np.float32, copy=False)
    bits, scale = struct.unpack("<Bf", _read_exact(f, 5, "quantized header"))
    payload = _read_exact(f, payload_size(count, bits), "packed payload")
    try:
        return QuantizedTensor(
            shape=tuple(int(d) for d in dims),
            bits=bits,
            scale=float(scale),
            payload=payload,
        )
    except ValueError as exc:
        raise MalformedFile(str(exc)) from exc


def _expect_eof(f, what):
    if f.read(1):
        raise MalformedFile(f"trailing bytes after {what}")


def write_tensor(path, t):
    """Write a float array or QuantizedTensor as a DQT1 file."""
    with open(path, "wb") as f:
        f.write(TENSOR_MAGIC)
        _write_tensor_body(f, t)


def read_tensor(path):
    """Read a DQT1 file; returns an ndarray or a QuantizedTensor."""
    with open(path, "rb") as f:
        if _read_exact(f, 4, "magic") != TENSOR_MAGIC:
            raise MalformedFile("not a DQT1 file")
        t = _read_tensor_body(f)
        _expect_eof(f, "tensor payload")
        return t


def write_mpo(path, q: MpoChain):
    """Write a chain as a DQZ1 file, float32 or packed cores alike."""
    with open(path, "wb") as f:
        f.write(MPO_MAGIC)
        n = q.plan.n
        f.write(struct.pack("<BB", MPO_VERSION, n))
        f.write(struct.pack(f"<{n}Q", *q.plan.i_factors))
        f.write(struct.pack(f"<{n}Q", *q.plan.j_factors))
        f.write(struct.pack("<B", q.bits or 0))
        flags = bytes(
            1 if isinstance(t, QuantizedTensor) else 0 for t in q.local_tensors
        )
        f.write(flags)
        for t in q.local_tensors:
            _write_tensor_body(f, t)


def read_mpo(path) -> MpoChain:
    """Read a DQZ1 file back into an MpoChain; the header must match the cores."""
    with open(path, "rb") as f:
        if _read_exact(f, 4, "magic") != MPO_MAGIC:
            raise MalformedFile("not a DQZ1 file")
        version, n = struct.unpack("<BB", _read_exact(f, 2, "header"))
        if version != MPO_VERSION:
            raise MalformedFile(f"unsupported version {version}")
        if n < 2:
            raise MalformedFile("chain length must be >= 2")
        i_factors = struct.unpack(f"<{n}Q", _read_exact(f, 8 * n, "i_factors"))
        j_factors = struct.unpack(f"<{n}Q", _read_exact(f, 8 * n, "j_factors"))
        (bits,) = struct.unpack("<B", _read_exact(f, 1, "bits"))
        flags = _read_exact(f, n, "flags")
        cores = []
        for k in range(n):
            t = _read_tensor_body(f)
            if bool(flags[k]) != isinstance(t, QuantizedTensor):
                raise MalformedFile(f"core {k} does not match its flag")
            cores.append(t)
        _expect_eof(f, "chain payload")
    try:
        chain = MpoChain(tuple(cores))
    except ValueError as exc:
        raise MalformedFile(str(exc)) from exc
    if (chain.bits or 0) != bits:
        raise MalformedFile(f"header says {bits}-bit, the cores say {chain.bits}")
    if (chain.plan.i_factors, chain.plan.j_factors) != (i_factors, j_factors):
        raise MalformedFile(
            f"header plan {i_factors} x {j_factors} disagrees with the cores"
        )
    return chain
