"""Symmetric round-to-nearest quantization and low-bit payload packing.

Quantization uses a single positive step size per tensor:

    step = max(|t|) / (2**(bits-1) - 1)
    code = clamp(round_half_away_from_zero(t / step), -qmax, qmax)

The code range is symmetric: the most negative two's-complement value
(-2**(bits-1)) is never produced. Codes are computed over the flat tensor
in blocks of QUANT_BLOCK elements, each block in float64 with the same
operations as a single pass (t * qmax / max(|t|), then rounding), so the
codes are those of one pass and no full-size float64 or int64 copy is made.

Packed payload layout (stable wire format): codes are stored in row-major
element order, two's complement within `bits` bits, little-endian bit
order inside each byte - the earliest element occupies the lowest-order
bits. Example at bits=4: values [1, -1] pack to the single byte 0xF1.

Unpacking is a table lookup at every width. CODE_TABLES[bits] is a
read-only (256, 8 // bits) int8 table, built once: row b holds the codes
packed in byte b, lowest-order lane first, so CODE_TABLES[4][0xF1] is
[1, -1]. Gathering its rows for a run of payload bytes and flattening them
gives the codes in element order; unpack_range takes any table with 256
rows in this lane order.

Every read of a packed tensor gathers through one table of decoded values,
QuantizedTensor.value_table() = CODE_TABLES[bits] * scale in float64: the
fused tiles, mpo.reconstruct and dequantize (which casts to float32). Each
entry is exact - a code of at most 8 bits times the float32 scale's 24-bit
significand needs at most 32 of float64's 53 bits - so the float32 cast
rounds once, as a float32 multiply of code and scale does.
"""

from dataclasses import dataclass

import numpy as np

from .errors import CorruptPayload, NonFiniteInput, RangeOverflow, UnsupportedBits

SUPPORTED_BITS = (2, 4, 8)
QUANT_BLOCK = 1 << 16  # elements quantized per float64 pass


def _check_bits(bits):
    if bits not in SUPPORTED_BITS:
        raise UnsupportedBits(f"bits must be one of {SUPPORTED_BITS}, got {bits}")


def payload_size(count: int, bits: int) -> int:
    """Number of payload bytes for `count` packed codes."""
    return (count * bits + 7) // 8


@dataclass(frozen=True)
class QuantizedTensor:
    """Bit-packed signed codes plus the scale needed to dequantize them."""

    shape: tuple
    bits: int
    scale: float
    payload: bytes

    def __post_init__(self):
        _check_bits(self.bits)
        object.__setattr__(self, "shape", tuple(int(d) for d in self.shape))
        if not 0 < self.scale < np.inf:
            raise CorruptPayload(f"scale must be positive and finite, got {self.scale}")
        expected = payload_size(self.count, self.bits)
        if len(self.payload) != expected:
            raise CorruptPayload(
                f"payload is {len(self.payload)} bytes, expected {expected} "
                f"for shape {self.shape} at {self.bits} bits"
            )

    @property
    def count(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) if self.shape else 1

    def codes(self) -> np.ndarray:
        """Unpacked signed codes in row-major order."""
        return unpack(self.payload, self.count, self.bits)

    def value_table(self) -> np.ndarray:
        """(256, 8 // bits) float64 table of code * scale, in CODE_TABLES order."""
        return CODE_TABLES[self.bits] * np.float64(self.scale)

    def values(self) -> np.ndarray:
        """Exact float64 code * scale of every element, in the tensor's shape."""
        chunk = np.frombuffer(self.payload, dtype=np.uint8)
        return _gather(self.value_table(), chunk, 0, self.count).reshape(self.shape)


def pack(values, bits: int) -> bytes:
    """Bit-pack small signed integers (low bits first within each byte).

    The range check runs on the values as given, before they are narrowed
    to int8 and masked.
    """
    _check_bits(bits)
    v = np.asarray(values).ravel()
    qmax = (1 << (bits - 1)) - 1
    if v.size and (v.min() < -qmax or v.max() > qmax):
        raise RangeOverflow(f"values outside [-{qmax}, {qmax}] at {bits} bits")
    u = v.astype(np.int8, copy=False).view(np.uint8) & np.uint8((1 << bits) - 1)
    per = 8 // bits
    if u.size % per:
        u = np.concatenate([u, np.zeros(per - u.size % per, dtype=np.uint8)])
    u = u.reshape(-1, per)
    out = np.zeros(u.shape[0], dtype=np.uint8)
    for i in range(per):
        out |= u[:, i] << (bits * i)
    return out.tobytes()


def unpack(payload: bytes, count: int, bits: int) -> np.ndarray:
    """Inverse of pack; returns int8 codes."""
    _check_bits(bits)
    if len(payload) != payload_size(count, bits):
        raise CorruptPayload(
            f"payload is {len(payload)} bytes, expected {payload_size(count, bits)}"
        )
    return _gather(CODE_TABLES[bits], np.frombuffer(payload, dtype=np.uint8), 0, count)


def unpack_range(
    payload: bytes, start: int, count: int, bits: int, table=None
) -> np.ndarray:
    """Unpack elements [start, start+count) without touching the rest.

    Elements never straddle byte boundaries (bits divides 8), so only the
    covering byte range is read. Each covering byte is looked up in
    `table`, a (256, 8 // bits) array in CODE_TABLES lane order; the
    default, CODE_TABLES[bits], gives int8 codes. The fused multiply
    passes a core's value_table(), so each of its tiles is dequantized by
    this one gather.
    """
    _check_bits(bits)
    per = 8 // bits
    byte0 = start // per
    byte1 = (start + count + per - 1) // per
    if byte1 > len(payload) or start < 0 or count < 0:
        raise CorruptPayload("requested element range exceeds payload")
    chunk = np.frombuffer(payload, dtype=np.uint8, count=byte1 - byte0, offset=byte0)
    table = CODE_TABLES[bits] if table is None else table
    return _gather(table, chunk, start - byte0 * per, count)


def _gather(table, chunk, skip, count):
    """Elements [skip, skip+count) of the table rows of the bytes in chunk."""
    return np.take(table, chunk, axis=0).reshape(-1)[skip : skip + count]


def _code_table(bits):
    """(256, 8 // bits) int8 codes of every byte, lowest-order lane first."""
    per = 8 // bits
    mask = (1 << bits) - 1
    sign = 1 << (bits - 1)
    byte = np.arange(256, dtype=np.int16)[:, None]
    lanes = (byte >> (bits * np.arange(per))) & mask
    table = ((lanes ^ sign) - sign).astype(np.int8)
    table.setflags(write=False)
    return table


CODE_TABLES = {bits: _code_table(bits) for bits in SUPPORTED_BITS}


def quantize_rtn(t: np.ndarray, bits: int) -> QuantizedTensor:
    """Quantize a tensor with one symmetric scale (round half away from zero).

    Codes are computed in blocks straight into one int8 array (see the
    module docstring). A degenerate all-zero input gets scale 1.0 and
    all-zero codes so that dequantization reproduces it exactly.
    """
    _check_bits(bits)
    t = np.asarray(t)
    if t.size and not np.all(np.isfinite(t)):
        raise NonFiniteInput("quantize_rtn requires finite entries")
    qmax = (1 << (bits - 1)) - 1
    amax = max(float(t.max()), -float(t.min())) if t.size else 0.0
    scale = np.float32(amax / qmax) if amax > 0 else np.float32(1.0)
    codes = np.zeros(t.size, dtype=np.int8)
    if amax == 0.0 or float(scale) == 0.0:
        # zero input, or a subnormal max that underflows the float32 step:
        # store step 1.0 and all-zero codes
        scale = np.float32(1.0)
    else:
        flat = t.ravel()
        for i in range(0, t.size, QUANT_BLOCK):
            # w * qmax / max(|t|) keeps exactly-representable ties exact,
            # unlike dividing by the rounded float32 step
            y = flat[i : i + QUANT_BLOCK].astype(np.float64) * qmax / amax
            r = np.copysign(np.floor(np.abs(y) + 0.5), y)
            codes[i : i + QUANT_BLOCK] = np.clip(r, -qmax, qmax)
    return QuantizedTensor(
        shape=tuple(t.shape), bits=bits, scale=float(scale), payload=pack(codes, bits)
    )


def dequantize(q: QuantizedTensor) -> np.ndarray:
    """values() cast to float32: code * scale rounded once, in the tensor's shape."""
    return q.values().astype(np.float32)
