"""Symmetric round-to-nearest quantization and low-bit payload packing.

Quantization uses a single positive step size per tensor:

    step = max(|t|) / (2**(bits-1) - 1)
    code = clamp(round_half_away_from_zero(t / step), -qmax, qmax)

The code range is symmetric: the most negative two's-complement value
(-2**(bits-1)) is never produced. quantize_rtn walks the flat tensor in
blocks of QUANT_BLOCK elements. Each block is computed in two reused
float64 buffers with the operations of a single pass, y = t * qmax /
max(|t|) (the division skipped when max(|t|) is 1.0, as after the gauge,
since x / 1.0 is exact), then rounded as trunc(y + copysign(0.5, y)), which
is copysign(floor(|y| + 0.5), y), -0 included; the clamp never binds
(quantize_rtn says why), so none runs. The block's int8 codes are
packed straight into their bytes of the payload, so the codes and bytes
are those of one pass and no full-size float64, code or lane array is
made. pack is the range check in front of the same packer.

Packed payload layout (stable wire format): codes are stored in row-major
element order, two's complement within `bits` bits, little-endian bit
order inside each byte - the earliest element occupies the lowest-order
bits. Example at bits=4: values [1, -1] pack to the single byte 0xF1.

Unpacking is a table lookup at every width. CODE_TABLES[bits] is a
read-only (256, 8 // bits) int8 table, built once: row b holds the codes
packed in byte b, lowest-order lane first, so CODE_TABLES[4][0xF1] is
[1, -1]. Gathering its rows for a run of payload bytes and flattening them
gives the codes in element order. unpack_range gathers a range through any
table with 256 rows in this lane order; unpack and codes() go through it. A
read's unpack_range calls gather at most a tile each, which dqbench's traced
runs check, so values(), the rebuild's decode of a whole core, takes its own.

Every read of a packed tensor gathers through one table of decoded values,
QuantizedTensor.value_table() = CODE_TABLES[bits] * scale in float64: the
fused tiles, mpo.reconstruct and dequantize (which casts to float32). Each
entry is exact - a code of at most 8 bits times the float32 scale's 24-bit
significand needs at most 32 of float64's 53 bits - so the float32 cast
rounds once, as a float32 multiply of code and scale does.
"""

import math
import operator
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import CorruptPayload, NonFiniteInput, RangeOverflow, ShapeMismatch
from .errors import UnsupportedBits, UnsupportedDtype

SUPPORTED_BITS = (2, 4, 8)
QUANT_BLOCK = 1 << 16  # elements quantized per float64 pass


def _check_bits(bits) -> int:
    """The one bit-width rule: bits as an int, else UnsupportedBits.

    Integers in SUPPORTED_BITS pass, numpy ones too; 4.0 and None do not.
    """
    try:
        width = operator.index(bits)
    except TypeError:
        width = None
    if width not in SUPPORTED_BITS:
        raise UnsupportedBits(f"bits must be one of {SUPPORTED_BITS}, got {bits!r}")
    return width


def _check_size(value, what, least=1) -> int:
    """The one size rule: value as an int if an integer >= least, else ShapeMismatch."""
    try:
        size = operator.index(value)  # the one integer test, as in _check_bits
    except TypeError:
        size = None
    if size is None or size < least:
        raise ShapeMismatch(f"{what} must be an integer >= {least}, got {value!r}")
    return size


def _check_dtype(x, what) -> np.ndarray:
    """The one dtype rule: x as an array if its dtype is bool, int or float.

    Anything else (strings, objects, complex numbers, dates) raises
    UnsupportedDtype before any work, so no input turns into NaN or loses
    its imaginary part on the way to a float cast.
    """
    array = np.asarray(x)
    if array.dtype.kind not in "biuf":
        raise UnsupportedDtype(f"{what} must be bool, int or float, got {array.dtype}")
    return array


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
        object.__setattr__(self, "bits", _check_bits(self.bits))
        shape = tuple(_check_size(d, "dimension", 0) for d in self.shape)
        object.__setattr__(self, "shape", shape)
        if not isinstance(self.payload, bytes):
            raise CorruptPayload(f"payload is {type(self.payload).__name__}, not bytes")
        if not isinstance(self.scale, Real) or not 0 < self.scale < np.inf:
            raise CorruptPayload(
                f"scale must be a positive and finite number, got {self.scale!r}"
            )
        expected = payload_size(self.count, self.bits)
        if len(self.payload) != expected:
            raise CorruptPayload(
                f"payload is {len(self.payload)} bytes, expected {expected} "
                f"for shape {self.shape} at {self.bits} bits"
            )

    @property
    def count(self) -> int:
        return math.prod(self.shape)

    def codes(self) -> np.ndarray:
        """Unpacked signed codes in row-major order."""
        return unpack(self.payload, self.count, self.bits)

    def value_table(self) -> np.ndarray:
        """(256, 8 // bits) float64 table of code * scale, in CODE_TABLES order."""
        return CODE_TABLES[self.bits] * np.float64(self.scale)

    def values(self) -> np.ndarray:
        """Exact float64 code * scale of every element, in the tensor's shape."""
        chunk = np.frombuffer(self.payload, dtype=np.uint8)
        return self.value_table().take(chunk, 0).reshape(-1)[: self.count].reshape(self.shape)


def pack(values, bits: int) -> bytes:
    """Bit-pack small signed integers (low bits first within each byte).

    The checks run on the values as given, before they are narrowed to
    int8 and handed to the packer quantize_rtn uses: a value that is not a
    whole number (0.5, NaN) or lies outside [-qmax, qmax] raises
    RangeOverflow. Whole-number floats such as 3.0 pack as their integers.
    """
    bits = _check_bits(bits)
    v = np.asarray(values).ravel()
    kind = v.dtype.kind
    if not (kind in "biu" or kind == "f" and np.array_equal(v, np.trunc(v))):
        raise RangeOverflow(f"values must be integers to pack at {bits} bits")
    qmax = (1 << (bits - 1)) - 1
    if v.size and (v.min() < -qmax or v.max() > qmax):
        raise RangeOverflow(f"values outside [-{qmax}, {qmax}] at {bits} bits")
    out = np.empty(payload_size(v.size, bits), dtype=np.uint8)
    _pack_into(v.astype(np.int8, copy=False), bits, out)
    return out.tobytes()


def _pack_into(codes, bits, out):
    """Pack int8 codes in [-qmax, qmax] into the uint8 array out, in place.

    out holds payload_size(codes.size, bits) bytes; a last partial byte gets
    zero lanes. The top lane's high bits shift out of the byte, so it is the
    one lane ORed in unmasked; at 8 bits the one lane is masked with 0xFF, a
    copy.
    """
    u = codes.view(np.uint8)
    per = 8 // bits
    if u.size % per:
        u = np.concatenate([u, np.zeros(per - u.size % per, dtype=np.uint8)])
    lanes = u.reshape(-1, per)
    mask = (1 << bits) - 1
    np.bitwise_and(lanes[:, 0], mask, out=out)
    for i in range(1, per):
        lane = lanes[:, i] << bits * i
        if i < per - 1:
            lane &= mask << bits * i
        out |= lane


def unpack(payload: bytes, count: int, bits: int) -> np.ndarray:
    """Inverse of pack; returns int8 codes, refusing a payload of another length."""
    bits = _check_bits(bits)
    codes = unpack_range(payload, 0, count, bits)
    if len(payload) != (want := payload_size(codes.size, bits)):
        raise CorruptPayload(f"payload is {len(payload)} bytes, expected {want}")
    return codes


def unpack_range(
    payload: bytes, start: int, count: int, bits: int, table=None, out=None
) -> np.ndarray:
    """Unpack elements [start, start+count) without touching the rest.

    Elements never straddle byte boundaries (bits divides 8), so only the
    covering byte range is read. Each covering byte is looked up in
    `table`, a (256, 8 // bits) array in CODE_TABLES lane order; the
    default, CODE_TABLES[bits], gives int8 codes. The fused multiply
    passes a core's value_table(), so each of its tiles is dequantized by
    this one gather. start and count must be integers (else ShapeMismatch).
    `out`, if given, is a 1-D array of count elements of the table's dtype
    (else ShapeMismatch), filled and returned. A range on byte boundaries is
    gathered straight into out, made here if not given; any other range is
    gathered fresh and sliced, and without an out the slice is returned.
    """
    bits = _check_bits(bits)
    try:
        start, count = operator.index(start), operator.index(count)
    except TypeError:
        raise ShapeMismatch(f"start {start!r}, count {count!r}: not integers") from None
    per = 8 // bits
    byte0 = start // per
    byte1 = (start + count + per - 1) // per
    if byte1 > len(payload) or start < 0 or count < 0:
        raise CorruptPayload("requested element range exceeds payload")
    table = CODE_TABLES[bits] if table is None else table
    if out is not None and (out.shape != (count,) or out.dtype != table.dtype):
        want = f"({count},) {table.dtype}"
        raise ShapeMismatch(f"out must be {want}, got {out.shape} {out.dtype}")
    # positional arguments: numpy parses keywords to frombuffer and take
    # slowly, about 0.7 us of a 4-6 us tile gather
    chunk = np.frombuffer(payload, np.uint8, byte1 - byte0, byte0)
    skip = start - byte0 * per
    if skip or count % per:
        whole = table.take(chunk, 0).reshape(-1)[skip : skip + count]
        if out is None:
            return whole
        out[...] = whole
        return out
    out = np.empty(count, table.dtype) if out is None else out
    # mode="clip" never clips (a byte always indexes one of the 256 rows)
    # but, unlike "raise", gathers into out without a buffer; the method
    # skips np.take's dispatch, about 1 us of a 4-6 us tile gather
    table.take(chunk, 0, out.reshape(-1, per), "clip")
    return out


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

    Each block's codes are computed in two reused float64 buffers and packed
    straight into the payload (see the module docstring). A degenerate
    all-zero input gets scale 1.0 and all-zero codes so that dequantization
    reproduces it exactly.
    """
    bits = _check_bits(bits)
    t = _check_dtype(t, "tensor")
    # max and min propagate NaN and reach any infinity: no separate pass
    hi, lo = (float(t.max()), float(t.min())) if t.size else (0.0, 0.0)
    if not (math.isfinite(hi) and math.isfinite(lo)):
        raise NonFiniteInput("quantize_rtn requires finite entries")
    qmax = (1 << (bits - 1)) - 1
    amax = max(hi, -lo)
    scale = np.float32(amax / qmax)
    payload = np.zeros(payload_size(t.size, bits), dtype=np.uint8)
    if scale == 0:
        # zero input, or a subnormal max that underflows the float32 step:
        # store step 1.0 and all-zero codes
        scale = np.float32(1.0)
    else:
        flat = t.ravel()
        per = 8 // bits
        y = np.empty(min(t.size, QUANT_BLOCK))
        r = np.empty_like(y)
        codes = np.empty(y.size, dtype=np.int8)
        for i in range(0, t.size, QUANT_BLOCK):
            n = min(QUANT_BLOCK, t.size - i)
            yb, rb, cb = y[:n], r[:n], codes[:n]
            # t * qmax / max(|t|) keeps exactly-representable ties exact,
            # unlike dividing by the rounded float32 step; x / 1.0 is exact,
            # so a regauged core (max |t| = 1) skips the division
            yb[...] = flat[i : i + n]
            yb *= qmax
            if amax != 1.0:
                yb /= amax
            # round half away from zero: trunc(y + copysign(0.5, y)) equals
            # copysign(floor(|y| + 0.5), y), and the int8 cast truncates.
            # No clip: |t| <= amax and each float64 step rounds monotonically,
            # so |y| <= qmax (1 + 2**-53)**2 < qmax + 0.5 (for float32 t the
            # product is exact and |y| <= qmax)
            np.copysign(0.5, yb, out=rb)
            rb += yb
            cb[...] = rb
            _pack_into(cb, bits, payload[i // per : (i + n + per - 1) // per])
    return QuantizedTensor(
        shape=tuple(t.shape), bits=bits, scale=float(scale), payload=payload.tobytes()
    )


def dequantize(q: QuantizedTensor) -> np.ndarray:
    """values() cast to float32: code * scale rounded once, in the tensor's shape."""
    return q.values().astype(np.float32)
