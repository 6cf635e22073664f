"""Data-free matrix and KV-cache compression via tensor-train factorization.

A matrix is split into a chain of small cores; all but the first core are
quantized to 2/4/8-bit integers with one symmetric scale each, while the
first core stays at full precision. The plan keeps that first core to at
most 1/64 of the matrix's values, and a gauge sweep before packing
rescales every bond row of the packed cores to the full code range,
moving the factors into the first core, which so absorbs the wide values.
Factorized and compressed matrices are the one chain type, MpoChain, whose
cores are float32 arrays or packed QuantizedTensors; QuantizedMpo is
another name for it. Reads either rebuild the matrix or stream the packed
cores tile-by-tile through fused multiplies; both decode a packed core
through its one table of code * scale values.
"""

from .analysis import (
    ErrorRecord,
    OutlierStats,
    decomposition_comparison,
    default_suite,
    iqr_stats,
    length_sweep,
    migration_report,
    strategy_sweep,
    synth_activations,
)
from .compress import (
    CompressionReport,
    QuantizedMpo,
    WorkingSetMeter,
    compression_report,
    deco_dequantize,
    deco_quantize,
    fused_matmul,
    fused_matmul_t,
)
from .kvcache import CacheConfig, KvCache, MemoryLedger, simulate_generation
from .mpo import MpoChain, ShapePlan, decompose, plan_shapes, reconstruct, split_large_small
from .quantize import QuantizedTensor, dequantize, pack, quantize_rtn, unpack

__all__ = [
    "CacheConfig",
    "CompressionReport",
    "ErrorRecord",
    "KvCache",
    "MemoryLedger",
    "MpoChain",
    "OutlierStats",
    "QuantizedMpo",
    "QuantizedTensor",
    "ShapePlan",
    "WorkingSetMeter",
    "compression_report",
    "deco_dequantize",
    "deco_quantize",
    "decompose",
    "decomposition_comparison",
    "default_suite",
    "dequantize",
    "fused_matmul",
    "fused_matmul_t",
    "iqr_stats",
    "length_sweep",
    "migration_report",
    "pack",
    "plan_shapes",
    "quantize_rtn",
    "reconstruct",
    "simulate_generation",
    "split_large_small",
    "strategy_sweep",
    "synth_activations",
    "unpack",
]

__version__ = "0.1.0"
