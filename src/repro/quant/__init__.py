"""Quantization substrate: quantizers, PACT, bit representation, Q-layers."""

from .bitrep import bit_position_weights, code_range
from .integer_inference import (
    IntegerInferenceSession,
    QuantizedLayerExport,
    export_model,
    integer_conv2d,
    integer_linear,
)
from .packing import PackedCodes, pack_codes, packable_bits, unpack_codes
from .pact import PACT, bn_pact, pact
from .qmodules import QConv2d, QLinear, QuantizedLayer, weight_cache_disabled
from .quantizers import (
    QuantizerOutput,
    integer_levels,
    quantize_symmetric_array,
    quantize_tensor_for_bits,
    quantize_ternary_ste,
    quantize_weights_ste,
    symmetric_scale,
    ternary_quantize_array,
    ternary_threshold_and_scale,
)

__all__ = [
    "IntegerInferenceSession",
    "QuantizedLayerExport",
    "export_model",
    "integer_conv2d",
    "integer_linear",
    "bit_position_weights",
    "code_range",
    "PackedCodes",
    "pack_codes",
    "packable_bits",
    "unpack_codes",
    "PACT",
    "bn_pact",
    "pact",
    "QConv2d",
    "QLinear",
    "QuantizedLayer",
    "weight_cache_disabled",
    "QuantizerOutput",
    "integer_levels",
    "quantize_symmetric_array",
    "quantize_tensor_for_bits",
    "quantize_ternary_ste",
    "quantize_weights_ste",
    "symmetric_scale",
    "ternary_quantize_array",
    "ternary_threshold_and_scale",
]
