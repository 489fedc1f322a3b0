"""ZkProgram: tensor-level recording of a zkSNARK NN (§3).

A :class:`ZkProgram` is the compiler's input IR — an ordered list of
:class:`TensorOp` records that keep *tensor* and *privacy* semantics intact,
instead of the assembly-style scalar circuit existing frameworks lower to
immediately.  Each op knows:

* which named tensors it reads/writes,
* its dot-product factorization (for conv/FC/pool — Table 3's ``(mk, n)``),
* the plaintext accumulator/output values from the traced NN run (these
  become the zk witness).

Dot layers precompute an im2col *index* matrix so the circuit generator can
emit each dot product without re-deriving geometry: entry ``p+1`` refers to
flat input position ``p``, and ``0`` marks a padded (constant-zero) tap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.lang.types import Privacy
from repro.nn.graph import INPUT, LayerTrace, Model
from repro.nn.layers import (
    Add,
    AvgPool2d,
    BatchNorm,
    Conv2d,
    Flatten,
    Linear,
    MaxPool2d,
    ReLU,
)
from repro.nn.transformer import (
    ActivationLUT,
    Embedding,
    GatherLayer,
    LayerNorm,
    MatMul,
    PositionalEmbedding,
    RowScale,
    RowSum,
)


@dataclass
class TensorOp:
    """Base record: one tensor-level operation of the program."""

    name: str
    inputs: Tuple[str, ...]
    output: str
    out_values: np.ndarray  # plaintext activation handed downstream


@dataclass
class DotLayerOp(TensorOp):
    """Conv / FC / AvgPool as a bag of independent dot products.

    ``weight_rows[row_of_dot[d]]`` gives dot ``d``'s weight vector;
    ``input_cols[:, col_of_dot[d]]`` gives the 1-based flat positions of its
    activation taps (0 = padded zero).  ``acc_values[d]`` is the plaintext
    accumulator the circuit commits to; ``requant`` the power-of-two shift
    linking it to ``out_values``.
    """

    weight_rows: np.ndarray = None  # (r, n)
    row_of_dot: np.ndarray = None  # (num_dots,)
    col_of_dot: np.ndarray = None  # (num_dots,)
    input_cols: np.ndarray = None  # (n, num_cols), 1-based; 0 = padding
    bias: np.ndarray = None  # (r,), public constants
    acc_values: np.ndarray = None  # (num_dots,)
    requant: int = 0
    weights_private: bool = False
    layer_kind: str = "fc"  # "fc" | "conv" | "pool"

    @property
    def num_dots(self) -> int:
        return int(self.row_of_dot.shape[0])

    @property
    def dot_length(self) -> int:
        return int(self.weight_rows.shape[1])

    def macs(self) -> int:
        return self.num_dots * self.dot_length


@dataclass
class EwiseAffineOp(TensorOp):
    """Per-channel affine ``g*x + b`` (BatchNorm) with a requant shift."""

    gamma: np.ndarray = None  # flat, per element
    beta: np.ndarray = None
    acc_values: np.ndarray = None
    requant: int = 0
    weights_private: bool = False


@dataclass
class AddOp(TensorOp):
    """Residual addition with a requant shift."""

    acc_values: np.ndarray = None
    requant: int = 0


@dataclass
class ReluOp(TensorOp):
    """Elementwise ReLU — compiled to the bit-decomposition gadget (§2.2)."""

    in_values: np.ndarray = None
    bits: int = 16


@dataclass
class MaxPoolOp(TensorOp):
    """Window maximum — chained comparison gadgets (§2.2's costly pooling).

    ``window_positions[:, w]`` holds the 1-based flat input positions of
    window ``w``'s taps.
    """

    window_positions: np.ndarray = None  # (k, num_windows)
    in_values: np.ndarray = None  # flat input values
    bits: int = 16

    @property
    def num_windows(self) -> int:
        return int(self.window_positions.shape[1])

    @property
    def window_size(self) -> int:
        return int(self.window_positions.shape[0])


@dataclass
class FlattenOp(TensorOp):
    """Pure reshape; generates no constraints."""


@dataclass
class GatherOp(TensorOp):
    """Wire permutation/selection (head split/merge, ViT patchify).

    ``sources[o] = (input_ordinal, flat_position)`` names the input wire
    that becomes flat output position ``o``; generates no constraints.
    """

    sources: np.ndarray = None  # (out_size, 2)


@dataclass
class EmbedOp(TensorOp):
    """Token-id row lookup into a public ``(vocab, dim)`` table.

    Lookup mode lowers each output element through a per-dimension
    :class:`~repro.lookup.table.LookupTable` (the id is range-proven at
    the lookup input); bits mode uses a per-token one-hot selector shared
    across dimensions.
    """

    table: np.ndarray = None  # (vocab, dim) int64
    ids: np.ndarray = None  # (seq,) traced token ids


@dataclass
class MatMulOp(TensorOp):
    """Private x private matrix product: one mul constraint per term."""

    a_shape: Tuple[int, int] = None
    b_shape: Tuple[int, int] = None
    transpose_b: bool = False
    acc_values: np.ndarray = None  # flat (m * n_out)
    requant: int = 0

    @property
    def dims(self) -> Tuple[int, int, int]:
        """(m, k, n_out) of the product."""
        m, k = self.a_shape
        n = self.b_shape[0] if self.transpose_b else self.b_shape[1]
        return m, k, n


@dataclass
class RowScaleOp(TensorOp):
    """``out_ij = (e_ij * r_i) >> requant`` — softmax normalization."""

    width: int = 0  # row width of the e operand
    acc_values: np.ndarray = None  # flat
    requant: int = 0


@dataclass
class ActLUTOp(TensorOp):
    """Elementwise nonlinearity through a builtin lookup table."""

    table_name: str = ""  # repro.lookup registry name
    in_values: np.ndarray = None  # flat


@dataclass
class LayerNormOp(TensorOp):
    """Composite LayerNorm: mean / variance commits + rsqrt lookup.

    All intermediates are recomputed from ``in_values`` by both the
    circuit lowering and the batch witness replay, so the op only needs
    the traced input and the three static shifts.
    """

    in_values: np.ndarray = None  # (rows, d)
    mean_shift: int = 0
    var_shift: int = 0
    out_shift: int = 0


@dataclass
class ZkProgram:
    """The full recorded program plus its privacy configuration."""

    name: str
    input_shape: Tuple[int, ...]
    input_values: np.ndarray
    image_privacy: Privacy
    weights_privacy: Privacy
    ops: List[TensorOp] = field(default_factory=list)
    output_name: str = ""

    def dot_ops(self) -> List[DotLayerOp]:
        return [op for op in self.ops if isinstance(op, DotLayerOp)]

    def total_macs(self) -> int:
        return sum(op.macs() for op in self.dot_ops())

    def final_logits(self) -> np.ndarray:
        return self.ops[-1].out_values

    def __repr__(self) -> str:
        return (
            f"ZkProgram({self.name}: {len(self.ops)} ops, "
            f"image={self.image_privacy}, weights={self.weights_privacy})"
        )


# -- lowering an NN model into a program ------------------------------------------


def _index_cols(layer: Conv2d, in_shape: Tuple[int, ...]) -> np.ndarray:
    """im2col over flat positions: 1-based indices, 0 for padded taps."""
    positions = (np.arange(int(np.prod(in_shape)), dtype=np.int64) + 1).reshape(
        in_shape
    )
    return layer.im2col(positions)


def _dot_op_from_conv(
    name: str, layer: Conv2d, trace: LayerTrace, inputs, weights_private: bool
) -> DotLayerOp:
    in_shape = trace.input_values[0].shape
    c_out = layer.weight.shape[0]
    cols = _index_cols(layer, in_shape)  # (n, num_pixels)
    num_pixels = cols.shape[1]
    row_of_dot = np.repeat(np.arange(c_out), num_pixels)
    col_of_dot = np.tile(np.arange(num_pixels), c_out)
    return DotLayerOp(
        name=name,
        inputs=inputs,
        output=name,
        out_values=trace.out,
        weight_rows=layer.weight.reshape(c_out, -1),
        row_of_dot=row_of_dot,
        col_of_dot=col_of_dot,
        input_cols=cols,
        bias=layer.bias,
        acc_values=trace.acc.reshape(-1),
        requant=layer.requant,
        weights_private=weights_private,
        layer_kind="conv",
    )


def _dot_op_from_linear(
    name: str, layer: Linear, trace: LayerTrace, inputs, weights_private: bool
) -> DotLayerOp:
    c_out, c_in = layer.weight.shape
    # 2-D input (seq, c_in): the same weight rows sweep every input row —
    # dot d computes output row d // c_out (input column d // c_out of the
    # index matrix), weight row d % c_out, matching the row-major (seq,
    # c_out) flattening of trace.acc.
    seq = trace.input_values[0].shape[0] if trace.input_values[0].ndim == 2 else 1
    cols = (
        np.arange(seq * c_in, dtype=np.int64) + 1
    ).reshape(seq, c_in).T  # (c_in, seq)
    return DotLayerOp(
        name=name,
        inputs=inputs,
        output=name,
        out_values=trace.out,
        weight_rows=layer.weight,
        row_of_dot=np.tile(np.arange(c_out), seq),
        col_of_dot=np.repeat(np.arange(seq), c_out),
        input_cols=cols,
        bias=layer.bias,
        acc_values=trace.acc.reshape(-1),
        requant=layer.requant,
        weights_private=weights_private,
        layer_kind="fc",
    )


def _dot_op_from_rowsum(
    name: str, layer: "RowSum", trace: LayerTrace, inputs
) -> DotLayerOp:
    """Row sum = dot with a public ones-vector, one dot per row."""
    m, n = trace.input_values[0].shape
    cols = (np.arange(m * n, dtype=np.int64) + 1).reshape(m, n).T  # (n, m)
    return DotLayerOp(
        name=name,
        inputs=inputs,
        output=name,
        out_values=trace.out,
        weight_rows=np.ones((1, n), dtype=np.int64),
        row_of_dot=np.zeros(m, dtype=np.int64),
        col_of_dot=np.arange(m),
        input_cols=cols,
        bias=np.zeros(1, dtype=np.int64),
        acc_values=trace.acc.reshape(-1),
        requant=layer.requant,
        weights_private=False,  # structural ones-vector, always public
        layer_kind="pool",
    )


def _dot_op_from_pool(
    name: str, layer: AvgPool2d, trace: LayerTrace, inputs
) -> DotLayerOp:
    """Average pool = dot with a public ones-vector of length s^2 (§5.1)."""
    in_shape = trace.input_values[0].shape
    c, h, w = in_shape
    s = layer.size
    oh, ow = h // s, w // s
    positions = (np.arange(c * h * w, dtype=np.int64) + 1).reshape(in_shape)
    grids = (
        positions.reshape(c, oh, s, ow, s)
        .transpose(0, 1, 3, 2, 4)
        .reshape(c * oh * ow, s * s)
    )
    num_dots = c * oh * ow
    return DotLayerOp(
        name=name,
        inputs=inputs,
        output=name,
        out_values=trace.out,
        weight_rows=np.ones((1, s * s), dtype=np.int64),
        row_of_dot=np.zeros(num_dots, dtype=np.int64),
        col_of_dot=np.arange(num_dots),
        input_cols=grids.T,  # (s*s, num_dots)
        bias=np.zeros(1, dtype=np.int64),
        acc_values=trace.acc.reshape(-1),
        requant=layer.requant,
        weights_private=False,  # the ones-vector is structural, always public
        layer_kind="pool",
    )


def _maxpool_op(
    name: str, layer: "MaxPool2d", trace: LayerTrace, inputs, bits: int = 16
) -> MaxPoolOp:
    in_shape = trace.input_values[0].shape
    c, h, w = in_shape
    s = layer.size
    oh, ow = h // s, w // s
    positions = (np.arange(c * h * w, dtype=np.int64) + 1).reshape(in_shape)
    windows = (
        positions.reshape(c, oh, s, ow, s)
        .transpose(0, 1, 3, 2, 4)
        .reshape(c * oh * ow, s * s)
    )
    return MaxPoolOp(
        name=name,
        inputs=inputs,
        output=name,
        out_values=trace.out,
        window_positions=windows.T,  # (s*s, num_windows)
        in_values=trace.input_values[0].reshape(-1),
        bits=bits,
    )


def program_from_model(
    model: Model,
    image: np.ndarray,
    image_privacy: Privacy = Privacy.PRIVATE,
    weights_privacy: Privacy = Privacy.PUBLIC,
) -> ZkProgram:
    """Trace ``model`` on ``image`` and record it as a typed ZkProgram.

    This is the "Generate"-phase front half: NN semantics (tensor shapes,
    layer kinds, privacy) flow into the program instead of being lowered to
    anonymous scalar gates.
    """
    traces = model.trace(image)
    program = ZkProgram(
        name=model.name,
        input_shape=tuple(model.input_shape),
        input_values=image.astype(np.int64),
        image_privacy=image_privacy,
        weights_privacy=weights_privacy,
    )
    wp = weights_privacy.is_private
    for trace in traces:
        node = model.node(trace.name)
        layer = node.layer
        inputs = node.inputs
        if isinstance(layer, Conv2d):
            op = _dot_op_from_conv(trace.name, layer, trace, inputs, wp)
        elif isinstance(layer, Linear):
            op = _dot_op_from_linear(trace.name, layer, trace, inputs, wp)
        elif isinstance(layer, AvgPool2d):
            op = _dot_op_from_pool(trace.name, layer, trace, inputs)
        elif isinstance(layer, MaxPool2d):
            op = _maxpool_op(trace.name, layer, trace, inputs)
        elif isinstance(layer, BatchNorm):
            flat = trace.input_values[0]
            if flat.ndim == 3:
                gamma = np.broadcast_to(
                    layer.gamma[:, None, None], flat.shape
                ).reshape(-1)
                beta = np.broadcast_to(
                    layer.beta[:, None, None], flat.shape
                ).reshape(-1)
            else:
                gamma, beta = layer.gamma, layer.beta
            op = EwiseAffineOp(
                name=trace.name,
                inputs=inputs,
                output=trace.name,
                out_values=trace.out,
                gamma=np.ascontiguousarray(gamma),
                beta=np.ascontiguousarray(beta),
                acc_values=trace.acc.reshape(-1),
                requant=layer.requant,
                weights_private=wp,
            )
        elif isinstance(layer, Add):
            op = AddOp(
                name=trace.name,
                inputs=inputs,
                output=trace.name,
                out_values=trace.out,
                acc_values=trace.acc.reshape(-1),
                requant=layer.requant,
            )
        elif isinstance(layer, ReLU):
            op = ReluOp(
                name=trace.name,
                inputs=inputs,
                output=trace.name,
                out_values=trace.out,
                in_values=trace.input_values[0].reshape(-1),
            )
        elif isinstance(layer, Flatten):
            op = FlattenOp(
                name=trace.name,
                inputs=inputs,
                output=trace.name,
                out_values=trace.out,
            )
        elif isinstance(layer, RowSum):
            op = _dot_op_from_rowsum(trace.name, layer, trace, inputs)
        elif isinstance(layer, PositionalEmbedding):
            flat = trace.input_values[0]
            op = EwiseAffineOp(
                name=trace.name,
                inputs=inputs,
                output=trace.name,
                out_values=trace.out,
                gamma=np.ones(flat.size, dtype=np.int64),
                beta=layer.pos.reshape(-1),
                acc_values=trace.acc.reshape(-1),
                requant=0,
                weights_private=wp,
            )
        elif isinstance(layer, Embedding):
            op = EmbedOp(
                name=trace.name,
                inputs=inputs,
                output=trace.name,
                out_values=trace.out,
                table=layer.table,
                ids=trace.input_values[0].reshape(-1),
            )
        elif isinstance(layer, MatMul):
            op = MatMulOp(
                name=trace.name,
                inputs=inputs,
                output=trace.name,
                out_values=trace.out,
                a_shape=tuple(trace.input_values[0].shape),
                b_shape=tuple(trace.input_values[1].shape),
                transpose_b=layer.transpose_b,
                acc_values=trace.acc.reshape(-1),
                requant=layer.requant,
            )
        elif isinstance(layer, RowScale):
            op = RowScaleOp(
                name=trace.name,
                inputs=inputs,
                output=trace.name,
                out_values=trace.out,
                width=int(trace.input_values[0].shape[1]),
                acc_values=trace.acc.reshape(-1),
                requant=layer.requant,
            )
        elif isinstance(layer, ActivationLUT):
            op = ActLUTOp(
                name=trace.name,
                inputs=inputs,
                output=trace.name,
                out_values=trace.out,
                table_name=layer.table_name,
                in_values=trace.input_values[0].reshape(-1),
            )
        elif isinstance(layer, LayerNorm):
            op = LayerNormOp(
                name=trace.name,
                inputs=inputs,
                output=trace.name,
                out_values=trace.out,
                in_values=trace.input_values[0],
                mean_shift=layer.mean_shift,
                var_shift=layer.var_shift,
                out_shift=layer.out_shift,
            )
        elif isinstance(layer, GatherLayer):
            op = GatherOp(
                name=trace.name,
                inputs=inputs,
                output=trace.name,
                out_values=trace.out,
                sources=layer.gather_sources(
                    [v.shape for v in trace.input_values]
                ),
            )
        else:
            raise TypeError(f"no program lowering for layer {type(layer).__name__}")
        program.ops.append(op)
    program.output_name = traces[-1].name
    return program
