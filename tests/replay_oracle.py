"""The per-variable witness replay, kept as the differential-test oracle.

What ``BatchProver.assign_image`` was before replay ran the emitters' own
value functions: a plaintext forward pass, then an interpreter over one
descriptor per variable — ``("out", tag, index, shift)``, ``("rem_bit",
…)``, ``("sign", …)``, ``("dot_wire", …)``, ``("sel_bit", …)`` and the
rest, 17 kinds.  :func:`descriptors` names every variable of a recorded
recipe by the descriptor the emitters used to log for it, so the old
interpreter (:func:`assign_image`) and ``recipe_digests`` read today's
recipes.  One extension: a max-pool select (logged with index ``-1``)
reads the next of its layer's window differences in emission order, and
a max-pool output its window's maximum — what the old interpreter could
not replay, so ``BatchProver`` refused ``MaxPool2d``.  Shares no code with
:mod:`repro.r1cs.recipe` replay.
"""

import numpy as np

from repro.core.circuit.gadgets import (
    RANGE_OFFSET,
    commit_values,
    relu_values,
    select_values,
)
from repro.core.lang.program import (
    ActLUTOp,
    DotLayerOp,
    EmbedOp,
    EwiseAffineOp,
    LayerNormOp,
    MatMulOp,
    MaxPoolOp,
    program_from_model,
)
from repro.field import signed
from repro.lookup import get_table, reassign_lookup_columns
from repro.lookup.argument import lookup_values
from repro.lookup.table import PACK_BASE
from repro.nn.graph import INPUT
from repro.r1cs.recipe import Inputs, pair_products


def _product_name(program, tag, index, j, position):
    """The descriptor of product wire ``j`` of accumulator ``index`` of the
    commitment ``tag`` (``position``: its place in its product run)."""
    name, _, part = tag.partition("#")
    op = None if program is None else {o.name: o for o in program.ops}.get(name)
    if isinstance(op, DotLayerOp):
        taps = op.input_cols[:, op.col_of_dot].T
        weights = op.weight_rows[op.row_of_dot]
        _, tap = np.nonzero((taps != 0) & (weights != 0))
        return ("dot_wire", name, index, int(tap[position]))
    if isinstance(op, EwiseAffineOp):
        return ("affine_wire", name, index)
    if isinstance(op, LayerNormOp):
        if part == "var":
            return ("ln_sq", name, index * op.in_values.shape[1] + j)
        return ("ln_prod", name, index)
    return ("mul_wire", tag, index, j)


def descriptors(recipe, program=None, blocks=()):
    """``[(var, descriptor)]`` for a recorded recipe, one per variable (a
    ``(var, descriptor)`` entry passes through).  ``program`` names product
    wires by their layer (else ``mul_wire``); ``blocks``
    (``cs.lookup_blocks``) name the LogUp columns."""
    out = []
    pending = None  # the product step a commitment is about to read
    columns = iter(blocks)
    for step in recipe:
        if type(step) is tuple:  # already one variable's descriptor
            out.append(step)
            continue
        if isinstance(step, Inputs):
            at = step.variables().tolist()
            if step.values is None:
                out += [(v, ("image", pos)) for pos, v in enumerate(at)]
            else:
                out += [
                    (v, ("const", c)) for v, c in zip(at, step.values.tolist())
                ]
            continue
        at = np.asarray(step.at)
        if step.values is None:  # the LogUp columns
            name = next(columns).table_name
            out += [(v, ("lut", name)) for v in at.tolist()]
            continue
        if step.values is pair_products:
            pending = at
            continue
        func, kw = step.values.func, step.values.keywords
        if func is lookup_values:
            out += [(v, ("lut", kw["table"].name)) for v in at.tolist()]
        elif func is select_values:
            size, d = kw["columns"].shape
            for r, row in enumerate(at.tolist()):
                i = kw["first_index"] + r
                out += [(v, ("sel_bit", kw["tag"], i, b))
                        for b, v in enumerate(row[:size])]
                out += [(v, ("sel_out", kw["tag"], i * d + j))
                        for j, v in enumerate(row[size:])]
        elif func is relu_values:
            tag, bits = kw["tag"], kw["bits"]
            for row, index in zip(at.tolist(), kw["indices"].tolist()):
                out.append((row[0], ("sign", tag, index, bits)))
                out += [(v, ("relu_bit", tag, index, bits, i))
                        for i, v in enumerate(row[1:-1])]
                out.append((row[-1], ("relu_out", tag, index, bits)))
        elif func is commit_values:
            tag, shift, indices = kw["tag"], kw["shift"], kw["indices"].tolist()
            if pending is not None:
                owner = dict(zip(step.cols.tolist(), step.exprs.tolist()))
                made = {}
                for position, wire in enumerate(pending.tolist()):
                    k = owner[wire]
                    j = made[k] = made.get(k, -1) + 1
                    out.append((wire, _product_name(
                        program, tag, indices[k], j, position
                    )))
                pending = None
            for row, index in zip(at.tolist(), indices):
                out.append((row[0], ("out", tag, index, shift)))
                if kw["strict"]:
                    out += [(v, ("rem_bit", tag, index, shift, i))
                            for i, v in enumerate(row[1:1 + shift])]
                    out += [(v, ("out_bit", tag, index, shift, i))
                            for i, v in enumerate(row[1 + shift:])]
                elif shift:
                    out.append((row[1], ("rem", tag, index, shift)))
        else:
            raise AssertionError(f"unknown step {step.values!r}")
    return out


def named(recipe, program=None, blocks=()) -> dict:
    """``var -> descriptor`` for a recipe of steps, a per-variable log (the
    per-element oracles' ``em.recipe``) or a mix; every variable once.
    No recipe (``record_recipe`` off) stays None."""
    if recipe is None:
        return None
    log = descriptors(recipe, program, blocks)
    names = dict(log)
    assert len(names) == len(log), "a variable is named twice"
    return names


def assign_image(prover, image):
    """Re-trace the model on ``image`` and re-assign every variable of
    ``prover``'s system through the per-variable descriptors."""
    privacy = prover.options.privacy
    program = program_from_model(
        prover.model, image, privacy.image_privacy, privacy.weights_privacy
    )
    values = {INPUT: program.input_values.reshape(-1)}
    acc, relu_in, ops = {}, {}, {}
    sel_in, sel_out, ln = {}, {}, {}
    for op in program.ops:
        values[op.output] = op.out_values.reshape(-1)
        ops[op.name] = op
        if getattr(op, "acc_values", None) is not None:
            acc[op.name] = op.acc_values
        if getattr(op, "in_values", None) is not None:
            relu_in[op.name] = op.in_values
        if isinstance(op, MaxPoolOp):
            taps = op.window_positions.T - 1
            tap_values = op.in_values[taps]
            best = np.maximum.accumulate(tap_values, axis=1)
            relu_in[op.name] = (tap_values[:, 1:] - best[:, :-1]).reshape(-1)
            acc[op.name] = best[:, -1]
        elif isinstance(op, ActLUTOp):
            table = get_table(op.table_name)
            sel_in[op.name] = (op.in_values.reshape(-1), table.domain_lo)
            sel_out[op.name] = op.out_values.reshape(-1)
        elif isinstance(op, EmbedOp):
            sel_in[op.name] = (op.ids.reshape(-1), 0)
            sel_out[op.name] = op.out_values.reshape(-1)
        elif isinstance(op, LayerNormOp):
            x = op.in_values.astype(np.int64)
            mean_acc = x.sum(axis=1)
            c = x - (mean_acc >> op.mean_shift)[:, None]
            var_acc = (c * c).sum(axis=1)
            var_q = var_acc >> op.var_shift
            y = get_table("rsqrt").apply(var_q)
            acc[f"{op.name}#mean"] = mean_acc
            acc[f"{op.name}#var"] = var_acc
            acc[f"{op.name}#out"] = (c * y[:, None]).reshape(-1)
            ln[op.name] = (c, y)
            sel_in[f"{op.name}#y"] = (var_q, 0)
            sel_out[f"{op.name}#y"] = y

    cs = prover.cs
    pool_next = {}  # max-pool selects: the window difference each reads
    for var, desc in descriptors(
        prover.result.recipe, program, cs.lookup_blocks
    ):
        kind = desc[0]
        if kind == "image":
            cs.assign(var, int(values[INPUT][desc[1]]))
        elif kind in ("const", "lut"):
            continue  # constants; the LogUp columns come last
        elif kind == "out":
            _, name, idx, shift = desc
            cs.assign(var, int(acc[name][idx]) >> shift)
        elif kind == "rem":
            _, name, idx, shift = desc
            a = int(acc[name][idx])
            cs.assign(var, a - ((a >> shift) << shift))
        elif kind == "rem_bit":
            _, name, idx, shift, i = desc
            a = int(acc[name][idx])
            cs.assign(var, ((a - ((a >> shift) << shift)) >> i) & 1)
        elif kind == "out_bit":
            _, name, idx, shift, i = desc
            out = (int(acc[name][idx]) >> shift) + RANGE_OFFSET
            cs.assign(var, (out >> i) & 1)
        elif kind in ("sign", "relu_bit", "relu_out"):
            name, idx, bits = desc[1:4]
            if idx < 0:
                if kind == "sign":
                    pool_next[name] = pool_next.get(name, -1) + 1
                idx = pool_next[name]
            v = int(relu_in[name][idx])
            if kind == "sign":
                cs.assign(var, 1 if v >= 0 else 0)
            elif kind == "relu_bit":
                cs.assign(var, ((v + (1 << (bits - 1))) >> desc[4]) & 1)
            else:
                cs.assign(var, v if v > 0 else 0)
        elif kind == "dot_wire":
            _, name, d, i = desc
            op = ops[name]
            pos = int(op.input_cols[i, op.col_of_dot[d]])
            x = int(values[op.inputs[0]][pos - 1])
            cs.assign(var, int(op.weight_rows[op.row_of_dot[d]][i]) * x)
        elif kind == "affine_wire":
            _, name, idx = desc
            op = ops[name]
            cs.assign(var, int(op.gamma[idx]) * int(values[op.inputs[0]][idx]))
        elif kind == "mul_wire":
            _, name, d, kk = desc
            op = ops[name]
            if isinstance(op, MatMulOp):
                m, k, n = op.dims
                a2 = values[op.inputs[0]].reshape(op.a_shape)
                b2 = values[op.inputs[1]].reshape(op.b_shape)
                i, jj = d // n, d % n
                w = int(b2[jj, kk] if op.transpose_b else b2[kk, jj])
                cs.assign(var, int(a2[i, kk]) * w)
            else:  # RowScaleOp
                e = int(values[op.inputs[0]][d])
                cs.assign(var, e * int(values[op.inputs[1]][d // op.width]))
        elif kind in ("ln_sq", "ln_prod"):
            _, name, flat = desc
            c, y = ln[name]
            cv = int(c[flat // c.shape[1], flat % c.shape[1]])
            other = cv if kind == "ln_sq" else int(y[flat // c.shape[1]])
            cs.assign(var, cv * other)
        elif kind == "sel_bit":
            _, tag, idx, v = desc
            vals, lo = sel_in[tag]
            cs.assign(var, 1 if int(vals[idx]) == lo + v else 0)
        elif kind == "sel_out":
            _, tag, idx = desc
            cs.assign(var, int(sel_out[tag][idx]))
        else:
            raise ValueError(f"unknown recipe descriptor {desc!r}")
    p = cs.field.modulus
    for block in cs.lookup_blocks:  # outputs and range bits, then columns
        rows = [
            signed(cs.value_of(x), p) - block.domain_lo for x in block.x_vars
        ]
        for y_var, j in zip(block.y_vars, rows):
            pair = block.packed_entries[j]
            cs.assign(y_var, pair // PACK_BASE - block.y_bias)
        row_of = dict(zip(block.x_vars, rows))
        for x_var, (bits, _) in block.xbits.items():
            for i, b in enumerate(bits):
                cs.assign(b, (row_of[x_var] >> i) & 1)
    reassign_lookup_columns(cs)
