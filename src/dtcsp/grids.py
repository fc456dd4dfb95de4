"""Vectorised evaluation of formulas on integer boxes.

A grid is a boolean ndarray of shape ``(hi - lo,) * arity`` whose cell
``[i1, ..., ik]`` says whether the tuple ``(lo + i1, ..., lo + ik)`` satisfies
a formula.  Index residues modulo d coincide with value residues up to a fixed
shift, so residue-class slicing can be done directly in index space.
``eval_node`` evaluates a formula over any broadcastable value arrays; the
grids use it on ranges, ``finite.satisfies`` on columns of argument values.
"""

from __future__ import annotations

import numpy as np

from .formula import And, Cmp, Literal, Not


def eval_node(node, axes):
    """Truth array of a formula node, variable i taking the values of the
    array ``axes[i]``; the arrays broadcast against each other.  Exact for
    object arrays of Python ints; int64 input must leave room for every
    offset, as the sums wrap silently."""
    if isinstance(node, Literal):
        a = axes[node.lhs]
        b = axes[node.rhs] + node.offset
        if node.cmp is Cmp.LEQ:
            return a <= b
        if node.cmp is Cmp.LT:
            return a < b
        if node.cmp is Cmp.EQ:
            return a == b
        return a != b
    if isinstance(node, Not):
        return ~eval_node(node.part, axes)
    if isinstance(node, And):
        out = np.ones((), dtype=bool)
        for p in node.parts:
            out = out & eval_node(p, axes)
        return out
    out = np.zeros((), dtype=bool)
    for p in node.parts:
        out = out | eval_node(p, axes)
    return out


def grid_eval(formula, arity, lo, hi):
    """Boolean grid of the formula over ``[lo, hi)^arity``."""
    width = hi - lo
    axes = []
    for i in range(arity):
        shape = [1] * arity
        shape[i] = width
        axes.append(np.arange(lo, hi, dtype=np.int64).reshape(shape))
    full = np.broadcast_to(eval_node(formula.root, axes), (width,) * arity)
    return np.ascontiguousarray(full)


def accumulate_leq_mod(arr, axis, d):
    """OR over all same-residue positions at or below each index, per axis.

    A running OR over whole slabs: slab i takes in slab i - d, which already
    holds every lower slab of its residue class.  Each step is one
    vectorised pass over a whole (k-1)-dimensional slab."""
    out = arr.copy()
    slabs = np.moveaxis(out, axis, 0)
    for i in range(d, slabs.shape[0]):
        slabs[i] |= slabs[i - d]
    return out


def other_residue_any(arr, axis, d):
    """OR over all positions whose index residue differs from the cell's own."""
    if d == 1:
        return np.zeros_like(arr)
    moved = np.moveaxis(arr, axis, -1)
    width = moved.shape[-1]
    nphases = min(d, width)
    anys = [moved[..., p::d].any(axis=-1) for p in range(nphases)]
    # another phase holds a cell iff more phases do than this one alone
    count = np.zeros(anys[0].shape, dtype=np.min_scalar_type(nphases))
    for a in anys:
        count += a
    out = np.empty_like(arr)
    out_moved = np.moveaxis(out, axis, -1)
    for p in range(nphases):
        out_moved[..., p::d] = (count > anys[p])[..., None]
    return out
