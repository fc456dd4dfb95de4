"""Vectorised evaluation of formulas on integer boxes.

A grid is a boolean ndarray of shape ``(hi - lo,) * arity`` whose cell
``[i1, ..., ik]`` says whether the tuple ``(lo + i1, ..., lo + ik)`` satisfies
a formula (``pinned_grid`` fixes one coordinate at 0).  Index residues
modulo d coincide with value residues up to a fixed shift, so residue-class
slicing can be done directly in index space.
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


def _box_eval(formula, ranges):
    """Boolean grid of the formula, variable i ranging over ``ranges[i]``."""
    shape = tuple(len(r) for r in ranges)
    axes = [np.arange(r.start, r.stop, dtype=np.int64).reshape(
                [w if a == i else 1 for a, w in enumerate(shape)])
            for i, r in enumerate(ranges)]
    full = np.broadcast_to(eval_node(formula.root, axes), shape)
    return np.ascontiguousarray(full)


def grid_eval(formula, arity, lo, hi):
    """Boolean grid of the formula over ``[lo, hi)^arity``."""
    return _box_eval(formula, [range(lo, hi)] * arity)


def pinned_grid(formula, arity, pin, R):
    """Boolean grid of the formula with coordinate ``pin`` fixed at 0 (an
    axis of width 1) and every other coordinate over ``[-R, R]``."""
    return _box_eval(formula, [range(1) if i == pin else range(-R, R + 1)
                               for i in range(arity)])


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
