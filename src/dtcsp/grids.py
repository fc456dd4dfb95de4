"""Vectorised evaluation of formulas on integer boxes.

A grid is a boolean ndarray of shape ``(hi - lo,) * arity`` whose cell
``[i1, ..., ik]`` says whether the tuple ``(lo + i1, ..., lo + ik)`` satisfies
a formula (``pinned_tables`` fixes one coordinate at 0, and packs the
grid of each node it is given).  Index residues
modulo d coincide with value residues up to a fixed shift, so residue-class
slicing can be done directly in index space.
``eval_node`` evaluates a formula over any broadcastable value arrays; the
grids use it on ranges, ``finite.satisfies`` on columns of argument values.

The preservation test of ``classify`` walks its case tree on *packed*
grids: one Python int whose bit i holds C-order cell i (``pack``).  A
whole grid is then one operand of a machine-word OR, AND or shift.  On
axis a with width W and stride st (the product of the widths after it),
moving every cell j places along the axis is a shift by j * st bits; the
cells whose index on the axis would pass either end land on a neighbouring
line instead, and the mask of the cells i with i + j on the axis clears
them (``_build_mask``).  A kernel takes the first mask of each run of reads
from ``_mask``, a ``functools.lru_cache`` that threads may share
(``_base_mask``), and derives the rest from it.  Reading s places back, the
mask M_s holds the cells with i >= s, and for 0 < e <= s
M_(s+e) = M_s & (M_s << e * st): the shift moves every bit e places up its
line, and carries those with i >= W - e onto the next line at index
i + e - W < e <= s, which the AND with M_s clears.  Reading forward is the
mirror image, with shifts down.  The doublings take e = s, the unit steps
of ``other_residue_any`` e = 1.
The two residue transforms are doublings over such reads:

* ``accumulate_leq_mod`` ORs into each cell the cell s places below it, for
  s = d, 2d, 4d, ... < W.  After the shifts up to s, each cell holds every
  same-class cell up to 2s - d places below it, so after the last one every
  same-class cell below it on its line.
* ``other_residue_any`` first ORs each line's residue classes onto
  themselves (the same doubling downwards, then upwards), so that each
  cell holds its whole class on the line.  It then ORs in, for
  j = 1, ..., d - 1, that result read j places forward and d - j places
  back.  Both places lie in class i + j of the cell i, and they are
  consecutive members of that class with i strictly between them.  A
  member of the class on the line lies beyond one of them as seen from i;
  the nearer one then lies between i and that member, so on the line too.
  So a class other than the cell's own has a member on the line exactly
  when one of its two reads lands on the line.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .formula import And, Cmp, Literal, Not


def eval_node(node, axes):
    """Truth array of a formula node, variable i taking the values of the
    array ``axes[i]``; the arrays broadcast against each other.  Exact for
    object arrays of Python ints; int64 input must leave room for every
    offset, as the sums wrap silently."""
    if isinstance(node, Literal):
        a, b, c = axes[node.lhs], axes[node.rhs], node.offset
        if c:  # on the smaller operand: ``a cmp b + c`` iff ``a - c cmp b``
            a, b = (a - c, b) if a.size < b.size else (a, b + c)
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


def _box_axes(ranges):
    """Shape of the box and one value array per variable, variable i
    ranging over ``ranges[i]`` along axis i; they broadcast to the box."""
    shape = tuple(len(r) for r in ranges)
    axes = [np.arange(r.start, r.stop, r.step, dtype=np.int64).reshape(
                [w if a == i else 1 for a, w in enumerate(shape)])
            for i, r in enumerate(ranges)]
    return shape, axes


def grid_eval(formula, arity, lo, hi, residues=None, d=1):
    """Boolean grid of the formula over ``[lo, hi)^arity``; with
    ``residues``, cell c on axis i is ``d * (lo + c) + residues[i]``."""
    shape, axes = _box_axes([range(d * lo + r, d * hi + r, d)
                             for r in residues or [0] * arity])
    full = np.broadcast_to(eval_node(formula.root, axes), shape)
    return np.ascontiguousarray(full)


def pinned_tables(nodes, arity, pin, R):
    """The packed grid (``pack``) of each formula node with coordinate
    ``pin`` fixed at 0 (an axis of width 1) and every other coordinate over
    ``[-R, R]``, all read off one set of axes into one boolean grid."""
    shape, axes = _box_axes([range(1) if i == pin else range(-R, R + 1)
                             for i in range(arity)])
    grid = np.empty(shape, dtype=bool)
    tables = []
    for node in nodes:
        grid[...] = eval_node(node, axes)
        tables.append(pack(grid))
    return tables


def pack(grid):
    """The boolean grid as one int, bit i holding C-order cell i."""
    return int.from_bytes(
        np.packbits(grid, axis=None, bitorder="little").tobytes(), "little")


# Bytes held by cached masks, one bit per cell: ``_mask`` keeps up to 1,024
# masks of at most 1/1,024 of it each, 2^14 cells, and a larger mask is built
# on every call.  The walks of the classify benchmark read under 200
# distinct cached masks, the largest on 21^3 = 9,261 cells.
_MASK_CACHE_BYTES = 2 * 2**20


def _build_mask(shape, axis, j):
    """Bits of the cells of ``shape`` whose index i on ``axis`` has i + j on
    the axis too, for 0 < |j| < its width."""
    width, stride = shape[axis], math.prod(shape[axis + 1:])
    lo, hi = max(0, -j), width - max(0, j)
    return _repeat(((1 << (hi - lo) * stride) - 1) << lo * stride,
                   width * stride, math.prod(shape[:axis]))


_mask = functools.lru_cache(maxsize=1024)(_build_mask)


def _repeat(block, period, count):
    """``count`` copies of ``block``, ``period`` bits apart, by doubling."""
    out = at = 0
    while True:
        if count & 1:
            out |= block << at
            at += period
        count >>= 1
        if not count:
            return out
        block |= block << period
        period *= 2


def _base_mask(shape, axis, j):
    """``_build_mask``, from the cache ``_mask`` on grids of up to 2^14
    cells."""
    if math.prod(shape) * 1024 <= _MASK_CACHE_BYTES * 8:
        return _mask(shape, axis, j)
    return _build_mask(shape, axis, j)


def _spread(bits, shape, axis, d, step):
    """OR into each cell the same-class cells on its line that lie below it
    (``step`` -1) or above it (``step`` 1), by doubling; each read's mask
    is derived from the one before."""
    width, stride = shape[axis], math.prod(shape[axis + 1:])
    if d >= width:
        return bits
    mask, n = _base_mask(shape, axis, step * d), d * stride
    while True:
        bits |= (bits >> n if step > 0 else bits << n) & mask
        d *= 2
        if d >= width:
            return bits
        mask &= mask >> n if step > 0 else mask << n
        n *= 2


def accumulate_leq_mod(bits, shape, axis, d):
    """OR over all same-residue positions at or below each index along
    ``axis``, of the packed grid ``bits`` of ``shape``."""
    return _spread(bits, shape, axis, d, -1)


def other_residue_any(bits, shape, axis, d):
    """OR over all positions along ``axis`` whose index residue mod d
    differs from the cell's own, of the packed grid ``bits`` of ``shape``."""
    width, stride = shape[axis], math.prod(shape[axis + 1:])
    if d == 1 or width == 1:
        return 0
    same = _spread(_spread(bits, shape, axis, d, -1), shape, axis, d, 1)
    fwd, back = _base_mask(shape, axis, 1), _base_mask(shape, axis, -1)
    out, n = 0, stride
    while True:
        out |= (same >> n) & fwd | (same << n) & back
        n += stride
        if n >= min(d, width) * stride:
            return out
        fwd &= fwd >> stride
        back &= back << stride
