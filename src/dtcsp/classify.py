"""Complexity classification of constraint languages.

The decision tree mirrors the dichotomy for languages definable over the
integers with order and successor, and picks its branch by dialect alone:

* order-dialect languages: preservation by plain max or min decides between
  arc-consistency tractability and hardness,
* successor-dialect, all-positive languages: search for a modulus d whose
  d-modular max (or min) preserves every relation, among the divisors of
  the gcd G of the gaps between consecutive values of the relations'
  finite difference profiles (all of 1 when there is none).  No other d
  can pass: two values of a finite profile that differ mod d give a pair
  of tuples, one of them translated far along, whose d-modular max (min)
  takes one coordinate from each and lands outside the profile
  (``_candidate_moduli`` gives the proof).  The profiles are read off the
  reduced DNF by shortest paths: over Z a term is a union of difference
  systems, ``!=`` splitting exactly into ``<`` or ``>``, and a feasible
  integer difference system projects onto ``x_i - x_j`` as an integer
  interval.  Each relation's systems are closed once and kept with its
  formula (``_closed_systems``, ``zones``), and each of its profiles reads
  them (``difference_profile``),
* successor-dialect, non-positive languages: Horn definability of every
  relation decides between unit-resolution tractability and hardness.

Preservation is tested inside a bounded window: any violating pair of tuples
can be gap-compressed, preserving literal truth values, residues mod d and
order, until it fits in ``[-B, B]^arity`` with
``B = ceil(((2 * arity - 1) * (q + d) + d - 1) / 2)`` (``default_halfwidth``
gives the argument).  A positive relation's coordinates fall into c
clusters, within which every tuple keeps them at most P_C apart, and a
violation then also compresses into half-width
``B_s = ceil((2 * sum(P_C) + (2c - 1)(q + d) + d - 1) / 2)``; the smaller
of B_s and B serves (``cluster_halfwidth``).  Only a PRESERVED answer
needs that proof window.  A violation is a certificate at any window,
because its pair of tuples and their image re-check over Z by evaluation;
so each test first scans the small window ``q + d + 1`` when it is
narrower than B, and sweeps the proof window only when the small window
shows no violation and is narrower than it.  The verdict class is
therefore the proof window's.
Within a window the test walks a case tree
depth first: at each axis either the first argument supplies the image's
coordinate or the second does, each choice a cumulative transform of one
argument's grid.  Each side condition is a
product of per-axis conditions, so the existential quantifier over the
arguments distributes over each axis's choices, and the 2^arity leaves
reach exactly the images of all pairs; the walk stops at the first leaf
with an image outside the relation.  For plain max and min the root's two
subtrees mirror each other, and only one is walked.  Each candidate
operation is tested relation by relation and dropped at the first
violation.  Hardness verdicts always carry concrete violating tuple pairs
that can be re-checked by evaluation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import grids, zones
from .errors import BudgetExceeded, InternalError
from .formula import (
    Cmp,
    ConstraintLanguage,
    Dialect,
    RelationDef,
    equivalent,  # noqa: F401 - perfbench/tracing.py patches it here
    reduce,
    to_cnf,
    to_dnf,
)

# A counted window cell costs one byte of the relation grid (a few more for a
# moment, while the grid is evaluated or packed) and one bit in each packed
# int the case-tree walk holds at once: the grid, its complement and one
# transform per level, plus a kernel's temporaries, about arity + 6 ints.
# ``rel P/4 := x1 = x2 + 12 & x3 = x4 + 12`` (89^4 = 6.3e7 cells) peaks at
# 170 MB RSS; a walk on boolean ndarrays took 530 MB on 93^4 cells.
DEFAULT_CELL_BUDGET = 2 * 10**8
DEFAULT_OP_BUDGET = 6 * 10**9


class OpKind(Enum):
    MAX = "max"
    MIN = "min"
    MODMAX = "modmax"
    MODMIN = "modmin"


@dataclass(frozen=True)
class OperationSpec:
    """A binary operation used as a candidate polymorphism."""

    kind: OpKind
    d: int = 1

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("modulus must be positive")
        if self.kind in (OpKind.MAX, OpKind.MIN) and self.d != 1:
            raise ValueError("plain max/min take modulus 1")

    def describe(self):
        if self.kind in (OpKind.MODMAX, OpKind.MODMIN):
            return f"{self.kind.value}({self.d})"
        return self.kind.value


MAX = OperationSpec(OpKind.MAX)
MIN = OperationSpec(OpKind.MIN)


def modmax(d):
    return OperationSpec(OpKind.MODMAX, d)


def modmin(d):
    return OperationSpec(OpKind.MODMIN, d)


def apply_operation(op: OperationSpec, a: int, b: int) -> int:
    """Apply the operation; modular variants fall back to their first argument
    when the residues disagree."""
    if op.kind is OpKind.MAX:
        return max(a, b)
    if op.kind is OpKind.MIN:
        return min(a, b)
    if a % op.d != b % op.d:
        return a
    if op.kind is OpKind.MODMAX:
        return max(a, b)
    return min(a, b)


@dataclass(frozen=True)
class PreservationWitness:
    relation: str
    op: OperationSpec
    first: tuple
    second: tuple
    image: tuple

    def revalidates(self, rel: RelationDef) -> bool:
        f = rel.formula
        image = tuple(apply_operation(self.op, a, b)
                      for a, b in zip(self.first, self.second))
        return (image == self.image
                and f.evaluate(self.first)
                and f.evaluate(self.second)
                and not f.evaluate(self.image))


@dataclass(frozen=True)
class PreservationResult:
    preserved: bool
    witness: PreservationWitness | None = None
    halfwidth: int = 0


def default_halfwidth(rel: RelationDef, op: OperationSpec) -> int:
    """Half-width B of a window in which preservation is decided for Z:
    ``B = ceil(((2k - 1)(q + d) + d - 1) / 2)`` for arity k, largest offset
    q and modulus d.

    A violation (s, t, u = op(s, t) outside R) takes at most 2k distinct
    values, as every u_i is s_i or t_i.  Shrink each gap between
    consecutive values that exceeds q + d by a multiple of d into
    (q, q + d].  A literal compares a difference of two values with an
    offset of at most q, so its truth depends only on that difference when
    it is at most q in absolute value, and only on its sign otherwise.  A
    difference of at most q is a sum of gaps of at most q, which stay put;
    a larger one keeps its sign and stays above q, as it spans either an
    unchanged stretch or a gap that still exceeds q.  So every literal
    keeps its truth value, in s, t and u alike.  Every value keeps its
    residue mod d, and the order between values is unchanged, so op
    commutes with the compression and the image is still outside R.
    The compressed violation spans at most (2k - 1)(q + d).  A shift by a
    multiple of d, which changes nothing either, puts its least value in
    [-B, -B + d), so its greatest is at most -B + d - 1 + (2k - 1)(q + d),
    which is at most B when 2B >= (2k - 1)(q + d) + d - 1.

    A relation whose coordinates stay a bounded distance apart needs less
    (``cluster_halfwidth``).  Let the coordinates fall into c clusters,
    and let every tuple of R keep |x_i - x_j| <= P_C for i and j in the
    same cluster C.  Then the values of a violation lie in 2c intervals,
    one per cluster of s and one per cluster of t, the one of C at most
    P_C long.  The compression above never lengthens a gap, so each
    piece of the intervals' union stays at most as long as it was, and
    their lengths sum to at most 2 * sum(P_C); it cuts each of the at most
    2c - 1 gaps between the pieces to at most q + d.  So the compressed
    violation spans at most ``2 * sum(P_C) + (2c - 1)(q + d)``, and the
    same shift puts it in [-B_s, B_s] with
    ``B_s = ceil((2 * sum(P_C) + (2c - 1)(q + d) + d - 1) / 2)``.  With
    k clusters of one coordinate each this is B, and it is at most B
    whenever every P_C <= q(|C| - 1).  A pair can be bounded through
    coordinates outside its cluster, though, so that only P_C <= q(k - 1)
    holds: ``(x3 = x1 + 3 & x2 = x3 + 3) | x2 = x1 + 3`` has clusters
    {x1, x2} with P = 6 and {x3}, and B_s = 12 > B = 10 for plain max.
    Either window is complete, so the smaller one serves.
    """
    q, d, k = rel.formula.qe_degree, op.d, rel.arity
    return -(-((2 * k - 1) * (q + d) + d - 1) // 2)


def cluster_halfwidth(rel: RelationDef, op: OperationSpec) -> int:
    """The half-width on which ``preserved_by`` proves PRESERVED: the
    smaller of B (``default_halfwidth``) and, for a positive relation, the
    cluster bound B_s that its argument gives.

    Coordinates i and j share a cluster when every closed system of the
    reduced DNF (``_closed_systems``) bounds x_i - x_j both ways, that is
    when their difference profile is FINITE; as the systems' bounds add up
    along paths, this is an equivalence.  The systems make up R, so the
    largest bound D[i][j] over them and over i, j in C is the largest
    |x_i - x_j| that a tuple of R reaches in C, P_C.  Positive relations
    split into no more systems than their DNF has terms, and ``classify``
    has closed them already for the profiles; every other relation keeps B.
    """
    B = default_halfwidth(rel, op)
    if not is_positive(rel):
        return B
    systems = _closed_systems(rel)
    clusters, spread, left = 0, 0, list(range(rel.arity))
    while left:
        i = left[0]
        cluster = [j for j in left if all(
            D[i][j] < math.inf and D[j][i] < math.inf for D in systems)]
        left = [j for j in left if j not in cluster]
        clusters += 1
        spread += max((D[a][b] for D in systems for a in cluster
                       for b in cluster), default=0)
    q, d = rel.formula.qe_degree, op.d
    return min(B, -(-(2 * spread + (2 * clusters - 1) * (q + d) + d - 1)
                    // 2))


def preserved_by(rel: RelationDef, op: OperationSpec,
                 halfwidth=None) -> PreservationResult:
    """Window-complete preservation test.

    Rather than scanning all pairs of relation tuples, the test computes the
    set of componentwise op-images reachable from pairs (s, t) inside the
    window.  In each coordinate either s supplies u_i (s_i = u_i, and t_i is
    at most u_i in the same residue class or lies in another class) or t
    does (t_i = u_i, and s_i is at most u_i in the same class).  The
    conditions on s and on t are products of per-coordinate conditions, so
    "some t exists" distributes over the per-coordinate OR of "at most u_i,
    same class" and "another class": the two cases where s supplies u_i
    need one transform of t's grid, not one each.  A case tree that takes
    the two choices axis by axis, applying each choice's cumulative
    transform to the argument grids, therefore reaches at its 2^k leaves
    exactly the images that the 3^k per-coordinate case patterns reach.  A
    leaf whose two argument grids meet outside the relation holds a
    violation, and the depth-first walk stops at the first one.  For plain
    max and min (d = 1) the root's two subtrees mirror each other (swap s
    and t), so only one is walked.

    A violation is a certificate at any window: its pair of tuples and their
    image re-check over Z by evaluation.  Only PRESERVED needs a window
    where gap compression makes it sound for the whole of Z: half-width
    ``default_halfwidth`` B in general, and the cluster bound B_s when the
    relation is positive (``cluster_halfwidth`` takes the smaller; the
    proof is ``default_halfwidth``'s).  So without an explicit
    ``halfwidth`` the test first scans the small window
    ``min(q + d + 1, B)`` and returns a violation found there (with that
    ``halfwidth``).  A clean small window that is at least as wide as
    ``cluster_halfwidth`` is the proof; otherwise the test scans that
    window, which answers both questions.  An explicit ``halfwidth`` scans
    that window only.  Finding the proof window of a successor relation
    reads its reduced DNF (``is_positive``), under the DNF's budgets.
    ``DEFAULT_CELL_BUDGET`` bounds a window's cells and ``DEFAULT_OP_BUDGET``
    a full walk's cell passes, one per transform and per leaf test.

    The walk runs on packed grids, one bit per cell (``grids``), so a pass
    is a few big-int operations over ``W^k / 64`` machine words: on a window
    of width W, a transform on one axis takes about ``log2(W / d)`` shifted
    reads for the same-class OR and, when d > 1, ``2 log2(W / d) + 2(d - 1)``
    more for the other classes, each a shift, an AND with a mask and an OR
    (and each mask but the first of a run of reads one shift and AND more,
    ``grids``); a leaf test is two ANDs.
    """
    if halfwidth is None:
        small = min(rel.formula.qe_degree + op.d + 1,
                    default_halfwidth(rel, op))
        res = _scan_window(rel, op, small)
        if not res.preserved:
            return res
        halfwidth = cluster_halfwidth(rel, op)
        if small >= halfwidth:
            return res
    return _scan_window(rel, op, halfwidth)


def _tree_passes(k, d):
    """Transforms plus leaf tests of a full walk of the case tree: an inner
    node takes three transforms (two when d = 1), and for d = 1 only one
    half of the tree is walked."""
    if d == 1:
        return (2**k - 1) + 2 ** (k - 1)
    return 3 * (2**k - 1) + 2**k


def _scan_window(rel, op, B):
    """The preservation test on the window ``[-B, B]^arity``."""
    k = rel.arity
    d = op.d
    W = 2 * B + 1
    cells = W**k
    passes = _tree_passes(k, d)
    if cells > DEFAULT_CELL_BUDGET or passes * cells > DEFAULT_OP_BUDGET:
        raise BudgetExceeded(
            f"preservation window {W}^{k} with {passes} cell passes "
            f"exceeds the work budget")

    flipped = op.kind in (OpKind.MIN, OpKind.MODMIN)
    R = grids.grid_eval(rel.formula, k, -B, B + 1)
    if flipped:
        R = R[(slice(None, None, -1),) * k]
    hit = _first_violation(R, d)
    if hit is None:
        return PreservationResult(True, halfwidth=B)
    u_idx, s_codes, t_codes = hit
    s_idx = _first_member(R, u_idx, s_codes, d)
    t_idx = _first_member(R, u_idx, t_codes, d)

    def val(idx):
        return tuple(i - B for i in idx)

    s, t, u = val(s_idx), val(t_idx), val(u_idx)
    if flipped:
        s = tuple(-x for x in s)
        t = tuple(-x for x in t)
        u = tuple(-x for x in u)
    image = tuple(apply_operation(op, a, b) for a, b in zip(s, t))
    witness = PreservationWitness(rel.name, op, s, t, image)
    if image != u or not witness.revalidates(rel):
        raise InternalError("preservation witness failed re-validation")
    return PreservationResult(False, witness, halfwidth=B)


def _first_violation(R, d):
    """First cell of the first leaf of the case tree whose image lies
    outside ``R``, as ``(u_idx, s_codes, t_codes)``, or None.

    ``s_codes`` and ``t_codes`` give each axis's condition on the arguments
    relative to u_i, in the terms of ``_first_member``.  The walk runs on
    packed grids (see ``grids``)."""
    if not R.any():
        return None
    bits = grids.pack(R)
    outside = bits ^ ((1 << R.size) - 1)
    return _walk(outside, bits, bits, R.shape, d, ())


# The per-axis conditions on (s_i, t_i) of the two choices of the case tree.
_CHOICE_CODES = {"s": ("eq", "le_or_other"), "t": ("le", "eq")}


def _walk(outside, S, T, shape, d, choices):
    """Depth-first walk of the case tree below the node ``choices`` (one
    choice per axis fixed so far), on packed grids of ``shape``.  The first
    violating cell of a leaf is its lowest set bit, the first in C order.
    A module-level function rather than a closure calling itself: such a
    closure is a reference cycle, whose grids would wait for the cyclic
    garbage collector."""
    axis = len(choices)
    if axis == len(shape):
        bad = S & T & outside
        if not bad:
            return None
        u_idx = np.unravel_index((bad & -bad).bit_length() - 1, shape)
        return (tuple(int(x) for x in u_idx),
                tuple(_CHOICE_CODES[c][0] for c in choices),
                tuple(_CHOICE_CODES[c][1] for c in choices))
    T_s = grids.accumulate_leq_mod(T, shape, axis, d)
    if d > 1:
        T_s |= grids.other_residue_any(T, shape, axis, d)
    hit = _walk(outside, S, T_s, shape, d, choices + ("s",))
    del T_s  # not needed by the other branch
    if hit is not None or (d == 1 and axis == 0):
        return hit
    return _walk(outside, grids.accumulate_leq_mod(S, shape, axis, d), T,
                 shape, d, choices + ("t",))


def _first_member(R, u_idx, codes, d):
    """Lexicographically first relation tuple meeting per-axis constraints
    relative to ``u_idx``: "eq" (equal), "le" (at most, same residue class)
    or "le_or_other" (at most in the same class, or in another class).

    It reads only the sub-grid the codes select: index u on an "eq" axis,
    the slice ``u % d : u + 1 : d`` on an "le" axis, and a 1-D mask on an
    "le_or_other" axis.  Each keeps the order of its indices, so the first
    set cell of the sub-grid in C order is the first member."""
    view = R[tuple(slice(u, u + 1) if code == "eq" else
                   slice(u % d, u + 1, d) if code == "le" else slice(None)
                   for u, code in zip(u_idx, codes))]
    kept = {}
    for axis, (u, code) in enumerate(zip(u_idx, codes)):
        if code == "le_or_other":
            index = np.arange(R.shape[axis])
            kept[axis] = np.flatnonzero((index <= u) | (index % d != u % d))
            view = view.take(kept[axis], axis=axis)
    first = int(view.argmax())
    if not view.flat[first]:  # pragma: no cover - contradicts the side arrays
        raise InternalError("empty argument set for a reachable image")
    out = []
    for axis, x in enumerate(np.unravel_index(first, view.shape)):
        u, code, x = u_idx[axis], codes[axis], int(x)
        out.append(u if code == "eq" else u % d + x * d if code == "le"
                   else int(kept[axis][x]))
    return tuple(out)


# ---------------------------------------------------------------------------
# Syntactic classification of successor-dialect relations


def reduced_cnf(rel: RelationDef):
    f = rel.formula
    return f.reduced("cnf", lambda: reduce(to_cnf(f)).clauses)


def reduced_dnf(rel: RelationDef):
    f = rel.formula
    return f.reduced("dnf", lambda: reduce(to_dnf(f)).clauses)


def is_horn(rel: RelationDef) -> bool:
    """Every clause of the reduced CNF has at most one positive (EQ) literal.

    Only meaningful for successor-dialect relations; order-dialect input
    yields False.  The answer does not depend on how the relation was
    written down: every reduced form of equivalent definitions agrees.
    """
    if rel.dialect is not Dialect.SUCCESSOR_ONLY:
        return False
    for clause in reduced_cnf(rel):
        if sum(1 for lit in clause if lit.cmp is Cmp.EQ) > 1:
            return False
    return True


def is_positive(rel: RelationDef) -> bool:
    """No negated (NEQ) literal survives in the reduced DNF."""
    if rel.dialect is not Dialect.SUCCESSOR_ONLY:
        return False
    for clause in reduced_dnf(rel):
        if any(lit.cmp is Cmp.NEQ for lit in clause):
            return False
    return True


# ---------------------------------------------------------------------------
# Difference profiles


def _closed_systems(rel: RelationDef):
    """Shortest-path matrices of the feasible systems into which the
    reduced DNF splits (``zones.closed``), whose solution sets make up the
    relation; kept with the formula, so that the k(k - 1) profiles of a
    relation split and close them once."""
    k = rel.arity
    return rel.formula.reduced(("zones", k), lambda: zones.closed(
        reduced_dnf(rel), range(k)))


class ProfileTag(Enum):
    FINITE = "finite"
    COFINITE = "cofinite"
    ONE_SIDED_INFINITE = "one-sided-infinite"
    MIXED = "mixed"


@dataclass(frozen=True)
class DifferenceProfile:
    """Membership of x_i - x_j differences within [-halfwidth, halfwidth]:
    ``spans`` holds them as merged ``(lo, hi)`` intervals, inclusive and
    ascending, so its size does not grow with q; ``values`` lists them."""

    i: int
    j: int
    halfwidth: int
    spans: tuple
    tag: ProfileTag

    @property
    def values(self) -> tuple:
        return tuple(v for lo, hi in self.spans for v in range(lo, hi + 1))


def difference_profile(rel: RelationDef, i: int, j: int) -> DifferenceProfile:
    """Profile of the binary projection onto coordinates (i, j).

    A difference delta is achievable iff the relation formula conjoined with
    ``x_i = x_j + delta`` is satisfiable.  Offsets can compound through
    projected-out coordinates, so membership is only guaranteed constant
    beyond ``tau = q * (arity - 1)`` per side; the profile holds the
    differences up to ``B = tau + 2`` per side and the tag reads the fringe
    beyond tau.

    They are read off the closed systems of the reduced DNF
    (``_closed_systems``): a feasible integer difference system projects
    onto ``x_i - x_j`` as the integer interval ``[-D[j][i], D[i][j]]`` of
    its shortest paths (``zones``), so the profile is the union of those
    intervals, clipped to ``[-B, B]`` and merged.  No grid is evaluated,
    so no "projection window" budget applies; the split counts against the
    DNF expansion's literal budget, ``formula.DEFAULT_CLAUSE_BUDGET``.
    """
    k = rel.arity
    if k < 2 or i == j or not (0 <= i < k and 0 <= j < k):
        raise ValueError("difference_profile needs two distinct coordinates")
    tau = rel.formula.qe_degree * (k - 1)
    B = tau + 2
    spans = []
    for D in _closed_systems(rel):
        lo, hi = max(-D[j][i], -B), min(D[i][j], B)
        if lo <= hi:
            spans.append((lo, hi))

    def member(delta):
        return any(lo <= delta <= hi for lo, hi in spans)

    pos = {member(delta) for delta in range(tau + 1, B + 1)}
    neg = {member(-delta) for delta in range(tau + 1, B + 1)}
    if len(pos) > 1 or len(neg) > 1:
        tag = ProfileTag.MIXED
    else:
        pos, neg = pos.pop(), neg.pop()
        tag = (ProfileTag.COFINITE if pos and neg
               else ProfileTag.ONE_SIDED_INFINITE if pos or neg
               else ProfileTag.FINITE)
    merged = []
    for lo, hi in sorted(spans):
        if merged and lo <= merged[-1][1] + 1:
            lo, hi = merged[-1][0], max(merged.pop()[1], hi)
        merged.append((lo, hi))
    return DifferenceProfile(i, j, B, tuple(merged), tag)


# ---------------------------------------------------------------------------
# Verdicts


class VerdictClass(Enum):
    HORN_TRACTABLE = "HORN_TRACTABLE"
    MAX_CLOSED = "MAX_CLOSED"
    MIN_CLOSED = "MIN_CLOSED"
    MODMAX_CLOSED = "MODMAX_CLOSED"
    MODMIN_CLOSED = "MODMIN_CLOSED"
    NP_HARD = "NP_HARD"
    DEGENERATE_OR_UNKNOWN = "DEGENERATE_OR_UNKNOWN"


@dataclass(frozen=True)
class ComplexityVerdict:
    cls: VerdictClass
    d: int | None = None
    witnesses: tuple = ()
    passing: tuple = ()
    notes: tuple = ()

    def describe(self):
        if self.d is not None and self.cls in (VerdictClass.MODMAX_CLOSED,
                                               VerdictClass.MODMIN_CLOSED):
            return f"{self.cls.value}({self.d})"
        return self.cls.value


def _candidate_moduli(profiles):
    """Moduli worth testing: the divisors of G, ascending, where G is the gcd
    of every gap between consecutive values of every FINITE profile; ``[1]``
    when G = 0 (no finite profile holds two values).  Read off the spans,
    the gaps are 1 within a span and from one span's end to the next start.

    No other modulus can pass.  Let R have a FINITE (i, j)-profile V with
    delta, delta' in V and delta != delta' (mod d).  Take s, t in R with
    s_i - s_j = delta and t_i - t_j = delta'.  R is translation invariant,
    so t + c is in R for every integer c; take c = s_i - t_i (mod d) and c
    large.  The residues agree on axis i, so u = modmax_d(s, t + c) has
    u_i = t_i + c.  They differ on axis j (t_j + c = s_i - delta' while
    s_j = s_i - delta, mod d), so u_j = s_j.  Then u_i - u_j exceeds
    max V, and u is not in R, since a FINITE profile is the whole
    projection (see ``_classify``).  For modmin_d take c very negative.  So
    a d that preserves every relation divides every difference of two
    values of every finite profile, and hence G.
    """
    finite = [p.spans for p in profiles if p.tag is ProfileTag.FINITE]
    g = math.gcd(*(min(hi - lo, 1) for spans in finite for lo, hi in spans),
                 *(b[0] - a[1] for spans in finite
                   for a, b in zip(spans, spans[1:])))
    if g == 0:
        return [1]
    low = [c for c in range(1, math.isqrt(g) + 1) if g % c == 0]
    return low + [g // c for c in reversed(low) if c * c != g]


def _test_op(lang, op):
    """Test ``op`` on every relation in order, stopping at the first
    violation: ``(passing lines, None)`` if all are preserved, else
    ``(None, witness)``."""
    passing = []
    for rel in lang.relations:
        res = preserved_by(rel, op)
        if not res.preserved:
            return None, res.witness
        passing.append(f"{rel.name} preserved by {op.describe()} "
                       f"(window {res.halfwidth})")
    return tuple(passing), None


def classify(lang: ConstraintLanguage) -> ComplexityVerdict:
    """Run the decision tree and return a verdict with its trail.

    Budget failures never escape; they downgrade the verdict to
    DEGENERATE_OR_UNKNOWN.  The classifier takes successor-expressibility of
    the language at face value and does not try to recognise languages that
    are really finite-domain or dense-order problems in disguise, so hardness
    verdicts are conditional on that reading.
    """
    notes = []
    try:
        return _classify(lang, notes)
    except BudgetExceeded as exc:
        notes.append(f"budget exhausted: {exc}")
        return ComplexityVerdict(VerdictClass.DEGENERATE_OR_UNKNOWN,
                                 notes=tuple(notes))


def _classify(lang, notes):
    """Pick the branch by dialect alone.

    Difference profiles of a successor relation R (arity k, largest offset
    q) are never one-sided or mixed, so they add nothing to the dialect.
    Take a tuple of R whose coordinates i and j lie more than ``q(k - 1)``
    apart, and split its sorted coordinates into clusters wherever two
    neighbours lie more than q apart.  A cluster spans at most ``q(k - 1)``,
    so i and j fall in different clusters, and every gap between clusters
    exceeds q.  Every literal between two clusters is therefore a false EQ
    or a true NEQ, so the clusters can be moved apart or swapped freely
    while the gaps stay above q: the projection onto (i, j) is symmetric
    and constant beyond ``q(k - 1)``, and its profile FINITE or COFINITE.
    """
    order_dialect = sorted({r.name for r in lang.relations
                            if r.dialect is Dialect.ORDER})
    if order_dialect:
        notes.append("order dialect: " + ", ".join(order_dialect))
        return _classify_order(lang, notes)

    notes.append("successor dialect throughout")
    positivity = {r.name: is_positive(r) for r in lang.relations}
    if all(positivity.values()):
        notes.append("all relations positive (reduced DNF free of negated atoms)")
        return _classify_positive(lang, notes)
    negatives = [n for n, pos in positivity.items() if not pos]
    notes.append("non-positive relations: " + ", ".join(sorted(negatives)))
    return _classify_nonpositive(lang, notes)


def _classify_order(lang, notes):
    witnesses = []
    for op, verdict in ((MAX, VerdictClass.MAX_CLOSED),
                        (MIN, VerdictClass.MIN_CLOSED)):
        passing, witness = _test_op(lang, op)
        if passing is not None:
            return ComplexityVerdict(verdict, passing=passing,
                                     notes=tuple(notes))
        witnesses.append(witness)
    notes.append("neither max nor min preserves every relation")
    return ComplexityVerdict(VerdictClass.NP_HARD, witnesses=tuple(witnesses),
                             notes=tuple(notes))


def _classify_positive(lang, notes):
    profiles = []
    for rel in lang.relations:
        for i, j in itertools.permutations(range(rel.arity), 2):
            profiles.append(difference_profile(rel, i, j))
    candidates = _candidate_moduli(profiles)
    notes.append("candidate moduli: " + ", ".join(map(str, candidates)))
    witnesses = []
    for ctor, verdict in ((modmax, VerdictClass.MODMAX_CLOSED),
                          (modmin, VerdictClass.MODMIN_CLOSED)):
        for d in candidates:
            passing, witness = _test_op(lang, ctor(d))
            if passing is not None:
                return ComplexityVerdict(verdict, d=d, passing=passing,
                                         notes=tuple(notes))
            if d == 1:
                witnesses.append(witness)
    notes.append("no candidate modular max or min preserves every relation")
    return ComplexityVerdict(VerdictClass.NP_HARD, witnesses=tuple(witnesses),
                             notes=tuple(notes))


def _classify_nonpositive(lang, notes):
    horn = {r.name: is_horn(r) for r in lang.relations}
    if all(horn.values()):
        passing = tuple(f"{name} has a Horn definition" for name in sorted(horn))
        return ComplexityVerdict(VerdictClass.HORN_TRACTABLE, passing=passing,
                                 notes=tuple(notes))
    culprit = next(r for r in lang.relations if not horn[r.name])
    notes.append(f"{culprit.name} has no Horn definition")
    witnesses = []
    for op in (MAX, MIN):
        res = preserved_by(culprit, op)
        if not res.preserved:
            witnesses.append(res.witness)
    if not witnesses:
        notes.append("no violating operation pair found for the certificate")
        return ComplexityVerdict(VerdictClass.DEGENERATE_OR_UNKNOWN,
                                 notes=tuple(notes))
    return ComplexityVerdict(VerdictClass.NP_HARD, witnesses=tuple(witnesses),
                             notes=tuple(notes))
