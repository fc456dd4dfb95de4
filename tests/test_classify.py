import functools
import importlib
import itertools
import math
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dtcsp import (
    MAX,
    MIN,
    BudgetExceeded,
    DifferenceProfile,
    OperationSpec,
    OpKind,
    ProfileTag,
    RelationDef,
    VerdictClass,
    apply_operation,
    classify,
    difference_profile,
    is_horn,
    is_positive,
    materialize,
    modmax,
    modmin,
    parse_language,
    preserved_by,
    random_relation,
)
from dtcsp import grids, zones
from dtcsp.classify import (
    _candidate_moduli,
    _first_member,
    _first_violation,
    cluster_halfwidth,
    default_halfwidth,
    reduced_dnf,
)
from dtcsp.cli import verdict_to_dict
from dtcsp.formula import (
    And,
    Cmp,
    Formula,
    Literal,
    Or,
    parse_expression,
)

from conftest import FIXTURES
from helpers import (
    equivalent_rewrites,
    grid_difference_profile,
    legacy_candidate_moduli,
    legacy_difference_profile,
    legacy_halfwidth,
    masked_first_member,
    modular_language,
    naive_other_residue_any,
    numpy_first_violation,
    numpy_other_residue_any,
    pattern_reachable,
    profile_spans,
    random_mixed_language,
    random_positive_language,
    strided_accumulate_leq_mod,
    t_relation_formula,
    unpack,
)

# the module, which the package's ``classify`` function shadows
classify_module = importlib.import_module("dtcsp.classify")

F_LANG = parse_language(
    "rel F/4 := (x2 = x1 + 1 -> x4 = x3 + 1) & (x4 = x3 + 1 -> x2 = x1 + 1)")
T2_LANG = parse_language(
    "rel T2/3 := (x1 = x3 + 2 & x2 = x3) | (x1 = x3 + 2 & x2 = x3 + 2)"
    " | (x1 = x3 & x2 = x3 + 2)")
MAX_LANG = parse_language(
    "rel MaxLe0/3 := x3 <= x1 | x3 <= x2\n"
    "rel MaxLe1/3 := x3 <= x1 + 1 | x3 <= x2 + 1")
HARD_LANG = parse_language(
    "rel Neq/2 := x1 != x2\n"
    "rel D1/2 := x1 = x2 + 1 | x1 = x2 - 1\n"
    "rel D5/2 := x1 = x2 + 5 | x1 = x2 - 5")


def rel_of(text, name="R"):
    return parse_language(f"rel {name}/2 := {text}").relation(name)


# ---------------------------------------------------------------------------
# operations


def test_modmax_examples():
    op = modmax(2)
    assert apply_operation(op, 3, 5) == 5
    assert apply_operation(op, 3, 4) == 3
    assert apply_operation(op, 5, 3) == 5


def test_modmin_dual():
    op = modmin(2)
    assert apply_operation(op, 3, 5) == 3
    assert apply_operation(op, 4, 3) == 4
    assert apply_operation(op, -1, 3) == -1


def test_negative_arguments_use_nonnegative_residues():
    assert apply_operation(modmax(3), -1, 2) == 2  # -1 and 2 are both 2 mod 3
    assert apply_operation(modmax(3), -1, 1) == -1


def test_modmax_one_equals_max():
    one = modmax(1)
    for a, b in itertools.product(range(-4, 5), repeat=2):
        assert apply_operation(one, a, b) == apply_operation(MAX, a, b)
        assert apply_operation(modmin(1), a, b) == apply_operation(MIN, a, b)


def test_operation_spec_validation():
    with pytest.raises(ValueError):
        OperationSpec(OpKind.MODMAX, 0)
    with pytest.raises(ValueError):
        OperationSpec(OpKind.MAX, 2)


# ---------------------------------------------------------------------------
# preservation


def test_max_preserves_max_of_relation():
    for rel in MAX_LANG.relations:
        assert preserved_by(rel, MAX).preserved


def test_dist1_violates_max_with_genuine_witness():
    rel = HARD_LANG.relation("D1")
    res = preserved_by(rel, MAX)
    assert not res.preserved
    assert res.witness.revalidates(rel)
    # the canonical hand-checked pair is a violation too
    f = rel.formula
    assert f.evaluate((0, 1)) and f.evaluate((1, 0)) and not f.evaluate((1, 1))


def test_t2_modular_preservation():
    rel = T2_LANG.relation("T2")
    assert preserved_by(rel, modmax(2)).preserved
    res = preserved_by(rel, modmax(3))
    assert not res.preserved
    assert res.witness.revalidates(rel)
    assert not preserved_by(rel, MAX).preserved


def test_suc_preserved_by_everything_reasonable():
    rel = rel_of("x2 = x1 + 3", "S")
    for op in (MAX, MIN, modmax(2), modmin(2), modmax(3)):
        assert preserved_by(rel, op).preserved


def test_violation_witnesses_revalidate_on_random_corpus():
    for seed in range(30):
        lang = random_mixed_language(seed, nrels=1, arity_max=3, q_max=2)
        rel = lang.relations[0]
        for op in (MAX, MIN, modmax(2)):
            res = preserved_by(rel, op)
            if not res.preserved:
                assert res.witness.revalidates(rel)


def test_modmax1_matches_max_statuswise():
    for seed in range(30):
        lang = random_mixed_language(seed, nrels=1, arity_max=3, q_max=2)
        rel = lang.relations[0]
        assert (preserved_by(rel, MAX).preserved
                == preserved_by(rel, modmax(1)).preserved)
        assert (preserved_by(rel, MIN).preserved
                == preserved_by(rel, modmin(1)).preserved)


def _offset_relation(arity, q):
    # arity k, largest offset q
    return RelationDef("G", arity, Formula(Literal(0, arity - 1, Cmp.LEQ, q)))


@pytest.mark.parametrize("arity,q,d,expected", [
    (3, 4, 4, 22), (2, 0, 1, 2), (4, 6, 1, 25), (1, 0, 1, 1), (1, 3, 5, 6)])
def test_default_halfwidth_is_the_gap_compression_bound(arity, q, d,
                                                        expected):
    # ceil(((2k - 1)(q + d) + d - 1) / 2)
    op = MAX if d == 1 else modmax(d)
    assert default_halfwidth(_offset_relation(arity, q), op) == expected


@pytest.mark.parametrize("arity,q,windows", [
    (2, 0, [2]), (2, 1, [3]), (2, 2, [4, 5]), (1, 0, [1]), (3, 0, [2, 3])])
def test_preserved_proof_prescans_only_a_narrower_window(monkeypatch, arity,
                                                         q, windows):
    # x1 <= xk + q is max-closed; its proof scans the small window q + 2
    # first only when that is narrower than the full one
    scanned = []
    scan = classify_module._scan_window

    def spy(rel, op, B):
        scanned.append(B)
        return scan(rel, op, B)

    monkeypatch.setattr(classify_module, "_scan_window", spy)
    rel = _offset_relation(arity, q)
    assert preserved_by(rel, MAX).preserved
    assert scanned == windows
    assert windows[-1] == default_halfwidth(rel, MAX)


@pytest.mark.parametrize("d, windows, full", [
    (2, [5], 11), (3, [7], 16), (4, [9, 10], 22)])
def test_positive_proof_scans_the_cluster_window(monkeypatch, d, windows,
                                                 full):
    # T(d) is one cluster with P = d, so B_s = ceil((5d - 1) / 2): the small
    # window 2d + 1 is the proof for d <= 3, and d = 4 sweeps 10, not 22
    scanned = []
    scan = classify_module._scan_window

    def spy(rel, op, B):
        scanned.append(B)
        return scan(rel, op, B)

    monkeypatch.setattr(classify_module, "_scan_window", spy)
    rel = RelationDef("T", 3, t_relation_formula(d))
    res = preserved_by(rel, modmax(d))
    assert res.preserved and res.halfwidth == windows[-1]
    assert scanned == windows
    assert default_halfwidth(rel, modmax(d)) == full


_ALL_OPS = [MAX, MIN] + [ctor(d) for ctor in (modmax, modmin)
                         for d in range(1, 6)]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 10**6), arity=st.integers(1, 3),
       q=st.integers(0, 3),
       dialect=st.sampled_from(["mixed", "successor", "order"]),
       op=st.sampled_from(_ALL_OPS))
def test_default_window_matches_legacy_window(seed, arity, q, dialect, op):
    # the tight window must answer as the former, wider complete window
    rel = random_relation(arity, q, seed, dialect=dialect)
    res = preserved_by(rel, op)
    wide = preserved_by(rel, op, halfwidth=legacy_halfwidth(rel, op))
    assert res.preserved == wide.preserved, (seed, arity, q, dialect, op)
    if not res.preserved:
        assert res.witness.revalidates(rel)


def test_window_stability_small():
    for seed in range(20):
        lang = random_mixed_language(seed, nrels=1, arity_max=2, q_max=3)
        rel = lang.relations[0]
        base = preserved_by(rel, MAX)
        wide = preserved_by(rel, MAX,
                            halfwidth=2 * default_halfwidth(rel, MAX))
        assert base.preserved == wide.preserved


def naive_preserved(rel, op, halfwidth):
    """Reference check: scan every pair of window tuples componentwise."""
    rows = materialize(rel, range(-halfwidth, halfwidth + 1)).tuples
    member = set(rows)
    for s in rows:
        for t in rows:
            image = tuple(apply_operation(op, a, b) for a, b in zip(s, t))
            if image not in member:
                return False
    return True


def test_preservation_matches_naive_pair_scan():
    # the image-set computation must agree with literal pair enumeration
    ops = [MAX, MIN, modmax(2), modmin(2), modmax(3)]
    for seed in range(40):
        lang = random_mixed_language(seed, nrels=1, arity_max=2, q_max=2)
        rel = lang.relations[0]
        for op in ops:
            B = 8
            got = preserved_by(rel, op, halfwidth=B).preserved
            assert got == naive_preserved(rel, op, B), (seed, op)
    for seed in range(6):
        lang = random_mixed_language(seed, nrels=1, arity_max=3, q_max=1)
        rel = lang.relations[0]
        if rel.arity != 3:
            continue
        for op in (MAX, modmax(2)):
            got = preserved_by(rel, op, halfwidth=4).preserved
            assert got == naive_preserved(rel, op, 4), (seed, op)


_OPS = [MAX, MIN] + [ctor(d) for ctor in (modmax, modmin) for d in (1, 2, 3)]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 10**6), arity=st.integers(2, 3),
       q=st.integers(0, 2), op=st.sampled_from(_OPS), data=st.data())
def test_preserved_by_random_windows_match_naive_pair_scan(seed, arity, q,
                                                          op, data):
    # an explicit window is scanned exactly; the default call refutes in a
    # small window first but must answer as the full window does, and it
    # proves PRESERVED on the small window when that is at least the proof
    # window, else on the proof window
    rel = random_relation(arity, q, seed)
    B = data.draw(st.integers(1, 6 if arity == 2 else 3))
    assert (preserved_by(rel, op, halfwidth=B).preserved
            == naive_preserved(rel, op, B))
    full_B = default_halfwidth(rel, op)
    res = preserved_by(rel, op)
    assert res.preserved == preserved_by(rel, op, halfwidth=full_B).preserved
    if res.preserved:
        small = min(rel.formula.qe_degree + op.d + 1, full_B)
        assert res.halfwidth == max(small, cluster_halfwidth(rel, op))
    else:
        assert res.witness.revalidates(rel)
        assert res.halfwidth <= full_B


@st.composite
def _positive_relations(draw):
    # DNFs of equalities x_i = x_j + c, |c| <= q: positive by construction,
    # with bounded clusters wherever a pair is linked in every term
    arity = draw(st.integers(2, 3))
    q = draw(st.integers(0, 3))
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        lits = []
        for _ in range(draw(st.integers(1, arity - 1))):
            i, j = draw(st.permutations(range(arity)))[:2]
            lits.append(Literal(i, j, Cmp.EQ, draw(st.integers(-q, q))))
        terms.append(And(tuple(lits)))
    return RelationDef("P", arity, Formula(Or(tuple(terms))))


_BOUND_OPS = [MAX, MIN] + [ctor(d) for ctor in (modmax, modmin)
                           for d in (2, 3, 4)]


def _images(op, s, t):
    """Componentwise op images of broadcast int arrays."""
    pick = np.maximum if op.kind in (OpKind.MAX, OpKind.MODMAX) else np.minimum
    return np.where(s % op.d == t % op.d, pick(s, t), s)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(rel=_positive_relations(), op=st.sampled_from(_BOUND_OPS),
       seed=st.integers(0, 2**32 - 1))
def test_violations_compress_into_the_cluster_window(rel, op, seed):
    # the map of default_halfwidth's proof, applied to violations found by
    # enumerating pairs of tuples of a window wider than the bound: shrink
    # every gap above q + d between sorted values by a multiple of d into
    # (q, q + d], then shift the least value into [-B_s, -B_s + d).  Every
    # image lies in [-B_s, B_s] and is still a violation.
    k, q, d = rel.arity, rel.formula.qe_degree, op.d
    B = cluster_halfwidth(rel, op)
    assert is_positive(rel) and B <= default_halfwidth(rel, op)
    width = 2 * B + 2 * (q + d)
    grid = grids.grid_eval(rel.formula, k, 0, width)
    rows = np.argwhere(grid)
    rng = np.random.default_rng(seed)
    S = rows[rng.choice(len(rows), min(len(rows), 300), replace=False)]
    T = rows[rng.choice(len(rows), min(len(rows), 300), replace=False)]
    s, t = np.broadcast_arrays(S[:, None, :], T[None, :, :])
    u = _images(op, s, t)
    outside = ~grid[tuple(np.moveaxis(u, -1, 0))]
    V = np.concatenate([s, t, u], axis=-1)[outside]
    order = np.argsort(V, axis=1, kind="stable")
    vals = np.take_along_axis(V, order, axis=1)
    gaps = np.diff(vals, axis=1)
    gaps = np.where(gaps > q + d, q + 1 + (gaps - q - 1) % d, gaps)
    least = -B + (vals[:, :1] + B) % d
    new = np.empty_like(V)
    np.put_along_axis(new, order, np.concatenate(
        [least, least + np.cumsum(gaps, axis=1)], axis=1), axis=1)
    assert new.size == 0 or (new.min() >= -B and new.max() <= B)
    R = grids.grid_eval(rel.formula, k, -B, B + 1)
    s2, t2, u2 = (new[:, a * k:(a + 1) * k] + B for a in range(3))
    assert np.array_equal(u2 - B, _images(op, s2 - B, t2 - B))
    assert R[tuple(s2.T)].all() and R[tuple(t2.T)].all()
    assert not R[tuple(u2.T)].any()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(rel=_positive_relations(), op=st.sampled_from(_ALL_OPS))
def test_cluster_window_answers_as_the_arity_window(rel, op):
    # on positive relations the proof on the cluster window answers as a
    # forced scan of the window B that the arity alone gives
    res = preserved_by(rel, op)
    full = preserved_by(rel, op, halfwidth=default_halfwidth(rel, op))
    assert res.preserved == full.preserved
    if not res.preserved:
        assert res.witness.revalidates(rel)


_GRIDS = hnp.arrays(bool, hnp.array_shapes(min_dims=1, max_dims=4,
                                          min_side=1, max_side=7))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(arr=_GRIDS)
def test_pack_unpack_round_trip(arr):
    bits = grids.pack(arr)
    assert bits < 1 << arr.size
    got = unpack(bits, arr.shape)
    assert got.dtype == arr.dtype
    assert np.array_equal(got, arr)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(arr=_GRIDS)
def test_lowest_set_bit_is_first_cell_in_c_order(arr):
    bits = grids.pack(arr)
    assert (bits != 0) == bool(arr.any())
    if bits:
        assert (bits & -bits).bit_length() - 1 == int(np.argmax(arr))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data(), R=_GRIDS, d=st.integers(1, 5))
def test_reversed_view_reads_as_its_copy(data, R, d):
    # the MIN and MODMIN walks read the relation grid through a reversed
    # view, never copied: packing and the first members read it as a copy
    view = R[(slice(None, None, -1),) * R.ndim]
    u = tuple(data.draw(st.integers(0, w - 1)) for w in R.shape)
    codes = tuple(data.draw(st.sampled_from(["eq", "le", "le_or_other"]))
                  for _ in R.shape)
    view[u] = True  # u meets every code, so a member exists
    copy = view.copy()
    assert grids.pack(view) == grids.pack(copy)
    assert _first_violation(view, d) == _first_violation(copy, d)
    assert (_first_member(view, u, codes, d)
            == _first_member(copy, u, codes, d))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(arr=_GRIDS, d=st.integers(1, 9))
def test_accumulate_leq_mod_matches_strided_reference(arr, d):
    # widths up to 7 against moduli up to 9: widths not divisible by d and
    # d wider than the axis both occur
    bits = grids.pack(arr)
    for axis in range(arr.ndim):
        got = grids.accumulate_leq_mod(bits, arr.shape, axis, d)
        assert np.array_equal(unpack(got, arr.shape),
                              strided_accumulate_leq_mod(arr, axis, d))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(arr=_GRIDS, d=st.integers(1, 9))
def test_other_residue_any_matches_per_cell_reference(arr, d):
    bits = grids.pack(arr)
    for axis in range(arr.ndim):
        got = grids.other_residue_any(bits, arr.shape, axis, d)
        assert np.array_equal(unpack(got, arr.shape),
                              naive_other_residue_any(arr, axis, d))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(R=_GRIDS, d=st.integers(1, 9))
def test_packed_walk_matches_numpy_walk(R, d):
    # the same leaf and the same first cell in it: hits, and so witnesses,
    # are those of the walk on boolean ndarrays
    before = R.copy()
    assert _first_violation(R, d) == numpy_first_violation(R, d)
    assert np.array_equal(R, before)


def test_mask_cache_is_safe_across_threads(monkeypatch):
    # an LRU of 8 masks evicts all the time; threads switching often must
    # still find or build the masks that the serial walks read
    from concurrent.futures import ThreadPoolExecutor
    texts = [f"rel R/3 := x3 <= x1 + {q} | x3 <= x2 + {q}"
             for q in range(2, 20)]
    texts += [f"rel R/3 := (x1 = x2 + {q} & x3 = x1 + {q}) | "
              f"(x1 = x2 & x3 = x1)" for q in range(1, 6)]
    monkeypatch.setattr(grids, "_mask",
                        functools.lru_cache(maxsize=8)(grids._build_mask))
    serial = [classify(parse_language(t)) for t in texts]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            verdicts = list(pool.map(lambda t: classify(parse_language(t)),
                                     texts * 8, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert verdicts == serial * 8
    info = grids._mask.cache_info()
    assert info.currsize <= 8 < info.misses


def test_mask_cache_stays_within_its_byte_bound(monkeypatch):
    # bigmod.dtl walks windows from 5^4 to 81^2 and 65^4 cells: masks of up
    # to 2^14 cells are cached, larger ones built on every call; 1,024
    # masks of 2^14 bits make 2 MiB
    info = grids._mask.cache_info()
    assert info.maxsize * 2**14 // 8 == grids._MASK_CACHE_BYTES == 2 * 2**20
    real = grids._build_mask
    cached, built = [], []

    def record(into):
        return lambda shape, axis, j: into.append(shape) or real(
            shape, axis, j)

    monkeypatch.setattr(grids, "_build_mask", record(built))
    monkeypatch.setattr(grids, "_mask", functools.lru_cache(
        maxsize=info.maxsize)(record(cached)))
    lang = parse_language((FIXTURES / "bigmod.dtl").read_text())
    assert classify(lang).cls is VerdictClass.MODMAX_CLOSED
    assert (max(map(math.prod, cached)) <= 2**14
            < min(map(math.prod, built)))
    assert grids._mask.cache_info().currsize <= info.maxsize


def test_kernels_build_one_base_mask_per_run_of_reads(monkeypatch):
    # on a grid too large to cache its masks, a kernel call builds the
    # first mask of each run of reads and derives the others: one run for
    # accumulate_leq_mod, two doublings and two unit-step runs for
    # other_residue_any, however many reads each run takes
    built = []
    real = grids._repeat
    monkeypatch.setattr(grids, "_repeat",
                        lambda *args: built.append(args) or real(*args))
    shape = (700, 400)  # 280,000 cells
    arr = np.random.default_rng(0).random(shape) < 0.01
    bits = grids.pack(arr)
    for axis in (0, 1):
        built.clear()
        got = grids.accumulate_leq_mod(bits, shape, axis, 3)
        assert len(built) == 1
        assert np.array_equal(unpack(got, shape),
                              strided_accumulate_leq_mod(arr, axis, 3))
        built.clear()
        got = grids.other_residue_any(bits, shape, axis, 3)
        assert len(built) == 4
        assert np.array_equal(unpack(got, shape),
                              numpy_other_residue_any(arr, axis, 3))


def _reference_mask(shape, axis, j):
    index = np.indices(shape)[axis]
    return grids.pack((0 <= index + j) & (index + j < shape[axis]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(shape=hnp.array_shapes(min_dims=1, max_dims=4, min_side=1,
                              max_side=9),
       d=st.integers(1, 9))
@example(shape=(4, 9), d=2)  # lines of 9: the shifts wrap onto the next one
@example(shape=(3, 8, 5), d=1)
def test_derived_masks_equal_the_masks_built_directly(shape, d):
    # the kernels take the mask of the first read j of each run and derive
    # the next as M(j + e) = M(j) & (M(j) read e places), with e = j for the
    # doublings and e = ±1 for the unit steps; each must be the mask that
    # _repeat builds for its read, and the cells in range
    for axis, width in enumerate(shape):
        stride = math.prod(shape[axis + 1:])
        for j, unit in ((d, False), (-d, False), (1, True), (-1, True)):
            limit = min(d, width) if unit else width
            mask = grids._base_mask(shape, axis, j) if abs(j) < limit else 0
            while abs(j) < limit:
                assert mask == grids._build_mask(shape, axis, j)
                assert mask == _reference_mask(shape, axis, j)
                e = (1 if j > 0 else -1) if unit else j
                n = e * stride
                mask &= mask >> n if n > 0 else mask << -n
                j += e


def test_mask_derivation_clears_the_cells_that_wrap():
    # reading back along lines of 9, M(-2) shifted up 2 places carries the
    # last two cells of each line onto the first two of the next, and the
    # AND with M(-2) clears them
    m2, m4 = (grids._build_mask((4, 9), 1, j) for j in (-2, -4))
    assert (m2 << 2) & ((1 << 36) - 1) != m4
    assert m2 & (m2 << 2) == m4


def _closure(R, d):
    # smallest superset of R that is closed under the d-modular max
    while True:
        grown = R | pattern_reachable(R, d)
        if np.array_equal(grown, R):
            return R
        R = grown


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(R=hnp.arrays(bool, hnp.array_shapes(min_dims=1, max_dims=4,
                                           min_side=1, max_side=7)),
       d=st.integers(1, 5))
def test_case_tree_matches_pattern_enumeration(R, d):
    # the 2^k-leaf case tree reaches exactly the images of the 3^k patterns
    before = R.copy()
    bad = pattern_reachable(R, d) & ~R
    hit = _first_violation(R, d)
    assert np.array_equal(R, before)
    assert (hit is not None) == bool(bad.any())
    if hit is not None:
        u, s_codes, t_codes = hit
        assert bad[u]
        s = _first_member(R, u, s_codes, d)
        t = _first_member(R, u, t_codes, d)
        assert R[s] and R[t]
        assert tuple(apply_operation(modmax(d), a, b)
                     for a, b in zip(s, t)) == u
    assert _first_violation(_closure(R, d), d) is None


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data(),
       R=hnp.arrays(bool, hnp.array_shapes(min_dims=1, max_dims=4,
                                           min_side=1, max_side=7)),
       d=st.integers(1, 5))
def test_first_member_reads_the_masked_grids_first_hit(data, R, d):
    # the sub-grid's first cell in C order is the first tuple of the grid
    # masked axis by axis; u itself meets every code, so a member exists
    u = tuple(data.draw(st.integers(0, w - 1)) for w in R.shape)
    codes = tuple(data.draw(st.sampled_from(["eq", "le", "le_or_other"]))
                  for _ in R.shape)
    R[u] = True
    assert (_first_member(R, u, codes, d)
            == masked_first_member(R, u, codes, d))


def test_preserved_by_budget(monkeypatch):
    rel = T2_LANG.relation("T2")
    monkeypatch.setattr(classify_module, "DEFAULT_CELL_BUDGET", 100)
    with pytest.raises(BudgetExceeded):
        preserved_by(rel, MAX)


@pytest.mark.parametrize("op, passes", [(MAX, 7 + 4), (modmax(2), 21 + 8)])
def test_preserved_by_op_budget_boundary(monkeypatch, op, passes):
    # arity 3 on the window [-2, 2]: 125 cells, each passed over once per
    # transform and per leaf of the case tree (half the tree when d = 1)
    rel = T2_LANG.relation("T2")
    work = passes * 5**3
    monkeypatch.setattr(classify_module, "DEFAULT_OP_BUDGET", work)
    preserved_by(rel, op, halfwidth=2)
    monkeypatch.setattr(classify_module, "DEFAULT_OP_BUDGET", work - 1)
    with pytest.raises(BudgetExceeded, match=rf"5\^3 with {passes} cell "):
        preserved_by(rel, op, halfwidth=2)


def test_empty_relation_is_preserved():
    rel = rel_of("x1 < x1", "Empty")
    assert preserved_by(rel, MAX).preserved


# ---------------------------------------------------------------------------
# Horn / positive syntax


def test_is_horn_fixtures():
    assert is_horn(F_LANG.relation("F"))
    assert not is_horn(HARD_LANG.relation("D5"))
    assert is_horn(rel_of("x2 = x1 + 3", "S"))
    assert is_horn(HARD_LANG.relation("Neq"))
    assert not is_horn(MAX_LANG.relation("MaxLe0"))  # order dialect


def test_is_positive_fixtures():
    assert is_positive(HARD_LANG.relation("D5"))
    assert not is_positive(F_LANG.relation("F"))
    assert is_positive(rel_of("x1 <= x1", "Full"))
    assert not is_positive(HARD_LANG.relation("Neq"))


def test_representation_independence_sample():
    for seed in range(8):
        lang = random_mixed_language(seed, nrels=1, arity_max=3, q_max=2)
        base = lang.relations[0]
        if base.dialect.value != "successor":
            continue
        h, p = is_horn(base), is_positive(base)
        for k, rewrite in enumerate(equivalent_rewrites(base.formula)):
            variant = RelationDef(f"V{k}", base.arity, rewrite)
            assert is_horn(variant) == h
            assert is_positive(variant) == p


# ---------------------------------------------------------------------------
# difference profiles


def test_profile_dist5_finite():
    prof = difference_profile(HARD_LANG.relation("D5"), 0, 1)
    assert prof.tag is ProfileTag.FINITE
    assert set(prof.values) == {-5, 5}


def test_profile_strict_order_one_sided():
    prof = difference_profile(rel_of("x1 < x2", "Lt"), 0, 1)
    assert prof.tag is ProfileTag.ONE_SIDED_INFINITE


def test_profile_neq_cofinite():
    prof = difference_profile(HARD_LANG.relation("Neq"), 0, 1)
    assert prof.tag is ProfileTag.COFINITE
    assert 0 not in prof.values
    assert 1 in prof.values


def test_profile_offsets_compound_through_projection():
    lang = parse_language("rel Chain/3 := x1 = x3 + 3 & x3 = x2 + 3")
    prof = difference_profile(lang.relation("Chain"), 0, 1)
    assert prof.tag is ProfileTag.FINITE
    assert prof.values == (6,)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(arity=st.integers(2, 4), q=st.integers(0, 3),
       seed=st.integers(0, 10**6),
       dialect=st.sampled_from(["successor", "order", "mixed"]))
def test_pinned_profile_matches_legacy_window(arity, q, seed, dialect):
    # the grid pinned at x_j, half-width q(k - 1) + 2 + (k - 2)(q + 1), reads
    # the same profile as the full ((q(k - 1) + 3)k)^k window did
    rel = random_relation(arity, q, seed, dialect=dialect)
    for i, j in itertools.permutations(range(arity), 2):
        assert (difference_profile(rel, i, j)
                == legacy_difference_profile(rel, i, j)), (i, j)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(arity=st.integers(2, 4), q=st.integers(0, 3),
       seed=st.integers(0, 10**6),
       dialect=st.sampled_from(["successor", "order", "mixed"]))
def test_zone_profile_matches_grid_reference(arity, q, seed, dialect):
    # the union of the reduced DNF's zone intervals is the pinned grid's row
    rel = random_relation(arity, q, seed, dialect=dialect)
    for i, j in itertools.permutations(range(arity), 2):
        assert (difference_profile(rel, i, j)
                == grid_difference_profile(rel, i, j)), (i, j)


def _literals(arity, q, cmps):
    return st.builds(Literal, st.integers(0, arity - 1),
                     st.integers(0, arity - 1), st.sampled_from(cmps),
                     st.integers(-q, q))


@st.composite
def _neq_heavy_relations(draw):
    # DNFs whose terms carry several != literals, each split in two by the
    # zones, and some constant literals of a variable with itself
    arity = draw(st.integers(2, 4))
    q = draw(st.integers(0, 3))
    cmps = draw(st.sampled_from([(Cmp.NEQ,), (Cmp.NEQ, Cmp.EQ),
                                 (Cmp.NEQ, Cmp.NEQ, Cmp.LEQ, Cmp.LT)]))
    terms = draw(st.lists(st.lists(_literals(arity, q, cmps), min_size=1,
                                   max_size=5), min_size=1, max_size=3))
    root = Or(tuple(And(tuple(t)) for t in terms))
    return RelationDef("N", arity, Formula(root))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(rel=_neq_heavy_relations())
def test_neq_heavy_zone_profile_matches_grid_reference(rel):
    for i, j in itertools.permutations(range(rel.arity), 2):
        assert (difference_profile(rel, i, j)
                == grid_difference_profile(rel, i, j)), (i, j)


def test_large_offset_profiles_read_no_row():
    # the zones read the two terms' intervals, {0} and {3 * 10^6}, and hold
    # no row of the 6 * 10^6 differences in between
    rel = rel_of("x1 = x2 | x1 = x2 + 3000000", "G")
    reduced_dnf(rel)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        profiles = [difference_profile(rel, i, j) for i, j in ((0, 1), (1, 0))]
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [p.values for p in profiles] == [(0, 3000000), (-3000000, 0)]
    assert all(p.tag is ProfileTag.FINITE for p in profiles)
    assert peak < 2**20, peak
    assert elapsed < 0.5, elapsed


def test_profiles_of_a_relation_split_its_dnf_once(monkeypatch):
    # the k(k - 1) profiles read one set of closed systems, kept with the
    # formula like its reduced DNF
    calls = []

    def counting(terms):
        calls.append(terms)
        return split(terms)

    split = zones.split
    monkeypatch.setattr(zones, "split", counting)
    rel = parse_language("rel P/3 := (x1 = x2 + 1 & x3 = x1 + 2) | x2 = x3"
                         ).relation("P")
    profiles = [difference_profile(rel, i, j)
                for i, j in itertools.permutations(range(3), 2)]
    assert len(calls) == 1
    assert profiles == [grid_difference_profile(rel, p.i, p.j)
                        for p in profiles]


def test_profiles_of_a_formula_shared_across_arities():
    # the closed systems are kept per arity: a coordinate the formula does
    # not name is free, and its matrices need a row for it
    f = parse_expression("x1 = x2 + 1 | x1 = x2 - 2", 2)
    for k in (2, 3, 2):
        rel = RelationDef(f"S{k}", k, f)
        for i, j in itertools.permutations(range(k), 2):
            assert (difference_profile(rel, i, j)
                    == grid_difference_profile(rel, i, j)), (k, i, j)


def test_large_offset_literal_tables_stay_within_memory():
    # reduce's window holds the 6 * 10^6 values of x2 with x1 pinned at 0;
    # the offset goes on x1's one-value axis, so no int64 temporary spans
    # the window (about 104 MiB traced when it did, 58 MiB without)
    lang = parse_language("rel G/2 := x1 = x2 | x1 = x2 + 3000000")
    tracemalloc.start()
    try:
        verdict = classify(lang)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict.cls is VerdictClass.DEGENERATE_OR_UNKNOWN
    assert peak < 80 * 2**20, peak


def test_large_offset_profiles_stay_within_memory():
    # each of the six profiles spans about 4 * 10^5 differences around
    # +-10^5; as intervals they hold two numbers each (64 MiB traced and
    # 4 s when every difference was listed)
    lang = parse_language("rel R/3 := x1 = x2 + 100000")
    tracemalloc.start()
    try:
        verdict = classify(lang)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict.cls is VerdictClass.DEGENERATE_OR_UNKNOWN
    assert peak < 8 * 2**20, peak


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(arity=st.integers(2, 4), q=st.integers(0, 3),
       seed=st.integers(0, 10**6))
def test_successor_profiles_are_finite_or_cofinite(arity, q, seed):
    # _classify routes by dialect alone: a successor relation never has a
    # one-sided or mixed projection (the argument is in its docstring)
    rel = random_relation(arity, q, seed, dialect="successor")
    for i, j in itertools.permutations(range(arity), 2):
        assert difference_profile(rel, i, j).tag in (
            ProfileTag.FINITE, ProfileTag.COFINITE), (i, j)


# ---------------------------------------------------------------------------
# classify


@pytest.mark.parametrize("language, profiled", [
    ("maxrel.dtl", False), ("f.dtl", False), ("t2.dtl", True)])
def test_profiles_run_only_for_positive_languages(monkeypatch, language,
                                                  profiled):
    # the profiles only give the modular branch its candidate moduli
    lang = parse_language((FIXTURES / language).read_text())
    calls = []
    original = classify_module.difference_profile

    def counting(rel, i, j):
        calls.append((rel.name, i, j))
        return original(rel, i, j)
    monkeypatch.setattr(classify_module, "difference_profile", counting)
    classify(lang)
    pairs = [(r.name, i, j) for r in lang.relations
             for i, j in itertools.permutations(range(r.arity), 2)]
    assert calls == (pairs if profiled else [])


def test_classify_f_is_horn():
    assert classify(F_LANG).cls is VerdictClass.HORN_TRACTABLE


def test_classify_max_fixture():
    verdict = classify(MAX_LANG)
    assert verdict.cls is VerdictClass.MAX_CLOSED


def test_classify_t2_modmax2():
    verdict = classify(T2_LANG)
    assert verdict.cls is VerdictClass.MODMAX_CLOSED
    assert verdict.d == 2


def test_classify_distance_pair_hard_with_witnesses():
    verdict = classify(HARD_LANG)
    assert verdict.cls is VerdictClass.NP_HARD
    assert verdict.witnesses
    for w in verdict.witnesses:
        assert w.revalidates(HARD_LANG.relation(w.relation))


def test_classify_suc_exact_outcome():
    for p in range(-3, 4):
        sign = "+" if p >= 0 else "-"
        lang = parse_language(f"rel S/2 := x2 = x1 {sign} {abs(p)}")
        verdict = classify(lang)
        assert verdict.cls is VerdictClass.MODMAX_CLOSED
        assert verdict.d == 1


def test_classify_nonpositive_non_horn_hard():
    lang = parse_language(
        "rel Neq/2 := x1 != x2\n"
        "rel D2/2 := x1 = x2 + 2 | x1 = x2 - 2")
    verdict = classify(lang)
    assert verdict.cls is VerdictClass.NP_HARD
    for w in verdict.witnesses:
        assert w.revalidates(lang.relation(w.relation))


def test_classify_big_fixture_hard_from_small_window():
    # the full 129^4 window is over the cell budget; the violations of both
    # max and min show in the small window and re-check over Z
    lang = parse_language((FIXTURES / "big.dtl").read_text())
    verdict = classify(lang)
    assert verdict.cls is VerdictClass.NP_HARD
    assert len(verdict.witnesses) == 2
    for w in verdict.witnesses:
        assert w.revalidates(lang.relation(w.relation))


def test_classify_large_offset_horn_clause():
    # one Horn clause; reduce pins x1, so its window is the 40,003 values of
    # x2, where the unpinned window had 40002^2 points, over the budget
    lang = parse_language("rel R/2 := x1 = x2 + 20000 | x1 != x2 + 5")
    assert classify(lang).cls is VerdictClass.HORN_TRACTABLE


def test_classify_large_offset_positive_hard():
    # the profiles read the reduced DNF's two terms, where the shared profile
    # window of the whole relation had 120^4 cells, over the budget
    lang = parse_language("rel P/4 := x1 = x2 + 6 | x3 = x4 + 9")
    verdict = classify(lang)
    assert verdict.cls is VerdictClass.NP_HARD
    assert len(verdict.witnesses) == 2
    for w in verdict.witnesses:
        assert w.revalidates(lang.relation(w.relation))


def test_classify_order_dialect_hard_pair():
    lang = parse_language(
        "rel Le/2 := x1 <= x2\n"
        "rel D1/2 := x1 = x2 + 1 | x1 = x2 - 1")
    verdict = classify(lang)
    assert verdict.cls is VerdictClass.NP_HARD
    assert len(verdict.witnesses) == 2


def test_classify_min_closed():
    lang = parse_language("rel MinGe/3 := x1 <= x3 | x2 <= x3")
    # z >= min(x,y): preserved by min but not by max
    verdict = classify(lang)
    assert verdict.cls is VerdictClass.MIN_CLOSED


def test_materialize_t2_matches_catalogue():
    rows = materialize(T2_LANG.relation("T2"), range(0, 4)).tuples
    assert set(rows) == {(2, 0, 0), (2, 2, 0), (0, 2, 0),
                         (3, 1, 1), (3, 3, 1), (1, 3, 1)}


# ---------------------------------------------------------------------------
# candidate moduli


def _finite(*values):
    return DifferenceProfile(0, 1, 0, profile_spans(values), ProfileTag.FINITE)


@pytest.mark.parametrize("profiles, expected", [
    ([], [1]),
    ([_finite(), _finite(3)], [1]),
    ([DifferenceProfile(0, 1, 4, profile_spans((-2, 0, 2)),
                        ProfileTag.COFINITE)], [1]),
    ([_finite(-16, 0, 16)], [1, 2, 4, 8, 16]),
    ([_finite(0, 12), _finite(-9, 9)], [1, 2, 3, 6]),
    ([_finite(-3, 0, 6)], [1, 3]),
    ([_finite(0, 36)], [1, 2, 3, 4, 6, 9, 12, 18, 36]),
    ([_finite(0, 999983)], [1, 999983]),
    ([_finite(0, 3000000)], sorted(2**a * 3**b * 5**c for a in range(7)
                                   for b in range(2) for c in range(7))),
    ([_finite(0, 6, 7, 8)], [1]),
    ([_finite(-12, -6, 0, 6, 12)], [1, 2, 3, 6]),
])
def test_candidate_moduli_are_the_divisors_of_the_gap_gcd(profiles,
                                                          expected):
    assert _candidate_moduli(profiles) == expected


def _finite_gap_gcd(rel):
    g = 0
    for i, j in itertools.permutations(range(rel.arity), 2):
        prof = difference_profile(rel, i, j)
        if prof.tag is ProfileTag.FINITE:
            for a, b in zip(prof.values, prof.values[1:]):
                g = math.gcd(g, b - a)
    return g


def test_moduli_off_the_gap_gcd_are_refuted_by_the_window_test():
    # the lemma of _candidate_moduli, against the exact window test: every
    # d that does not divide the relation's own gap gcd is violated by both
    # the d-modular max and min, with a witness that re-checks over Z
    tested = 0
    for seed in range(150):
        for rel in random_positive_language(seed).relations:
            g = _finite_gap_gcd(rel)
            for d in range(2, 9):
                if g % d == 0:
                    continue
                for op in (modmax(d), modmin(d)):
                    res = preserved_by(rel, op)
                    assert not res.preserved, (seed, rel.name, op)
                    assert res.witness.revalidates(rel)
                    tested += 1
    assert tested > 1000


def _dist_pair(k):
    return parse_language(f"rel U/2 := x1 = x2 + {k} | x1 = x2 - {k}\n"
                          f"rel V/2 := x1 = x2 + {5 * k} | x1 = x2 - {5 * k}")


def _arity3(m):
    body = " | ".join(f"(x1 = x2 + {i} & x3 = x1 + {i})" for i in range(m))
    return parse_language(f"rel A/3 := {body}")


def _without_candidates(verdict):
    out = verdict_to_dict(verdict)
    out["notes"] = [n for n in out["notes"]
                    if not n.startswith("candidate moduli: ")]
    return out


_SHAPES = ([_dist_pair(k) for k in (1, 2, 3)]
           + [modular_language(seed, d) for seed in range(3)
              for d in (2, 3, 4)]
           + [_arity3(m) for m in (2, 3, 4)]
           + [T2_LANG, parse_language((FIXTURES / "dist1.dtl").read_text())])


@pytest.mark.parametrize("lang", _SHAPES + [random_positive_language(seed)
                                            for seed in range(150)])
def test_gap_gcd_divisors_classify_as_the_legacy_candidates(monkeypatch,
                                                           lang):
    # the divisors of G are a subset of the former candidates that holds
    # every modulus that can pass: the verdict, its d, witnesses and passing
    # lines stay the same, and only the candidate note changes
    new = classify(lang)
    monkeypatch.setattr(classify_module, "_candidate_moduli",
                        legacy_candidate_moduli)
    assert _without_candidates(new) == _without_candidates(classify(lang))


@pytest.mark.parametrize("k, scans", [(1, 6), (2, 8)])
def test_distance_pair_scans_only_the_divisor_windows(monkeypatch, k, scans):
    # distances k and 5k: G = 2k, so max and min each run on 1, 2 (and 4).
    # U refutes every d < 2k in its small window; d = 2k preserves U, proved
    # by its small scan alone (one cluster with P = k, so the proof window
    # ceil((7k - 1) / 2) is no wider than 3k + 1), and V refutes it in one:
    # 3 + 3 scans for k = 1, 4 + 4 for k = 2
    calls = []
    scan = classify_module._scan_window

    def spy(rel, op, B):
        calls.append((rel.name, op.describe(), B))
        return scan(rel, op, B)

    monkeypatch.setattr(classify_module, "_scan_window", spy)
    verdict = classify(_dist_pair(k))
    assert verdict.cls is VerdictClass.NP_HARD
    assert len(calls) == scans, calls


def test_large_offset_profile_stays_within_memory():
    # the profile row holds 2 * 10^6 differences; read with numpy slices it
    # peaks near 34 MB traced, where a dict with one entry per difference
    # peaks near 166 MB.  G = 10^6 has 49 divisors, found by trial division
    # up to isqrt(G).
    lang = parse_language("rel G/2 := x1 = x2 | x1 = x2 + 1000000")
    tracemalloc.start()
    try:
        verdict = classify(lang)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict.cls is VerdictClass.DEGENERATE_OR_UNKNOWN
    assert "candidate moduli: 1, 2, 4, 5, 8, 10, " in "\n".join(verdict.notes)
    assert peak < 64 * 2**20, peak
