"""Membership oracles, numerical semigroups, classification flags."""

from collections import Counter
from functools import cache
from itertools import product
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import CORPUS, enumeration, presentation, reference_cech_ranks
from oracles import (
    escape_count,
    in_escape_set,
    in_monomial_localization,
    monomial_localization_witness,
)

from toriclc import (
    DimensionUnsupported,
    GeneratorNotInSemigroup,
    MonomialIdeal,
    NotPointed,
    ToricPresentation,
    degree_signature,
    enumerate_classes,
    face_membership_search,
    face_residues,
    in_face_localization,
    in_semigroup,
    localization_faces,
    module_support,
    numerical_semigroup,
    smallest_containing_face,
)
from toriclc import intlinalg as la
from toriclc import semigroups
from toriclc.errors import FullLatticeRequired
from toriclc.semigroups import _facet_box_points, face_residue_reps, line_runs


def test_numerical_semigroup_23():
    ns = numerical_semigroup([2, 3])
    assert ns.conductor == 2
    assert ns.gaps == frozenset({1})
    assert 0 in ns and 1 not in ns and 7 in ns and -1 not in ns


def test_numerical_semigroup_full():
    ns = numerical_semigroup([1])
    assert ns.conductor == 0 and not ns.gaps


def test_numerical_semigroup_357():
    ns = numerical_semigroup([3, 5, 7])
    brute = {i for i in range(60)} - {
        3 * a + 5 * b + 7 * c for a in range(20) for b in range(12) for c in range(9)
        if 3 * a + 5 * b + 7 * c < 60
    }
    assert ns.gaps == frozenset(brute)
    assert ns.conductor == max(brute) + 1


def test_numerical_semigroup_rejects_non_coprime():
    with pytest.raises(ValueError):
        numerical_semigroup([2, 4])


def test_lattice_validation():
    with pytest.raises(FullLatticeRequired):
        ToricPresentation.build([[2]])
    with pytest.raises(FullLatticeRequired):
        ToricPresentation.build([[1, 1], [1, -1]])


def test_membership_2dim(pres_2dim):
    assert in_semigroup(pres_2dim, (1, 1))
    assert in_semigroup(pres_2dim, (0, 0))
    assert not in_semigroup(pres_2dim, (-1, 0))
    assert not in_semigroup(pres_2dim, (1, 3))


def test_membership_gap():
    pres = presentation("dim1_cusp")
    assert not in_semigroup(pres, (1,))
    assert in_semigroup(pres, (5,))


def test_membership_requires_pointed():
    pres = ToricPresentation.build([[1, -1]])
    assert not pres.pointed
    with pytest.raises(NotPointed):
        in_semigroup(pres, (0,))


def test_face_localization_hartshorne(pres_hartshorne):
    # region data: inverting the first-column face frees exactly {z >= 0, y >= 0}
    lattice = pres_hartshorne.face_lattice
    ray_a1 = next(
        f.face_id for f in lattice.faces
        if f.dim == 1 and f.column_indices == frozenset({0})
    )
    for point, expect in [((5, -3, 2), False), ((-5, 3, 2), True),
                          ((-5, 0, 0), True), ((0, 1, -1), False)]:
        assert in_face_localization(pres_hartshorne, point, ray_a1) is expect
    facet_z = next(s.facet_id for s in pres_hartshorne.supports
                   if s.coefficients == (0, 0, 1))
    fz = lattice.facet_face_id(facet_z)
    for point in [(-9, -9, 0), (3, -7, 9)]:
        assert in_face_localization(pres_hartshorne, point, fz)
    assert not in_face_localization(pres_hartshorne, (0, 0, -1), fz)


def test_face_localization_top_and_bottom(pres_2dim):
    lattice = pres_2dim.face_lattice
    assert in_face_localization(pres_2dim, (-99, 57), lattice.top_id)
    assert in_face_localization(pres_2dim, (2, 1), lattice.bottom_id) == \
        in_semigroup(pres_2dim, (2, 1))


def _box_points(pres):
    caps = {
        s.facet_id: pres.facet_semigroup(s.facet_id).conductor + pres.box_margin
        for s in pres.supports
    }
    return _facet_box_points(pres, caps)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_fast_paths_and_dfs_agree_on_box(name):
    # dual-route check: table/fast-path answers match the independent
    # depth-first oracle for every face, on the verification box and on the
    # centered box [-4, 4]^dim; the verification box only holds nonnegative
    # facet values, so only the centered one sees a facet failing by sign
    pres = presentation(name)
    for points in (_box_points(pres), list(product(range(-4, 5), repeat=pres.dim))):
        step = max(1, len(points) // 40)
        for face in pres.face_lattice.faces:
            for a in points[::step]:
                assert in_face_localization(pres, a, face.face_id) == \
                    face_membership_search(pres, a, face.face_id, search_bound=100)


# the scored pentagon cone of the benchmark's class scans: a scored fast
# path whose facet semigroups have nonzero conductors
PENTAGON_SCORED = [
    [1, 1, 1, 1, 1],
    [0, 1, 2, 1, 0],
    [0, 0, 1, 2, 1],
]


# perfbench/problems/table2d_a: no fast path, and both ray quotients have
# torsion 3, so its tables step through the modular reduction
TABLE2D_A = [[3, 0, 1, 2, 1, 2], [0, 3, 1, 1, 2, 2]]


@cache
def _keyed(name):
    """Presentation, ideal and class enumeration of a corpus problem, the
    scored pentagon or table2d_a."""
    if name in ("pentagon_scored", "table2d_a"):
        pres = ToricPresentation.build(PENTAGON_SCORED if name == "pentagon_scored" else TABLE2D_A)
        return pres, MonomialIdeal.maximal_ideal(pres), enumerate_classes(pres)
    pres, spec = presentation(name), CORPUS[name][1]
    ideal = (MonomialIdeal.maximal_ideal(pres) if spec == "maximal"
             else MonomialIdeal.from_degrees(pres, spec))
    return pres, ideal, enumeration(name)


@cache
def _reference_key(pres, a):
    """A degree's key, one degree at a time.  On a fast path, from its own
    facet values: the mask of the facets whose value is negative (route
    normal) or outside the facet numerical semigroup (route scored).  On
    the table path, from the depth-first oracle: one bit per proper face,
    by face id, and residue representative r, set iff a - r lies in the
    face's localization."""
    if pres.fast_path is None:
        bits = [
            face_membership_search(pres, la.vsub(a, rep), face.face_id, search_bound=100)
            for face in pres.face_lattice.faces if face.face_id != pres.face_lattice.top_id
            for rep in face_residue_reps(pres, face.face_id)]
        return sum(1 << i for i, bit in enumerate(bits) if bit)
    return sum(
        1 << s for s, v in enumerate(pres.facet_values(a))
        if (v < 0 if pres.fast_path == "normal" else v not in pres.facet_semigroup(s)))


def _run_keys(runs, hi):
    """The key of every degree of the runs, the last run ending at hi."""
    ends = [start for start, _ in runs[1:]] + [hi]
    return [key for (start, key), end in zip(runs, ends) for _ in range(start, end)]


@pytest.mark.parametrize("name", [*sorted(CORPUS), "pentagon_scored", "table2d_a"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_line_runs_match_reference_keys(name, data):
    # every route, with the scored pentagon's nonzero conductors and the
    # torsion of table2d_a's ray quotients on the table path: the runs
    # expand to each degree's own key, start at lo, strictly increase and
    # change key at every start; the one-degree mask agrees with them
    pres = _keyed(name)[0]
    prefix = data.draw(st.tuples(*[st.integers(-12, 12)] * (pres.dim - 1)), label="prefix")
    lo = data.draw(st.integers(-15, 15), label="lo")
    hi = data.draw(st.integers(lo + 1, 16), label="hi")
    shift = data.draw(st.sampled_from([None, *pres.columns]), label="shift")
    runs = line_runs(pres, prefix, lo, hi, shift)
    starts = [start for start, _ in runs]
    assert starts[0] == lo and starts[-1] < hi
    assert all(x < y for x, y in zip(starts, starts[1:]))
    assert all(k != n for (_, k), (_, n) in zip(runs, runs[1:]))
    line = [prefix + (x,) for x in range(lo, hi)]
    if shift is not None:
        line = [la.vadd(b, shift) for b in line]
    keys = [_reference_key(pres, b) for b in line]
    assert _run_keys(runs, hi) == keys
    assert [semigroups.degree_key(pres, b) for b in line] == keys
    if pres.fast_path is not None:
        assert [semigroups._failing_facets(pres, pres.fast_path, b) for b in line] == keys


def test_pentagon_scored_has_conductors():
    pres, _, _ = _keyed("pentagon_scored")
    assert pres.fast_path == "scored"
    assert pres.max_facet_conductor() > 0


@pytest.mark.parametrize("name", [*sorted(CORPUS), "pentagon_scored"])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_localization_faces_match_search_and_residues(name, data):
    # covers the normal, scored and table routes: the batched faces equal
    # the depth-first oracle face by face, and the signature decoded from
    # the key equals the per-face residue sets; the default search bound
    # (30) is too small for some Hartshorne degrees of this box, 100 covers
    # all of it
    pres, ideal, _ = _keyed(name)
    a = data.draw(st.tuples(*[st.integers(-8, 8)] * pres.dim), label="degree")
    faces = [f.face_id for f in pres.face_lattice.faces]
    assert localization_faces(pres, a, faces) == frozenset(
        f for f in faces if face_membership_search(pres, a, f, search_bound=100))
    assert degree_signature(pres, a).residues == tuple(
        face_residues(pres, a, f) for f in faces)
    # the runs of the scan line through a, translated by a column or not,
    # expand to every degree's own key; degrees sharing a key share every
    # per-degree answer, and the key decodes to the per-query residue sets
    shift = data.draw(st.sampled_from([None, *pres.columns]), label="shift")
    lo, hi = a[-1] - 3, a[-1] + 4
    line = [a[:-1] + (x,) for x in range(lo, hi)]
    if shift is not None:
        line = [la.vadd(b, shift) for b in line]
    keys = _run_keys(line_runs(pres, a[:-1], lo, hi, shift), hi)
    assert keys == [_reference_key(pres, b) for b in line]
    per_key = {}
    for b, key in zip(line, keys):
        present = frozenset(f for f in faces if in_face_localization(pres, b, f))
        residues = tuple(face_residues(pres, b, f) for f in faces)
        ranks = reference_cech_ranks(pres, ideal, b)
        assert per_key.setdefault(key, (present, residues, ranks)) == (present, residues, ranks)
        assert localization_faces(pres, b, faces) == present
        assert [module_support(pres, ideal, k, b) for k in range(len(ranks))] == \
            [r > 0 for r in ranks]
        assert semigroups.key_residues(pres, key) == residues


def test_dfs_agrees_off_box(pres_2dim):
    pts = [(-3, -5), (4, 9), (-2, 3), (7, -1), (-6, 0)]
    for face in pres_2dim.face_lattice.faces:
        for a in pts:
            assert in_face_localization(pres_2dim, a, face.face_id) == \
                face_membership_search(pres_2dim, a, face.face_id)


def test_classification_flags():
    expected = {
        "dim1_weyl": (True, True, True, "normal"),
        "dim1_cusp": (False, True, True, "scored"),
        "dim1_2_5": (False, True, True, "scored"),
        "dim1_3_4_5": (False, True, True, "scored"),
        "dim1_3_5_7": (False, True, True, "scored"),
        "dim1_4_6_9": (False, True, True, "scored"),
        "dim2_normal": (True, True, True, "normal"),
        "dim2_polynomial": (True, True, True, "normal"),
        "dim2_scored_nonnormal": (False, True, True, "scored"),
        "dim2_nonscored": (False, False, True, None),
        "dim3_hartshorne": (True, True, True, "normal"),
    }
    assert set(expected) == set(CORPUS)
    for name, flags in expected.items():
        pres = presentation(name)
        got = (pres.normal, pres.scored, pres.serre_s2, pres.fast_path)
        assert got == flags, name


def _count_table_calls(monkeypatch):
    """Record every (degree, face) the table oracle is asked from now on."""
    calls = Counter()
    table_membership = ToricPresentation._table_membership

    def counted(self, a, face_id):
        calls[(a, face_id)] += 1
        return table_membership(self, a, face_id)

    monkeypatch.setattr(ToricPresentation, "_table_membership", counted)
    return calls


def test_classify_asks_table_oracle_once_per_point_and_face(monkeypatch):
    # the scored route checks every proper face on the verification box and
    # on the negated box
    calls = _count_table_calls(monkeypatch)
    pres = ToricPresentation.build(CORPUS["dim2_scored_nonnormal"][0])
    box = _box_points(pres)
    points = set(box) | {tuple(-x for x in a) for a in box} | set(
        _facet_box_points(pres, semigroups._normal_caps(pres)))
    faces = {f.face_id for f in pres.face_lattice.faces}
    assert calls and max(calls.values()) == 1
    assert all(a in points and f in faces for a, f in calls)
    assert {f for _, f in calls} == faces - {pres.face_lattice.top_id}


def test_normal_caps_hartshorne(pres_hartshorne):
    # each facet takes values 0, 0, 1, 1 on the four columns
    assert semigroups._normal_caps(pres_hartshorne) == {
        s.facet_id: 2 for s in pres_hartshorne.supports}


def test_normal_build_asks_table_oracle_only_on_normal_box(monkeypatch):
    calls = _count_table_calls(monkeypatch)
    pres = ToricPresentation.build(CORPUS["dim3_hartshorne"][0])
    points = _facet_box_points(pres, semigroups._normal_caps(pres))
    assert pres.fast_path == "normal"
    assert {f for _, f in calls} == {pres.face_lattice.bottom_id}
    assert sorted(a for a, _ in calls) == sorted(points)
    assert len(calls) == sum(calls.values()) == 19


def _patch_failing_facets(monkeypatch, change):
    """Pass every failing-facet mask through change(pres, mask)."""
    original = semigroups._failing_facets

    def patched(pres, route, a):
        return change(pres, original(pres, route, a))

    monkeypatch.setattr(semigroups, "_failing_facets", patched)


def test_scored_fast_path_off_when_masks_disagree_on_facet_faces(monkeypatch):
    # a degree that fails one facet now fails all: the bottom face keeps its
    # answer, but a box degree failing only the facet 3x - y >= 0 (value 1,
    # a gap) is still in the localization at the other facet
    _patch_failing_facets(
        monkeypatch, lambda pres, mask: (1 << len(pres.supports)) - 1 if mask else 0)
    pres = ToricPresentation.build(CORPUS["dim2_scored_nonnormal"][0])
    assert (pres.normal, pres.scored, pres.serre_s2) == (False, True, True)
    assert pres.fast_path is None


def test_scored_flag_refuted_when_masks_disagree_on_bottom_face(monkeypatch):
    _patch_failing_facets(monkeypatch, lambda pres, mask: mask ^ 1)
    pres = ToricPresentation.build(CORPUS["dim2_scored_nonnormal"][0])
    assert (pres.normal, pres.scored, pres.serre_s2) == (False, False, True)
    assert pres.flag_evidence["scored"] == "certified"
    assert pres.fast_path is None


def test_scored_fast_path_off_when_zero_facet_masks_drop_a_facet(monkeypatch):
    # facet 0 (y >= 0) has no gaps, so only a degree failing it by sign, as
    # on the negated box, shows that its bit is gone from every face's mask
    classify = semigroups._classify

    def dropped(pres):
        pres._zero_facet_masks = tuple(m & ~1 for m in pres._zero_facet_masks)
        classify(pres)

    monkeypatch.setattr(semigroups, "_classify", dropped)
    pres = ToricPresentation.build(CORPUS["dim2_scored_nonnormal"][0])
    assert not pres.facet_semigroup(0).gaps
    assert (pres.normal, pres.scored, pres.serre_s2) == (False, True, True)
    assert pres.fast_path is None


# cone over the lattice 20-gon, the hull of x^2 + y^2 <= 64: not normal, and
# its verification box holds a single point
GON20 = [
    [1] * 20,
    [-8, -7, -6, -5, -3, 0, 3, 5, 6, 7, 8, 7, 6, 5, 3, 0, -3, -5, -6, -7],
    [0, -3, -5, -6, -7, -8, -7, -6, -5, -3, 0, 3, 5, 6, 7, 8, 7, 6, 5, 3],
]
# cone over the octagon with vertices (+-3, 0), (0, +-3), (+-2, +-2)
OCTAGON = [
    [1, 1, 1, 1, 1, 1, 1, 1],
    [3, 2, 0, -2, -3, -2, 0, 2],
    [0, 2, 3, 2, 0, -2, -3, -2],
]


@cache
def _gon20():
    return ToricPresentation.build(GON20)


def test_gon20_normality_refuted_scored_box_verified():
    pres = _gon20()
    assert pres.normal is False and pres.flag_evidence["normal"] == "certified"
    assert pres.scored is True and pres.flag_evidence["scored"] == "box"


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the box-verified scored fast path accepts the hole (1, 0, 0)")
def test_gon20_in_semigroup_matches_search():
    pres = _gon20()
    assert in_semigroup(pres, (1, 0, 0)) == face_membership_search(
        pres, (1, 0, 0), pres.face_lattice.bottom_id)


def test_octagon_flags():
    pres = ToricPresentation.build(OCTAGON)
    assert (pres.normal, pres.scored, pres.serre_s2, pres.fast_path) == \
        (False, False, False, None)
    assert set(pres.flag_evidence.values()) == {"certified"}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_flag_chain(name):
    pres = presentation(name)
    if pres.normal:
        assert pres.scored
    if pres.scored:
        assert pres.serre_s2


def test_localization_2dim(pres_2dim):
    assert in_monomial_localization(pres_2dim, (-1, -1), (1, 1))
    assert monomial_localization_witness(pres_2dim, (-1, -1), (1, 1)) == 1
    assert monomial_localization_witness(pres_2dim, (0, 0), (1, 1)) == 0
    assert not in_monomial_localization(pres_2dim, (0, -1), (1, 0))


def test_localization_rejects_outside_generator(pres_2dim):
    with pytest.raises(GeneratorNotInSemigroup):
        in_monomial_localization(pres_2dim, (0, 0), (1, 3))


def test_localization_identity2():
    pres = presentation("dim2_polynomial")
    assert not in_monomial_localization(pres, (0, -1), (1, 0))
    assert in_monomial_localization(pres, (-5, 0), (1, 0))


def test_localization_monotone(pres_2dim):
    b = (1, 0)
    pts = [(-2, -1), (0, 1), (-4, 2), (1, 1)]
    for a in pts:
        if in_monomial_localization(pres_2dim, a, b):
            shifted = (a[0] + b[0], a[1] + b[1])
            assert in_monomial_localization(pres_2dim, shifted, b)


def test_smallest_containing_face(pres_hartshorne):
    lattice = pres_hartshorne.face_lattice
    assert smallest_containing_face(pres_hartshorne, (0, 0, 0)) == lattice.bottom_id
    assert smallest_containing_face(pres_hartshorne, (2, 1, 1)) == lattice.top_id
    fid = smallest_containing_face(pres_hartshorne, (2, 1, 0))
    assert lattice.face(fid).column_indices == frozenset({0, 1})


def test_escape_counts():
    cusp = presentation("dim1_cusp")
    assert escape_count(cusp, (1,)) == 1
    assert escape_count(cusp, (-1,)) == 2
    assert escape_count(cusp, (0,)) == 0
    weyl = presentation("dim1_weyl")
    for k in range(1, 6):
        assert escape_count(weyl, (-k,)) == k
        assert escape_count(weyl, (k,)) == 0


def test_escape_count_reflection_identity():
    # one-dimensional reflection rule: count(-w) = w + count(w) for w >= 0
    for name in ("dim1_cusp", "dim1_2_5", "dim1_3_5_7", "dim1_4_6_9"):
        pres = presentation(name)
        for w in range(0, 25):
            assert escape_count(pres, (-w,)) == w + escape_count(pres, (w,))


@settings(max_examples=60, deadline=None)
@given(gens=st.lists(st.integers(1, 15), min_size=1, max_size=4))
def test_escape_count_matches_definition(gens):
    # the closed form on the gap set against the count it stands for
    assume(gcd(*gens) == 1)
    ns = numerical_semigroup(gens)
    c = ns.conductor
    for shift in range(-4 * c - 10, 4 * c + 11):
        brute = sum(1 for x in range(c - shift) if x in ns and x + shift not in ns)
        assert ns.escape_count(shift) == brute, shift


def test_escape_count_needs_dim1(pres_2dim):
    with pytest.raises(DimensionUnsupported):
        escape_count(pres_2dim, (1, 0))


def test_in_escape_set_predicate(pres_2dim):
    # degrees of the semigroup that leave it after the shift
    assert in_escape_set(pres_2dim, (0, 0), (-1, 0))
    assert not in_escape_set(pres_2dim, (0, 0), (1, 1))
    assert not in_escape_set(pres_2dim, (-1, 0), (1, 1))
    cusp = presentation("dim1_cusp")
    assert {x for x in range(10) if in_escape_set(cusp, (x,), (-1,))} == {0, 2}


def test_facet_semigroup_gap_pattern():
    # facet value semigroups match direct enumeration of achievable values
    pres = ToricPresentation.build([[1, 1, 1], [0, 2, 3]])
    for s in pres.supports:
        ns = pres.facet_semigroup(s.facet_id)
        vals = [s.value(c) for c in pres.columns]
        achievable = {
            a * vals[0] + b * vals[1] + c * vals[2]
            for a in range(51) for b in range(51) for c in range(51)
        }
        for x in range(50):
            assert (x in ns) == (x in achievable), (s.coefficients, x)


def test_zero_column_handled():
    pres = ToricPresentation.build([[0, 2, 3]])
    assert pres.pointed and pres.scored
    assert not in_semigroup(pres, (1,))
    assert in_semigroup(pres, (5,))
    bottom = pres.face_lattice.face(pres.face_lattice.bottom_id)
    assert bottom.column_indices == frozenset({0})


def test_duplicate_columns_handled():
    pres = ToricPresentation.build([[2, 2, 3]])
    assert in_semigroup(pres, (7,)) and not in_semigroup(pres, (1,))


def test_negative_generators_mirror():
    pres = ToricPresentation.build([[-2, -3]])
    assert pres.pointed and pres.scored and not pres.normal
    assert in_semigroup(pres, (-4,))
    assert not in_semigroup(pres, (-1,))
    assert not in_semigroup(pres, (1,))
    assert escape_count(pres, (1,)) == 2
    assert escape_count(pres, (-1,)) == 1


def _brute_membership(pres, a, coeff_cap=12):
    """Oracle: enumerate nonnegative combinations outright."""
    from itertools import product as iproduct

    cols = [c for c in pres.columns]
    for x in iproduct(range(coeff_cap + 1), repeat=len(cols)):
        total = tuple(
            sum(xi * c[j] for xi, c in zip(x, cols))
            for j in range(pres.dim)
        )
        if total == tuple(a):
            return True
    return False


def _reference_table_members(tbl, quot) -> dict:
    """The member states of a built table in its face quotient, with their
    facet values, from a breadth-first closure that carries a lift per
    state and projects the lift plus each move."""
    zero = la.zero_vector(quot.ambient_rank)
    origin = quot.project(zero)
    members = {origin: (0,) * len(tbl.relevant)}
    lifts = {origin: zero}
    frontier = [origin]
    while frontier:
        nxt = []
        for state in frontier:
            for col, mv_vals in tbl.moves:
                vals = tuple(v + m for v, m in zip(members[state], mv_vals))
                if any(v > c for v, c in zip(vals, tbl.caps)):
                    continue
                lift = la.vadd(lifts[state], col)
                new_state = quot.project(lift)
                if new_state not in members:
                    members[new_state] = vals
                    lifts[new_state] = lift
                    nxt.append(new_state)
        frontier = nxt
    return members


def test_membership_routes_agree_on_random_presentations():
    import random

    rng = random.Random(421)
    cases = []
    while len(cases) < 6:
        d = rng.choice((1, 2))
        n = rng.randint(d, d + 2)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(d)]
        try:
            pres = ToricPresentation.build(rows)
        except Exception:
            continue
        if not pres.pointed:
            continue
        pts = [tuple(rng.randint(-6, 6) for _ in range(d)) for _ in range(25)]
        cases.append((rows, pres, pts, True))
    table2d_a = ToricPresentation.build(TABLE2D_A)
    assert table2d_a.fast_path is None
    assert {table2d_a.face_quotient(f.face_id).torsion_invariants
            for f in table2d_a.face_lattice.faces if f.dim == 1} == {(3,)}
    pts = [tuple(rng.randint(-6, 6) for _ in range(2)) for _ in range(25)]
    cases.append((TABLE2D_A, table2d_a, pts, False))
    for rows, pres, pts, brute in cases:
        for a in pts:
            got = in_semigroup(pres, a)
            if brute:
                assert got == _brute_membership(pres, a), (rows, a)
            for face in pres.face_lattice.faces:
                f = face.face_id
                expected = face_membership_search(pres, a, f)
                assert in_face_localization(pres, a, f) == expected, (rows, a, f)
                if f != pres.face_lattice.top_id:
                    # the table route, also where a fast path answers above
                    assert pres._table_membership(a, f) == expected, (rows, a, f)
        assert pres._tables
        for f, tbl in pres._tables.items():
            # a state's table key is its facet values and torsion residues;
            # the facet values fix the free part, so the map is injective
            quot = pres.face_quotient(f)
            members = _reference_table_members(tbl, quot)
            keys = {vals + tuple(x for x, m in zip(state, quot._moduli) if m >= 2)
                    for state, vals in members.items()}
            assert len(keys) == len(members), (rows, f)
            assert tbl.keys == keys, (rows, f)


def test_build_validates_options():
    with pytest.raises(ValueError):
        ToricPresentation.build([[2, 3]], search_bound=-1)
    with pytest.raises(ValueError):
        ToricPresentation.build([[2, 3]], box_margin=-2)


def test_s2_failure_detected_directly():
    # the quadrant semigroup missing the two unit axis points: its gaps are
    # isolated lattice points, not facet-parallel strips, and both facet
    # regions contain them, so it fails every flag in the chain
    pres = ToricPresentation.build([[0, 0, 1, 1, 2, 2, 3],
                                    [2, 3, 1, 2, 0, 1, 0]])
    assert (pres.normal, pres.scored, pres.serre_s2) == (False, False, False)
    assert pres.fast_path is None
    assert not in_semigroup(pres, (0, 1))
    assert not in_semigroup(pres, (1, 0))
    assert in_semigroup(pres, (1, 1))
