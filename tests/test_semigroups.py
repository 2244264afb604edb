"""Membership oracles, numerical semigroups, classification flags."""

import random
from collections import Counter
from dataclasses import replace
from functools import cache
from itertools import product
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import CORPUS, REPO, enumeration, presentation, reference_cech_ranks
from oracles import (
    escape_count,
    face_membership_search,
    face_residue_reps,
    face_residues,
    facet_box_points,
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
    in_face_localization,
    in_semigroup,
    localization_faces,
    module_support,
    numerical_semigroup,
    smallest_containing_face,
    values_in_semigroup,
)
from toriclc import intlinalg as la
from toriclc import semigroups
from toriclc.errors import FullLatticeRequired, SearchBoundExceeded
from toriclc.problems import parse_problem_file
from toriclc.semigroups import line_runs


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
        s.facet_id: ns.conductor + pres.box_margin
        for s, ns in zip(pres.supports, pres.facet_semigroups)
    }
    return facet_box_points(pres, caps)


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
    """Presentation, ideal and class enumeration of a corpus problem, or of
    a benchmark problem (such as the scored pentagon, table2d_a or the
    hexagon) with its maximal ideal."""
    if name not in CORPUS:
        pres = ToricPresentation.build(parse_problem_file(
            REPO / "perfbench" / "problems" / f"{name}.toric").matrix_rows)
        return pres, MonomialIdeal.maximal_ideal(pres), enumerate_classes(pres)
    pres, spec = presentation(name), CORPUS[name][1]
    ideal = (MonomialIdeal.maximal_ideal(pres) if spec == "maximal"
             else MonomialIdeal.from_degrees(pres, spec))
    return pres, ideal, enumeration(name)


@pytest.mark.parametrize("name, route", [
    ("dim3_hartshorne", "normal"), ("dim1_4_6_9", "scored"), ("pentagon_scored", "scored"),
    ("dim2_nonscored", None), ("table2d_a", None)])
def test_values_in_semigroup_matches_search(name, route):
    # the one membership route from facet values, on both fast paths and the
    # table path (table2d_a with torsion in its face quotients), against the
    # depth-first oracle: random degrees of a centered box, many with a
    # negative facet value, and random sums of columns, shifted by a column
    rows = {"pentagon_scored": PENTAGON_SCORED, "table2d_a": TABLE2D_A}
    pres = ToricPresentation.build(rows[name]) if name in rows else presentation(name)
    assert pres.fast_path == route
    rng = random.Random(name)
    spread = 2 * pres.max_facet_conductor() + max(abs(e) for row in pres.matrix for e in row)
    degrees = [tuple(rng.randint(-spread, spread) for _ in range(pres.dim)) for _ in range(60)]
    for _ in range(60):
        a = la.zero_vector(pres.dim)
        for c in pres.columns:
            a = la.vadd(a, la.vscale(rng.randint(0, 2), c))
        degrees.append(la.vsub(a, rng.choice(pres.columns)) if rng.random() < 0.5 else a)
    bottom = pres.face_lattice.bottom_id
    answers = Counter()
    for a in degrees:
        values = pres.facet_values(a)
        expected = face_membership_search(pres, a, bottom, search_bound=100)
        assert values_in_semigroup(pres, values) == expected == in_semigroup(pres, a), a
        answers[expected, min(values) < 0] += 1
    # members, holes with nonnegative facet values off the normal route, and
    # degrees with a negative facet value were all asked
    assert answers[True, False] and answers[False, True]
    assert bool(answers[False, False]) == (route != "normal")


@cache
def _reference_key(pres, a):
    """A degree's key, its signature, one degree at a time.  On the table
    path, from the depth-first oracle: one bit per face, by face id, and
    residue representative r, set iff a - r lies in the face's
    localization; the full cone's one bit is always set.  On a fast path,
    where each face has the zero residue alone, from its own facet values:
    a face's bit is set iff every facet containing it has its value in the
    facet numerical semigroup."""
    if pres.fast_path is None:
        bits = [
            face_membership_search(pres, la.vsub(a, rep), face.face_id, search_bound=100)
            for face in pres.face_lattice.faces
            for rep in face_residue_reps(pres, face.face_id)]
        return sum(1 << i for i, bit in enumerate(bits) if bit)
    values = pres.facet_values(a)
    return sum(1 << face.face_id for face in pres.face_lattice.faces
               if all(values[s] in pres.facet_semigroups[s] for s in face.zero_facets))


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
    # expand to each degree's own signature, start at lo, strictly increase
    # and change signature at every start; on a fast path the signature of
    # each degree's own failing-facet mask agrees with them
    pres = _keyed(name)[0]
    prefix = data.draw(st.tuples(*[st.integers(-12, 12)] * (pres.dim - 1)), label="prefix")
    lo = data.draw(st.integers(-15, 15), label="lo")
    hi = data.draw(st.integers(lo + 1, 16), label="hi")
    shift = data.draw(st.sampled_from([None, *pres.columns]), label="shift")
    if shift is not None:
        prefix, lo, hi = la.vadd(prefix + (lo,), shift)[:-1], lo + shift[-1], hi + shift[-1]
    runs = line_runs(pres, prefix, lo, hi)
    starts = [start for start, _ in runs]
    assert starts[0] == lo and starts[-1] < hi
    assert all(x < y for x, y in zip(starts, starts[1:]))
    assert all(k != n for (_, k), (_, n) in zip(runs, runs[1:]))
    line = [prefix + (x,) for x in range(lo, hi)]
    keys = [_reference_key(pres, b) for b in line]
    assert _run_keys(runs, hi) == keys
    assert [degree_signature(pres, b) for b in line] == keys
    if pres.fast_path is not None:
        assert [pres._signatures[semigroups._failing_facets(pres, pres.facet_values(b))]
                for b in line] == keys


@pytest.mark.parametrize("name", [*sorted(CORPUS), "pentagon_scored", "table2d_a"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_degree_key_is_its_one_degree_run(name, data):
    # on every route a degree's key is its signature: that of its
    # one-degree run, the reference signature and, with the zero residue
    # alone on a fast path, the faces whose localization holds it
    pres = _keyed(name)[0]
    a = data.draw(st.tuples(*[st.integers(-15, 15)] * pres.dim), label="a")
    sig = degree_signature(pres, a)
    assert sig == line_runs(pres, a[:-1], a[-1], a[-1] + 1)[0][1] == _reference_key(pres, a)
    if pres.fast_path is not None:
        assert sig == sum(1 << f.face_id for f in pres.face_lattice.faces
                          if in_face_localization(pres, a, f.face_id))


def test_table_rebuild_stores_keys_before_caps():
    # a reader between the two stores of a rebuild, as in another thread,
    # must not see the new caps with the old keys: that would answer False
    # for a member above the old caps
    pres = ToricPresentation.build(CORPUS["dim2_nonscored"][0])
    bottom = pres.face_lattice.bottom_id
    tbl = pres._tables[bottom]
    a = (12, 12)  # 6 * (2, 0) + 6 * (0, 2), with facet values 12 and 12
    assert tbl.caps == (10, 10)
    answers = []

    class Observed(semigroups._BfsTable):
        __slots__ = ()

        def __setattr__(self, name, value):
            super().__setattr__(name, value)
            answers.append((name, pres._table_membership(a, bottom)))

    tbl.__class__ = Observed
    tbl.rebuild((20, 20), pres.table_state_limit)
    assert answers == [("keys", True), ("caps", True)]


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
    assert semigroups.signature_residues(pres, degree_signature(pres, a)) == tuple(
        face_residues(pres, a, f) for f in faces)
    # the runs of the scan line through a, translated by a column or not,
    # expand to every degree's own key; degrees sharing a key share every
    # per-degree answer, and the key decodes to the per-query residue sets
    shift = data.draw(st.sampled_from([None, *pres.columns]), label="shift")
    moved = a if shift is None else la.vadd(a, shift)
    lo, hi = moved[-1] - 3, moved[-1] + 4
    line = [moved[:-1] + (x,) for x in range(lo, hi)]
    keys = _run_keys(line_runs(pres, moved[:-1], lo, hi), hi)
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
        assert semigroups.signature_residues(pres, key) == residues


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


PROBLEM_FILES = sorted([*(REPO / "corpus").glob("*.toric"),
                        *(REPO / "perfbench" / "problems").glob("**/*.toric")])


@cache
def _problem_presentations() -> tuple:
    """(file name, presentation) of every corpus and benchmark problem."""
    out = []
    for path in PROBLEM_FILES:
        problem = parse_problem_file(str(path))
        out.append((path.name, ToricPresentation.build(
            problem.matrix_rows, search_bound=problem.options.get("bound"),
            box_margin=problem.options.get("margin", 10))))
    return tuple(out)


def test_fast_path_face_quotients_are_torsion_free():
    # on the normal route ZF = span F ∩ Z^d is saturated; the scored route
    # runs only where the tables found every proper face quotient
    # torsion-free; so a fast-path face has the zero residue alone
    routes = Counter()
    for name, pres in _problem_presentations():
        routes[pres.fast_path] += 1
        if pres.fast_path is not None:
            for face in pres.face_lattice.faces:
                assert pres.face_quotient(face.face_id).is_torsion_free(), (name, face)
    assert routes == {"normal": 9, "scored": 8, None: 5}


def test_one_failing_facet_rule_serves_both_fast_paths():
    # a normal Q has every facet semigroup S_s = F_s(Q) = N, with conductor
    # 0 and no gaps, so the one rule "F_s(a) not in S_s" is the normal
    # route's sign test "F_s(a) < 0"; elsewhere, as on the scored route, it
    # is "F_s(a) < 0 or F_s(a) a gap of S_s"
    routes = Counter()
    for name, pres in _problem_presentations():
        routes[pres.fast_path] += 1
        if pres.normal:
            assert all(ns.conductor == 0 and not ns.gaps for ns in pres.facet_semigroups), name
        for a in product(range(-3, 4), repeat=pres.dim):
            values = pres.facet_values(a)
            route_mask = sum(1 << s for s, v in enumerate(values) if v < 0 or (
                not pres.normal and v in pres.facet_semigroups[s].gaps))
            assert semigroups._failing_facets(pres, values) == route_mask, (name, a)
    assert routes == {"normal": 9, "scored": 8, None: 5}


@pytest.mark.parametrize("name", ["dim2_normal", "dim2_nonscored"])
def test_degrees_of_the_wrong_length_raise(name):
    # on [[1, 1, 1], [0, 1, 2]] the dot products of (1,) would stop at its
    # one entry and answer for (1, 0): every per-degree entry point refuses
    pres = presentation(name)
    top = pres.face_lattice.top_id
    for a in [(1,), (1, 1, 1)]:
        for call in (lambda: in_semigroup(pres, a),
                     lambda: in_face_localization(pres, a, top),
                     lambda: degree_signature(pres, a),
                     lambda: localization_faces(pres, a, [top]),
                     lambda: MonomialIdeal.from_degrees(pres, [a])):
            with pytest.raises(ValueError, match=f"has {len(a)} entries, expected 2"):
                call()


def test_torsion_face_quotient_turns_scored_fast_path_off(monkeypatch):
    # the scored masks give each face its zero residue alone, so one proper
    # face quotient with torsion, here patched in on the first facet face,
    # leaves the scored flag but sends every query to the tables
    rows = CORPUS["dim2_scored_nonnormal"][0]
    assert ToricPresentation.build(rows).fast_path == "scored"
    face_quotient = ToricPresentation.face_quotient

    def with_torsion(self, face_id):
        q = face_quotient(self, face_id)
        if face_id == self.face_lattice.facet_face_id(0):
            return replace(q, torsion_invariants=(2,))
        return q

    monkeypatch.setattr(ToricPresentation, "face_quotient", with_torsion)
    pres = ToricPresentation.build(rows)
    assert (pres.normal, pres.scored, pres.fast_path) == (False, True, None)
    faces = [f.face_id for f in pres.face_lattice.faces]
    for a in product(range(-4, 5), repeat=2):
        assert localization_faces(pres, a, faces) == frozenset(
            f for f in faces if face_membership_search(pres, a, f, search_bound=100))


def _count_table_reads(monkeypatch):
    """Record every (face, table key) a table is read at from now on."""
    reads = Counter()
    table_holds = ToricPresentation._table_holds

    def counted(self, face_id, key):
        reads[face_id, key] += 1
        return table_holds(self, face_id, key)

    monkeypatch.setattr(ToricPresentation, "_table_holds", counted)
    return reads


def test_classify_asks_table_oracle_once_per_point_and_face(monkeypatch):
    # the scored route checks every proper face on the verification box and
    # on the negated box; each table is read once per key, which is the key
    # of a point of those boxes or of the normality box, so at most once per
    # point and face
    reads = _count_table_reads(monkeypatch)
    pres = ToricPresentation.build(CORPUS["dim2_scored_nonnormal"][0])
    box = _box_points(pres)
    points = set(box) | {tuple(-x for x in a) for a in box} | set(
        facet_box_points(pres, semigroups._normal_caps(pres)))
    proper = {f.face_id for f in pres.face_lattice.faces} - {pres.face_lattice.top_id}
    assert reads and max(reads.values()) == 1
    assert set(reads) <= {(f, pres._table_key(f, a, pres.facet_values(a)))
                          for a in points for f in proper}
    assert {f for f, _ in reads} == proper


def test_normal_caps_hartshorne(pres_hartshorne):
    # each facet takes values 0, 0, 1, 1 on the four columns
    assert semigroups._normal_caps(pres_hartshorne) == {
        s.facet_id: 2 for s in pres_hartshorne.supports}


def test_normal_build_asks_table_oracle_only_on_normal_box(monkeypatch):
    # one read per point of the normality box, in walk order, on the bottom
    # face, where a point's key is its facet values
    reads = _count_table_reads(monkeypatch)
    pres = ToricPresentation.build(CORPUS["dim3_hartshorne"][0])
    points = facet_box_points(pres, semigroups._normal_caps(pres))
    assert pres.fast_path == "normal"
    assert list(reads) == [(pres.face_lattice.bottom_id, pres.facet_values(a)) for a in points]
    assert len(reads) == sum(reads.values()) == 19


def _patch_failing_facets(monkeypatch, change):
    """Pass every failing-facet mask, which the classification computes
    from the facet values its walk carries, through change(pres, mask)."""
    original = semigroups._failing_facets

    def patched(pres, values):
        return change(pres, original(pres, values))

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
    assert not pres.facet_semigroups[0].gaps
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
        ns = pres.facet_semigroups[s.facet_id]
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


def _tuple_bfs_keys(torsion, moves, caps, state_limit):
    """The keys of a table, from a breadth-first closure on key tuples a
    level at a time, or None when a level leaves more than state_limit."""
    k, moduli = len(caps), [m for _, m in torsion]
    steps = [vals + tuple(la.dot(col, c) % m for c, m in torsion) for col, vals in moves]
    keys = frontier = {(0,) * (k + len(moduli))}
    while frontier:
        frontier = {new for key in frontier for step in steps
                    for new in [tuple(x + y for x, y in zip(key, step))]
                    if all(v <= c for v, c in zip(new, caps))}
        frontier = {key[:k] + tuple(t % m for t, m in zip(key[k:], moduli))
                    for key in frontier} - keys
        keys = keys | frontier
        if len(keys) > state_limit:
            return None
    return keys


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_table_rebuild_matches_tuple_search(data):
    # the packed-int search reaches the same keys, and gives up at the same
    # level, as a search on key tuples: facet values up to past a field's
    # width, several torsion coordinates, moves that only wrap a residue
    k = data.draw(st.integers(1, 3), label="facets")
    d = data.draw(st.integers(1, 3), label="dim")
    torsion = data.draw(st.lists(st.tuples(
        st.tuples(*[st.integers(-3, 3)] * d), st.integers(2, 5)), max_size=2), label="torsion")
    moves = data.draw(st.lists(st.tuples(
        st.tuples(*[st.integers(-3, 3)] * d),
        st.tuples(*[st.integers(0, 5)] * k).filter(any)), min_size=1, max_size=5), label="moves")
    caps = data.draw(st.tuples(*[st.integers(0, 40)] * k), label="caps")
    state_limit = data.draw(st.sampled_from([5, 60, 10**6]), label="state_limit")
    tbl = semigroups._BfsTable(tuple(range(k)), torsion, moves)
    expected = _tuple_bfs_keys(torsion, moves, caps, state_limit)
    if expected is None:
        with pytest.raises(SearchBoundExceeded, match="more than"):
            tbl.rebuild(caps, state_limit)
        assert tbl.keys is tbl.caps is None
    else:
        tbl.rebuild(caps, state_limit)
        assert (tbl.keys, tbl.caps) == (expected, caps)


@pytest.mark.parametrize("rows", [TABLE2D_A, CORPUS["dim2_nonscored"][0]])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_table_reads_grow_tables_as_a_read_that_grows_first(rows, data):
    # _table_holds grows a table only on a miss; a read that grows the table
    # to the degree's values first gives the same answers and caps after
    # every query, on the table path with torsion
    lazy, eager = ToricPresentation.build(rows), ToricPresentation.build(rows)
    faces = [f.face_id for f in lazy.face_lattice.faces if f.face_id != lazy.face_lattice.top_id]
    queries = data.draw(st.lists(st.tuples(
        st.tuples(st.integers(-30, 30), st.integers(-30, 30)), st.sampled_from(faces)),
        min_size=1, max_size=12), label="queries")
    for a, f in queries:
        vals = tuple(eager.supports[s].value(a) for s in eager._zero_facet_ids[f])
        if min(vals) < 0:
            expected = False
        else:
            tbl = eager._grown_table(f, vals)
            expected = vals + tuple(la.dot(a, c) % m for c, m in tbl.torsion) in tbl.keys
        assert lazy._table_membership(a, f) == expected, (a, f)
        assert {g: t.caps for g, t in lazy._tables.items()} == {
            g: t.caps for g, t in eager._tables.items()}, (a, f)


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
