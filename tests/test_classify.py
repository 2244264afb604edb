"""The flag classification against the materialized reference
(oracles.classify_materialized), and the lazy box walk it reads."""

from collections import Counter
from itertools import combinations
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CORPUS, REPO, presentation
from oracles import classify_materialized, facet_box_points

from toriclc import ToricPresentation, grading, semigroups
from toriclc import intlinalg as la
from toriclc.problems import parse_problem_file

PROBLEM_FILES = sorted([*(REPO / "corpus").glob("*.toric"),
                        *(REPO / "perfbench" / "problems").glob("**/*.toric")])


def _classified(classify, rows, **options):
    """What a build classified by classify leaves: flags, evidence,
    verification box, fast path, every table's caps and whether every
    proper face quotient is torsion-free, or the error it raised; the
    number of rebuilds of each table, by the facets that contain its face;
    the points that box walks drew; and the (point, face) questions the
    table oracle was asked."""
    rebuilds, drawn, asked = Counter(), set(), []
    rebuild = semigroups._BfsTable.rebuild
    box_walk = semigroups._box_walk
    table_key = ToricPresentation._table_key

    def counted_rebuild(self, caps, state_limit):
        rebuilds[self.relevant] += 1
        return rebuild(self, caps, state_limit)

    def recorded_walk(pres, caps):
        for a, values in box_walk(pres, caps):
            drawn.add(a)
            yield a, values

    def recorded_key(self, face_id, a, values):
        asked.append((a, face_id))
        return table_key(self, face_id, a, values)

    with mock.patch.object(semigroups, "_classify", classify), \
            mock.patch.object(semigroups._BfsTable, "rebuild", counted_rebuild), \
            mock.patch.object(semigroups, "_box_walk", recorded_walk), \
            mock.patch.object(ToricPresentation, "_table_key", recorded_key):
        try:
            pres = ToricPresentation.build(rows, **options)
        except Exception as exc:  # the reference must raise the same
            return (type(exc), str(exc)), rebuilds, drawn, asked
    torsion_free = pres.pointed and all(
        pres.face_quotient(f.face_id).is_torsion_free()
        for f in pres.face_lattice.faces if f.face_id != pres.face_lattice.top_id)
    return (pres.normal, pres.scored, pres.serre_s2, pres.fast_path,
            pres.flag_evidence, pres.verification_box,
            {f: tbl.caps for f, tbl in pres._tables.items()},
            torsion_free), rebuilds, drawn, asked


def _assert_matches_reference(rows, **options):
    # same outcome and table caps, each table rebuilt as often, and no walk
    # past a point that the reference, which stops at the same witnesses,
    # asks about
    outcome, rebuilds, drawn, _ = _classified(semigroups._classify, rows, **options)
    expected, expected_rebuilds, _, asked = _classified(classify_materialized, rows, **options)
    assert outcome == expected, rows
    assert rebuilds == expected_rebuilds, rows
    assert drawn <= {a for a, _ in asked}, rows
    if len(outcome) > 2:
        # the fast path is a function of the flags, and a scored Q has every
        # proper face quotient torsion-free
        normal, scored, _, fast_path, *_, torsion_free = outcome
        assert fast_path == ("normal" if normal else "scored" if scored else None), rows
        assert torsion_free or not scored, rows


@pytest.mark.parametrize("path", PROBLEM_FILES, ids=lambda p: p.name)
def test_classify_matches_reference_on_problem_files(path):
    problem = parse_problem_file(str(path))
    _assert_matches_reference(
        problem.matrix_rows, search_bound=problem.options.get("bound"),
        box_margin=problem.options.get("margin", 10))


def test_classify_refutes_scored_on_a_torsion_face_quotient():
    # every box point passes the facet tests exactly where it lies in Q, yet
    # a proper face quotient has torsion: Q is not scored, with the torsion
    # as the certificate
    rows = [[1, 4, 2, 4], [-3, -3, -3, 1], [3, 1, 4, 3]]
    _assert_matches_reference(rows)
    pres = ToricPresentation.build(rows)
    assert (pres.normal, pres.scored, pres.fast_path) == (False, False, None)
    assert pres.flag_evidence["scored"] == "certified"
    assert not pres.face_quotient(7).is_torsion_free()


def _full_lattice(rows) -> bool:
    """Whether the columns generate Z^d: the maximal minors are coprime."""
    g = 0
    for cols in combinations(range(len(rows[0])), len(rows)):
        g = gcd(g, la.det(tuple(tuple(r[j] for j in cols) for r in rows)))
    return g == 1


# matrices of 1 or 2 rows and up to 3 more columns than rows: with a
# positive first row (pointed, filtered to generate Z^d), which reach every
# route; or with any entries, mostly not pointed or short of Z^d
GRADED = st.integers(1, 2).flatmap(lambda d: st.integers(d, d + 3).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(1, 12 if d == 1 else 4), min_size=n, max_size=n),
        st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                 min_size=d - 1, max_size=d - 1)))).map(
    lambda parts: [parts[0], *parts[1]]).filter(_full_lattice)
ANY = st.integers(1, 2).flatmap(lambda d: st.integers(d, d + 3).flatmap(
    lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                       min_size=d, max_size=d)))


@settings(max_examples=600, deadline=None)
@given(rows=st.one_of(GRADED, ANY))
def test_classify_matches_reference_on_random_matrices(rows):
    # about 300 of the 600 are pointed and classified; the rest must fail
    # alike on both routes
    _assert_matches_reference(rows)


@pytest.mark.parametrize("path", PROBLEM_FILES, ids=lambda p: p.name)
def test_box_walk_matches_materialized_points(path):
    # same points in the same order, each with its own facet values, on the
    # verification box and the normality box
    pres = ToricPresentation.build(parse_problem_file(str(path)).matrix_rows)
    if not pres.pointed:
        pytest.skip("no boxes without a face lattice")
    verification = dict(enumerate(pres.verification_box))
    for caps in (verification, semigroups._normal_caps(pres)):
        walked = list(semigroups._box_walk(pres, caps))
        assert [a for a, _ in walked] == facet_box_points(pres, caps)
        assert all(values == pres.facet_values(a) for a, values in walked)


@pytest.mark.parametrize("name", ["dim2_nonscored", "dim2_scored_nonnormal"])
def test_classify_reads_each_table_key_once(name):
    # the table path with torsion and the scored route: each table is read
    # once per distinct key, fewer times than the reference asks the table
    # oracle, once per point and face
    rows = CORPUS[name][0]
    asked = _classified(classify_materialized, rows)[3]
    reads = Counter()
    table_holds = ToricPresentation._table_holds

    def counted(self, face_id, key):
        reads[face_id, key] += 1
        return table_holds(self, face_id, key)

    with mock.patch.object(ToricPresentation, "_table_holds", counted):
        ToricPresentation.build(rows)
    assert reads and max(reads.values()) == 1
    assert len(reads) < len(asked) == len(set(asked))


def test_box_walks_share_one_hermite_basis(monkeypatch):
    # the basis facets, Hermite form and lifts of the walk are computed once
    # per presentation, whatever the caps of the box walked
    pres = ToricPresentation.build(CORPUS["dim2_scored_nonnormal"][0])
    lifts = pres._walk_lifts
    calls = []
    monkeypatch.setattr(la, "hermite_normal_form", lambda *args: calls.append(args))
    monkeypatch.setattr(la, "rank", lambda *args: calls.append(args))
    for caps in (dict(enumerate(pres.verification_box)), semigroups._normal_caps(pres)):
        assert list(semigroups._box_walk(pres, caps))
    assert not calls and pres._walk_lifts is lifts


def _count_walks(monkeypatch):
    """Record the caps of every box walk from now on, and how many points
    its passes draw."""
    walks = []
    box_walk = semigroups._box_walk

    def counted(pres, caps):
        walks.append([dict(caps), 0])
        for item in box_walk(pres, caps):
            walks[-1][1] += 1
            yield item

    monkeypatch.setattr(semigroups, "_box_walk", counted)
    return walks


def test_graded_ring_build_walks_one_box_and_stops_at_witnesses(monkeypatch):
    # grd's graded ring of dim1_4_6_9 has a normality box that contains its
    # verification box: the normality check and the flag checks share one
    # walk, which a hole ends at its second point, before any further flag
    # check needs more of the box's 121 points
    pairs = grading.gr_generators_dim1(presentation("dim1_4_6_9"))
    walks = _count_walks(monkeypatch)
    pres = ToricPresentation.build([[p[0] for p in pairs], [p[1] for p in pairs]])
    assert (pres.normal, pres.scored, pres.serre_s2) == (False, False, False)
    assert len(facet_box_points(pres, dict(enumerate(pres.verification_box)))) == 121
    assert walks == [[dict(enumerate(pres.verification_box)), 2]]


def test_scored_build_walks_inner_box_to_its_first_hole(monkeypatch):
    # dim1_cusp: the inner normality box ends at its first hole, 1, and the
    # flag checks then walk the whole verification box
    walks = _count_walks(monkeypatch)
    pres = ToricPresentation.build(CORPUS["dim1_cusp"][0])
    assert pres.fast_path == "scored"
    inner, verification = walks
    assert inner[1] == 2 < len(facet_box_points(pres, inner[0]))
    assert verification == [dict(enumerate(pres.verification_box)), 13]
