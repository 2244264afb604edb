"""Signatures, class enumeration, sector partition, class order."""

import json
from collections import Counter
from dataclasses import replace
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CORPUS, enumeration, presentation
from oracles import face_residue_reps, face_residues
from report_digests import DIGESTS, digest
from test_semigroups import PENTAGON_SCORED, TABLE2D_A, _keyed

import toriclc
from toriclc import (
    ToricPresentation,
    class_poset,
    degree_signature,
    sector_faces,
    sector_inventory,
    signature_leq,
)
from toriclc import intlinalg as la
from toriclc import cohomology, grading, sectors, semigroups
from toriclc.semigroups import line_runs, scan_lines, signature_residues

# every route: the corpus, the scored pentagon's nonzero conductors and
# table2d_a's torsion on the table path
ROUTES = [*sorted(CORPUS), "pentagon_scored", "table2d_a"]


def _facet_face(pres, coefficients):
    fid = next(s.facet_id for s in pres.supports if s.coefficients == coefficients)
    return pres.face_lattice.facet_face_id(fid)


def test_residues_normal_are_zero_or_empty(pres_2dim):
    # saturated face groups leave only the zero residue to probe
    for face in pres_2dim.face_lattice.faces:
        assert face_residue_reps(pres_2dim, face.face_id) == ((0, 0),)
        for a in [(0, 0), (-1, -1), (3, 2)]:
            res = face_residues(pres_2dim, a, face.face_id)
            assert res in (frozenset(), frozenset({0}))


def test_residues_dim1():
    pres = presentation("dim1_cusp")
    bottom = pres.face_lattice.bottom_id
    top = pres.face_lattice.top_id
    for a in range(-4, 7):
        expect = frozenset({0}) if (a,) in _cusp_members() else frozenset()
        assert face_residues(pres, (a,), bottom) == expect
        assert face_residues(pres, (a,), top) == frozenset({0})


def _cusp_members():
    return {(x,) for x in (0, 2, 3, 4, 5, 6)}


def test_residues_nontrivial_torsion():
    # the non-scored presentation has a ray whose group has index two in
    # its saturation, so two residues compete
    pres = presentation("dim2_nonscored")
    lattice = pres.face_lattice
    x_ray = next(
        f.face_id for f in lattice.faces
        if f.dim == 1 and f.column_indices == frozenset({0})
    )
    reps = face_residue_reps(pres, x_ray)
    assert len(reps) == 2
    assert reps[0] == (0, 0)
    # on the x-axis only even points are reachable, so the two residues
    # separate (0,0) from (1,0); one step up both become reachable
    assert face_residues(pres, (0, 0), x_ray) == frozenset({0})
    assert face_residues(pres, (1, 0), x_ray) == frozenset({1})
    assert face_residues(pres, (1, 1), x_ray) == frozenset({0, 1})


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_residue_reps_vanish_on_the_facets_of_their_face(name):
    # so a residue shifts no facet value that a fast-path key reads
    pres = presentation(name)
    for face in pres.face_lattice.faces:
        for rep in face_residue_reps(pres, face.face_id):
            assert all(pres.supports[s].value(rep) == 0 for s in face.zero_facets)


# torsion on the table path: table2d_a's rays (Z/3), a ray with Z/4 and a
# facet with two torsion coordinates, Z/2 x Z/2
TORSION_PROBLEMS = {
    "table2d_a": (TABLE2D_A, {(3,)}),
    "z4_ray": ([[4, 0, 1], [0, 1, 1]], {(4,)}),
    "z2_z2_facet": ([[2, 0, 0, 1, 0], [0, 2, 0, 0, 1], [0, 0, 1, 1, 1]], {(2,), (2, 2)}),
}


@pytest.mark.parametrize("name", sorted(TORSION_PROBLEMS))
def test_decode_labels_residues_by_lexicographic_torsion_coordinates(name):
    # residue i of a face is the i-th torsion tuple of Z^d / ZF in
    # lexicographic order, both in the signature layout and for the
    # representative the per-query reference subtracts, so the decode of a
    # degree's signature equals the reference residue sets face by face
    rows, torsion = TORSION_PROBLEMS[name]
    pres = ToricPresentation.build(rows)
    assert pres.fast_path is None
    layout = {f: residues for f, _, residues in semigroups._key_bits(pres)}
    seen = set()
    for face in pres.face_lattice.faces:
        q = pres.face_quotient(face.face_id)
        seen.add(q.torsion_invariants)
        coordinates = [tuple(y for y, m in zip(q.project(rep), q._moduli) if m >= 2)
                       for rep in face_residue_reps(pres, face.face_id)]
        assert coordinates == list(product(*map(range, q.torsion_invariants)))
        assert list(layout[face.face_id]) == coordinates
    assert seen - {()} == torsion
    faces = [f.face_id for f in pres.face_lattice.faces]
    for a in product(range(-3, 4), repeat=pres.dim):
        assert signature_residues(pres, degree_signature(pres, a)) == tuple(
            face_residues(pres, a, f) for f in faces), a


@pytest.mark.parametrize("argv", [
    ("sectors", "perfbench/problems/table2d_a.toric"),
    ("lc", "perfbench/problems/table2d_a.toric", "--maximal", "--socle", "2,4"),
    ("sectors", "corpus/dim3_hartshorne.toric"),
    ("lc", "corpus/dim3_hartshorne.toric", "--socle", "2,4"),
], ids=["table2d_a-sectors", "table2d_a-lc-socle", "hartshorne-sectors", "hartshorne-lc-socle"])
def test_reports_build_no_residue_representatives(argv):
    # the table keys and the decode index residues by torsion coordinates,
    # so a report never builds a representative vector: the code that does
    # lives in tests/oracles.py alone, and the report stays unchanged
    modules = [toriclc, la, semigroups, sectors, cohomology, grading]
    names = ("torsion_coset_reps", "unimodular_inverse", "face_residue_reps", "face_residues")
    assert [(m.__name__, n) for m in modules for n in names if hasattr(m, n)] == []
    assert not hasattr(semigroups.ToricPresentation.build([[1, 1, 1], [0, 1, 2]]), "_residue_reps")
    code, sha = digest(argv)
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert (code, sha) == (0, recorded[" ".join(argv)])


def test_two_classes_dim1():
    for name in ("dim1_weyl", "dim1_cusp", "dim1_2_5", "dim1_3_4_5",
                 "dim1_3_5_7", "dim1_4_6_9"):
        enum = enumeration(name)
        assert len(enum.classes) == 2, name
        pres = presentation(name)
        sigs = {degree_signature(pres, (0,)), degree_signature(pres, (-1,))}
        assert {c.signature for c in enum.classes} == sigs


def test_four_classes_2dim():
    enum = enumeration("dim2_normal")
    assert len(enum.classes) == 4
    sectors = {tuple(sorted(c.sector)) for c in enum.classes}
    pres = presentation("dim2_normal")
    lattice = pres.face_lattice
    s1 = _facet_face(pres, (0, 1))
    s2 = _facet_face(pres, (2, -1))
    top, bottom = lattice.top_id, lattice.bottom_id
    assert sectors == {
        (bottom, s1, s2, top) if bottom < s1 else tuple(sorted((bottom, s1, s2, top))),
        tuple(sorted((s1, top))),
        tuple(sorted((s2, top))),
        (top,),
    }


def test_empty_sector_2dim():
    pres = presentation("dim2_normal")
    enum = enumeration("dim2_normal")
    s1 = _facet_face(pres, (0, 1))
    s2 = _facet_face(pres, (2, -1))
    top = pres.face_lattice.top_id
    inventory = {s.faces: s.nonempty for s in sector_inventory(pres, enum)}
    assert inventory[frozenset({s1, s2, top})] is False
    assert inventory[frozenset({s1, top})] is True
    assert inventory[frozenset({top})] is True


def _brute_force_filters(lattice):
    """Every upward-closed set of faces holding the full cone, one subset
    of the faces at a time, in the order all_sector_filters reports."""
    n = len(lattice)
    out = []
    for mask in range(1 << n):
        chosen = {i for i in range(n) if mask >> i & 1}
        if lattice.top_id in chosen and all(
                j in chosen for i in chosen for j in range(n) if lattice.leq(i, j)):
            out.append(frozenset(chosen))
    return tuple(sorted(out, key=lambda s: (len(s), sorted(s))))


@pytest.mark.parametrize("name", [*sorted(CORPUS), "pentagon_scored"])
def test_all_sector_filters_match_brute_force(name):
    pres = (ToricPresentation.build(PENTAGON_SCORED) if name == "pentagon_scored"
            else presentation(name))
    assert sectors.all_sector_filters(pres) == _brute_force_filters(pres.face_lattice)


def test_identity2_four_classes():
    enum = enumeration("dim2_polynomial")
    assert len(enum.classes) == 4
    pres = presentation("dim2_polynomial")
    # classes are exactly the sign quadrant patterns
    sigs = {degree_signature(pres, p) for p in [(2, 3), (-1, 2), (3, -2), (-2, -2)]}
    assert len(sigs) == 4


def test_sector_reference_degrees(pres_2dim):
    s1 = _facet_face(pres_2dim, (0, 1))
    s2 = _facet_face(pres_2dim, (2, -1))
    lattice = pres_2dim.face_lattice
    assert sector_faces(pres_2dim, (0, 0)) == frozenset(
        f.face_id for f in lattice.faces
    )
    assert sector_faces(pres_2dim, (-1, 0)) == frozenset({s1, lattice.top_id})
    # the negated second column lies in neither facet region, the negated
    # third column exactly on the second facet's region boundary
    assert sector_faces(pres_2dim, (-1, -1)) == frozenset({lattice.top_id})
    assert sector_faces(pres_2dim, (-1, -2)) == frozenset({s2, lattice.top_id})


def test_sectors_upward_closed():
    for name in ("dim2_normal", "dim2_nonscored", "dim3_hartshorne"):
        pres = presentation(name)
        lattice = pres.face_lattice
        pts = list(product(range(-2, 3), repeat=pres.dim))
        for a in pts[:: max(1, len(pts) // 30)]:
            assert lattice.is_filter(sector_faces(pres, a))


def test_leq_reflexive_transitive():
    pres = presentation("dim2_scored_nonnormal")
    pts = [(0, 0), (-1, 0), (1, 2), (-2, -3), (2, 2), (-1, 2)]
    sigs = [degree_signature(pres, p) for p in pts]
    for s in sigs:
        assert signature_leq(s, s)
    for a in sigs:
        for b in sigs:
            for c in sigs:
                if signature_leq(a, b) and signature_leq(b, c):
                    assert signature_leq(a, c)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_partition_and_coarsening(name):
    # every scanned degree lies in exactly one class; equal signatures
    # force equal sectors (signature partition refines sector partition)
    pres = presentation(name)
    enum = enumeration(name)
    by_sig = {c.signature: c for c in enum.classes}
    pts = list(product(range(-3, 4), repeat=pres.dim))
    for a in pts:
        sig = degree_signature(pres, a)
        assert sig in by_sig, f"{name}: {a} outside enumerated classes"
        assert sector_faces(pres, a) == by_sig[sig].sector


def test_normal_classes_equal_sectors():
    for name in ("dim1_weyl", "dim2_normal", "dim2_polynomial", "dim3_hartshorne"):
        enum = enumeration(name)
        sectors = [c.sector for c in enum.classes]
        assert len(set(sectors)) == len(sectors), name


def test_class_poset_dim1():
    enum = enumeration("dim1_cusp")
    pres = presentation("dim1_cusp")
    poset = class_poset(enum.classes)
    sig0 = degree_signature(pres, (0,))
    first = enum.by_id(poset.linear_extension[0])
    second = enum.by_id(poset.linear_extension[1])
    assert first.signature == sig0
    assert signature_leq(second.signature, first.signature)
    assert not signature_leq(first.signature, second.signature)


def test_class_poset_2dim_order():
    pres = presentation("dim2_normal")
    enum = enumeration("dim2_normal")
    poset = class_poset(enum.classes)
    order = [tuple(sorted(enum.by_id(cid).sector)) for cid in poset.linear_extension]
    s1 = _facet_face(pres, (0, 1))
    s2 = _facet_face(pres, (2, -1))
    top, bottom = pres.face_lattice.top_id, pres.face_lattice.bottom_id
    assert order == [
        tuple(sorted((bottom, s1, s2, top))),
        tuple(sorted((s1, top))),
        tuple(sorted((s2, top))),
        (top,),
    ]


def _rescan_extension(classes, below):
    """The linear extension by rescanning: the smallest id among the
    remaining classes with no remaining strict upper, one at a time."""
    below, remaining, out = set(below), {c.class_id for c in classes}, []
    while remaining:
        out.append(min(cid for cid in remaining
                       if not any((cid, other) in below for other in remaining)))
        remaining.remove(out[-1])
    return tuple(out)


@pytest.mark.parametrize("name", [*ROUTES, "hexagon"])
def test_class_poset_extension_matches_rescan(name):
    # the strict pairs are the face-wise inclusions of the per-query residue
    # sets at the class representatives, with torsion residues (table2d_a)
    # and a 14-face cone (hexagon)
    pres, _, enum = _keyed(name)
    classes = enum.classes
    poset = class_poset(classes)
    assert poset.linear_extension == _rescan_extension(classes, poset.strictly_below)
    faces = range(len(pres.face_lattice))
    residues = {c.class_id: [face_residues(pres, c.representative, f) for f in faces]
                for c in classes}
    assert sorted(poset.strictly_below) == sorted(
        (a, b) for a in residues for b in residues
        if a != b and all(map(frozenset.issubset, residues[a], residues[b])))


@pytest.mark.parametrize("name", ROUTES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_signature_leq_is_facewise_residue_inclusion(name, data):
    pres = _keyed(name)[0]
    a, b = (data.draw(st.tuples(*[st.integers(-6, 6)] * pres.dim), label=label)
            for label in ("a", "b"))
    faces = range(len(pres.face_lattice))
    assert signature_leq(degree_signature(pres, a), degree_signature(pres, b)) == all(
        face_residues(pres, a, f) <= face_residues(pres, b, f) for f in faces)


def test_single_class_trivial_order():
    from toriclc.sectors import EquivClass

    cls = EquivClass(0, 1, (0,), frozenset({0}), ((0,),))
    poset = class_poset([cls])
    assert poset.linear_extension == (0,)
    assert poset.strictly_below == ()


def test_cyclic_witness_small(pres_2dim):
    # negated multiples of a semigroup degree share one signature
    for b in [(1, 0), (1, 1), (2, 1), (1, 2)]:
        base = degree_signature(pres_2dim, (-b[0], -b[1]))
        for m in range(2, 6):
            assert degree_signature(pres_2dim, (-m * b[0], -m * b[1])) == base


def test_class_representative_signature_consistency():
    for name in ("dim2_normal", "dim2_nonscored", "dim3_hartshorne"):
        pres = presentation(name)
        enum = enumeration(name)
        sigs = set()
        for cls in enum.classes:
            assert degree_signature(pres, cls.representative) == cls.signature
            sigs.add(cls.signature)
        assert len(sigs) == len(enum.classes)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_class_samples_distinct_and_led_by_representative(name):
    pres = presentation(name)
    for cls in enumeration(name).classes:
        assert cls.samples[0] == cls.representative, cls.class_id
        assert len(set(cls.samples)) == len(cls.samples), cls.class_id
        assert all(degree_signature(pres, a) == cls.signature for a in cls.samples)


@pytest.mark.parametrize("name", ["dim1_weyl", "dim2_nonscored", "dim3_hartshorne"])
def test_class_scan_computes_each_signature_of_final_box_once(name):
    # every route: the scan's classes are the distinct signatures of the
    # final box; on a fast path each failing-facet mask met is turned into
    # its signature once, and the per-mask memo holds one mask per
    # signature; the table path has no memo entry
    pres = ToricPresentation.build(CORPUS[name][0])
    decoded = Counter()

    class Memo(semigroups._MaskSignatures):
        def __setitem__(self, mask, sig):
            decoded.update([mask])
            super().__setitem__(mask, sig)

    pres._signatures = Memo(pres._zero_facet_masks)
    enum = sectors.enumerate_classes(pres)
    r = enum.radius
    box = list(product(range(-r, r + 1), repeat=pres.dim))
    sigs = {degree_signature(pres, a) for a in box}
    assert len({c.signature for c in enum.classes}) == len(enum.classes)
    assert {c.signature for c in enum.classes} == sigs
    assert len(enum.classes) < len(box)
    if pres.fast_path is None:
        assert not decoded and not pres._signatures
    else:
        assert max(decoded.values()) == 1
        assert set(decoded) == set(pres._signatures)
        assert sorted(pres._signatures.values()) == sorted(sigs)
    assert enum.classes == enumeration(name).classes


def _final_box_keys(pres, radius):
    """The first degree of every key on the centered box of the radius."""
    firsts = {}
    for prefix, segments in scan_lines(pres.dim, radius):
        for lo, hi in segments:
            for start, key in line_runs(pres, prefix, lo, hi):
                firsts.setdefault(key, prefix + (start,))
    return firsts


@pytest.mark.parametrize("name", ROUTES)
def test_final_box_keys_decode_to_distinct_signatures(name):
    # the class scan counts keys, signatures, as classes: on every route
    # the final box has one key per class, each decoding to the per-query
    # residue sets at a degree of the key
    pres, _, enum = _keyed(name)
    firsts = _final_box_keys(pres, enum.radius)
    faces = range(len(pres.face_lattice))
    assert set(firsts) == {c.signature for c in enum.classes}
    assert len(firsts) == len(enum.classes)
    for sig, a in firsts.items():
        assert signature_residues(pres, sig) == tuple(
            face_residues(pres, a, f) for f in faces), a


@pytest.mark.parametrize("name", ROUTES)
def test_class_scan_and_degree_signature_ask_no_membership(name, monkeypatch):
    # the scan and degree_signature read every answer off keys: no
    # per-residue membership query, through the oracle or a per-degree
    # table key
    pres = ToricPresentation.build(_keyed(name)[0].matrix)
    asked = []
    oracle = semigroups.in_face_localization
    for module in (semigroups, sectors):
        monkeypatch.setattr(
            module, "in_face_localization",
            lambda p, a, f: asked.append((a, f)) or oracle(p, a, f))
    table_key = ToricPresentation._table_key
    monkeypatch.setattr(
        ToricPresentation, "_table_key",
        lambda p, f, a, values: asked.append((a, f)) or table_key(p, f, a, values))
    enum = sectors.enumerate_classes(pres)
    for cls in enum.classes:
        assert all(degree_signature(pres, a) == cls.signature for a in cls.samples)
    for a in product(range(-3, 4), repeat=pres.dim):
        degree_signature(pres, a)
    assert not asked


def test_class_of_looks_up_the_signature():
    # every sample finds its own class; a degree whose signature the
    # enumeration lacks raises KeyError
    pres, enum = presentation("dim2_nonscored"), enumeration("dim2_nonscored")
    for cls in enum.classes:
        assert all(enum.class_of(pres, a) is cls for a in cls.samples)
    first, *rest = enum.classes
    with pytest.raises(KeyError, match="outside the enumerated classes"):
        replace(enum, classes=tuple(rest)).class_of(pres, first.representative)
    assert replace(enum, classes=tuple(rest)).class_of(pres, rest[0].representative) is rest[0]


def test_enumerate_classes_rejects_radius_or_samples_below_one():
    # a zero or negative initial radius would scan nothing, and no samples
    # per class would leave a class with no representative; None is the
    # default of either
    pres = presentation("dim2_normal")
    for options in ({"initial_radius": 0}, {"initial_radius": -2},
                    {"samples_per_class": 0}, {"samples_per_class": -1}):
        with pytest.raises(ValueError, match="must be at least 1"):
            sectors.enumerate_classes(pres, **options)
    assert sectors.enumerate_classes(pres, initial_radius=None, samples_per_class=None) == \
        enumeration("dim2_normal")


def test_signature_partition_strictly_refines_sectors_with_torsion():
    enum = enumeration("dim2_nonscored")
    sectors = {c.sector for c in enum.classes}
    assert len(enum.classes) == 13
    assert len(sectors) == 4


def test_hartshorne_classes_are_facet_sign_patterns():
    # normal presentation: classes biject with achievable sign patterns of
    # the facet values; two of the sixteen patterns are contradictory
    pres = presentation("dim3_hartshorne")
    enum = enumeration("dim3_hartshorne")
    seen = set()
    for p in product(range(-6, 7), repeat=3):
        seen.add(tuple(v >= 0 for v in pres.facet_values(p)))
    assert len(seen) == len(enum.classes) == 14
    missing = {
        m for m in product((False, True), repeat=4) if m not in seen
    }
    assert missing == {(False, True, True, False), (True, False, False, True)}


def test_partition_properties_on_random_presentations():
    import random

    from toriclc import ToricPresentation, enumerate_classes

    rng = random.Random(777)
    built = 0
    while built < 4:
        n = rng.randint(2, 4)
        rows = [[rng.randint(-2, 3) for _ in range(n)] for _ in range(2)]
        try:
            pres = ToricPresentation.build(rows)
        except Exception:
            continue
        if not pres.pointed:
            continue
        built += 1
        enum = enumerate_classes(pres)
        by_sig = {c.signature: c for c in enum.classes}
        for a in product(range(-3, 4), repeat=2):
            sig = degree_signature(pres, a)
            assert sig in by_sig, (rows, a)
            assert sector_faces(pres, a) == by_sig[sig].sector, (rows, a)
