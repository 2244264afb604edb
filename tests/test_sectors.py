"""Signatures, class enumeration, sector partition, class order."""

from collections import Counter
from itertools import product

import pytest

from conftest import CORPUS, enumeration, presentation
from test_semigroups import PENTAGON_SCORED, _keyed

from toriclc import (
    ToricPresentation,
    class_poset,
    degree_signature,
    face_residues,
    sector_faces,
    sector_inventory,
    signature_leq,
)
from toriclc import sectors, semigroups
from toriclc.sectors import face_residue_reps
from toriclc.semigroups import degree_key, key_residues, line_runs, scan_lines

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


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_class_poset_extension_matches_rescan(name):
    classes = enumeration(name).classes
    poset = class_poset(classes)
    assert poset.linear_extension == _rescan_extension(classes, poset.strictly_below)
    assert sorted(poset.strictly_below) == sorted(
        (a.class_id, b.class_id) for a in classes for b in classes
        if a is not b and signature_leq(a.signature, b.signature))


def test_single_class_trivial_order():
    from toriclc.sectors import EquivClass, Signature

    cls = EquivClass(0, Signature((frozenset({0}),)), (0,), frozenset({0}), ((0,),))
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
def test_class_scan_computes_each_signature_of_final_box_once(name, monkeypatch):
    # every route: the scan collects the keys of the final box and decodes
    # each once, for its class, in class order; the per-key memo holds
    # exactly those keys
    pres = ToricPresentation.build(CORPUS[name][0])
    decoded = Counter()
    monkeypatch.setattr(
        sectors, "key_residues",
        lambda p, key: decoded.update([key]) or key_residues(p, key))
    enum = sectors.enumerate_classes(pres)
    r = enum.radius
    box = list(product(range(-r, r + 1), repeat=pres.dim))
    keys = {degree_key(pres, a) for a in box}
    assert max(decoded.values()) == 1
    assert set(decoded) == keys
    assert len(decoded) == len(enum.classes) < len(box)
    assert set(pres._residues_by_key) == keys
    assert [c.signature.residues for c in enum.classes] == [
        key_residues(pres, key) for key in decoded]
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
    # the class scan counts keys as classes: on every route, distinct keys
    # of the final box decode to distinct signatures, each the per-query
    # residue sets at a degree of the key
    pres, _, enum = _keyed(name)
    firsts = _final_box_keys(pres, enum.radius)
    faces = range(len(pres.face_lattice))
    signatures = {key: key_residues(pres, key) for key in firsts}
    assert len(set(signatures.values())) == len(firsts) == len(enum.classes)
    for key, a in firsts.items():
        assert signatures[key] == tuple(face_residues(pres, a, f) for f in faces), a


@pytest.mark.parametrize("name", ROUTES)
def test_class_scan_and_degree_signature_ask_no_membership(name, monkeypatch):
    # the scan and degree_signature read every answer off keys: no
    # per-residue membership query, through the oracle or a table lookup
    pres = ToricPresentation.build(_keyed(name)[0].matrix)
    asked = []
    oracle = semigroups.in_face_localization
    for module in (semigroups, sectors):
        monkeypatch.setattr(
            module, "in_face_localization",
            lambda p, a, f: asked.append((a, f)) or oracle(p, a, f))
    table_membership = ToricPresentation._table_membership
    monkeypatch.setattr(
        ToricPresentation, "_table_membership",
        lambda p, a, f: asked.append((a, f)) or table_membership(p, a, f))
    enum = sectors.enumerate_classes(pres)
    for cls in enum.classes:
        assert all(degree_signature(pres, a) == cls.signature for a in cls.samples)
    for a in product(range(-3, 4), repeat=pres.dim):
        degree_signature(pres, a)
    assert not asked


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
