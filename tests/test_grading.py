"""Facet exponents, exponent identities, graded-ring certificates."""

import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from conftest import CORPUS, presentation
from oracles import face_membership_search
from report_digests import digest
from test_semigroups import PENTAGON_SCORED

from toriclc import (
    DimensionUnsupported,
    HypothesisFailed,
    IsNormal,
    NotScored,
    ToricPresentation,
    char_variety_max,
    fiber_at_orbit,
    fiber_at_origin,
    gr_generators_dim1,
    interior_degree,
    notcm_certificate,
    theta_exponents,
    verify_exponent_identities,
)
from toriclc import grading, semigroups
from toriclc import intlinalg as la


def brute_escape_count(ns, shift, window=200):
    """Independent oracle: enumerate the numerical semigroup directly."""
    return sum(1 for x in range(window) if x in ns and (x + shift) not in ns)


def brute_theta_exponent(pres, a, facet_id, window=200):
    return brute_escape_count(
        pres.facet_semigroups[facet_id], pres.supports[facet_id].value(a), window)


def test_theta_exponent_normal_is_negative_part(pres_2dim):
    for a in [(0, 0), (1, 1), (-1, -1), (2, -3), (-4, 1)]:
        vals = pres_2dim.facet_values(a)
        assert theta_exponents(pres_2dim, a) == tuple(max(0, -v) for v in vals)


def test_theta_exponent_cusp_reference(pres_cusp):
    # facet value -1 knocks out {0, 2} from <2,3>
    assert theta_exponents(pres_cusp, (-1,))[0] == 2
    assert theta_exponents(pres_cusp, (1,))[0] == 1
    assert theta_exponents(pres_cusp, (2,))[0] == 0
    for a in range(-8, 9):
        assert theta_exponents(pres_cusp, (a,))[0] == \
            brute_theta_exponent(pres_cusp, (a,), 0)


def test_theta_exponent_vanishes_on_members():
    for name in ("dim1_cusp", "dim2_normal", "dim2_scored_nonnormal"):
        pres = presentation(name)
        cols = pres.columns
        for c in cols:
            assert theta_exponents(pres, c) == (0,) * len(pres.supports)


def test_theta_exponent_large_multiple_vanishes(pres_cusp):
    ns = pres_cusp.facet_semigroups[0]
    a = (2,)
    k = ns.conductor + 3
    assert theta_exponents(pres_cusp, (k * a[0],))[0] == 0


def test_theta_exponent_requires_scored():
    pres = presentation("dim2_nonscored")
    with pytest.raises(NotScored):
        theta_exponents(pres, (1, 1))[0]


def test_theta_additive_on_negated_members():
    for name in ("dim1_cusp", "dim2_normal", "dim2_scored_nonnormal"):
        pres = presentation(name)
        cols = pres.columns
        for i in range(len(cols)):
            for j in range(len(cols)):
                a, b = cols[i], cols[j]
                s = tuple(x + y for x, y in zip(a, b))
                lhs = theta_exponents(pres, tuple(-x for x in s))
                rhs = tuple(
                    x + y
                    for x, y in zip(
                        theta_exponents(pres, tuple(-x for x in a)),
                        theta_exponents(pres, tuple(-x for x in b)),
                    )
                )
                assert lhs == rhs


SCORED = [n for n in sorted(CORPUS) if n != "dim2_nonscored"]


def graded_ring(name):
    """The two-dimensional graded ring of a non-normal dim-1 problem, built
    as notcm_certificate builds it."""
    pairs = gr_generators_dim1(presentation(name))
    return ToricPresentation.build([[u for u, _ in pairs], [v for _, v in pairs]])


DIM1_NON_NORMAL = [n for n in sorted(CORPUS) if n.startswith("dim1_") and n != "dim1_weyl"]


def _facet_semigroup_sources():
    yield from ((name, presentation(name)) for name in sorted(CORPUS))
    yield "pentagon_scored", ToricPresentation.build(PENTAGON_SCORED)
    yield from ((f"gr({name})", graded_ring(name)) for name in DIM1_NON_NORMAL)


def test_escape_table_matches_enumeration():
    checked = 0
    for name, pres in _facet_semigroup_sources():
        for s in pres.supports:
            ns = pres.facet_semigroups[s.facet_id]
            c = ns.conductor
            for t in [*range(-c - 3, c + 4), -1000, 1000]:
                # no member at or past c + |t| leaves the semigroup
                assert ns.escape_count(t) == \
                    brute_escape_count(ns, t, c + abs(t) + 1), (name, s.facet_id, t)
            checked += 1
    assert checked == 18 + 5 + 10  # corpus, pentagon and graded-ring facets


@pytest.mark.parametrize("name", SCORED)
def test_theta_exponents_match_enumeration_on_random_degrees(name):
    pres = presentation(name)
    rng = random.Random(14)
    for _ in range(60):
        a = tuple(rng.randint(-30, 30) for _ in range(pres.dim))
        assert theta_exponents(pres, a) == tuple(
            brute_theta_exponent(pres, a, s.facet_id, window=400)
            for s in pres.supports), a


@pytest.mark.parametrize("name", SCORED)
def test_exponent_identities_suite(name):
    report = verify_exponent_identities(presentation(name))
    assert report.pairs_checked >= 100
    assert report.ok, report.failures


def test_exponent_identities_rejects_nonscored():
    with pytest.raises(NotScored):
        verify_exponent_identities(presentation("dim2_nonscored"))


def test_gr_generators_cusp(pres_cusp):
    pairs = set(gr_generators_dim1(pres_cusp))
    assert pairs == {(1, 1), (0, 2), (2, 0), (0, 3), (3, 0), (1, 2), (2, 1)}


def test_gr_generators_weyl():
    pairs = set(gr_generators_dim1(presentation("dim1_weyl")))
    assert pairs == {(1, 1), (0, 1), (1, 0)}


def test_gr_generators_symmetric():
    for name in ("dim1_cusp", "dim1_2_5", "dim1_3_5_7"):
        pairs = set(gr_generators_dim1(presentation(name)))
        assert pairs == {(v, u) for u, v in pairs}


def test_gr_generators_need_dim1(pres_2dim):
    with pytest.raises(DimensionUnsupported):
        gr_generators_dim1(pres_2dim)


def brute_pair_gaps(pairs, limit):
    """Independent closure oracle for the pair semigroup."""
    reach = {(0, 0)}
    changed = True
    while changed:
        changed = False
        for u, v in list(reach):
            for pu, pv in pairs:
                w = (u + pu, v + pv)
                if w[0] + w[1] <= limit and w not in reach:
                    reach.add(w)
                    changed = True
    return {
        (u, v)
        for u in range(limit + 1)
        for v in range(limit + 1 - u)
        if (u, v) not in reach
    }


def test_notcm_cusp(pres_cusp):
    cert = notcm_certificate(pres_cusp)
    assert cert.codimension_threshold == 4
    assert set(cert.gap_pairs) == {(0, 1), (1, 0)}
    assert cert.s2_failed
    oracle = brute_pair_gaps(cert.generator_pairs, cert.codimension_threshold + 4)
    assert oracle == set(cert.gap_pairs)


def test_notcm_2_5():
    cert = notcm_certificate(presentation("dim1_2_5"))
    assert cert.codimension_threshold == 8
    assert set(cert.gap_pairs) == {
        (0, 1), (1, 0), (0, 3), (3, 0), (1, 2), (2, 1)
    }
    assert cert.s2_failed
    oracle = brute_pair_gaps(cert.generator_pairs, cert.codimension_threshold + 4)
    assert oracle == set(cert.gap_pairs)


def test_notcm_certificate_does_not_recurse_per_pair():
    # (2, 401) has threshold 800: a recursion one pair deep per frame would
    # pass a low recursion limit, which the quadrant sweep never nears
    code = ("import sys; sys.setrecursionlimit(200)\n"
            "from toriclc import ToricPresentation, notcm_certificate\n"
            "cert = notcm_certificate(ToricPresentation.build([[2, 401]]))\n"
            "print(cert.codimension_threshold, len(cert.gap_pairs), cert.s2_failed)")
    src = Path(grading.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", code],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["800", "40200", "True"]


def test_notcm_rejects_normal():
    with pytest.raises(IsNormal):
        notcm_certificate(presentation("dim1_weyl"))


def test_notcm_needs_dim1(pres_2dim):
    with pytest.raises(DimensionUnsupported):
        notcm_certificate(pres_2dim)


def test_fiber_origin_cusp(pres_cusp):
    cert = fiber_at_origin(pres_cusp)
    assert cert.verified
    data = {(g.degree, g.exponents) for g in cert.generator_monomials}
    assert data == {((-2,), (2,)), ((-3,), (3,))}


def test_fiber_origin_2dim(pres_2dim):
    cert = fiber_at_origin(pres_2dim)
    assert cert.verified
    for g, col in zip(cert.generator_monomials, pres_2dim.columns):
        assert g.exponents == pres_2dim.facet_values(col)


def test_fiber_origin_rejects_nonsimplicial(pres_hartshorne):
    with pytest.raises(HypothesisFailed):
        fiber_at_origin(pres_hartshorne)


def test_fiber_origin_rejects_nonscored():
    with pytest.raises(HypothesisFailed):
        fiber_at_origin(presentation("dim2_nonscored"))


def test_fiber_orbit_bottom_recovers_presentation(pres_cusp):
    cert = fiber_at_orbit(pres_cusp, pres_cusp.face_lattice.bottom_id)
    assert cert.poly_vars == 0
    assert cert.target_matrix == pres_cusp.matrix
    assert cert.verified


def test_fiber_orbit_identity2_axis():
    pres = presentation("dim2_polynomial")
    lattice = pres.face_lattice
    axis = next(
        f.face_id for f in lattice.faces
        if f.dim == 1 and f.column_indices == frozenset({0})
    )
    cert = fiber_at_orbit(pres, axis)
    assert cert.poly_vars == 1
    assert cert.target_matrix == ((1,),)
    assert cert.verified


def test_fiber_orbit_2dim_ray(pres_2dim):
    lattice = pres_2dim.face_lattice
    ray = next(
        f.face_id for f in lattice.faces
        if f.dim == 1 and f.column_indices == frozenset({0})
    )
    cert = fiber_at_orbit(pres_2dim, ray)
    assert cert.poly_vars == 1
    # the two columns outside the ray map to 1 and 2 in the quotient
    assert cert.target_matrix == ((1, 2),)
    assert cert.verified


def test_fiber_orbit_rejects_top(pres_2dim):
    with pytest.raises(HypothesisFailed):
        fiber_at_orbit(pres_2dim, pres_2dim.face_lattice.top_id)


def test_interior_degree(pres_2dim):
    alpha = interior_degree(pres_2dim)
    assert all(v > 0 for v in pres_2dim.facet_values(alpha))
    assert alpha == (1, 1)  # single interior column found at size one


def test_char_variety_weyl():
    cert = char_variety_max(presentation("dim1_weyl"))
    assert cert.verified
    assert [(g.degree, g.exponents) for g in cert.generator_monomials] == \
        [((-1,), (1,))]


def test_char_variety_2dim(pres_2dim):
    cert = char_variety_max(pres_2dim)
    assert cert.verified
    for g, col in zip(cert.generator_monomials, pres_2dim.columns):
        assert g.exponents == tuple(max(0, v) for v in pres_2dim.facet_values(col))


def test_char_variety_hartshorne_accepts_nonsimplicial(pres_hartshorne):
    cert = char_variety_max(pres_hartshorne)
    assert cert.verified


def test_char_variety_on_scored_table_path_reads_asked_faces_alone(monkeypatch):
    # scored on its box but on the table path, as face 7's quotient has
    # torsion: every localization check of the certificate answers as the
    # depth-first search does, and grows no table but those of the faces
    # it asks; the reentry loop reaches n = 62 on facet 2, where growing
    # the other faces' tables would exceed the table state limit
    pres = ToricPresentation.build([[1, 4, 2, 4], [-3, -3, -3, 1], [3, 1, 4, 3]])
    assert (pres.scored, pres.fast_path) == (True, None)
    assert not pres.face_quotient(7).is_torsion_free()
    caps = {f: tbl.caps for f, tbl in pres._tables.items()}
    asked = set()
    localization_faces = grading.localization_faces

    def checked(p, a, face_ids):
        present = localization_faces(p, a, face_ids)
        assert present == frozenset(
            f for f in face_ids if face_membership_search(p, a, f, search_bound=1000)), a
        asked.update(face_ids)
        return present

    monkeypatch.setattr(grading, "localization_faces", checked)
    monkeypatch.setattr(grading, "in_face_localization", lambda p, a, f: f in checked(p, a, (f,)))
    cert = char_variety_max(pres)
    assert cert.verified
    assert "facet 2: reentry exponent 62" in cert.notes
    grown = {f for f, tbl in pres._tables.items() if caps.get(f) != tbl.caps}
    assert grown and grown <= asked


def test_grd_runs_exponent_map_checks_once_per_presentation(monkeypatch):
    # origin fiber and characteristic variety share one run; each orbit
    # fiber certifies a quotient presentation of its own
    expected = {name: 1 for name in CORPUS if name.startswith("dim1_")}
    expected.update(dim2_normal=3, dim2_polynomial=3, dim2_scored_nonnormal=3,
                    dim2_nonscored=0, dim3_hartshorne=1)
    runs = Counter()
    checks = grading._exponent_map_checks

    def counted(pres):
        runs[job] += 1
        return checks(pres)

    monkeypatch.setattr(grading, "_exponent_map_checks", counted)
    for job in sorted(CORPUS):
        assert digest(["grd", f"corpus/{job}.toric"])[0] == 0
    assert runs == Counter(expected)
    assert sum(runs.values()) == 16


@pytest.mark.parametrize("name", ["dim1_cusp", "dim2_normal", "dim2_scored_nonnormal"])
def test_shared_exponent_map_checks_do_not_depend_on_call_order(name):
    rows = CORPUS[name][0]
    pres = ToricPresentation.build(rows)
    char_first = char_variety_max(pres)
    origin_second = fiber_at_origin(pres)
    assert char_first == char_variety_max(ToricPresentation.build(rows))
    assert origin_second == fiber_at_origin(ToricPresentation.build(rows))
    assert char_first.verified and origin_second.verified


def test_exponent_map_check_rejects_a_constant_map(monkeypatch):
    # a constant map is additive at zero but sends distinct degrees to one
    # exponent vector
    monkeypatch.setattr(grading, "_exponents_at",
                        lambda semigroups, values: (0,) * len(semigroups))
    checks = grading._exponent_map_checks(ToricPresentation.build(CORPUS["dim2_normal"][0]))
    assert checks == (("exponent_map_additive", True), ("exponent_map_injective", False))


def _exponent_map_checks_by_degree(pres) -> tuple:
    """The exponent-map checks on the degrees themselves: the same draws,
    each sum built as a vector and its facet values taken at the end."""
    rng = random.Random(grading._RNG_SEED)
    cols = [c for c in pres.columns if not la.is_zero_vector(c)]
    semigroups_ = pres.facet_semigroups
    additive = injective = True
    seen = {}
    for _ in range(grading._EXPONENT_MAP_SAMPLES):
        x = y = la.zero_vector(pres.dim)
        for c in cols:
            x = la.vadd(x, la.vscale(rng.randint(0, 2), c))
            y = la.vadd(y, la.vscale(rng.randint(0, 2), c))
        ex, ey, exy = (
            grading._exponents_at(semigroups_, [-v for v in pres.facet_values(z)])
            for z in (x, y, la.vadd(x, y)))
        additive &= exy == tuple(a + b for a, b in zip(ex, ey))
        injective &= seen.setdefault(ex, x) == x
    return (("exponent_map_additive", additive), ("exponent_map_injective", injective))


@pytest.mark.parametrize("exponents", [
    None,  # the facet exponents themselves
    lambda sgs, values: tuple(max(0, v) for v in values),  # not additive
    lambda sgs, values: (sum(values) % 3,),  # neither
])
def test_exponent_map_checks_match_degree_reference(monkeypatch, exponents):
    # summing column facet values draws the same sums as summing degrees,
    # so every check result agrees, also for maps that fail them
    if exponents is not None:
        monkeypatch.setattr(grading, "_exponents_at", exponents)
    results = set()
    for rows in [*(rows for rows, _ in CORPUS.values()), PENTAGON_SCORED]:
        pres = ToricPresentation.build(rows)
        checks = grading._exponent_map_checks(pres)
        assert checks == _exponent_map_checks_by_degree(pres), rows
        results.add(checks)
    if exponents is not None:
        assert any(not ok for checks in results for _, ok in checks)


def test_non_normal_build_tables_only_the_inner_box():
    # the graded ring of dim1_4_6_9 has a hole inside its (10, 10)
    # verification box, so its normality box (21, 21) is never tabled
    pres = graded_ring("dim1_4_6_9")
    assert pres.verification_box == (10, 10)
    assert tuple(semigroups._normal_caps(pres).values()) == (21, 21)
    assert pres.normal is False
    assert pres._tables[pres.face_lattice.bottom_id].caps == (10, 10)


def test_char_variety_rejects_nonscored():
    with pytest.raises(HypothesisFailed):
        char_variety_max(presentation("dim2_nonscored"))


@pytest.mark.parametrize("name, shift", [
    ("dim1_3_5_7", -5), ("dim2_scored_nonnormal", -3), ("pentagon_scored", -3)])
def test_sampled_checks_catch_one_wrong_escape_count(monkeypatch, name, shift):
    # the corpus digests pin only passing checks; an escape count off by one
    # at one shift of one facet, a shift that the sampled degrees and sums
    # reach, must fail the reflection, member and exponent-map checks
    pres = (ToricPresentation.build(PENTAGON_SCORED) if name == "pentagon_scored"
            else presentation(name))
    wrong = pres.facet_semigroups[0]
    escape_count = semigroups.NumericalSemigroup.escape_count
    monkeypatch.setattr(
        semigroups.NumericalSemigroup, "escape_count",
        lambda ns, v: escape_count(ns, v) + (ns is wrong and v == shift))
    failures = verify_exponent_identities(pres).failures
    assert any(f.startswith("reflection failed") for f in failures)
    assert any(f.startswith("member degree") for f in failures)
    assert not all(ok for _, ok in grading._exponent_map_checks(pres))
    monkeypatch.undo()
    assert verify_exponent_identities(pres).ok
    assert all(ok for _, ok in grading._exponent_map_checks(pres))
