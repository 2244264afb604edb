"""Facet exponents, exponent identities, graded-ring certificates."""

import json
import os
import random
import subprocess
import sys
from operator import add
from pathlib import Path

import pytest

from conftest import CORPUS, presentation
from oracles import face_membership_search
from report_digests import report
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


def test_grd_rejects_char_variety_where_a_face_quotient_has_torsion(tmp_path):
    # every box point passes the facet tests exactly where it lies in Q,
    # but face 7's quotient has torsion, which a scored Q cannot have: the
    # flag is refuted, and grd reports the certificate's rejection
    rows = [[1, 4, 2, 4], [-3, -3, -3, 1], [3, 1, 4, 3]]
    pres = ToricPresentation.build(rows)
    assert (pres.scored, pres.fast_path) == (False, None)
    assert pres.flag_evidence["scored"] == "certified"
    assert not pres.face_quotient(7).is_torsion_free()
    with pytest.raises(HypothesisFailed):
        char_variety_max(pres)
    path = tmp_path / "torsion.toric"
    path.write_text("matrix:\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows))
    code, text = report(["grd", str(path)])
    assert code == 0
    certificates = {c["kind"]: c for c in json.loads(text)["certificates"]}
    assert certificates["char_variety_max"]["error"].startswith("HypothesisFailed")


@pytest.mark.parametrize("name", [*SCORED, "pentagon_scored"])
def test_reentry_exponents_match_search(name):
    # each reentry exponent is the least n with n * p - alpha in the facet's
    # localization, p the first column positive on the facet, as the
    # depth-first search finds it
    pres = (ToricPresentation.build(PENTAGON_SCORED) if name == "pentagon_scored"
            else presentation(name))
    cert = char_variety_max(pres)
    alpha = interior_degree(pres)
    for s in pres.supports:
        p = next(c for c in pres.columns if s.value(c) > 0)
        facet = pres.face_lattice.facet_face_id(s.facet_id)
        n = next(n for n in range(1, pres.search_bound + 1) if face_membership_search(
            pres, la.vsub(la.vscale(n, p), alpha), facet, search_bound=1000))
        assert f"facet {s.facet_id}: reentry exponent {n}" in cert.notes, (name, s.facet_id)


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
    # a constant escape count sends every degree of -Q to one exponent
    # vector, which misses e_s(-u) = u at u = c_s > 0
    monkeypatch.setattr(semigroups.NumericalSemigroup, "escape_count", lambda ns, shift: 0)
    checks = grading._exponent_map_checks(presentation("dim2_scored_nonnormal"))
    assert checks == (("exponent_map_additive", False), ("exponent_map_injective", False))


def _exponent_map_checks_by_degree(pres) -> tuple:
    """The exponent-map checks on every pair of negated column sums with
    multipliers in {0, 1, 2}, each sum built as a vector and its facet
    values taken at the end."""
    sums = {la.zero_vector(pres.dim)}
    for c in pres.columns:
        sums = {la.vadd(x, la.vscale(m, c)) for x in sums for m in range(3)}
    exponents = {x: theta_exponents(pres, la.vneg(x)) for x in sums}
    additive = all(theta_exponents(pres, la.vneg(la.vadd(x, y)))
                   == tuple(map(add, exponents[x], exponents[y])) for x in sums for y in sums)
    injective = len(set(exponents.values())) == len(sums)
    return (("exponent_map_additive", additive), ("exponent_map_injective", injective))


@pytest.mark.parametrize("mutation", [
    None,  # the escape counts themselves
    lambda shift: shift * shift,  # injective on -Q, not additive
    lambda shift: shift % 3,  # neither
])
def test_exponent_map_checks_match_degree_reference(monkeypatch, mutation):
    # the per-facet check passes on every scored presentation, and so do
    # the exhaustive checks on sums; a map that fails the exhaustive checks
    # fails the per-facet one too.  The mutations replace the tabled escape
    # counts, |shift| < c_s; test_escape_count_matches_definition checks
    # the closed form beyond
    if mutation is not None:
        escape_count = semigroups.NumericalSemigroup.escape_count
        monkeypatch.setattr(
            semigroups.NumericalSemigroup, "escape_count",
            lambda ns, shift: mutation(shift) if abs(shift) < ns.conductor
            else escape_count(ns, shift))
    refuted = 0
    for rows in [*(rows for name, (rows, _) in CORPUS.items() if name != "dim2_nonscored"),
                 PENTAGON_SCORED]:
        pres = ToricPresentation.build(rows)
        checks = grading._exponent_map_checks(pres)
        reference = _exponent_map_checks_by_degree(pres)
        if mutation is None:
            assert checks == reference and all(ok for _, ok in checks), rows
        assert all(ok for _, ok in checks) <= all(ok for _, ok in reference), rows
        refuted += not all(ok for _, ok in reference)
    assert refuted == 0 if mutation is None else refuted > 0


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
    ("dim1_3_5_7", -5), ("dim2_scored_nonnormal", -2), ("pentagon_scored", -2)])
def test_sampled_checks_catch_one_wrong_escape_count(monkeypatch, name, shift):
    # the corpus digests pin only passing checks; an escape count off by one
    # at one shift -u, u in S_s up to the conductor of the one facet with
    # gaps, must fail the reflection check on the sampled degrees and the
    # exponent-map check, and the member check where a sampled member of Q
    # has facet value u (none on the pentagon); shifts below -c_s take
    # escape_count's closed form, which test_escape_count_matches_definition
    # checks
    pres = (ToricPresentation.build(PENTAGON_SCORED) if name == "pentagon_scored"
            else presentation(name))
    [wrong] = [ns for ns in pres.facet_semigroups if ns.gaps]
    assert -shift in wrong and -shift <= wrong.conductor
    escape_count = semigroups.NumericalSemigroup.escape_count
    monkeypatch.setattr(
        semigroups.NumericalSemigroup, "escape_count",
        lambda ns, v: escape_count(ns, v) + (ns is wrong and v == shift))
    failures = verify_exponent_identities(pres).failures
    assert any(f.startswith("reflection failed") for f in failures)
    assert any(f.startswith("member degree") for f in failures) == (name != "pentagon_scored")
    assert not any(ok for _, ok in grading._exponent_map_checks(pres))
    monkeypatch.undo()
    assert verify_exponent_identities(pres).ok
    assert all(ok for _, ok in grading._exponent_map_checks(pres))
