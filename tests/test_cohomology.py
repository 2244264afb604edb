"""Complex slices, ranks, module assembly, socle probes."""

from collections import Counter
from itertools import combinations, product

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import CORPUS, REPO, enumeration, presentation, reference_cech_ranks

from toriclc import (
    GeneratorNotInSemigroup,
    MonomialIdeal,
    ToricError,
    ToricPresentation,
    assemble_module,
    cech_ranks,
    class_poset,
    in_semigroup,
    ishida_ranks,
    local_cohomology_max,
    localization_faces,
    module_support,
    sector_faces,
    smallest_containing_face,
    socle_probe,
)
from toriclc import cohomology, semigroups
from toriclc import intlinalg as la
from toriclc.cohomology import cech_slice, ishida_slice
from toriclc.problems import parse_problem_file


def all_faces(pres):
    return frozenset(f.face_id for f in pres.face_lattice.faces)


def test_ideal_validation(pres_2dim):
    with pytest.raises(GeneratorNotInSemigroup):
        MonomialIdeal.from_degrees(pres_2dim, [(1, 3)])
    ideal = MonomialIdeal.from_degrees(pres_2dim, [(1, 1), (1, 1)])
    assert ideal.generator_degrees == ((1, 1),)
    maximal = MonomialIdeal.maximal_ideal(pres_2dim)
    assert maximal.is_maximal
    assert len(maximal.generator_degrees) == 3


def test_ishida_top_sector_only(pres_2dim):
    top = pres_2dim.face_lattice.top_id
    assert ishida_ranks(pres_2dim, frozenset({top})) == (0, 0, 1)


def test_ishida_full_filter_acyclic(pres_2dim):
    assert ishida_ranks(pres_2dim, all_faces(pres_2dim)) == (0, 0, 0)


def test_ishida_empty_filter(pres_2dim):
    assert ishida_ranks(pres_2dim, frozenset()) == (0, 0, 0)


def test_ishida_rejects_non_filter(pres_2dim):
    bottom = pres_2dim.face_lattice.bottom_id
    with pytest.raises(AssertionError):
        ishida_slice(pres_2dim, frozenset({bottom}))


def test_local_cohomology_max_2dim(pres_2dim):
    enum = enumeration("dim2_normal")
    desc = local_cohomology_max(pres_2dim, enum)
    top = pres_2dim.face_lattice.top_id
    assert desc.pieces == ((frozenset({top}), 2, 1),)
    assert desc.length == 1


def test_local_cohomology_max_identity2():
    pres = presentation("dim2_polynomial")
    desc = local_cohomology_max(pres, enumeration("dim2_polynomial"))
    top = pres.face_lattice.top_id
    assert desc.pieces == ((frozenset({top}), 2, 1),)


def test_local_cohomology_max_dim1():
    pres = presentation("dim1_cusp")
    desc = local_cohomology_max(pres, enumeration("dim1_cusp"))
    top = pres.face_lattice.top_id
    assert desc.pieces == ((frozenset({top}), 1, 1),)


def test_cech_2dim_interior_generator(pres_2dim):
    ideal = MonomialIdeal.from_degrees(pres_2dim, [(1, 1)])
    assert cech_ranks(pres_2dim, ideal, (-1, -1)) == (0, 1)
    assert cech_ranks(pres_2dim, ideal, (0, 0)) == (0, 0)
    assert cech_ranks(pres_2dim, ideal, (2, 1)) == (0, 0)


def test_cech_hartshorne_reference_degree(pres_hartshorne):
    ideal = MonomialIdeal.from_degrees(pres_hartshorne, [(1, 0, 0), (1, 1, 0)])
    assert cech_ranks(pres_hartshorne, ideal, (-2, -1, 0)) == (0, 0, 1)
    assert cech_ranks(pres_hartshorne, ideal, (0, 0, 0)) == (0, 0, 0)


def test_cech_euler_characteristic(pres_hartshorne):
    ideal = MonomialIdeal.from_degrees(pres_hartshorne, [(1, 0, 0), (1, 1, 0)])
    for a in product(range(-3, 3), repeat=3):
        labels, diffs = cech_slice(pres_hartshorne, ideal, a)
        ranks = cech_ranks(pres_hartshorne, ideal, a)
        lhs = sum((-1) ** i * r for i, r in enumerate(ranks))
        rhs = sum((-1) ** i * len(l) for i, l in enumerate(labels))
        assert lhs == rhs


def test_assemble_2dim_series(pres_2dim):
    enum = enumeration("dim2_normal")
    poset = class_poset(enum.classes)
    ideal = MonomialIdeal.from_degrees(pres_2dim, [(1, 1)])
    module = assemble_module(pres_2dim, ideal, enum, poset)
    assert module.length == 3
    assert module.length_of(1) == 3
    series = module.series_of(1)
    assert [mult for _, mult in series] == [1, 1, 1]
    lattice = pres_2dim.face_lattice
    s_by_id = {s.coefficients: s.facet_id for s in pres_2dim.supports}
    s1 = lattice.facet_face_id(s_by_id[(0, 1)])
    s2 = lattice.facet_face_id(s_by_id[(2, -1)])
    sectors = [enum.by_id(cid).sector for cid, _ in series]
    assert sectors == [
        frozenset({s1, lattice.top_id}),
        frozenset({s2, lattice.top_id}),
        frozenset({lattice.top_id}),
    ]


def test_assemble_hartshorne_h2_simple(pres_hartshorne):
    enum = enumeration("dim3_hartshorne")
    ideal = MonomialIdeal.from_degrees(pres_hartshorne, [(1, 0, 0), (1, 1, 0)])
    module = assemble_module(pres_hartshorne, ideal, enum)
    assert module.length_of(2) == 1
    ((cid, mult),) = module.series_of(2)
    assert mult == 1
    lattice = pres_hartshorne.face_lattice
    sigma12 = next(
        f.face_id for f in lattice.faces
        if f.dim == 2 and f.column_indices == frozenset({0, 1})
    )
    assert enum.by_id(cid).sector == frozenset({sigma12, lattice.top_id})


def test_assemble_dim1_localization():
    pres = presentation("dim1_cusp")
    enum = enumeration("dim1_cusp")
    ideal = MonomialIdeal.from_degrees(pres, [(2,)])
    module = assemble_module(pres, ideal, enum)
    assert module.length == 1
    ((cid, mult),) = module.series_of(1)
    assert mult == 1
    # the factor is the class of degrees outside the semigroup
    assert enum.by_id(cid).sector == frozenset({pres.face_lattice.top_id})


@pytest.mark.parametrize("name", [*sorted(CORPUS), "hexagon", "square5", "cube", "disk16"])
def test_ishida_equals_cech_for_maximal_ideal(name):
    # dual-route check on a small box, radius 1 on the benchmark problems;
    # acceptance runs the full-size boxes on the corpus
    if name in CORPUS:
        pres, radius = presentation(name), 2
    else:
        pres, radius = _bench_problem(name), 1
    ideal = MonomialIdeal.maximal_ideal(pres)
    for a in product(range(-radius, radius + 1), repeat=pres.dim):
        icoh = ishida_ranks(pres, sector_faces(pres, a))
        ccoh = cech_ranks(pres, ideal, a)
        width = max(len(icoh), len(ccoh))
        icoh = tuple(icoh) + (0,) * (width - len(icoh))
        ccoh = tuple(ccoh) + (0,) * (width - len(ccoh))
        assert icoh == ccoh, (name, a)


def test_cech_term_support_class_constant(pres_2dim):
    # the support of every localization term is a union of classes
    enum = enumeration("dim2_normal")
    ideal = MonomialIdeal.maximal_ideal(pres_2dim)
    for a in product(range(-3, 4), repeat=2):
        cls = enum.class_of(pres_2dim, a)
        labels_a, _ = cech_slice(pres_2dim, ideal, a)
        labels_r, _ = cech_slice(pres_2dim, ideal, cls.representative)
        assert labels_a == labels_r


def test_full_group_length_equals_class_count():
    # the top localization supports every class exactly once: a class in
    # the semigroup has the zero slice, and every other class holds the
    # empty chain, once, in cohomological degree 1
    for name in ("dim1_cusp", "dim2_normal", "dim2_nonscored"):
        pres = presentation(name)
        enum = enumeration(name)
        ideal = MonomialIdeal.maximal_ideal(pres)
        for cls in enum.classes:
            labels, _ = cech_slice(pres, ideal, cls.representative)
            if in_semigroup(pres, cls.representative):
                assert labels == []
            else:
                assert labels[:2] == [[], [()]]


def test_socle_polynomial_ring():
    pres = presentation("dim2_polynomial")
    ideal = MonomialIdeal.maximal_ideal(pres)
    (probe,) = socle_probe(pres, ideal, [2], [3])
    assert probe.counts == ((3, 1),)
    assert probe.degrees_by_radius[0][1] == ((-1, -1),)


def test_socle_hartshorne_counts(pres_hartshorne):
    ideal = MonomialIdeal.from_degrees(pres_hartshorne, [(1, 0, 0), (1, 1, 0)])
    (probe,) = socle_probe(pres_hartshorne, ideal, [2], [5])
    assert probe.counts == ((5, 6),)
    assert probe.degrees_by_radius[0][1] == tuple(
        (-2, -1, z) for z in range(6)
    )


def test_cech_differentials_square_to_zero(pres_hartshorne):
    ideal = MonomialIdeal.maximal_ideal(pres_hartshorne)
    for a in [(0, 0, 0), (-1, -1, -1), (2, 1, -1), (-3, 2, 0)]:
        labels, diffs = cech_slice(pres_hartshorne, ideal, a)
        for k in range(len(diffs) - 1):
            rows_lo, rows_hi = diffs[k], diffs[k + 1]
            if not rows_lo or not rows_hi:
                continue
            for i in range(len(labels[k + 2])):
                for j in range(len(labels[k])):
                    total = sum(
                        rows_hi[i][m] * rows_lo[m][j]
                        for m in range(len(labels[k + 1]))
                    )
                    assert total == 0


def test_socle_zero_module():
    pres = presentation("dim2_polynomial")
    ideal = MonomialIdeal.maximal_ideal(pres)
    (probe,) = socle_probe(pres, ideal, [1], [2, 4])
    assert probe.counts == ((2, 0), (4, 0))


def test_ishida_euler_characteristic(pres_hartshorne):
    for a in product(range(-2, 3), repeat=3):
        faces = sector_faces(pres_hartshorne, a)
        labels, _ = ishida_slice(pres_hartshorne, faces)
        ranks = ishida_ranks(pres_hartshorne, faces)
        lhs = sum((-1) ** i * r for i, r in enumerate(ranks))
        rhs = sum((-1) ** i * len(l) for i, l in enumerate(labels))
        assert lhs == rhs


def test_socle_empty_when_facets_pin_support(pres_2dim):
    # two support functions vanish on generator columns, so no degree can
    # leave the complement of the semigroup under every translate
    ideal = MonomialIdeal.from_degrees(pres_2dim, [(1, 1)])
    (probe,) = socle_probe(pres_2dim, ideal, [1], [3, 6])
    assert probe.counts == ((3, 0), (6, 0))


def test_module_support_rejects_negative_degree(pres_hartshorne):
    ideal = MonomialIdeal.from_degrees(pres_hartshorne, CORPUS["dim3_hartshorne"][1])
    with pytest.raises(ValueError):
        module_support(pres_hartshorne, ideal, -1, (0, 0, 0))
    with pytest.raises(ValueError):
        socle_probe(pres_hartshorne, ideal, [2, -1], [2])


def test_module_support_empty_above_generator_count(pres_hartshorne):
    ideal = MonomialIdeal.from_degrees(pres_hartshorne, CORPUS["dim3_hartshorne"][1])
    t = len(ideal.generator_degrees)
    assert module_support(pres_hartshorne, ideal, t, (-2, -1, 0))
    assert not module_support(pres_hartshorne, ideal, t + 1, (-2, -1, 0))
    (probe,) = socle_probe(pres_hartshorne, ideal, [t + 1], [2])
    assert probe.counts == ((2, 0),)


def _reference_socle_degrees(pres, ideal, degree, radius):
    """Socle degrees of one cohomological degree in the centered box, in
    lexicographic order, from module_support at every point and translate."""
    cols = [c for c in pres.columns if any(c)]
    return tuple(
        a for a in product(range(-radius, radius + 1), repeat=pres.dim)
        if module_support(pres, ideal, degree, a)
        and not any(module_support(pres, ideal, degree, tuple(x + y for x, y in zip(a, c)))
                    for c in cols)
    )


@pytest.mark.parametrize("name,ideal_kind", [
    *((name, "file") for name in sorted(CORPUS) if CORPUS[name][1] != "maximal"),
    *((name, "maximal") for name in sorted(CORPUS)),
])
def test_socle_probe_walks_once_for_every_degree(name, ideal_kind):
    pres = presentation(name)
    ideal = (MonomialIdeal.maximal_ideal(pres) if ideal_kind == "maximal"
             else MonomialIdeal.from_degrees(pres, CORPUS[name][1]))
    # every cohomological degree, one above the generator count, in reverse
    degrees = list(range(len(ideal.generator_degrees) + 1, -1, -1))
    joint = socle_probe(pres, ideal, degrees, [1, 3])
    assert [p.cohomological_degree for p in joint] == degrees
    for i, probe in zip(degrees, joint):
        assert socle_probe(pres, ideal, [i], [1, 3]) == (probe,)
        assert probe.degrees_by_radius[-1] == (
            3, _reference_socle_degrees(pres, ideal, i, 3))
    assert socle_probe(pres, ideal, [], [1, 3]) == ()


@pytest.mark.parametrize("name,ideal_kind", [
    ("dim3_hartshorne", "file"),
    ("dim2_scored_nonnormal", "maximal"),
    ("dim2_nonscored", "maximal"),
    ("pentagon_scored", "bench"),
])
def test_socle_probe_matches_per_degree_reference(name, ideal_kind):
    # the probe decides whole pieces of runs at once; the reference asks
    # every degree of the box and every column translate of it, on the
    # normal, scored (nonzero conductors on the pentagon) and table routes
    pres, ideal = _problem_and_ideal(name, ideal_kind)
    degrees = list(range(len(ideal.generator_degrees) + 1))
    for i, probe in zip(degrees, socle_probe(pres, ideal, degrees, [2, 6])):
        reference = _reference_socle_degrees(pres, ideal, i, 6)
        assert probe.degrees_by_radius == (
            (2, tuple(a for a in reference if max(map(abs, a)) <= 2)), (6, reference))


@pytest.mark.parametrize("radii", [[], [-1], [3, -2]])
def test_socle_probe_rejects_bad_radii(pres_hartshorne, radii):
    ideal = MonomialIdeal.from_degrees(pres_hartshorne, CORPUS["dim3_hartshorne"][1])
    with pytest.raises(ValueError):
        socle_probe(pres_hartshorne, ideal, [2], radii)


def test_socle_probe_evaluates_support_once_per_degree(monkeypatch):
    # the probe memoizes Cech ranks, hence support, by key on every route:
    # once per key, every key of the box is asked, and there are fewer keys
    # than facet masks (normal fast path) or than degrees (table path)
    asked = []
    monkeypatch.setattr(
        cohomology, "cech_ranks",
        lambda p, i, a: asked.append(tuple(a)) or cech_ranks(p, i, a))
    for name, count in (("dim3_hartshorne", 6), ("dim2_nonscored", 3)):
        pres = ToricPresentation.build(CORPUS[name][0])
        ideal = (MonomialIdeal.maximal_ideal(pres) if CORPUS[name][1] == "maximal"
                 else MonomialIdeal.from_degrees(pres, CORPUS[name][1]))
        asked.clear()
        (probe,) = socle_probe(pres, ideal, [2], [5])
        assert probe.counts == ((5, count),)
        keys = Counter(semigroups.degree_key(pres, a) for a in asked)
        assert max(keys.values()) == 1
        box = product(range(-5, 6), repeat=pres.dim)
        assert {semigroups.degree_key(pres, a) for a in box} <= set(keys)
        assert len(asked) < (11 ** pres.dim if pres.fast_path is None
                             else 2 ** len(pres.supports))


def _bench_problem(name):
    return ToricPresentation.build(
        parse_problem_file(REPO / "perfbench" / "problems" / f"{name}.toric").matrix_rows)


def _problem_and_ideal(name, ideal_kind):
    """A corpus problem with its maximal or file ideal, or a benchmark
    problem with its maximal ideal."""
    if ideal_kind == "bench":
        pres = _bench_problem(name)
        return pres, MonomialIdeal.maximal_ideal(pres)
    pres = presentation(name)
    return pres, (MonomialIdeal.maximal_ideal(pres) if ideal_kind == "maximal"
                  else MonomialIdeal.from_degrees(pres, CORPUS[name][1]))


@pytest.mark.parametrize("name,ideal_kind", [
    *((name, "maximal") for name in sorted(CORPUS)),
    *((name, "file") for name in sorted(CORPUS) if CORPUS[name][1] != "maximal"),
    ("table2d_a", "bench"),
    ("pentagon_scored", "bench"),
])
def test_cech_ranks_match_per_subset_reference(name, ideal_kind):
    # the reference builds the complex on every generator, the table on
    # one generator per minimal face
    pres, ideal = _problem_and_ideal(name, ideal_kind)
    for a in product(range(-3, 4), repeat=pres.dim):
        assert cech_ranks(pres, ideal, a) == reference_cech_ranks(pres, ideal, a), a


def _minimal_generator_faces(pres, ideal):
    lattice = pres.face_lattice
    faces = {smallest_containing_face(pres, g) for g in ideal.generator_degrees}
    return {f for f in faces if not any(g != f and lattice.leq(g, f) for g in faces)}


@pytest.mark.parametrize("name,ideal_kind", [
    *((name, "maximal") for name in sorted(CORPUS)),
    *((name, "file") for name in sorted(CORPUS) if CORPUS[name][1] != "maximal"),
    ("hexagon", "bench"),
    ("square5", "bench"),
])
def test_cech_table_subsets_are_sets_of_minimal_faces(name, ideal_kind):
    # the table's faces are the joins of all subsets of the minimal faces,
    # each join the smallest face above the subset, found by brute force
    pres, ideal = _problem_and_ideal(name, ideal_kind)
    lattice = pres.face_lattice
    minimal = sorted(_minimal_generator_faces(pres, ideal))
    joins = {
        min((f.face_id for f in lattice.faces
             if all(lattice.leq(m, f.face_id) for m in subset)),
            key=lambda f: lattice.face(f).dim)
        for size in range(len(minimal) + 1)
        for subset in combinations(minimal, size)
    }
    table = cohomology._cech_table(pres, ideal)
    assert table.faces[0] == lattice.bottom_id
    assert sorted(table.faces) == sorted(joins)
    dims = [lattice.face(f).dim for f in table.faces]
    assert dims == sorted(dims)


def test_cech_table_asks_membership_once_per_generator(monkeypatch):
    calls = []
    member = semigroups.in_semigroup
    monkeypatch.setattr(
        semigroups, "in_semigroup",
        lambda p, a: calls.append(tuple(a)) or member(p, a))
    pres = ToricPresentation.build(CORPUS["dim2_nonscored"][0])
    ideal = MonomialIdeal.maximal_ideal(pres)
    calls.clear()
    table = cohomology._cech_table(pres, ideal)
    assert sorted(calls) == sorted(ideal.generator_degrees)
    # five generators, two of them on the rays of a two-dimensional cone
    assert len(ideal.generator_degrees) == 5
    assert len(table.faces) == 4
    for name in ("hexagon", "square5"):
        pres = _bench_problem(name)
        ideal = MonomialIdeal.maximal_ideal(pres)
        calls.clear()
        cohomology._cech_table(pres, ideal)
        assert len(calls) <= len(ideal.generator_degrees)


def test_cech_rank_memo_bounded_by_faces(pres_hartshorne):
    ideal = MonomialIdeal.from_degrees(pres_hartshorne, CORPUS["dim3_hartshorne"][1])
    socle_probe(pres_hartshorne, ideal, [2], [10])
    table = pres_hartshorne._cech_tables[ideal.generator_degrees]
    assert 0 < len(table.ranks) <= 2 ** len(table.faces)


def test_cech_ranks_hit_queries_faces_and_builds_nothing(monkeypatch):
    pres = ToricPresentation.build(CORPUS["dim2_normal"][0])
    ideal = MonomialIdeal.maximal_ideal(pres)
    queries, slices = [], []
    monkeypatch.setattr(
        cohomology, "localization_faces",
        lambda p, a, faces: queries.append(tuple(faces)) or localization_faces(p, a, faces))
    monkeypatch.setattr(
        cohomology, "cech_slice",
        lambda p, i, a: slices.append(a) or cech_slice(p, i, a))
    miss = cech_ranks(pres, ideal, (-1, -1))
    assert len(slices) == 1
    table = pres._cech_tables[ideal.generator_degrees]
    assert table.faces[0] == pres.face_lattice.bottom_id
    first = table.faces
    queries.clear()
    # (-2, -2) lies in the same localizations as (-1, -1)
    assert cech_ranks(pres, ideal, (-2, -2)) == miss
    assert queries == [first]
    assert len(slices) == 1


def test_socle_probe_asks_cech_ranks_once_per_key(monkeypatch):
    # the probe asks cech_ranks at most once per degree key, and the faces
    # present are read off the per-key decode, whose memo then holds those
    # keys and the one of the degree that built the per-ideal table
    pres = ToricPresentation.build(CORPUS["dim3_hartshorne"][0])
    assert pres.fast_path == "normal"
    ideal = MonomialIdeal.from_degrees(pres, CORPUS["dim3_hartshorne"][1])
    cech_ranks(pres, ideal, (0, 0, 0))  # builds the per-ideal table first
    asked, slices = [], []
    monkeypatch.setattr(
        cohomology, "cech_ranks",
        lambda p, i, a: asked.append(tuple(a)) or cech_ranks(p, i, a))
    monkeypatch.setattr(
        cohomology, "cech_slice",
        lambda p, i, a: slices.append(tuple(a)) or cech_slice(p, i, a))
    (probe,) = socle_probe(pres, ideal, [2], [5])
    assert probe.counts == ((5, 6),)
    keys = Counter(semigroups.degree_key(pres, a) for a in asked)
    assert max(keys.values()) == 1
    assert set(pres._residues_by_key) == set(keys) | {semigroups.degree_key(pres, (0, 0, 0))}
    # one slice per new memo entry; the entry for (0, 0, 0) was already there
    table = pres._cech_tables[ideal.generator_degrees]
    assert len(slices) == len(table.ranks) - 1


# most random matrices do not generate the integer lattice
@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(data=st.data())
def test_cech_ranks_match_reference_on_random_ideals(data):
    # random plane semigroups, most of them not normal, and ideals on up to
    # four generators, which may share minimal faces or not lie on rays
    columns = data.draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                                 min_size=2, max_size=4), label="columns")
    try:
        pres = ToricPresentation.build(la.transpose(la.mat(columns)))
    except ToricError:
        assume(False)
    assume(pres.pointed)
    nonzero = [c for c in pres.columns if any(c)]
    # mostly zero coefficients, so that generators often lie on rays
    coefficients = st.lists(st.sampled_from((0, 0, 0, 1, 2)), min_size=len(nonzero),
                            max_size=len(nonzero)).filter(any)
    ideal = MonomialIdeal.from_degrees(pres, [
        tuple(sum(k * c[i] for k, c in zip(coeffs, nonzero)) for i in range(2))
        for coeffs in data.draw(st.lists(coefficients, min_size=1, max_size=4),
                                label="generators")
    ])
    for a in product(range(-3, 4), repeat=2):
        assert cech_ranks(pres, ideal, a) == reference_cech_ranks(pres, ideal, a), a


def test_cech_slice_rejects_support_not_closed_upward(monkeypatch):
    # the bottom face present without the faces above it: a raise, not an
    # assert, so the check also runs under python -O
    pres = ToricPresentation.build(CORPUS["dim2_normal"][0])
    ideal = MonomialIdeal.maximal_ideal(pres)
    monkeypatch.setattr(
        cohomology, "localization_faces",
        lambda p, a, faces: frozenset((p.face_lattice.bottom_id,)))
    with pytest.raises(AssertionError, match="support shrank"):
        cech_ranks(pres, ideal, (-1, -1))
