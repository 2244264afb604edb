"""Acceptance suite.

One test per criterion; each prints a PASS/FAIL line (run with `pytest -s
tests/test_acceptance.py` to see them live).  Expected values marked as
derived in the criteria are recomputed here by independent oracles before
being asserted.
"""

import time
from itertools import product

import pytest

from conftest import CORPUS, CORPUS_DIR, enumeration, presentation

from toriclc import (
    HypothesisFailed,
    IsNormal,
    MonomialIdeal,
    ToricPresentation,
    assemble_module,
    cech_ranks,
    char_variety_max,
    class_poset,
    degree_signature,
    enumerate_classes,
    fiber_at_origin,
    in_semigroup,
    ishida_ranks,
    notcm_certificate,
    sector_faces,
    sector_inventory,
    socle_probe,
    verify_exponent_identities,
)
from toriclc import intlinalg as la
from toriclc.cli import run as cli_run

_RESULTS = []


def _record(number, description, ok, detail=""):
    line = f"ACCEPTANCE {number:2d}: {'PASS' if ok else 'FAIL'} - {description}"
    if detail:
        line += f" ({detail})"
    _RESULTS.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="session", autouse=True)
def summary():
    yield
    print()
    for line in _RESULTS:
        print(line)


DIM1_NAMES = ("dim1_weyl", "dim1_cusp", "dim1_2_5", "dim1_3_4_5",
              "dim1_3_5_7", "dim1_4_6_9")
NORMAL_NAMES = ("dim1_weyl", "dim2_normal", "dim2_polynomial", "dim3_hartshorne")
SCORED_NAMES = tuple(n for n in sorted(CORPUS) if n != "dim2_nonscored")
SIMPLICIAL_SCORED = tuple(n for n in SCORED_NAMES if n != "dim3_hartshorne")


def test_criterion_1_two_dim_end_to_end():
    started = time.monotonic()
    pres = ToricPresentation.build([[1, 1, 1], [0, 1, 2]])
    enum = enumerate_classes(pres)
    poset = class_poset(enum.classes)
    ideal = MonomialIdeal.from_degrees(pres, [(1, 1)])
    module = assemble_module(pres, ideal, enum, poset)
    elapsed = time.monotonic() - started

    lattice = pres.face_lattice
    facet_of = {s.coefficients: s.facet_id for s in pres.supports}
    s1 = lattice.facet_face_id(facet_of[(0, 1)])
    s2 = lattice.facet_face_id(facet_of[(2, -1)])
    top = lattice.top_id
    series = module.series_of(1)
    sectors = [enum.by_id(cid).sector for cid, _ in series]
    expected = [frozenset({s1, top}), frozenset({s2, top}), frozenset({top})]
    empty = {s.faces: s.nonempty for s in sector_inventory(pres, enum)}
    ok = (
        module.length_of(1) == 3
        and [m for _, m in series] == [1, 1, 1]
        and sectors == expected
        and empty[frozenset({s1, s2, top})] is False
        and elapsed < 10.0
    )
    _record(1, "2-dim example: length-3 series in sector order, empty sector",
            ok, f"{elapsed:.2f}s")


def test_criterion_2_hartshorne():
    started = time.monotonic()
    pres = ToricPresentation.build([[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1]])
    enum = enumerate_classes(pres)
    ideal = MonomialIdeal.from_degrees(pres, [(1, 0, 0), (1, 1, 0)])
    module = assemble_module(pres, ideal, enum)

    lattice = pres.face_lattice
    sigma12 = next(
        f.face_id for f in lattice.faces
        if f.dim == 2 and f.column_indices == frozenset({0, 1})
    )
    series = module.series_of(2)
    simple_ok = (
        module.length_of(2) == 1
        and len(series) == 1
        and enum.by_id(series[0][0]).sector == frozenset({sigma12, lattice.top_id})
    )

    (probe,) = socle_probe(pres, ideal, [2], [5, 10, 20])
    counts = [c for _, c in probe.counts]

    # independent oracle: brute-force support scan from the region data
    # (support at z >= 0, y < 0, x < y; translate by each generator column)
    def oracle_support(p):
        x, y, z = p
        return z >= 0 and y < 0 and x < y

    cols = pres.columns
    oracle_counts = []
    for radius in (5, 10, 20):
        n_found = 0
        for p in product(range(-radius, radius + 1), repeat=3):
            if oracle_support(p) and all(
                not oracle_support((p[0] + c[0], p[1] + c[1], p[2] + c[2]))
                for c in cols
            ):
                n_found += 1
        oracle_counts.append(n_found)

    elapsed = time.monotonic() - started
    ok = (
        simple_ok
        and counts == oracle_counts == [6, 11, 21]
        and counts[0] < counts[1] < counts[2]
        and probe.degrees_by_radius[2][1]
        == tuple((-2, -1, z) for z in range(21))
        and elapsed < 60.0
    )
    _record(2, "Hartshorne: simple H^2 on {sigma12, cone}; socle 6/11/21",
            ok, f"{elapsed:.2f}s")


def test_criterion_3_one_dimensional_corpus():
    ok = True
    details = []
    for name in DIM1_NAMES:
        pres = presentation(name)
        enum = enumeration(name)
        poset = class_poset(enum.classes)
        sig_zero = degree_signature(pres, (0,))
        sig_neg = degree_signature(pres, (-1,))
        first, second = poset.linear_extension
        good = (
            len(enum.classes) == 2
            and {c.signature for c in enum.classes} == {sig_zero, sig_neg}
            and enum.by_id(first).signature == sig_zero
            and enum.by_id(second).signature == sig_neg
        )
        ok = ok and good
        details.append(f"{name}:{'ok' if good else 'BAD'}")
    _record(3, "one-dim corpus: exactly the two expected classes, ordered",
            ok, f"{len(DIM1_NAMES)} instances")


def test_criterion_4_exponent_identity_suite():
    ok = True
    total = 0
    for name in SCORED_NAMES:
        report = verify_exponent_identities(presentation(name))
        total += report.pairs_checked
        if report.pairs_checked < 100 or not report.ok:
            ok = False
    _record(4, "exponent reflection identity and clauses 1-4, zero failures",
            ok, f"{total} (degree, facet) checks")


def test_criterion_5_normal_partitions_coincide():
    ok = True
    for name in NORMAL_NAMES:
        pres = presentation(name)
        enum = enumeration(name)
        radius = enum.radius
        sig_of_sector = {}
        for a in product(range(-radius, radius + 1), repeat=pres.dim):
            sig = degree_signature(pres, a)
            sector = sector_faces(pres, a)
            sig_of_sector.setdefault(sector, set()).add(sig)
        if any(len(sigs) != 1 for sigs in sig_of_sector.values()):
            ok = False
    _record(5, "normal instances: signature partition equals sector partition",
            ok, f"{len(NORMAL_NAMES)} instances, full scanned boxes")


def test_criterion_6_localization_signature_stability():
    import random

    ok = True
    checked = 0
    for name in sorted(CORPUS):
        pres = presentation(name)
        rng = random.Random(1980)
        degrees = []
        while len(degrees) < 20:
            x = [rng.randint(0, 3) for _ in range(pres.ncols)]
            b = la.zero_vector(pres.dim)
            for coeff, col in zip(x, pres.columns):
                b = la.vadd(b, la.vscale(coeff, col))
            if not la.is_zero_vector(b):
                degrees.append(b)
        for b in degrees:
            assert in_semigroup(pres, b)
            base = degree_signature(pres, la.vneg(b))
            for m in range(1, 6):
                checked += 1
                if degree_signature(pres, la.vneg(la.vscale(m, b))) != base:
                    ok = False
    _record(6, "negated multiples of a semigroup degree share one signature",
            ok, f"{checked} comparisons")


def test_criterion_7_ishida_cech_oracle_equivalence():
    ok = True
    slices = 0
    for name in sorted(CORPUS):
        pres = presentation(name)
        max_entry = max(abs(e) for row in pres.matrix for e in row)
        radius = 2 * (pres.max_facet_conductor() + max_entry)
        ideal = MonomialIdeal.maximal_ideal(pres)
        for a in product(range(-radius, radius + 1), repeat=pres.dim):
            icoh = ishida_ranks(pres, sector_faces(pres, a))
            ccoh = cech_ranks(pres, ideal, a)
            width = max(len(icoh), len(ccoh))
            slices += 1
            if tuple(icoh) + (0,) * (width - len(icoh)) != \
                    tuple(ccoh) + (0,) * (width - len(ccoh)):
                ok = False
    _record(7, "face complex and Cech ranks agree degree by degree",
            ok, f"{slices} degree slices")


def test_criterion_8_notcm_certificates():
    cert23 = notcm_certificate(presentation("dim1_cusp"))
    cert25 = notcm_certificate(presentation("dim1_2_5"))
    rejected = False
    try:
        notcm_certificate(presentation("dim1_weyl"))
    except IsNormal:
        rejected = True
    ok = (
        set(cert23.gap_pairs) == {(0, 1), (1, 0)}
        and cert23.s2_failed
        and set(cert25.gap_pairs)
        == {(0, 1), (1, 0), (0, 3), (3, 0), (1, 2), (2, 1)}
        and cert25.s2_failed
        and rejected
    )
    _record(8, "graded-ring gap sets finite and listed; S2 fails; normal rejected",
            ok, f"gaps {len(cert23.gap_pairs)} and {len(cert25.gap_pairs)}")


def test_criterion_9_fiber_certificates():
    ok = True
    for name in SIMPLICIAL_SCORED:
        pres = presentation(name)
        cert = fiber_at_origin(pres)
        if not cert.verified:
            ok = False
        for g, col in zip(cert.generator_monomials, pres.columns):
            if g.exponents != pres.facet_values(col):
                ok = False
    hart = presentation("dim3_hartshorne")
    origin_rejected = False
    try:
        fiber_at_origin(hart)
    except HypothesisFailed:
        origin_rejected = True
    chmax = char_variety_max(hart)
    ok = ok and origin_rejected and chmax.verified
    _record(9, "fiber certificates on simplicial scored; Hartshorne split",
            ok, f"{len(SIMPLICIAL_SCORED)} instances + non-simplicial case")


def test_criterion_10_determinism(tmp_path):
    ok = True
    compared = 0
    for path in sorted(CORPUS_DIR.glob("*.toric")):
        commands = [["analyze"], ["sectors"], ["grd"], ["lc"]]
        for command in commands:
            outputs = []
            for attempt in (0, 1):
                out = tmp_path / f"{path.stem}-{command[0]}-{attempt}.json"
                code = cli_run(
                    command + [str(path), "--format", "machine",
                               "--output", str(out)]
                )
                if code != 0:
                    ok = False
                outputs.append(out.read_bytes())
            compared += 1
            if outputs[0] != outputs[1]:
                ok = False
    _record(10, "repeated corpus runs give byte-identical machine reports",
            ok, f"{compared} command pairs")
