"""Exponent-level calculus for the associated graded ring of the ring of
differential operators of a scored semigroup algebra.

The graded piece attached to a degree is a free module over the theta
polynomial ring times a product of facet operators; only the facet
exponents are computed here, never non-commutative operator arithmetic.
The exponent of one facet operator at a degree counts how many values of
the facet numerical semigroup leave it after shifting by the facet value
of the degree.

For one-dimensional non-normal semigroups, the graded ring is itself a
two-dimensional affine semigroup ring inside the (t, xi) quadrant; its
generator exponents, a finite-codimension certificate, and the failure of
the Serre-S2 criterion are produced exactly.

Fiber certificates describe the reduced fiber of the cotangent-like
projection over torus-fixed points and orbits, and the characteristic
variety of the top local cohomology, through the exponents of the
distinguished monomial generators together with additivity and
injectivity checks of the exponent map.  For a scored semigroup each
localization at a face is cut out by the facets containing the face
(Saito-Traves, Finite generation of rings of differential operators of
semigroup algebras, 2004), so every certificate check is read off facet
values and facet semigroups, exhaustively and with no sampling; only the
exponent identities are checked on sampled degrees.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations_with_replacement

from . import intlinalg as la
from .errors import (
    DimensionUnsupported,
    HypothesisFailed,
    IsNormal,
    NoInteriorPoint,
    NotScored,
)
# in_face_localization is not called here; it stays bound because
# perfbench's tracer patches the membership oracle in this module too
from .semigroups import (  # noqa: F401
    ToricPresentation,
    in_face_localization,
    values_in_semigroup,
)

_RNG_SEED = 90125  # fixed so reports stay byte-identical across runs
_EXPONENT_IDENTITY_PAIRS = 120  # the fewest (degree, facet) pairs checked


def theta_exponents(pres: ToricPresentation, a) -> tuple:
    """Exponents of every facet operator at degree a, from one evaluation
    of its facet values.

    The exponent of facet F counts the elements x of the facet numerical
    semigroup N with x + F(a) outside N; finite because everything beyond
    the conductor stays inside.  Requires the scored flag."""
    if not pres.scored:
        raise NotScored("facet exponents are defined for scored semigroups")
    return _exponents_at(pres.facet_semigroups, pres.facet_values(la.vec(a)))


def _exponents_at(semigroups, values) -> tuple:
    """Facet exponents at a degree with the given facet values."""
    return tuple([ns.escape_count(v) for ns, v in zip(semigroups, values)])


@dataclass(frozen=True)
class GrMonomial:
    """Degree plus facet-operator exponents of one graded generator."""

    degree: la.Vector
    exponents: tuple  # per facet id


@dataclass(frozen=True)
class ExponentIdentityReport:
    pairs_checked: int
    clause_counts: tuple  # (clause name, number of applicable checks)
    failures: tuple       # human-readable descriptions; empty on success

    @property
    def ok(self) -> bool:
        return not self.failures


def _sample_degrees(pres: ToricPresentation, count: int, rng) -> list:
    spread = pres.max_facet_conductor() + max(
        abs(e) for row in pres.matrix for e in row
    ) + 2
    return [
        tuple(rng.randrange(-spread, spread + 1) for _ in range(pres.dim))
        for _ in range(count)
    ]


def verify_exponent_identities(pres: ToricPresentation) -> ExponentIdentityReport:
    """Check the reflection identity and its four consequences on at least
    _EXPONENT_IDENTITY_PAIRS sampled (degree, facet) pairs.

    The identity: exponent at -a equals exponent at a plus the facet value
    of a.  Thresholds standing in for "large k" are conductor-derived:
    k >= conductor + |facet value| + 1.  Facet values are linear, so the
    exponents at -a and k*a are read at -F(a) and k*F(a).  A degree drawn
    again counts again, with the outcome of its first draw.
    """
    if not pres.scored:
        raise NotScored("the exponent identities assume a scored semigroup")
    rng = random.Random(_RNG_SEED)
    degrees = _sample_degrees(pres, _EXPONENT_IDENTITY_PAIRS // len(pres.supports) + 1, rng)
    failures = []
    counts = dict.fromkeys(("reflection", "subadditive_for_nonpositive",
                            "strict_drop_outside", "member_gives_facet_value",
                            "vanishing_for_positive"), 0)
    outcomes = {}
    for a in degrees:
        if a not in outcomes:
            outcomes[a] = _identity_checks(pres, a)
        clauses, failed = outcomes[a]
        for clause in clauses:
            counts[clause] += 1
        failures += failed
    checked = len(degrees) * len(pres.supports)
    return ExponentIdentityReport(checked, tuple(sorted(counts.items())), tuple(failures))


def _identity_checks(pres: ToricPresentation, a) -> tuple:
    """(the clauses checked, the failures) of the exponent identities at
    one degree, read off its facet values."""
    clauses, failures = [], []
    semigroups = pres.facet_semigroups
    vals = pres.facet_values(a)
    neg = tuple(-v for v in vals)  # the facet values of -a
    exps = _exponents_at(semigroups, vals)
    exps_neg = _exponents_at(semigroups, neg)
    for fid, ns in enumerate(semigroups):
        clauses.append("reflection")
        if exps_neg[fid] != exps[fid] + vals[fid]:
            failures.append(
                f"reflection failed at {a}, facet {fid}: "
                f"{exps_neg[fid]} != {exps[fid]} + {vals[fid]}"
            )
        big = ns.conductor + abs(vals[fid]) + 1
        if vals[fid] <= 0:
            clauses.append("subadditive_for_nonpositive")
            for k in (big, big + 1):
                if ns.escape_count(k * vals[fid]) > k * exps[fid]:
                    failures.append(
                        f"subadditivity failed at {a}, facet {fid}, k={k}"
                    )
        if vals[fid] > 0:
            clauses.append("vanishing_for_positive")
            if ns.escape_count(big * vals[fid]) != 0:
                failures.append(
                    f"vanishing failed at {a}, facet {fid}, k={big}"
                )
    if max(vals) <= 0 and not values_in_semigroup(pres, neg):
        clauses.append("strict_drop_outside")
        big = pres.max_facet_conductor() + max(map(abs, vals)) + 1
        if not any(
            ns.escape_count(big * v) < big * e
            for ns, v, e in zip(semigroups, vals, exps)
        ):
            failures.append(f"no strict exponent drop at {a}, k={big}")
    if values_in_semigroup(pres, vals):
        clauses.append("member_gives_facet_value")
        if exps_neg != vals:
            failures.append(
                f"member degree {a}: exponents at -a {exps_neg} != values {vals}"
            )
    return clauses, failures


# -- one-dimensional graded ring ----------------------------------------------


def gr_generators_dim1(pres: ToricPresentation) -> tuple:
    """Exponent pairs (t power, xi power) generating the graded ring of a
    one-dimensional semigroup algebra.

    One pair per generator or gap value w: (escapes after +w, escapes after
    -w), together with its mirror image and the diagonal pair (1, 1).
    """
    if pres.dim != 1:
        raise DimensionUnsupported("generator pairs are a dim-1 construction")
    pres._require_pointed()
    ns = pres.facet_semigroups[0]
    pairs = {(1, 1)}
    for w in sorted(set(ns.generators) | ns.gaps):
        up = ns.escape_count(w)
        down = ns.escape_count(-w)
        pairs.add((up, down))
        pairs.add((down, up))
    return tuple(sorted(pairs))


def _pair_semigroup_rows(pairs, top: int) -> list:
    """Row t, for t = 0, ..., top, holds the members (u, t - u) of the
    semigroup the pairs generate as the bits u of an int.  Every pair but
    (0, 0) raises the total u + v, so a point is a member iff it is (0, 0)
    or some member lies one pair below it: row t is the union of the rows
    t - pu - pv shifted by pu."""
    steps = [(pu, pu + pv) for pu, pv in pairs if pu or pv]
    rows = [1]
    for total in range(1, top + 1):
        row = 0
        for pu, size in steps:
            if size <= total:
                row |= rows[total - size] << pu
        rows.append(row)
    return rows


@dataclass(frozen=True)
class NotCMCertificate:
    """Witness data showing the graded ring of a one-dimensional non-normal
    semigroup algebra has finite quadrant codimension yet fails Serre-S2."""

    generator_pairs: tuple
    codimension_threshold: int   # every (u, v) with u+v >= threshold is inside
    gap_pairs: tuple             # quadrant points outside the graded ring
    strip_verified: tuple        # the two diagonals checked exhaustively
    s2_failed: bool
    s2_box: tuple


def notcm_certificate(pres: ToricPresentation) -> NotCMCertificate:
    """Certify non-Cohen-Macaulayness of the graded ring in dimension one.

    (a) every pair on the two diagonals at the threshold is generated, and
        axis points beyond it lie in the facet semigroup, so the monotone
        closure covers everything above the threshold;
    (b) the finitely many gap pairs below the threshold are listed;
    (c) the Serre-S2 criterion fails for the two-dimensional semigroup
        spanned by the generator pairs.
    """
    if pres.dim != 1:
        raise DimensionUnsupported("the certificate is a dim-1 construction")
    if pres.normal:
        raise IsNormal("the graded ring of a normal dim-1 algebra is regular")
    ns = pres.facet_semigroups[0]
    pairs = gr_generators_dim1(pres)
    threshold = max(2 * ns.escape_count(-w) for w in ns.gaps)
    rows = _pair_semigroup_rows(pairs, threshold + 1)
    strip = []
    for total in (threshold, threshold + 1):
        for u in range(1, total):
            if not rows[total] >> u & 1:
                raise AssertionError(f"diagonal pair ({u}, {total - u}) is not generated")
        strip.append(total)
    if threshold < ns.conductor:
        raise AssertionError("threshold below the facet conductor")
    gaps = tuple(
        (u, total - u)
        for total in range(threshold)
        for u in range(total + 1)
        if not rows[total] >> u & 1
    )
    gr_pres = ToricPresentation.build(
        [[p[0] for p in pairs], [p[1] for p in pairs]],
        search_bound=pres.search_bound,
        box_margin=pres.box_margin,
    )
    return NotCMCertificate(
        generator_pairs=pairs,
        codimension_threshold=threshold,
        gap_pairs=gaps,
        strip_verified=tuple(strip),
        s2_failed=not gr_pres.serre_s2,
        s2_box=gr_pres.verification_box,
    )


# -- fiber and characteristic-variety certificates -----------------------------


@dataclass(frozen=True)
class FiberCertificate:
    kind: str                   # origin_fiber | orbit_fiber | char_variety_max
    generator_monomials: tuple  # GrMonomial per column of the target matrix
    target_matrix: la.Matrix
    poly_vars: int
    checks: tuple               # (name, bool) pairs, all True on success
    notes: tuple = ()

    @property
    def verified(self) -> bool:
        return all(ok for _, ok in self.checks)


def _exponent_map_checks(pres: ToricPresentation) -> tuple:
    """Additivity and injectivity of degree -> exponents on the negated
    semigroup -Q, from one check per facet: e_s(-u) = u for every u in S_s
    up to the conductor c_s.

    For u in S_s the members x with x - u outside S_s are those outside
    u + S_s, the Apery set of u, one per residue mod u, so the check holds;
    past the conductor escape_count returns -shift.  A degree x of -Q has
    F_s(x) = -u with u in S_s, so its exponents are then its negated facet
    values: a linear map, so additive, and injective because the facet
    values of a pointed cone determine the degree."""
    ok = all(ns.escape_count(-u) == u
             for ns in pres.facet_semigroups for u in range(ns.conductor + 1) if u in ns)
    return (("exponent_map_additive", ok), ("exponent_map_injective", ok))


def _generator_monomials(pres: ToricPresentation):
    """Monomial generators at the negated columns, and the exponent check."""
    monomials = []
    exponents_match = True
    for col in pres.columns:
        exps = theta_exponents(pres, la.vneg(col))
        if exps != pres.facet_values(col):
            exponents_match = False
        monomials.append(GrMonomial(la.vneg(col), exps))
    return tuple(monomials), ("exponents_equal_facet_values", exponents_match)


def fiber_at_origin(pres: ToricPresentation) -> FiberCertificate:
    """Certificate that the reduced fiber over the torus-fixed point is the
    semigroup algebra itself, via the distinguished monomial generators.

    Requires a simplicial scored semigroup."""
    pres._require_pointed()
    if not (pres.simplicial and pres.scored):
        raise HypothesisFailed(
            "origin fiber certificate needs a simplicial scored semigroup"
        )
    monomials, match_check = _generator_monomials(pres)
    return FiberCertificate(
        kind="origin_fiber",
        generator_monomials=monomials,
        target_matrix=pres.matrix,
        poly_vars=0,
        checks=(match_check, *_exponent_map_checks(pres)),
    )


def _normalize_free_signs(rows) -> la.Matrix:
    """Flip coordinates whose first nonzero entry is negative (a cosmetic
    normalization of the quotient presentation)."""
    out = []
    for row in rows:
        first = next((x for x in row if x != 0), 0)
        out.append(la.vneg(row) if first < 0 else la.vec(row))
    return la.mat(out)


def fiber_at_orbit(pres: ToricPresentation, face_id: int) -> FiberCertificate:
    """Certificate for the reduced fiber over a point of the torus orbit of
    a proper face: the quotient semigroup algebra tensor a polynomial ring
    in dim(face) variables."""
    pres._require_pointed()
    if not (pres.simplicial and pres.scored):
        raise HypothesisFailed(
            "orbit fiber certificate needs a simplicial scored semigroup"
        )
    lattice = pres.face_lattice
    if face_id == lattice.top_id:
        raise HypothesisFailed("the orbit fiber is defined for proper faces")
    face = lattice.face(face_id)
    # a scored Q has every face quotient torsion-free (_classify)
    quot = pres.face_quotient(face_id)
    free_idx = [i for i, m in enumerate(quot._moduli) if m == 0]
    images = []
    for i, col in enumerate(pres.columns):
        if i in face.column_indices:
            continue
        proj = quot.project(col)
        images.append(tuple(proj[j] for j in free_idx))
    rows = _normalize_free_signs(la.transpose(la.mat(images)))
    sub = ToricPresentation.build(
        rows, search_bound=pres.search_bound, box_margin=pres.box_margin
    )
    inner = fiber_at_origin(sub)
    checks = [
        ("quotient_simplicial", sub.simplicial),
        ("quotient_scored", bool(sub.scored)),
    ] + list(inner.checks)
    return FiberCertificate(
        kind="orbit_fiber",
        generator_monomials=inner.generator_monomials,
        target_matrix=sub.matrix,
        poly_vars=face.dim,
        checks=tuple(checks),
    )


def interior_degree(pres: ToricPresentation) -> la.Vector:
    """Deterministic interior degree: the first sum of columns, by size and
    then index order, with every facet value positive."""
    pres._require_pointed()
    n = pres.ncols
    for size in range(1, n + 1):
        for chosen in combinations_with_replacement(range(n), size):
            total = la.zero_vector(pres.dim)
            for i in chosen:
                total = la.vadd(total, pres.columns[i])
            if all(v > 0 for v in pres.facet_values(total)):
                return total
    raise NoInteriorPoint("no positive combination of columns is interior")


def char_variety_max(pres: ToricPresentation) -> FiberCertificate:
    """Certificate that the characteristic variety of the top local
    cohomology at the maximal graded ideal is the semigroup algebra's
    spectrum; needs scored and pointed but not simplicial."""
    pres._require_pointed()
    if not pres.scored:
        raise HypothesisFailed("characteristic variety certificate needs scored")
    alpha = interior_degree(pres)
    monomials, match_check = _generator_monomials(pres)
    checks = [match_check]
    # a scored Q cuts out its localization at facet s by F_s in S_s; for x
    # in Q, F_s(-x - alpha) <= -F_s(alpha), so translating -Q by -alpha
    # leaves every facet region iff every facet value of alpha is positive
    alpha_values = pres.facet_values(alpha)
    checks.append(("shifted_degrees_escape_every_facet_region", min(alpha_values) > 0))
    # outward degrees reenter each facet region after the shift: the least
    # n with n * F_s(p) - F_s(alpha) in S_s, p the first column positive on
    # facet s, whose multiples leave the cone
    notes = []
    outward_ok = True
    for s, ns, shift in zip(pres.supports, pres.facet_semigroups, alpha_values):
        step = next(v for v in map(s.value, pres.columns) if v > 0)
        found = next((n for n in range(1, pres.search_bound + 1) if n * step - shift in ns), None)
        if found is None:
            outward_ok = False
        else:
            notes.append(f"facet {s.facet_id}: reentry exponent {found}")
    checks.append(("outward_degrees_reenter_after_shift", outward_ok))
    checks += _exponent_map_checks(pres)
    notes.append(
        "degree-zero operators act on the distinguished generator by the "
        "scalar fixed by the grading (recorded identity, not operator arithmetic)"
    )
    return FiberCertificate(
        kind="char_variety_max",
        generator_monomials=monomials,
        target_matrix=pres.matrix,
        poly_vars=0,
        checks=tuple(checks),
        notes=tuple(notes) + (f"interior_degree={list(alpha)}",),
    )
