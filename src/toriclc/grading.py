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
injectivity checks of the exponent map.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations_with_replacement
from operator import add, mul

from . import intlinalg as la
from .errors import (
    DimensionUnsupported,
    HypothesisFailed,
    IsNormal,
    NoInteriorPoint,
    NotScored,
)
from .semigroups import (
    ToricPresentation,
    in_face_localization,
    values_in_semigroup,
)

_RNG_SEED = 90125  # fixed so reports stay byte-identical across runs
_EXPONENT_MAP_SAMPLES = 50
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


def _pair_semigroup_member(pairs, target, memo) -> bool:
    if target in memo:
        return memo[target]
    u, v = target
    result = (u, v) == (0, 0)
    if not result and u >= 0 and v >= 0:
        for pu, pv in pairs:
            if (pu or pv) and pu <= u and pv <= v:
                if _pair_semigroup_member(pairs, (u - pu, v - pv), memo):
                    result = True
                    break
    memo[target] = result
    return result


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
    memo = {}
    strip = []
    for total in (threshold, threshold + 1):
        for u in range(total + 1):
            v = total - u
            if min(u, v) >= 1 and not _pair_semigroup_member(pairs, (u, v), memo):
                raise AssertionError(f"diagonal pair ({u}, {v}) is not generated")
        strip.append(total)
    if threshold < ns.conductor:
        raise AssertionError("threshold below the facet conductor")
    gaps = tuple(
        (u, v)
        for total in range(threshold)
        for u in range(total + 1)
        for v in (total - u,)
        if not _pair_semigroup_member(pairs, (u, v), memo)
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
    """Additivity and injectivity of degree -> exponents on random sums of
    semigroup degrees.

    Facet values are linear and determine the degree, so each sum is
    carried as its facet values, the same combination of the columns'
    values, and two sums are equal iff their values are."""
    rng = random.Random(_RNG_SEED)
    # per facet, the negated values of the nonzero columns
    rows = la.transpose([tuple(-v for v in pres.facet_values(c))
                         for c in pres.columns if not la.is_zero_vector(c)])
    semigroups = pres.facet_semigroups
    additive = True
    injective = True
    seen = {}
    for _ in range(_EXPONENT_MAP_SAMPLES):
        # two multipliers in [0, 2] per column, in the order of the columns
        draws = [rng.randrange(3) for _ in range(2 * len(rows[0]))]
        x = tuple(sum(map(mul, row, draws[0::2])) for row in rows)
        y = tuple(sum(map(mul, row, draws[1::2])) for row in rows)
        ex, ey, exy = (_exponents_at(semigroups, z)
                       for z in (x, y, tuple(map(add, x, y))))
        if exy != tuple(map(add, ex, ey)):
            additive = False
        if seen.setdefault(ex, x) != x:
            injective = False
    return (("exponent_map_additive", additive), ("exponent_map_injective", injective))


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


def _exponent_map(pres: ToricPresentation) -> tuple:
    """(generator monomials, their exponent check, exponent-map checks),
    computed once per presentation: the seed is fixed, so every
    certificate of the presentation sees the same results."""
    if pres._exponent_map is None:
        pres._exponent_map = (*_generator_monomials(pres), _exponent_map_checks(pres))
    return pres._exponent_map


def fiber_at_origin(pres: ToricPresentation) -> FiberCertificate:
    """Certificate that the reduced fiber over the torus-fixed point is the
    semigroup algebra itself, via the distinguished monomial generators.

    Requires a simplicial scored semigroup."""
    pres._require_pointed()
    if not (pres.simplicial and pres.scored):
        raise HypothesisFailed(
            "origin fiber certificate needs a simplicial scored semigroup"
        )
    monomials, match_check, map_checks = _exponent_map(pres)
    return FiberCertificate(
        kind="origin_fiber",
        generator_monomials=monomials,
        target_matrix=pres.matrix,
        poly_vars=0,
        checks=(match_check, *map_checks),
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
    quot = pres.face_quotient(face_id)
    if not quot.is_torsion_free():
        raise HypothesisFailed(
            "face group is not saturated; scored flag is inconsistent"
        )
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
    monomials, match_check, map_checks = _exponent_map(pres)
    checks = [match_check]
    # non-vanishing on negated semigroup degrees: translating by -alpha must
    # leave every facet-translated region
    rng = random.Random(_RNG_SEED)
    facets = [pres.face_lattice.facet_face_id(s.facet_id) for s in pres.supports]
    nonvanishing = True
    for _ in range(25):
        draws = [rng.randrange(3) for _ in pres.columns]
        # the sum of the columns times the draws, a row of the matrix at a time
        x = tuple(sum(map(mul, row, draws)) for row in pres.matrix)
        if la.is_zero_vector(x):
            continue
        shifted = la.vsub(la.vneg(x), alpha)
        # its facet values, computed once for every facet's region
        values = pres.facet_values(shifted)
        if any(in_face_localization(pres, shifted, f, values) for f in facets):
            nonvanishing = False
    checks.append(("shifted_degrees_escape_every_facet_region", nonvanishing))
    # outward degrees eventually reenter a facet region after the shift
    notes = []
    outward_ok = True
    for s in pres.supports:
        probe = None
        for c in pres.columns:
            if s.value(c) > 0:
                probe = c
                break
        a = probe  # has positive value on facet s, so multiples leave the cone
        found = None
        for n in range(1, pres.search_bound + 1):
            if in_face_localization(
                pres,
                la.vsub(la.vscale(n, a), alpha),
                pres.face_lattice.facet_face_id(s.facet_id),
            ):
                found = n
                break
        if found is None:
            outward_ok = False
        else:
            notes.append(f"facet {s.facet_id}: reentry exponent {found}")
    checks.append(("outward_degrees_reenter_after_shift", outward_ok))
    checks += map_checks
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
