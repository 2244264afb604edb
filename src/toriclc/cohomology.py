"""Graded homological computations: face-indexed (Ishida) complex slices,
Cech complex slices for monomial ideals, assembly of local cohomology into
class-supported pieces with composition series, and socle probes.

Every degree slice of the Cech complex is determined by which localization
supports contain the degree; those supports are face-translated semigroup
regions, so slices are constant on sectors and in particular on the finer
signature classes.  Assembly therefore evaluates one representative per
class and cross-checks additional samples, aborting on any disagreement
instead of averaging.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from . import intlinalg as la
from .errors import ClassRankMismatch, GeneratorNotInSemigroup
from .sectors import ClassEnumeration, ClassPoset, class_poset
from .semigroups import (
    ToricPresentation,
    in_face_localization,
    in_semigroup,
    smallest_containing_face,
)


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal given by the degrees of its generators."""

    generator_degrees: tuple
    is_maximal: bool = False

    @staticmethod
    def from_degrees(pres: ToricPresentation, degrees) -> "MonomialIdeal":
        degs = sorted({la.vec(d) for d in degrees})
        if not degs:
            raise ValueError("a monomial ideal needs at least one generator")
        for d in degs:
            if not in_semigroup(pres, d):
                raise GeneratorNotInSemigroup(
                    f"ideal generator degree {d} is not in the semigroup"
                )
        if any(la.is_zero_vector(d) for d in degs):
            raise ValueError("the unit ideal is not a valid support ideal")
        return MonomialIdeal(tuple(degs))

    @staticmethod
    def maximal_ideal(pres: ToricPresentation) -> "MonomialIdeal":
        degs = sorted({la.vec(c) for c in pres.columns if not la.is_zero_vector(c)})
        return MonomialIdeal(tuple(degs), is_maximal=True)


def matrix_rank(rows) -> int:
    """Exact rank over the rationals of a small integer matrix."""
    rows = [r for r in rows if any(r)]
    if not rows:
        return 0
    return la.rank(la.mat(rows))


def _complex_ranks(dims, diffs):
    """Cohomology ranks of a finite complex from term dimensions and
    differential matrices (diffs[i]: term i -> term i+1)."""
    ranks = [matrix_rank(d) if d else 0 for d in diffs]
    out = []
    for i, dim_i in enumerate(dims):
        r_out = ranks[i] if i < len(ranks) else 0
        r_in = ranks[i - 1] if i > 0 else 0
        out.append(dim_i - r_out - r_in)
    return tuple(out)


# -- face-indexed (Ishida) complex slices -------------------------------------


def ishida_slice(pres: ToricPresentation, filter_faces):
    """Term labels and differentials of the face complex restricted to an
    upward-closed set of faces (one generator per face, placed in
    cohomological degree equal to the face dimension)."""
    lattice = pres.face_lattice
    filter_faces = frozenset(filter_faces)
    if not lattice.is_filter(filter_faces):
        raise AssertionError("sector filters must be upward closed")
    labels = [
        [fid for fid in lattice.faces_of_dim(k) if fid in filter_faces]
        for k in range(pres.dim + 1)
    ]
    diffs = []
    for k in range(pres.dim):
        rows = [
            [lattice.incidence_sign(lo, hi) for lo in labels[k]]
            for hi in labels[k + 1]
        ]
        diffs.append(rows)
    return labels, diffs


def ishida_ranks(pres: ToricPresentation, filter_faces) -> tuple:
    """Cohomology ranks, by cohomological degree 0..dim, of the face complex
    slice attached to a sector filter."""
    labels, diffs = ishida_slice(pres, filter_faces)
    return _complex_ranks([len(l) for l in labels], diffs)


# -- Cech complex slices ------------------------------------------------------


def _localization_face(pres: ToricPresentation, ideal: MonomialIdeal, subset):
    cache = getattr(pres, "_loc_face_cache", None)
    if cache is None:
        cache = {}
        pres._loc_face_cache = cache
    key = (ideal.generator_degrees, subset)
    fid = cache.get(key)
    if fid is None:
        total = la.zero_vector(pres.dim)
        for j in subset:
            total = la.vadd(total, ideal.generator_degrees[j])
        fid = smallest_containing_face(pres, total)
        cache[key] = fid
    return fid


def cech_slice(pres: ToricPresentation, ideal: MonomialIdeal, a):
    """Present subsets and differentials of the degree-a slice of the Cech
    complex on the ideal generators.

    The subset J is present iff the degree lies in the support of the
    localization at the sum of the J-degrees; signs follow the standard
    alternating convention by position."""
    a = la.vec(a)
    t = len(ideal.generator_degrees)
    present = {(): in_semigroup(pres, a)}
    for size in range(1, t + 1):
        for subset in combinations(range(t), size):
            fid = _localization_face(pres, ideal, subset)
            present[subset] = in_face_localization(pres, a, fid)
    labels = [
        [s for s in combinations(range(t), size) if present[s]]
        for size in range(t + 1)
    ]
    # support only grows along inclusions of subsets
    for subset in present:
        if subset and present[subset[:-1]] and not present[subset]:
            raise AssertionError(
                f"localization support shrank from {subset[:-1]} to {subset}"
            )
    diffs = []
    for size in range(t):
        rows = []
        for hi in labels[size + 1]:
            row = []
            for lo in labels[size]:
                if set(lo) <= set(hi):
                    j = next(iter(set(hi) - set(lo)))
                    row.append((-1) ** hi.index(j))
                else:
                    row.append(0)
            rows.append(row)
        diffs.append(rows if labels[size] else [])
    return labels, diffs


def cech_ranks(pres: ToricPresentation, ideal: MonomialIdeal, a) -> tuple:
    """Cohomology ranks, by cohomological degree 0..#generators, of the
    degree-a slice of the Cech complex."""
    cache = getattr(pres, "_cech_rank_cache", None)
    if cache is None:
        cache = {}
        pres._cech_rank_cache = cache
    key = (ideal.generator_degrees, la.vec(a))
    out = cache.get(key)
    if out is None:
        labels, diffs = cech_slice(pres, ideal, a)
        out = _complex_ranks([len(l) for l in labels], diffs)
        cache[key] = out
    return out


# -- module assembly ----------------------------------------------------------


@dataclass(frozen=True)
class GradedModuleDescription:
    """A family of local cohomology modules described class by class."""

    ideal: MonomialIdeal
    pieces: tuple            # (class_id, cohomological_degree, rank >= 1)
    length: int              # total over all cohomological degrees
    lengths_by_degree: tuple  # (cohomological_degree, length)
    series_by_degree: tuple   # (cohomological_degree, ((class_id, multiplicity), ...))

    def length_of(self, degree: int) -> int:
        for i, lng in self.lengths_by_degree:
            if i == degree:
                return lng
        return 0

    def series_of(self, degree: int) -> tuple:
        for i, series in self.series_by_degree:
            if i == degree:
                return series
        return ()

    def class_rank(self, class_id: int, degree: int) -> int:
        for cid, i, r in self.pieces:
            if cid == class_id and i == degree:
                return r
        return 0


def assemble_module(pres: ToricPresentation, ideal: MonomialIdeal,
                    enumeration: ClassEnumeration,
                    poset: ClassPoset = None) -> GradedModuleDescription:
    """Evaluate the Cech slice on every class and fold the results into
    pieces, lengths and composition series.

    Slices are sector-constant, hence class-constant; each class is still
    sampled at every stored sample point and a mismatch raises
    ClassRankMismatch (it would mean the enumeration or a bound is wrong).
    """
    if poset is None:
        poset = class_poset(enumeration.classes)
    per_class = {}
    for cls in enumeration.classes:
        ranks = cech_ranks(pres, ideal, cls.representative)
        for sample in cls.samples:
            got = cech_ranks(pres, ideal, sample)
            if got != ranks:
                raise ClassRankMismatch(
                    f"class {cls.class_id}: ranks {got} at {sample} differ "
                    f"from {ranks} at {cls.representative}"
                )
        if ranks[0] != 0:
            raise AssertionError(
                "sections with support in a nonzero ideal must vanish on a domain"
            )
        per_class[cls.class_id] = ranks
    pieces = []
    lengths = {}
    for cls in enumeration.classes:
        for i, r in enumerate(per_class[cls.class_id]):
            if i >= 1 and r > 0:
                pieces.append((cls.class_id, i, r))
                lengths[i] = lengths.get(i, 0) + r
    series = []
    for i in sorted(lengths):
        factors = tuple(
            (cid, per_class[cid][i])
            for cid in poset.linear_extension
            if per_class[cid][i] > 0
        )
        series.append((i, factors))
    return GradedModuleDescription(
        ideal=ideal,
        pieces=tuple(sorted(pieces)),
        length=sum(lengths.values()),
        lengths_by_degree=tuple(sorted(lengths.items())),
        series_by_degree=tuple(series),
    )


@dataclass(frozen=True)
class SectorCohomology:
    """Local cohomology at the maximal graded ideal, decomposed by sector."""

    pieces: tuple  # (sector faces frozenset, cohomological_degree, rank >= 1)
    length: int


def local_cohomology_max(pres: ToricPresentation,
                         enumeration: ClassEnumeration) -> SectorCohomology:
    """Sector-by-sector ranks of the face complex; the support of the top
    cohomological degree is exactly the sectors containing only the full
    cone among their faces."""
    sectors = []
    seen = set()
    for cls in enumeration.classes:
        if cls.sector not in seen:
            seen.add(cls.sector)
            sectors.append(cls.sector)
    pieces = []
    total = 0
    for faces in sectors:
        ranks = ishida_ranks(pres, faces)
        for i, r in enumerate(ranks):
            if r > 0:
                pieces.append((faces, i, r))
                total += r
    top = pres.face_lattice.top_id
    for faces, i, r in pieces:
        if i == pres.dim and faces != frozenset((top,)):
            raise AssertionError(f"top-degree piece on faces {sorted(faces)}")
    return SectorCohomology(tuple(pieces), total)


# -- socle probe --------------------------------------------------------------


@dataclass(frozen=True)
class SocleProbe:
    cohomological_degree: int
    counts: tuple            # (radius, count), increasing radii
    degrees_by_radius: tuple  # (radius, tuple of socle degrees)


def module_support(pres: ToricPresentation, ideal: MonomialIdeal,
                   degree: int, a) -> bool:
    """Whether the degree-a slice of the chosen cohomology module is nonzero."""
    return cech_ranks(pres, ideal, a)[degree] > 0


def socle_probe(pres: ToricPresentation, ideal: MonomialIdeal,
                cohomological_degree: int, radii) -> SocleProbe:
    """Count socle degrees inside centered boxes of the given radii.

    A degree is a socle degree when it supports the module but every
    translate by a generator column leaves the support."""
    radii = sorted(set(int(r) for r in radii))
    columns = [c for c in pres.columns if not la.is_zero_vector(c)]
    counts = []
    degrees = []
    found = []
    biggest = radii[-1]
    for point in product(range(-biggest, biggest + 1), repeat=pres.dim):
        if not module_support(pres, ideal, cohomological_degree, point):
            continue
        if all(
            not module_support(pres, ideal, cohomological_degree, la.vadd(point, c))
            for c in columns
        ):
            found.append(point)
    for r in radii:
        inside = tuple(p for p in found if max(abs(x) for x in p) <= r)
        counts.append((r, len(inside)))
        degrees.append((r, inside))
    return SocleProbe(cohomological_degree, tuple(counts), tuple(degrees))
