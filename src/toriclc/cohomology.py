"""Graded homological computations: face-indexed (Ishida) complex slices,
Cech complex slices for monomial ideals, assembly of local cohomology into
class-supported pieces with composition series, and socle probes.

H^i_I(S) = H^i_{rad I}(S), and the radical of I depends only on the minimal
faces among the generator faces (a degree lies in rad(x^g) iff its face
contains the face of g), so the Cech complex is built on one generator per
minimal face; the localization face of a subset of them is the join of
their faces, read off the intersection of their zero-facet sets.  Slices
are built on chains of absent joins, not on subsets (cech_slice).

Every degree slice of the Cech complex is determined by which localization
supports contain the degree; those supports are face-translated semigroup
regions, so slices are constant on sectors and in particular on the finer
signature classes.  Slice ranks are therefore memoized once per ideal,
keyed by the set of joins whose support contains the degree, so the
memo holds at most 2^#faces entries however many degrees are asked.
That set comes from one localization_faces call per degree, which reads
the faces off the degree's key, its signature, an opaque int.
A socle probe walks its box once for all the cohomological degrees it is
given, a run of constant signature at a time, memoizes Cech ranks by
signature and each line's runs by prefix, and reads the runs of a
column translate off the memoized line it lies on.
Assembly evaluates one representative per class and cross-checks
additional samples, aborting on any disagreement instead of averaging.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import product
from operator import add

from . import intlinalg as la
from .errors import ClassRankMismatch, GeneratorNotInSemigroup
from .sectors import ClassEnumeration, ClassPoset, class_poset
# in_face_localization is not called here; it stays bound because
# perfbench's tracer patches the membership oracle in this module too
from .semigroups import (  # noqa: F401
    ToricPresentation,
    in_face_localization,
    in_semigroup,
    line_runs,
    localization_faces,
    scan_lines,
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


def _complex_ranks(dims, diffs):
    """Cohomology ranks of a finite complex from term dimensions and
    differential matrices (diffs[i]: term i -> term i+1)."""
    ranks = [0] + [la.rank(la.mat(d)) for d in diffs] + [0]
    return tuple(dim_i - ranks[i] - ranks[i + 1] for i, dim_i in enumerate(dims))


def _coboundaries(labels, sign):
    """Differential matrices between consecutive label lists: the row of hi
    holds sign(lo, hi) for every lo one degree lower."""
    return [
        [[sign(lo, hi) for lo in labels[k]] for hi in labels[k + 1]]
        for k in range(len(labels) - 1)
    ]


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
    return labels, _coboundaries(labels, lattice.incidence_sign)


def ishida_ranks(pres: ToricPresentation, filter_faces) -> tuple:
    """Cohomology ranks, by cohomological degree 0..dim, of the face complex
    slice attached to a sector filter."""
    labels, diffs = ishida_slice(pres, filter_faces)
    return _complex_ranks([len(l) for l in labels], diffs)


# -- Cech complex slices ------------------------------------------------------


@dataclass(frozen=True)
class _CechTable:
    """Per-ideal memo: L, the joins of subsets of the minimal generator faces
    (bottom first, then by dimension), and slice ranks keyed by the present
    elements of L.  H^i of a slice is reduced H^(i-2) of the order complex
    of P_a, the absent elements but the bottom, or 0 if the bottom is present."""

    faces: tuple
    ranks: dict


def _cech_table(pres: ToricPresentation, ideal: MonomialIdeal) -> _CechTable:
    degrees = ideal.generator_degrees
    table = pres._cech_tables.get(degrees)
    if table is None:
        lattice = pres.face_lattice
        gen_faces = {smallest_containing_face(pres, g) for g in degrees}
        # the smallest face containing a sum of degrees is the join of their
        # faces: the facets vanishing on the sum vanish on every summand
        joins = {lattice.bottom_id}
        for f in gen_faces:
            if not any(g != f and lattice.leq(g, f) for g in gen_faces):
                zero = lattice.face(f).zero_facets
                joins |= {lattice.face_id_by_zero_facets(
                    lattice.face(j).zero_facets & zero) for j in joins}
        faces = tuple(sorted(joins, key=lambda f: (lattice.face(f).dim, f)))
        table = pres._cech_tables[degrees] = _CechTable(faces, {})
    return table


def _subset_sign(lo, hi) -> int:
    """(-1)^position in hi of the one element of hi missing from lo, else 0."""
    missing = [pos for pos, j in enumerate(hi) if j not in lo]
    return (-1) ** missing[0] if len(missing) == 1 else 0


def cech_slice(pres: ToricPresentation, ideal: MonomialIdeal, a, present=None):
    """Term labels and differentials of a complex with the cohomology of the
    degree-a slice of the Cech complex on one generator per minimal face;
    present, when given, is the set of elements of L whose localization
    contains a.

    A subset of generators is present iff its join is, and present subsets
    are closed upward, so H^i of the slice is reduced H^(i-2) of the complex
    of subsets with absent join.  With the bottom face present (a in the
    semigroup) that complex is void and the slice zero.  Otherwise it is
    homotopy equivalent to the order complex of P_a, the absent elements of
    L but the bottom (crosscut theorem; Bjorner, "Topological methods",
    Thm. 10.8): the labels are its chains, k faces in degree k + 1."""
    table = _cech_table(pres, ideal)
    leq = pres.face_lattice.leq
    if present is None:
        present = localization_faces(pres, a, table.faces)
    if any(g not in present and leq(f, g) for f, g in product(present, table.faces)):
        raise AssertionError(f"localization support shrank at {a}: {sorted(present)}")
    if table.faces[0] in present:
        return [], []
    absent = [f for f in table.faces[1:] if f not in present]
    labels = [[], [()]]
    while labels[-1]:
        labels.append([c + (f,) for c in labels[-1] for f in absent
                       if not c or (f != c[-1] and leq(c[-1], f))])
    return labels[:-1], _coboundaries(labels[:-1], _subset_sign)


def cech_ranks(pres: ToricPresentation, ideal: MonomialIdeal, a, key=None) -> tuple:
    """Cohomology ranks, by cohomological degree 0..#generators, of the
    degree-a Cech slice, memoized per set of present faces, which are read
    off a's key, its signature (computed unless given); zero in the
    semigroup and when the top of L, the end of any chain of m faces
    (degree m + 1, m minimal faces), is absent, as P_a then has a maximum."""
    table = _cech_table(pres, ideal)
    present = localization_faces(pres, a, table.faces, key)
    ranks = table.ranks.get(present)
    if ranks is None:
        labels, diffs = cech_slice(pres, ideal, a, present)
        ranks = _complex_ranks([len(l) for l in labels], diffs)
        t = len(ideal.generator_degrees)
        if any(ranks[t + 1:]):
            raise AssertionError(f"Cech ranks {ranks} above degree {t} at {a}")
        ranks = table.ranks[present] = (ranks + (0,) * (t + 1))[:t + 1]
    return ranks


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
    """Whether the degree-a slice of the chosen cohomology module is nonzero.
    Cohomological degrees above the number of generators have empty support."""
    if degree < 0:
        raise ValueError(f"cohomological degree must be nonnegative, got {degree}")
    return (degree <= len(ideal.generator_degrees)
            and cech_ranks(pres, ideal, a)[degree] > 0)


def socle_probe(pres: ToricPresentation, ideal: MonomialIdeal,
                cohomological_degrees, radii) -> tuple:
    """Count socle degrees inside centered boxes of the given radii, one
    SocleProbe per cohomological degree, in the order given.

    A degree is a socle degree when it supports the module but every
    translate by a generator column leaves the support.  One walk of the
    box answers every cohomological degree: it goes a scan line at a time,
    a run of constant signature at a time (semigroups.line_runs), and the
    Cech ranks are memoized by signature, whether reached as box point or
    translate.  The runs of the translates of a supported run, over the
    run's own degrees, cut it into pieces on which every translate keeps
    one signature, so a piece is all socle degrees or none and is decided
    once; the ranks of a translate are computed only as needed.  Each line
    is walked once, over the box's range widened by the columns' last
    coordinates, and memoized: the translate of a run by a column lies on
    the line of the prefix plus the column, and its runs are a bisect slice
    of that line's runs."""
    degrees = [int(i) for i in cohomological_degrees]
    if any(i < 0 for i in degrees):
        raise ValueError(f"cohomological degrees must be nonnegative, got {degrees}")
    radii = sorted(set(int(r) for r in radii))
    if not radii or radii[0] < 0:
        raise ValueError(f"socle radii must be nonnegative and nonempty, got {radii}")
    # cohomological degrees above the number of generators have empty support
    live = [k for k, i in enumerate(degrees) if i <= len(ideal.generator_degrees)]
    columns = [c for c in pres.columns if not la.is_zero_vector(c)]
    memo = {}

    def ranks(sig, a, shift=None) -> tuple:
        hit = memo.get(sig)
        if hit is None:
            degree = a if shift is None else la.vadd(a, shift)
            hit = memo[sig] = cech_ranks(pres, ideal, degree, sig)
        return hit

    # each line's runs, as (starts, signatures), over the box's range widened
    # by the columns' last coordinates, so that a run's translate by a column
    # lies on a line already walked
    lo, hi = -radii[-1], radii[-1] + 1
    wide = (lo + min(0, *(c[-1] for c in columns)), hi + max(0, *(c[-1] for c in columns)))
    walked = {}

    def line(prefix) -> tuple:
        hit = walked.get(prefix)
        if hit is None:
            hit = walked[prefix] = tuple(zip(*line_runs(pres, prefix, *wide)))
        return hit

    found = [[] for _ in degrees]
    lines = scan_lines(pres.dim, radii[-1]) if live else ()
    for prefix, _ in lines:
        starts, sigs = line(prefix)
        first, stop = bisect_right(starts, lo) - 1, bisect_left(starts, hi)
        bounds = [lo, *starts[first + 1:stop], hi]
        for start, end, sig in zip(bounds, bounds[1:], sigs[first:stop]):
            here = ranks(sig, prefix + (start,))
            supported = [k for k in live if here[degrees[k]]]
            if not supported:
                continue
            # (column, its last coordinate, run starts and signatures) of the
            # translate line of each column; a degree x of the run moves to
            # x + last there, and the translates' runs cut the run in pieces
            moved = [(c, c[-1], *line(tuple(map(add, prefix, c)))) for c in columns]
            cuts = sorted({start} | {
                t - last for _, last, ts, _ in moved
                for t in ts[bisect_right(ts, start + last):bisect_left(ts, end + last)]})
            for x, y in zip(cuts, [*cuts[1:], end]):
                point = prefix + (x,)
                for k in supported:
                    i = degrees[k]
                    if not any(ranks(ss[bisect_right(ts, x + last) - 1], point, c)[i]
                               for c, last, ts, ss in moved):
                        found[k] += (prefix + (z,) for z in range(x, y))
    probes = []
    for i, points in zip(degrees, found):
        counts = []
        by_radius = []
        for r in radii:
            inside = tuple(p for p in points if max(abs(x) for x in p) <= r)
            counts.append((r, len(inside)))
            by_radius.append((r, inside))
        probes.append(SocleProbe(i, tuple(counts), tuple(by_radius)))
    return tuple(probes)
