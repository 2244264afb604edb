"""Signatures, equivalence classes and the sector partition.

For a degree a and a face of the cone, the face residue set records which
residue classes l of the saturation of the face group (modulo the face
group itself) satisfy: a - l lies in the semigroup translated by the face
group.  The per-face family of residue sets is the signature of a; degrees
compare by face-wise inclusion of residue sets, and degrees with equal
signatures form the (finitely many) equivalence classes that index the
composition factors of every graded module built from monomial
localizations.

The coarser sector partition only remembers, per face, whether the zero
residue is present; its blocks are indexed by upward-closed sets of faces
(filters).  Signatures refine sectors by construction.

Class enumeration scans growing centered boxes and stops after two
consecutive growth steps discover no new signature; the theory guarantees
finiteness but no effective bound, so the box used is always reported.
Each growth step scans only the shell outside the previous box, a scan
line at a time, and each line a run of constant key at a time
(semigroups.line_runs).  A degree enters only through its key: on the
normal and scored fast paths the mask of the facets failing the route's
test, on the table path its membership bit per face and residue.  So a
degree's signature is decoded from its key (semigroups.key_residues),
memoized per key on the presentation, and the class scan collects keys,
decoding one per class.
"""

from __future__ import annotations

from bisect import insort
from collections import Counter
from dataclasses import dataclass

from . import intlinalg as la
from .errors import CycleDetected
from .semigroups import (
    ToricPresentation,
    degree_key,
    face_residue_reps,
    in_face_localization,
    key_residues,
    line_runs,
    localization_faces,
    scan_lines,
)


@dataclass(frozen=True)
class Signature:
    """Per-face residue sets, indexed by face id; hashable and canonical."""

    residues: tuple  # tuple of frozensets of residue indices


def signature_leq(a: Signature, b: Signature) -> bool:
    return all(x <= y for x, y in zip(a.residues, b.residues))


def face_residues(pres: ToricPresentation, a, face_id: int) -> frozenset:
    """Residue indices l with a - l in the face-translated semigroup."""
    a = la.vec(a)
    reps = face_residue_reps(pres, face_id)
    return frozenset(
        i for i, rep in enumerate(reps)
        if in_face_localization(pres, la.vsub(a, rep), face_id)
    )


def degree_signature(pres: ToricPresentation, a) -> Signature:
    """Per-face residue sets of the degree, decoded from its key."""
    return Signature(key_residues(pres, degree_key(pres, a)))


def sector_of_signature(sig: Signature) -> frozenset:
    return frozenset(fid for fid, res in enumerate(sig.residues) if 0 in res)


def sector_faces(pres: ToricPresentation, a) -> frozenset:
    """The filter of faces whose translated semigroup contains the degree."""
    return localization_faces(pres, a, range(len(pres.face_lattice)))


@dataclass(frozen=True)
class EquivClass:
    class_id: int
    signature: Signature
    representative: la.Vector
    sector: frozenset
    samples: tuple


@dataclass(frozen=True)
class SectorFilter:
    """An upward-closed set of faces with its region's observed status."""

    faces: frozenset
    nonempty: bool
    sample_points: tuple


@dataclass(frozen=True)
class ClassEnumeration:
    classes: tuple
    radius: int
    history: tuple  # (radius, number of new signatures found) per growth step

    def by_id(self, class_id: int) -> EquivClass:
        return self.classes[class_id]

    def class_of(self, pres: ToricPresentation, a) -> EquivClass:
        sig = degree_signature(pres, la.vec(a))
        for cls in self.classes:
            if cls.signature == sig:
                return cls
        raise KeyError(f"degree {a} has a signature outside the enumerated classes")


def default_initial_radius(pres: ToricPresentation) -> int:
    max_entry = max(abs(e) for row in pres.matrix for e in row)
    return max(1, 2 * pres.max_facet_conductor() + max_entry)


GROWTH = 2        # the class scan multiplies its radius by this per step
STABLE_STEPS = 2  # and stops after this many steps with no new signature


def enumerate_classes(pres: ToricPresentation, *, initial_radius=None,
                      samples_per_class: int = 3) -> ClassEnumeration:
    """Collect the distinct signatures on growing centered boxes.

    Each growth step signs only the shell of points outside the previous
    box, a scan line at a time: earlier steps already covered the inner
    points, so they can add no class and no sample.  A line is walked by
    its runs of constant key (semigroups.line_runs), and a run gives its
    first degrees as samples of its key.  Distinct keys decode to distinct
    signatures on every route, so the classes are the keys found, and each
    class's signature is decoded once, at the end (key_residues).
    Stops once STABLE_STEPS consecutive growths add no new signature.
    Class ids are assigned in order of first discovery under a
    lexicographic scan of each shell, so results are deterministic.
    """
    pres._require_pointed()
    radius = initial_radius if initial_radius else default_initial_radius(pres)
    samples = {}  # key -> sample degrees, representative first
    history = []
    inner = -1    # radius of the box already scanned
    stable = 0
    while True:
        new_found = 0
        for prefix, segments in scan_lines(pres.dim, radius, inner):
            for lo, hi in segments:
                runs = line_runs(pres, prefix, lo, hi)
                for (start, key), (end, _) in zip(runs, [*runs[1:], (hi, None)]):
                    pts = samples.get(key)
                    if pts is None:
                        pts = samples[key] = []
                        new_found += 1
                    if len(pts) < samples_per_class:
                        stop = min(end, start + samples_per_class - len(pts))
                        pts += (prefix + (x,) for x in range(start, stop))
        history.append((radius, new_found))
        stable = stable + 1 if new_found == 0 else 0
        if stable >= STABLE_STEPS:
            break
        inner, radius = radius, radius * GROWTH
    signatures = [Signature(key_residues(pres, key)) for key in samples]
    classes = tuple(
        EquivClass(
            class_id=i,
            signature=sig,
            representative=la.vec(pts[0]),
            sector=sector_of_signature(sig),
            samples=la.mat(pts),
        )
        for i, (sig, pts) in enumerate(zip(signatures, samples.values()))
    )
    return ClassEnumeration(classes, radius, tuple(history))


@dataclass(frozen=True)
class ClassPoset:
    """Strict comparabilities between classes plus a linear extension that
    lists larger classes first (suitable for reading off a composition
    series from submodules generated by larger classes)."""

    strictly_below: tuple  # pairs (low_id, high_id)
    linear_extension: tuple


def class_poset(classes) -> ClassPoset:
    below = []
    for a in classes:
        for b in classes:
            if a.class_id == b.class_id:
                continue
            if signature_leq(a.signature, b.signature):
                if signature_leq(b.signature, a.signature):
                    raise CycleDetected(
                        f"distinct classes {a.class_id}, {b.class_id} share a signature"
                    )
                below.append((a.class_id, b.class_id))
    # take the smallest id among the classes with no strict upper left,
    # counting each class's remaining uppers once; ready stays sorted
    uppers = Counter(lo for lo, _ in below)
    lowers = {}
    for lo, hi in below:
        lowers.setdefault(hi, []).append(lo)
    ready = sorted(c.class_id for c in classes if not uppers[c.class_id])
    extension = []
    while ready:
        extension.append(ready.pop(0))
        for lo in lowers.get(extension[-1], ()):
            uppers[lo] -= 1
            if not uppers[lo]:
                insort(ready, lo)
    if len(extension) < len(classes):
        raise CycleDetected("no maximal class among the remaining ones")
    return ClassPoset(tuple(sorted(below)), tuple(extension))


# most faces whose filters a sector inventory lists: their number can grow
# exponentially with the faces, so above this (the cube has 28 faces) reports
# list only the observed sectors
FILTER_FACE_LIMIT = 18


def all_sector_filters(pres: ToricPresentation) -> tuple:
    """Every filter of the face lattice containing the full cone.

    Built top down, when the lattice has at most FILTER_FACE_LIMIT faces:
    the faces are visited by decreasing dimension, and face f joins every
    filter built so far that already holds every face above f, so each
    filter is built once.  The region of a filter missing the full cone is
    empty, so such filters are skipped.
    """
    lattice = pres.face_lattice
    n = len(lattice)
    if n > FILTER_FACE_LIMIT:
        raise ValueError(f"face lattice too large to enumerate filters ({n} faces)")
    out = [frozenset((lattice.top_id,))]
    for k in range(lattice.dim - 1, -1, -1):
        for f in lattice.faces_of_dim(k):
            above = {g for g in range(n) if g != f and lattice.leq(f, g)}
            out += [faces | {f} for faces in out if above <= faces]
    out.sort(key=lambda s: (len(s), sorted(s)))
    return tuple(out)


def sector_inventory(pres: ToricPresentation,
                     enumeration: ClassEnumeration) -> tuple:
    """All candidate sector filters with their observed occupancy.

    A filter is reported nonempty when some enumerated class lives in it;
    emptiness is relative to the scanned box recorded in the enumeration.
    """
    observed = {}
    for cls in enumeration.classes:
        observed.setdefault(cls.sector, []).extend(cls.samples)
    try:
        candidates = all_sector_filters(pres)
    except ValueError:
        candidates = tuple(sorted(observed, key=lambda s: (len(s), sorted(s))))
    out = []
    for faces in candidates:
        pts = observed.get(faces, [])
        out.append(SectorFilter(faces, bool(pts), la.mat(pts[:3])))
    return tuple(out)
