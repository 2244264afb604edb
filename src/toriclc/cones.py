"""Geometry of the rational cone spanned by the columns of an integer matrix.

Provides facet support functions (primitive integer functionals that are
nonnegative on the cone and vanish on one facet), the full face lattice of
a pointed cone, and signed incidence data orienting the face-indexed
cochain complex.  Faces are identified with the set of generating columns
they contain.

Facet enumeration is brute force over (d-1)-subsets of columns; this is
deliberate, since the inputs are desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd

from . import intlinalg as la
from .errors import NotFullDimensional, NotPointed


@dataclass(frozen=True)
class SupportFunction:
    """A primitive linear functional vanishing on one facet of the cone and
    nonnegative on every generating column."""

    facet_id: int
    coefficients: la.Vector

    def value(self, v) -> int:
        return la.dot(self.coefficients, v)


@dataclass(frozen=True)
class Face:
    face_id: int
    column_indices: frozenset
    dim: int
    zero_facets: frozenset  # facet ids whose support function vanishes on the face


def matrix_columns(matrix: la.Matrix) -> tuple:
    return la.transpose(matrix)


def primitive(v: la.Vector) -> la.Vector:
    g = 0
    for a in v:
        g = gcd(g, abs(a))
    if g in (0, 1):
        return v
    return tuple(a // g for a in v)


def facet_support_functions(matrix: la.Matrix) -> tuple:
    """One primitive support function per facet, sorted by coefficients.

    The normal of d-1 columns is their vector of signed maximal minors,
    (-1)^i det(rows without column i); it is zero unless they are
    independent.  Raises NotFullDimensional unless the columns span the
    ambient space.
    """
    cols = matrix_columns(matrix)
    d = len(matrix)
    if la.rank(la.mat(cols)) < d:
        raise NotFullDimensional(f"columns span rank {la.rank(la.mat(cols))} < {d}")
    found = set()
    for subset in combinations(cols, d - 1):
        g = primitive(tuple(
            (-1) ** i * la.det([r[:i] + r[i + 1:] for r in subset])
            for i in range(d)))
        if la.is_zero_vector(g):
            continue
        vals = [la.dot(g, c) for c in cols]
        if all(v >= 0 for v in vals):
            found.add(g)
        elif all(v <= 0 for v in vals):
            found.add(la.vneg(g))
    ordered = sorted(found)
    return tuple(SupportFunction(i, f) for i, f in enumerate(ordered))


def is_pointed(supports, dim: int) -> bool:
    """Pointed iff the facet normals span the dual space, so their common
    kernel is the origin alone."""
    if not supports:
        return dim == 0
    return la.rank(la.mat(s.coefficients for s in supports)) == dim


def is_simplicial(supports, dim: int) -> bool:
    return len(supports) == dim


class FaceLattice:
    """All faces of a pointed full-dimensional cone, ordered by inclusion.

    Incidence signs orient the face-indexed cochain complex.  The sign of a
    codimension-one inclusion compares the orientation of (basis of the
    small face, an interior point of the big face) against the chosen basis
    of the big face; with this convention consecutive coboundaries compose
    to zero, which is asserted at construction time.
    """

    def __init__(self, faces, signs, dim):
        self.faces = faces
        self.dim = dim
        self._signs = signs
        self._by_zero_facets = {f.zero_facets: f.face_id for f in faces}
        bottoms = [f for f in faces if f.dim == 0]
        tops = [f for f in faces if f.dim == dim]
        if len(bottoms) != 1 or len(tops) != 1:
            raise NotPointed("face lattice lacks a unique bottom or top face")
        self.bottom_id = bottoms[0].face_id
        self.top_id = tops[0].face_id

    def __len__(self):
        return len(self.faces)

    def face(self, face_id: int) -> Face:
        return self.faces[face_id]

    def leq(self, low_id: int, high_id: int) -> bool:
        return self.faces[low_id].column_indices <= self.faces[high_id].column_indices

    def incidence_sign(self, low_id: int, high_id: int) -> int:
        return self._signs.get((low_id, high_id), 0)

    def faces_of_dim(self, k: int) -> tuple:
        return tuple(f.face_id for f in self.faces if f.dim == k)

    def face_id_by_zero_facets(self, zero_facets: frozenset) -> int:
        return self._by_zero_facets[zero_facets]

    def facet_face_id(self, facet_id: int) -> int:
        """The face cut out by a single facet."""
        return self._by_zero_facets[frozenset((facet_id,))]

    def is_filter(self, face_ids) -> bool:
        """True when the set of faces is closed upward under inclusion."""
        face_ids = frozenset(face_ids)
        return all(
            other.face_id in face_ids
            for fid in face_ids
            for other in self.faces
            if self.leq(fid, other.face_id)
        )


def build_face_lattice(matrix: la.Matrix, supports) -> FaceLattice:
    """Enumerate every face as an intersection of facets and orient the
    resulting lattice.  Raises NotPointed when the cone contains a line.

    Faces are found by a worklist that starts from the whole cone and cuts
    each known face by each facet, so the work is O(#faces * #facets)."""
    cols = matrix_columns(matrix)
    d = len(matrix)
    if not is_pointed(supports, d):
        raise NotPointed("cone contains a line")
    nf = len(supports)
    values = [[s.value(c) for s in supports] for c in cols]

    whole = frozenset(range(len(cols)))
    colsets = {whole}
    todo = [whole]
    while todo:
        colset = todo.pop()
        for s in range(nf):
            cut = frozenset(i for i in colset if values[i][s] == 0)
            if cut not in colsets:
                colsets.add(cut)
                todo.append(cut)

    bases = {}
    for colset in colsets:
        basis = []
        for i in sorted(colset):
            cand = basis + [cols[i]]
            if la.rank(la.mat(cand)) == len(cand):
                basis.append(cols[i])
        bases[colset] = tuple(basis)
    ordered = sorted(colsets, key=lambda cs: (len(bases[cs]), sorted(cs)))
    faces = tuple(
        Face(fid, cs, len(bases[cs]),
             frozenset(s for s in range(nf) if all(values[i][s] == 0 for i in cs)))
        for fid, cs in enumerate(ordered)
    )
    bases = tuple(bases[cs] for cs in ordered)

    signs = {}
    for low in faces:
        for high in faces:
            if high.dim != low.dim + 1 or not low.column_indices <= high.column_indices:
                continue
            interior = la.zero_vector(d)
            for i in high.column_indices:
                interior = la.vadd(interior, cols[i])
            # rows = C @ B for the high basis B, and det(B @ B^T) > 0, so
            # det(rows @ B^T) has the sign of the coordinate matrix C
            rows = bases[low.face_id] + (interior,)
            det = la.det(la.matmul(rows, la.transpose(bases[high.face_id])))
            if det == 0:
                raise AssertionError(f"degenerate incidence {low.face_id} < {high.face_id}")
            signs[(low.face_id, high.face_id)] = 1 if det > 0 else -1

    lattice = FaceLattice(faces, signs, d)
    _assert_coboundary_squares_to_zero(lattice)
    return lattice


def _assert_coboundary_squares_to_zero(lattice: FaceLattice) -> None:
    for low in lattice.faces:
        for high in lattice.faces:
            if high.dim != low.dim + 2:
                continue
            if not lattice.leq(low.face_id, high.face_id):
                continue
            total = sum(
                lattice.incidence_sign(low.face_id, mid.face_id)
                * lattice.incidence_sign(mid.face_id, high.face_id)
                for mid in lattice.faces
                if mid.dim == low.dim + 1
                and lattice.leq(low.face_id, mid.face_id)
                and lattice.leq(mid.face_id, high.face_id)
            )
            if total != 0:
                raise AssertionError(
                    f"incidence signs violate d*d == 0 between faces "
                    f"{low.face_id} and {high.face_id}"
                )
