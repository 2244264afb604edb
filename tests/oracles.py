"""Reference oracles used only by the tests: a depth-first membership
search independent of the tables, lattice membership by Hermite
elimination, monomial localizations, escape sets and counts by their
definitions, and the index of a lattice in its saturation."""

from itertools import combinations
from math import gcd

from toriclc import (
    DimensionUnsupported,
    SearchBoundExceeded,
    in_face_localization,
    in_semigroup,
    smallest_containing_face,
)
from toriclc import intlinalg as la


def vec_mat(v, m):
    """Row vector times matrix."""
    return tuple(la.dot(v, col) for col in la.transpose(m))


def lattice_solve(basis, target):
    """Integer x with x @ basis == target, or None if no such x exists."""
    if not basis:
        return () if la.is_zero_vector(target) else None
    h, u = la.hermite_normal_form(basis)
    rem = list(target)
    y = [0] * len(h)
    for i, row in enumerate(h):
        p = next((j for j, e in enumerate(row) if e != 0), None)
        if p is None:
            break
        if rem[p] % row[p] != 0:
            return None
        q = rem[p] // row[p]
        y[i] = q
        if q:
            rem = [r - q * e for r, e in zip(rem, row)]
    if any(rem):
        return None
    return vec_mat(tuple(y), u)


def lattice_contains(lattice: la.Sublattice, v) -> bool:
    """Whether the vector lies in the sublattice."""
    if not lattice.basis:
        return la.is_zero_vector(v)
    return lattice_solve(lattice.basis, v) is not None




def face_membership_search(pres, a, face_id: int, *, search_bound=None) -> bool:
    """Depth-first feasibility search deciding the same membership as
    in_face_localization, independent of the tables.

    Prunes on negativity of the support functions of facets containing the
    face; per-column coefficients are bounded by a strictly positive
    functional on the quotient cone.  Raises SearchBoundExceeded when a
    complete search would need a coefficient above the bound.
    """
    pres._require_pointed()
    a = la.vec(a)
    lattice = pres.face_lattice
    if face_id == lattice.top_id:
        return True
    bound = search_bound if search_bound is not None else pres.search_bound
    face = lattice.face(face_id)
    relevant = pres._zero_facet_ids[face_id]
    coeffs = [pres.supports[s].coefficients for s in relevant]
    vals_a = [la.dot(c, a) for c in coeffs]
    if any(v < 0 for v in vals_a):
        return False
    group = pres.face_group(face_id)
    active = []
    for i, col in enumerate(pres.columns):
        if i in face.column_indices or la.is_zero_vector(col):
            continue
        w = sum(la.dot(c, col) for c in coeffs)
        active.append((w, col))
    active.sort(key=lambda t: (-t[0], t[1]))
    w_a = sum(vals_a)
    for w, _ in active:
        if w_a // w > bound:
            raise SearchBoundExceeded(
                f"coefficient bound {w_a // w} exceeds search bound {bound}"
            )
    memo = {}

    def search(rem, idx) -> bool:
        key = (rem, idx)
        cached = memo.get(key)
        if cached is not None:
            return cached
        result = False
        if all(la.dot(c, rem) >= 0 for c in coeffs):
            if idx == len(active):
                result = lattice_contains(group, rem)
            else:
                w, col = active[idx]
                top = sum(la.dot(c, rem) for c in coeffs) // w
                cur = rem
                for _ in range(top + 1):
                    if search(cur, idx + 1):
                        result = True
                        break
                    cur = la.vsub(cur, col)
        memo[key] = result
        return result

    return search(a, 0)


def in_monomial_localization(pres, a, b) -> bool:
    """True iff a + m*b lies in the semigroup for some m >= 0.

    Inverting the monomial of degree b inverts exactly the smallest face
    containing b, so this equals membership in the semigroup translated by
    that face's group; the equivalence makes the test exact with no search
    over m.
    """
    return in_face_localization(pres, a, smallest_containing_face(pres, b))


def monomial_localization_witness(pres, a, b, *, limit: int = 10000):
    """Smallest m with a + m*b in the semigroup, or None when no m exists."""
    if not in_monomial_localization(pres, a, b):
        return None
    a = la.vec(a)
    b = la.vec(b)
    m = 0
    cur = a
    while not in_semigroup(pres, cur):
        cur = la.vadd(cur, b)
        m += 1
        if m > limit:
            raise SearchBoundExceeded(f"no witness below {limit}")
    return m


def in_escape_set(pres, x, shift) -> bool:
    """Whether x lies in the semigroup but leaves it after translating by
    shift: the membership predicate behind escape_count, and the only view
    of the escape set above dimension one, where the set is usually
    infinite."""
    x = la.vec(x)
    return in_semigroup(pres, x) and not in_semigroup(pres, la.vadd(x, la.vec(shift)))


def escape_count(pres, shift) -> int:
    """Number of semigroup elements x with x + shift outside the semigroup.

    Only defined in ambient dimension one, where the count is finite; the
    facet numerical semigroup makes the enumeration exact.
    """
    if pres.dim != 1:
        raise DimensionUnsupported("escape counts are only finite for dim 1")
    pres._require_pointed()
    shift = la.vec(shift) if not isinstance(shift, int) else (shift,)
    return pres.facet_semigroup(0).escape_count(pres.supports[0].value(shift))


def saturation_index(lattice: la.Sublattice) -> int:
    """Index of a sublattice inside its saturation: the gcd of the maximal
    minors of its basis, with no Smith form."""
    basis = lattice.basis
    g = 0
    for cols in combinations(range(lattice.ambient_rank), len(basis)):
        g = gcd(g, la.det(tuple(tuple(row[j] for j in cols) for row in basis)))
    return g
