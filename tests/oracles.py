"""Reference oracles used only by the tests: monomial localizations, escape
sets and counts by their definitions, and the index of a lattice in its
saturation."""

from toriclc import (
    DimensionUnsupported,
    SearchBoundExceeded,
    in_face_localization,
    in_semigroup,
    smallest_containing_face,
)
from toriclc import intlinalg as la


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
    """Index of a sublattice inside its saturation."""
    if lattice.rank == 0:
        return 1
    sat = lattice.saturation()
    c = la.mat(la.lattice_solve(sat.basis, b) for b in lattice.basis)
    return abs(la.det(c))
