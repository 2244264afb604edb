"""Reference oracles used only by the tests: a depth-first membership
search independent of the tables, lattice membership by Hermite
elimination, residue representative vectors and per-residue membership
queries, monomial localizations, escape sets and counts by their
definitions, the index of a lattice in its saturation, and the flag
classification that materializes each box before walking it."""

from functools import cache, partial
from itertools import combinations, product
from math import gcd
from operator import mul

from toriclc import (
    DimensionUnsupported,
    SearchBoundExceeded,
    in_semigroup,
    smallest_containing_face,
)
from toriclc import intlinalg as la
from toriclc.semigroups import _normal_caps


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


def unimodular_inverse(m):
    """Exact inverse of a unimodular integer matrix."""
    h, u = la.hermite_normal_form(m)
    if h != la.identity(len(m)):
        raise ValueError("matrix is not unimodular")
    return u


def torsion_coset_reps(q: la.QuotientGroup) -> tuple:
    """One representative per element of the torsion of Z^d / L, which is
    (saturation of L) / L, by torsion coordinates in lexicographic order.

    The representative with coordinates k is the sum of k_j w_j, where w_j
    is the row of the inverse coordinate matrix at coordinate j and k is
    zero off the torsion coordinates: it projects to k, so it lies in the
    rational span of L.  The zero vector is first.
    """
    inverse = unimodular_inverse(la.transpose(q._coord_columns))
    return tuple(
        tuple(sum(map(mul, ks, column)) for column in zip(*inverse))
        for ks in product(*(range(max(m, 1)) for m in q._moduli)))


def face_residue_reps(pres, face_id: int) -> tuple:
    """Representatives of the residues of one face, the torsion of Z^d / ZF,
    in the order of the signature layout (torsion coordinates in
    lexicographic order); the zero vector is first."""
    return torsion_coset_reps(pres.face_quotient(face_id))


def face_residues(pres, a, face_id: int) -> frozenset:
    """Residue indices i with a - r_i in the face-translated semigroup, one
    table read per representative r_i (face_residue_reps): the per-query
    reference for the decode of the degree's signature."""
    a = la.vec(a)
    return frozenset(
        i for i, rep in enumerate(face_residue_reps(pres, face_id))
        if table_membership(pres, la.vsub(a, rep), face_id)
    )


def lattice_contains(lattice: la.Sublattice, v) -> bool:
    """Whether the vector lies in the sublattice."""
    if not lattice.basis:
        return la.is_zero_vector(v)
    return lattice_solve(lattice.basis, v) is not None




def table_membership(pres, a, face_id: int) -> bool:
    """Whether the degree lies in the face's localization, read off the
    face's table by its key; the full cone's localization holds every
    degree.  The table route on every regime, also where a fast path
    answers, and independent of the signature: the reference for
    in_face_localization, which reads the face's bit in the signature."""
    if face_id == pres.face_lattice.top_id:
        return True
    a = la.vec(a)
    return pres._table_holds(face_id, pres._table_key(face_id, a, pres.facet_values(a)))


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
    over m; the face's table answers.
    """
    return table_membership(pres, a, smallest_containing_face(pres, b))


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
    return pres.facet_semigroups[0].escape_count(pres.supports[0].value(shift))


def saturation_index(lattice: la.Sublattice) -> int:
    """Index of a sublattice inside its saturation: the gcd of the maximal
    minors of its basis, with no Smith form."""
    basis = lattice.basis
    g = 0
    for cols in combinations(range(lattice.ambient_rank), len(basis)):
        g = gcd(g, la.det(tuple(tuple(row[j] for j in cols) for row in basis)))
    return g


def facet_box_points(pres, caps) -> list:
    """All integer points whose facet values lie in [0, cap] per facet,
    materialized: the Hermite walk of the image lattice of the facet-value
    map on a maximal independent subset of facets, each point checked
    against its own facet values."""
    d = pres.dim
    basis_ids = []
    rows = []
    for s in pres.supports:
        cand = rows + [s.coefficients]
        if la.rank(la.mat(cand)) == len(cand):
            rows.append(s.coefficients)
            basis_ids.append(s.facet_id)
        if len(rows) == d:
            break
    others = [s for s in pres.supports if s.facet_id not in basis_ids]
    bounds = [caps[i] for i in basis_ids]
    image_basis, transform = la.hermite_normal_form(la.transpose(la.mat(rows)))
    points = []

    def step(level, partial, point):
        if level == d:
            if tuple(la.dot(r, point) for r in rows) != partial:
                raise AssertionError(f"facet values of {point} are not {partial}")
            if all(0 <= s.value(point) <= caps[s.facet_id] for s in others):
                points.append(point)
            return
        row = image_basis[level]
        lift = transform[level]
        pivot = row[level]
        y = -(partial[level] // pivot)
        while partial[level] + y * pivot <= bounds[level]:
            nxt = tuple(p + y * r for p, r in zip(partial, row))
            step(level + 1, nxt, tuple(p + y * u for p, u in zip(point, lift)))
            y += 1

    step(0, (0,) * d, (0,) * d)
    return points


def classify_materialized(pres) -> None:
    """The flag classification with every box listed before its first
    membership test, every failing-facet mask computed up front from the
    degree, and the verification box walked afresh: the reference for
    semigroups._classify, which must set the same flags, evidence,
    verification box and fast path, rebuild every table as often and to
    the same caps, and walk no point that this reference does not ask the
    table oracle about.

    scored holds iff the failing-facet masks match every proper face's
    table on the box and on the negated box and every proper face
    quotient is torsion-free; the fast path follows the flags alone.
    Serre-S2 is computed on its own over the whole box, also where scored
    implies it, and the implication is checked."""
    lattice = pres.face_lattice
    bottom = lattice.bottom_id
    oracle = cache(partial(table_membership, pres))
    caps = {
        s.facet_id: ns.conductor + pres.box_margin
        for s, ns in zip(pres.supports, pres.facet_semigroups)
    }
    pres.verification_box = tuple(caps[s.facet_id] for s in pres.supports)

    def holds_box(box) -> bool:
        pres._table(bottom).rebuild(
            [box[s] for s in pres._zero_facet_ids[bottom]], pres.table_state_limit)
        return all(oracle(a, bottom) for a in facet_box_points(pres, box))

    normal_caps = _normal_caps(pres)
    inner_caps = {s: min(caps[s], normal_caps[s]) for s in caps}
    pres.normal = holds_box(inner_caps) and (
        inner_caps == normal_caps or holds_box(normal_caps))
    if pres.normal:
        pres.scored = pres.serre_s2 = True
        pres.fast_path = "normal"
        pres.flag_evidence = dict.fromkeys(("normal", "scored", "serre_s2"), "certified")
        return
    masks = pres._zero_facet_masks

    def with_masks(degrees) -> list:
        return [(a, sum(1 << s for s, v in enumerate(pres.facet_values(a))
                        if v not in pres.facet_semigroups[s]))
                for a in degrees]

    def masks_agree(face_ids, keyed) -> bool:
        return all(
            oracle(a, f) == (not masks[f] & fail)
            for f in face_ids for a, fail in keyed
        )

    points = facet_box_points(pres, caps)
    keyed = with_masks(points)
    facet_ids = [lattice.facet_face_id(s.facet_id) for s in pres.supports]
    proper = [f.face_id for f in lattice.faces if f.face_id != lattice.top_id]
    pres.scored = (
        masks_agree([bottom], keyed) and masks_agree(proper, keyed)
        and masks_agree(proper, with_masks(map(la.vneg, points)))
        and all(pres.face_quotient(f).is_torsion_free() for f in proper))
    pres.serre_s2 = all(
        oracle(a, bottom) == all(oracle(a, f) for f in facet_ids) for a in points
    )
    if pres.scored and not pres.serre_s2:
        raise AssertionError("flags violate scored => Serre-S2")
    pres.flag_evidence = {
        "normal": "certified",
        "scored": "box" if pres.scored else "certified",
        "serre_s2": "box" if pres.serre_s2 else "certified",
    }
    pres.fast_path = "scored" if pres.scored else None
