"""Membership oracles, counting functions and classification flags for a
pointed affine semigroup presented by the columns of an integer matrix.

The central object is ToricPresentation: the matrix together with its cone
geometry, the numerical semigroups cut out by the facet support functions,
and the flags normal / scored / Serre-S2.  Normality is decided exactly,
by the table oracle on the box that holds every parallelepiped point of
every simplicial cone spanned by columns.  The other two flags are checked
exhaustively on a finite facet-value box, reported together with that box:
a false flag has a witness there, a true one is the exact definition
restricted to the box, not a global proof.

Membership decisions are exact.  Key observation: every representation of
a degree as a nonnegative combination of columns (plus an element of a
face group) has facet-value partial sums trapped between 0 and the facet
values of the degree itself, because the support functions are nonnegative
on all columns.  A breadth-first closure of the quotient semigroup under a
facet-value cap is therefore a complete decision procedure for every query
whose values fit under the cap.  A depth-first solver with the same
contract is kept as an independent oracle for cross-validation; the two
must agree wherever both can answer.

Flags enable shortcuts: for a normal semigroup, membership in the
semigroup translated by a face group reduces to sign checks of the support
functions of the facets containing the face; for a scored one, to value
checks against the facet numerical semigroups.  The normal shortcut
follows from normality; the scored one is validated against the table
oracle on the verification box and its negation, through the
failing-facet masks that answer the queries, and is disabled on any
disagreement.

On a shortcut the failing-facet mask of a degree, the bitmask of the
facets whose value fails the route's test, is its key: a face's
localization contains the degree iff none of the face's facets is in the
mask, so every shortcut answer depends on a degree only through it (the
sector data of Helm-Miller's sector partition).  Along a scan line a
facet's bit changes only at its sign threshold and, on the scored route,
beside the few degrees where its value is a gap.  On the table path the
key holds one membership bit per proper face and residue representative,
read off tables keyed by facet values and torsion residues.  One line
kernel (line_runs) cuts a line into maximal runs of constant key on every
route; the class scan and socle probes walk their boxes a run at a time.
One decode (key_residues), memoized per key on the presentation, turns a
key into its residue sets per face, the signature, from which the faces
present are read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import product
from math import gcd
from operator import add, gt, le, mod, mul

from . import intlinalg as la
from .cones import (
    FaceLattice,
    build_face_lattice,
    facet_support_functions,
    is_pointed,
    is_simplicial,
    matrix_columns,
)
from .errors import (
    FullLatticeRequired,
    GeneratorNotInSemigroup,
    NotPointed,
    SearchBoundExceeded,
)


@dataclass(frozen=True)
class NumericalSemigroup:
    """A cofinite subsemigroup of the nonnegative integers."""

    generators: tuple
    conductor: int
    gaps: frozenset

    @cached_property
    def _escapes(self) -> tuple:
        """Escape counts at the shifts 1 - conductor, ..., conductor - 1,
        tabled on first use.

        x + shift leaves the semigroup either below 0, which takes the
        members under max(0, -shift), or at a gap g, which takes the member
        g - shift when there is one; the two cases are disjoint."""
        c = self.conductor
        # membership of 0, ..., 2c - 1, which holds every g - shift >= 0
        member = [x not in self.gaps for x in range(2 * c)]
        table = [sum(member[:max(0, -shift)]) for shift in range(1 - c, c)]
        for g in self.gaps:
            for shift in range(1 - c, g + 1):
                table[shift + c - 1] += member[g - shift]
        return tuple(table)

    def __contains__(self, x) -> bool:
        x = int(x)
        if x < 0:
            return False
        return x >= self.conductor or x not in self.gaps

    def escape_count(self, shift: int) -> int:
        """Number of members x with x + shift outside the semigroup; finite
        because everything from the conductor on is a member.

        A shift of at least the conductor moves every member to the
        conductor or beyond.  One of at most minus the conductor moves
        -shift members out: the -shift - #gaps members below -shift, and
        for each gap g the member g - shift, which is past the conductor.
        The counts in between are tabled, so every call is O(1)."""
        if shift >= self.conductor:
            return 0
        if shift <= -self.conductor:
            return -shift
        return self._escapes[shift + self.conductor - 1]


def numerical_semigroup(values) -> NumericalSemigroup:
    """Build the numerical semigroup generated by the positive members of
    `values`; their gcd must be 1 so that the gap set is finite."""
    gens = sorted({int(v) for v in values if int(v) > 0})
    if not gens:
        raise ValueError("no positive generators")
    g = 0
    for v in gens:
        g = gcd(g, v)
    if g != 1:
        raise ValueError(f"generators {gens} are not coprime")
    smallest = gens[0]
    reachable = [True]
    run = 1  # zero is always a member
    i = 0
    while run < smallest:
        i += 1
        hit = any(i >= v and reachable[i - v] for v in gens)
        reachable.append(hit)
        run = run + 1 if hit else 0
    conductor = i - smallest + 1
    gaps = frozenset(j for j in range(conductor) if not reachable[j])
    return NumericalSemigroup(tuple(gens), conductor, gaps)


class ToricPresentation:
    """An integer matrix together with derived cone, semigroup and flag data.

    Construct with ToricPresentation.build().  All derived data is immutable
    once built; the memoization caches are only ever extended, so sharing a
    presentation between threads is safe under CPython's dict guarantees.
    """

    def __init__(self):
        raise TypeError("use ToricPresentation.build(...)")

    @classmethod
    def build(cls, rows, *, search_bound=None, box_margin: int = 10):
        self = object.__new__(cls)
        matrix = la.mat(rows)
        if not matrix or not matrix[0]:
            raise ValueError("matrix must have at least one row and column")
        if any(len(r) != len(matrix[0]) for r in matrix):
            raise ValueError("ragged matrix")
        self.matrix = matrix
        self.dim = len(matrix)
        self.ncols = len(matrix[0])
        self.columns = matrix_columns(matrix)
        column_lattice = la.Sublattice.from_vectors(self.dim, self.columns)
        if column_lattice.rank < self.dim:
            # facet_support_functions reports this too; fail early with context
            from .errors import NotFullDimensional

            raise NotFullDimensional(
                f"columns span rank {column_lattice.rank} < {self.dim}"
            )
        if column_lattice.basis != la.identity(self.dim):
            raise FullLatticeRequired(
                "columns must generate the full integer lattice"
            )
        self.supports = facet_support_functions(matrix)
        self.pointed = is_pointed(self.supports, self.dim)
        self.simplicial = is_simplicial(self.supports, self.dim)
        max_entry = max(abs(e) for row in matrix for e in row)
        if search_bound is not None and int(search_bound) <= 0:
            raise ValueError("search_bound must be positive")
        self.search_bound = (
            int(search_bound) if search_bound
            else 10 * max(1, max_entry) * self.dim
        )
        if int(box_margin) < 0:
            raise ValueError("box_margin must be nonnegative")
        self.box_margin = int(box_margin)
        # memory guard for membership tables; exceeding it raises
        # SearchBoundExceeded rather than exhausting memory
        self.table_state_limit = 250_000
        self._face_lattice = None
        self._facet_semigroups = {}
        self._face_groups = {}
        self._face_quotients = {}
        self._tables = {}
        self._residue_reps = {}
        self._cech_tables = {}
        self._residues_by_key = {}
        self._key_layout = None
        # grading's generator monomials and exponent-map checks, on first use
        self._exponent_map = None
        self._zero_facet_masks = ()
        self._zero_facet_ids = ()
        self.normal = None
        self.scored = None
        self.serre_s2 = None
        self.fast_path = None
        self.verification_box = None
        self.flag_evidence = None
        if self.pointed:
            self._face_lattice = build_face_lattice(matrix, self.supports)
            # bit s of a face's mask is set iff facet s contains the face
            self._zero_facet_masks = tuple(
                sum(1 << s for s in face.zero_facets)
                for face in self._face_lattice.faces
            )
            # the facets containing each face, sorted: the table coordinates
            self._zero_facet_ids = tuple(
                tuple(sorted(face.zero_facets)) for face in self._face_lattice.faces
            )
            _classify(self)
        return self

    # -- geometry accessors -------------------------------------------------

    def _require_pointed(self) -> None:
        if not self.pointed:
            raise NotPointed("operation requires a pointed semigroup")

    @property
    def face_lattice(self) -> FaceLattice:
        self._require_pointed()
        return self._face_lattice

    def facet_values(self, v) -> tuple:
        return tuple(s.value(v) for s in self.supports)

    def facet_semigroup(self, facet_id: int) -> NumericalSemigroup:
        ns = self._facet_semigroups.get(facet_id)
        if ns is None:
            vals = [self.supports[facet_id].value(c) for c in self.columns]
            ns = numerical_semigroup(vals)
            self._facet_semigroups[facet_id] = ns
        return ns

    def max_facet_conductor(self) -> int:
        return max(self.facet_semigroup(s.facet_id).conductor for s in self.supports)

    def face_group(self, face_id: int) -> la.Sublattice:
        lat = self._face_groups.get(face_id)
        if lat is None:
            face = self.face_lattice.face(face_id)
            lat = la.Sublattice.from_vectors(
                self.dim, (self.columns[i] for i in sorted(face.column_indices))
            )
            self._face_groups[face_id] = lat
        return lat

    def face_quotient(self, face_id: int) -> la.QuotientGroup:
        q = self._face_quotients.get(face_id)
        if q is None:
            q = la.quotient(self.dim, self.face_group(face_id))
            self._face_quotients[face_id] = q
        return q

    # -- membership ---------------------------------------------------------

    def _table(self, face_id: int):
        tbl = self._tables.get(face_id)
        if tbl is None:
            relevant = self._zero_facet_ids[face_id]
            quot = self.face_quotient(face_id)
            # the facets containing the face cut it out, so their values fix
            # the free part of a degree's image in Z^d / ZF
            if la.rank(la.mat(self.supports[s].coefficients for s in relevant)) != quot.free_rank:
                raise AssertionError(f"facet values of face {face_id} miss its quotient")
            face = self.face_lattice.face(face_id)
            moves = []
            for i, col in enumerate(self.columns):
                if i in face.column_indices or la.is_zero_vector(col):
                    continue
                vals = tuple(self.supports[s].value(col) for s in relevant)
                moves.append((col, vals))
            torsion = [(c, m) for c, m in zip(quot._coord_columns, quot._moduli) if m >= 2]
            tbl = _BfsTable(relevant, torsion, moves)
            self._tables[face_id] = tbl
        return tbl

    def _grown_table(self, face_id: int, vals):
        """The face's table, first rebuilt when a facet value exceeds its cap:
        each cap doubles, or grows to the value or the base cap, never past
        the ceiling; a value above the ceiling raises SearchBoundExceeded."""
        tbl = self._table(face_id)
        if tbl.caps is None or any(map(gt, vals, tbl.caps)):
            ceiling = self._table_ceiling()
            needed = []
            for v, s, old in zip(vals, tbl.relevant, tbl.caps or (0,) * len(vals)):
                if v > ceiling[s]:
                    raise SearchBoundExceeded(
                        f"facet value {v} is above the table ceiling "
                        f"{ceiling[s]}; raise the search bound"
                    )
                base = self.facet_semigroup(s).conductor + self.box_margin
                # double for amortization, but never past the ceiling
                needed.append(min(max(base, v, 2 * old), ceiling[s]))
            tbl.rebuild(needed, self.table_state_limit)
        return tbl

    def _table_membership(self, a, face_id: int) -> bool:
        relevant = self._zero_facet_ids[face_id]
        vals = tuple(self.supports[s].value(a) for s in relevant)
        if any(v < 0 for v in vals):
            return False
        tbl = self._grown_table(face_id, vals)
        return vals + tuple(sum(map(mul, a, c)) % m for c, m in tbl.torsion) in tbl.keys

    def _table_ceiling(self) -> dict:
        """Per-facet bound on table caps: the largest facet value reachable
        by a representation whose coefficients stay within the search bound,
        mirroring the coefficient bound of the depth-first oracle."""
        out = {}
        for s in self.supports:
            colsum = sum(s.value(c) for c in self.columns)
            base = self.facet_semigroup(s.facet_id).conductor + self.box_margin
            out[s.facet_id] = max(self.search_bound * max(1, colsum), 4 * base, 64)
        return out


class _BfsTable:
    """Breadth-first closure of the image of the semigroup in a face
    quotient Z^d / ZF, restricted to facet values within per-facet caps.

    Complete for every query whose facet values fit under the caps: any
    representation of such a degree has all partial sums inside the capped
    region, since moves never decrease a facet value.

    A state of Z^d / ZF is keyed by the values of the facets containing F,
    which fix its free part, followed by its torsion residues (dot products
    with the torsion coordinate columns, reduced mod their moduli).  Both
    are homomorphisms, so a move steps a key by adding its increments and
    reducing the residues, and a degree is a member iff its key is in keys.
    """

    __slots__ = ("relevant", "torsion", "moves", "caps", "keys")

    def __init__(self, relevant, torsion, moves):
        self.relevant = relevant
        self.torsion = tuple(torsion)
        self.moves = tuple(moves)
        self.caps = None
        self.keys = None

    def rebuild(self, caps, state_limit: int) -> None:
        caps = tuple(caps)
        k = len(caps)
        moduli = tuple(m for _, m in self.torsion)
        steps = [vals + tuple(sum(map(mul, col, c)) % m for c, m in self.torsion)
                 for col, vals in self.moves]
        origin = (0,) * (k + len(moduli))
        keys = {origin}
        frontier = [origin]
        while frontier:
            nxt = []
            for key in frontier:
                for step in steps:
                    new = tuple(map(add, key, step))
                    # map stops at the caps, so only facet values are capped
                    if not all(map(le, new, caps)):
                        continue
                    if moduli:
                        new = new[:k] + tuple(map(mod, new[k:], moduli))
                    if new not in keys:
                        keys.add(new)
                        nxt.append(new)
            if len(keys) > state_limit:
                # leave any previously built table intact
                raise SearchBoundExceeded(
                    f"membership table needs more than {state_limit} states"
                )
            frontier = nxt
        self.caps = caps
        self.keys = keys


# -- public membership oracles ----------------------------------------------


def _fails(pres: ToricPresentation, route: str, facet_id: int, value: int) -> bool:
    """Whether a facet value fails the route's test (see line_runs)."""
    return value < 0 or route == "scored" and value in pres.facet_semigroup(facet_id).gaps


def _failing_facets(pres: ToricPresentation, route: str, a) -> int:
    """The failing-facet mask of one degree, from its facet values."""
    a = la.vec(a)
    return sum(1 << s.facet_id for s in pres.supports
               if _fails(pres, route, s.facet_id, s.value(a)))


def localization_faces(pres: ToricPresentation, a, face_ids) -> frozenset:
    """The faces among face_ids whose localization (semigroup + group of the
    face) contains the degree: those that hold residue 0 in the decode of
    the degree's key (key_residues)."""
    pres._require_pointed()
    residues = key_residues(pres, degree_key(pres, a))
    return frozenset(f for f in face_ids if 0 in residues[f])


def in_semigroup(pres: ToricPresentation, a) -> bool:
    """Exact test for membership of a degree in the semigroup."""
    return in_face_localization(pres, a, pres.face_lattice.bottom_id)


def in_face_localization(pres: ToricPresentation, a, face_id: int) -> bool:
    """Exact test for membership in (semigroup + group of the face)."""
    pres._require_pointed()
    a = la.vec(a)
    lattice = pres.face_lattice
    if face_id == lattice.top_id:
        return True
    if pres.fast_path is None:
        return pres._table_membership(a, face_id)
    # the degree's mask misses the face's zero facets
    return not any(_fails(pres, pres.fast_path, s, pres.supports[s].value(a))
                   for s in pres._zero_facet_ids[face_id])


def face_membership_search(pres: ToricPresentation, a, face_id: int,
                           *, search_bound=None) -> bool:
    """Depth-first feasibility search deciding the same membership as
    in_face_localization, independent of the table path.

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
                result = group.contains(rem)
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


def smallest_containing_face(pres: ToricPresentation, b) -> int:
    """Id of the smallest face of the cone containing a semigroup degree."""
    pres._require_pointed()
    b = la.vec(b)
    if not in_semigroup(pres, b):
        raise GeneratorNotInSemigroup(f"{b} is not in the semigroup")
    zero = frozenset(
        s.facet_id for s in pres.supports if s.value(b) == 0
    )
    return pres.face_lattice.face_id_by_zero_facets(zero)


# -- per-degree keys ----------------------------------------------------------


def face_residue_reps(pres: ToricPresentation, face_id: int) -> tuple:
    """Representatives of the residue classes available along one face.

    The zero vector is always the representative with index 0, so the
    sector of a degree can be read off its signature.
    """
    reps = pres._residue_reps.get(face_id)
    if reps is None:
        reps = la.torsion_coset_reps(pres.face_quotient(face_id))
        pres._residue_reps[face_id] = reps
    return reps


def _key_bits(pres: ToricPresentation) -> tuple:
    """The table-path key layout: (face id, first bit, residue reps) per
    proper face, by face id, with one bit per residue representative."""
    if pres._key_layout is None:
        layout, offset = [], 0
        for face in pres.face_lattice.faces:
            if face.face_id != pres.face_lattice.top_id:
                reps = face_residue_reps(pres, face.face_id)
                layout.append((face.face_id, offset, reps))
                offset += len(reps)
        pres._key_layout = tuple(layout)
    return pres._key_layout


def _table_keys(pres: ToricPresentation, prefix, last: int, lo: int, hi: int) -> list:
    """The table-path keys of the degrees prefix + (x + last,), lo <= x < hi.

    A face's bits can be set only where the values F_s = base + slope * x
    of all its facets are nonnegative, an interval of x.  The face's table
    is grown once, to the largest values there, and a - r is a member iff
    its table key, the facet values (F_s(r) = 0) and the torsion residues
    (t0 - t(r) + dt * x) mod m, is in the table."""
    keys = [0] * (hi - lo)
    for face_id, offset, reps in _key_bits(pres):
        start, stop, lines = lo, hi, []
        for s in pres._zero_facet_ids[face_id]:
            coefficients = pres.supports[s].coefficients
            slope = coefficients[-1]
            base = sum(map(mul, coefficients, prefix)) + slope * last
            if slope > 0:
                start = max(start, -(base // slope))
            elif slope < 0:
                stop = min(stop, base // -slope + 1)
            elif base < 0:
                stop = start
            lines.append((base, slope))
        if start >= stop:
            continue
        tbl = pres._grown_table(face_id, [
            max(base + slope * start, base + slope * (stop - 1)) for base, slope in lines])
        xs = range(start, stop)
        vals = [[base + slope * x for x in xs] for base, slope in lines]
        for bit, rep in enumerate(reps, offset):
            residues = [
                [(t0 + c[-1] * x) % m for x in xs]
                for c, m in tbl.torsion
                for t0 in [sum(map(mul, c, prefix)) + c[-1] * last - la.dot(c, rep)]]
            keys[start - lo:stop - lo] = [
                key | 1 << bit if k in tbl.keys else key
                for key, k in zip(keys[start - lo:stop - lo], zip(*vals, *residues))]
    return keys


def line_runs(pres: ToricPresentation, prefix, lo: int, hi: int, shift=None) -> list:
    """Maximal runs [(start, key)] of constant key over the degrees
    prefix + (x,) for lo <= x < hi, translated by shift when given, by
    increasing start: a run ends where the next starts, the last at hi.

    On a fast path the key is the failing-facet mask: bit s is set iff F_s
    fails the route's test, F_s < 0 on route "normal", F_s < 0 or F_s a gap
    of the facet numerical semigroup on route "scored".  Every fast-path
    answer applies that test to F_s(a - r), with r zero or a torsion
    residue representative of a face inside facet s; such an r lies in its
    face's span, so F_s(a - r) = F_s(a), and two degrees with one mask get
    the same answer to every fast-path question.  Along the line
    F_s = base + slope * x, so bit s toggles only at the sign threshold and
    at x and x + 1 for an x where F_s is a gap; toggles at one x are XORed,
    and an x where they cancel starts no run.  On the table path the key
    has one bit per proper face F and residue representative r (_key_bits),
    set iff a - r lies in the semigroup + ZF, every table-path answer; the
    bits of a line are read off the tables (_table_keys)."""
    last = 0
    if shift is not None:
        # map and the dot products below stop at the end of the prefix
        prefix, last = tuple(map(add, prefix, shift)), shift[-1]
    if pres.fast_path is None:
        runs = []
        for x, key in enumerate(_table_keys(pres, prefix, last, lo, hi), lo):
            if not runs or key != runs[-1][1]:
                runs.append((x, key))
        return runs
    mask = 0
    toggles = {}
    for s in pres.supports:
        slope = s.coefficients[-1]
        base = sum(map(mul, s.coefficients, prefix)) + slope * last
        bit = 1 << s.facet_id
        if _fails(pres, pres.fast_path, s.facet_id, base + slope * lo):
            mask |= bit
        if not slope:
            continue
        cuts = [-(base // slope) if slope > 0 else base // -slope + 1]
        if pres.fast_path == "scored":
            for g in pres.facet_semigroup(s.facet_id).gaps:
                x, r = divmod(g - base, slope)
                if not r:
                    cuts += (x, x + 1)
        for x in cuts:
            if lo < x < hi:
                toggles[x] = toggles.get(x, 0) ^ bit
    runs = [(lo, mask)]
    for x in sorted(toggles):
        if toggles[x]:
            mask ^= toggles[x]
            runs.append((x, mask))
    return runs


def degree_key(pres: ToricPresentation, a):
    """The key of one degree, as line_runs gives it."""
    a = la.vec(a)
    return line_runs(pres, a[:-1], a[-1], a[-1] + 1)[0][1]


def key_residues(pres: ToricPresentation, key) -> tuple:
    """Per face, by face id, the frozenset of residue indices i with a - r_i
    in the face's localization, for every degree a of the key, memoized per
    key.  On the table path these are the key's bits, and the full cone
    holds the zero residue alone.  On a fast path every r_i lies in its
    face's span, so a face holds all its residues if its zero-facet mask
    misses the key and none otherwise (see line_runs)."""
    residues = pres._residues_by_key.get(key)
    if residues is None:
        if pres.fast_path is None:
            residues = [frozenset((0,))] * len(pres.face_lattice)
            for face_id, offset, reps in _key_bits(pres):
                residues[face_id] = frozenset(
                    i for i in range(len(reps)) if key >> offset + i & 1)
        else:
            residues = [
                frozenset(() if mask & key else range(len(face_residue_reps(pres, f))))
                for f, mask in enumerate(pres._zero_facet_masks)]
        residues = pres._residues_by_key[key] = tuple(residues)
    return residues


def scan_lines(dim: int, radius: int, inner: int = -1):
    """The points of the centered box of the radius that lie outside the
    box of radius inner, as scan lines (prefix, segments) over the last
    coordinate, in lexicographic order; a segment is a half-open range
    (lo, hi) of x.  A prefix inside the inner box keeps the two segments
    with |x| > inner, any other prefix the whole range."""
    whole = [(-radius, radius + 1)]
    outer = [(-radius, -inner), (inner + 1, radius + 1)]
    for prefix in product(range(-radius, radius + 1), repeat=dim - 1):
        yield prefix, outer if max(map(abs, prefix), default=0) <= inner else whole


# -- classification -----------------------------------------------------------


def _facet_box_points(pres: ToricPresentation, caps) -> list:
    """All integer points whose facet values lie in [0, cap] per facet.

    Walks the image lattice of the facet-value map on a maximal independent
    subset of facets: its Hermite basis is triangular, so the value tuples
    in the box are enumerated coordinate by coordinate with no wasted
    candidates (the image can have large index in the ambient lattice, so
    scanning all value tuples would be far more expensive).  Each Hermite
    row is the value tuple of the matching row of the unimodular transform,
    so the point is carried along as the same combination of those rows and
    filtered against the remaining facets at the end."""
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
    # image lattice of a |-> (F(a)) is generated by the value vectors of
    # the unit directions, i.e. the columns of the basis-normal matrix
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
        # the Hermite basis is triangular: later levels cannot change this
        # coordinate, so its box constraint pins the coefficient range here
        y = -(partial[level] // pivot)
        while partial[level] + y * pivot <= bounds[level]:
            nxt = tuple(p + y * r for p, r in zip(partial, row))
            step(level + 1, nxt, tuple(p + y * u for p, u in zip(point, lift)))
            y += 1

    step(0, (0,) * d, (0,) * d)
    return points


def _normal_caps(pres: ToricPresentation) -> dict:
    """Per facet, the sum of its dim largest column values.  A lattice point
    of the half-open parallelepiped spanned by dim independent columns has
    a smaller value on every facet, so the box under these caps holds every
    such point of every simplicial cone spanned by columns."""
    return {
        s.facet_id: sum(sorted((s.value(c) for c in pres.columns), reverse=True)[:pres.dim])
        for s in pres.supports
    }


def _classify(pres: ToricPresentation) -> None:
    lattice = pres.face_lattice
    bottom = lattice.bottom_id
    oracle = cache(pres._table_membership)
    caps = {
        s.facet_id: pres.facet_semigroup(s.facet_id).conductor + pres.box_margin
        for s in pres.supports
    }
    pres.verification_box = tuple(caps[s.facet_id] for s in pres.supports)

    def holds_box(box) -> bool:
        """Whether the oracle accepts every point of the box on the bottom
        face, from a table built once at the box's caps rather than grown
        to them by doubling."""
        pres._table(bottom).rebuild(
            [box[s] for s in pres._zero_facet_ids[bottom]], pres.table_state_limit)
        return all(oracle(a, bottom) for a in _facet_box_points(pres, box))

    # Q is normal iff it holds every parallelepiped point of every simplicial
    # cone spanned by columns (Bruns-Gubeladze, Polytopes, Rings, and
    # K-Theory, 2009).  Every box point lies in the cone, so a point outside
    # Q is a hole and the verdict is exact either way.  The part of the
    # normal box inside the verification box, which the flag checks below
    # table anyway, is searched for a hole first.
    normal_caps = _normal_caps(pres)
    inner_caps = {s: min(caps[s], normal_caps[s]) for s in caps}
    pres.normal = holds_box(inner_caps) and (
        inner_caps == normal_caps or holds_box(normal_caps))
    if pres.normal:
        # normal => scored => S2, and each localization is cut out by the
        # facets containing its face, so no per-face check is needed
        pres.scored = pres.serre_s2 = True
        pres.fast_path = "normal"
        pres.flag_evidence = dict.fromkeys(("normal", "scored", "serre_s2"), "certified")
        return
    masks = pres._zero_facet_masks

    def with_masks(degrees) -> list:
        return [(a, _failing_facets(pres, "scored", a)) for a in degrees]

    def masks_agree(face_ids, keyed) -> bool:
        """Whether the scored failing-facet masks match the table oracle at
        every (degree, mask) pair on every given face."""
        return all(
            oracle(a, f) == (not masks[f] & fail)
            for f in face_ids for a, fail in keyed
        )

    points = _facet_box_points(pres, caps)
    keyed = with_masks(points)
    facet_ids = [lattice.facet_face_id(s.facet_id) for s in pres.supports]
    pres.scored = masks_agree([bottom], keyed)
    pres.serre_s2 = all(
        oracle(a, bottom) == all(oracle(a, f) for f in facet_ids) for a in points
    )
    if pres.scored and not pres.serre_s2:
        raise AssertionError("flags violate scored => Serre-S2")
    # a false flag has a witness on the box; a true one is only box-checked
    pres.flag_evidence = {
        "normal": "certified",
        "scored": "box" if pres.scored else "certified",
        "serre_s2": "box" if pres.serre_s2 else "certified",
    }
    # trust the scored masks only where they match the table oracle for
    # every proper face on the box, whose facet values are nonnegative, and
    # on the negated box, where a nonzero facet value tests the facet's sign
    proper = [f.face_id for f in lattice.faces if f.face_id != lattice.top_id]
    pres.fast_path = "scored" if (
        pres.scored and masks_agree(proper, keyed)
        and masks_agree(proper, with_masks(map(la.vneg, points)))) else None
