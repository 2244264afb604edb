"""Membership oracles, counting functions and classification flags for a
pointed affine semigroup presented by the columns of an integer matrix.

The central object is ToricPresentation: the matrix together with its cone
geometry, the numerical semigroups cut out by the facet support functions,
and the flags normal / scored / Serre-S2.  Normality is decided exactly,
by the table oracle on the box that holds every parallelepiped point of
every simplicial cone spanned by columns.  The other two flags are checked
exhaustively on a finite facet-value box, reported together with that box:
a false flag has a witness there, a true one is the exact definition
restricted to the box, not a global proof.  Each box is walked lazily, a
point with its facet values at a time; each check reads the face tables
directly, once per distinct table key, and stops at its first witness.

Membership decisions are exact.  Key observation: every representation of
a degree as a nonnegative combination of columns (plus an element of a
face group) has facet-value partial sums trapped between 0 and the facet
values of the degree itself, because the support functions are nonnegative
on all columns.  A breadth-first closure of the quotient semigroup under a
facet-value cap is therefore a complete decision procedure for every query
whose values fit under the cap.  The tests keep a depth-first solver with
the same contract as an independent oracle; the two must agree wherever
both can answer.

Flags enable shortcuts, the normal and scored fast paths: membership in
the semigroup translated by a face group reduces to checking that each
facet containing the face has its value in the facet numerical semigroup
S_s (on the normal route every S_s is N, so the check is a sign check).
The normal shortcut follows from normality; the scored one is validated
against the table oracle on the verification box and its negation, and is
disabled on any disagreement.

A face's residues are the elements of the torsion of Z^d / ZF, indexed by
their torsion coordinates in lexicographic order.  A degree's key is its
signature: one int in the layout _key_bits, with a bit per face and
residue, set iff the degree minus the residue lies in the face's
localization.  One line kernel (line_runs) cuts a line into maximal runs
of constant signature on every route; the class scan and socle probes
walk their boxes a run at a time.  Only this module knows the layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import product
from math import gcd
from operator import add, gt, lshift, mul

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
        # every gap lies below the conductor
        return x >= 0 and x not in self.gaps

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
        # S_s = F_s(Q), by facet id; the columns span Z^d and each F_s is
        # primitive, so their values are coprime
        self.facet_semigroups = tuple(
            numerical_semigroup([s.value(c) for c in self.columns]) for s in self.supports)
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
        self._face_groups = {}
        self._face_quotients = {}
        self._tables = {}
        self._residue_reps = {}
        self._cech_tables = {}
        self._key_layout = None
        # _box_walk's (basis facet, lift, its values) per level, other facets
        self._walk_lifts = None
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
        # fast path: failing-facet mask -> signature, filled on first use
        self._signatures = _MaskSignatures(self._zero_facet_masks)
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

    def max_facet_conductor(self) -> int:
        return max(ns.conductor for ns in self.facet_semigroups)

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
        the ceiling, the largest facet value of a representation whose
        coefficients stay within the search bound, as in the tests'
        depth-first oracle; a value above it raises SearchBoundExceeded."""
        tbl = self._table(face_id)
        if tbl.caps is None or any(map(gt, vals, tbl.caps)):
            needed = []
            for v, s, old in zip(vals, tbl.relevant, tbl.caps or (0,) * len(vals)):
                base = self.facet_semigroups[s].conductor + self.box_margin
                colsum = sum(self.supports[s].value(c) for c in self.columns)
                ceiling = max(self.search_bound * max(1, colsum), 4 * base, 64)
                if v > ceiling:
                    raise SearchBoundExceeded(f"facet value {v} is above the table "
                                              f"ceiling {ceiling}; raise the search bound")
                # double for amortization, but never past the ceiling
                needed.append(min(max(base, v, 2 * old), ceiling))
            tbl.rebuild(needed, self.table_state_limit)
        return tbl

    def _table_membership(self, a, face_id: int) -> bool:
        """Whether a lies in the face's localization, read off its table."""
        return self._table_holds(face_id, self._table_key(face_id, a, self.facet_values(a)))

    def _table_key(self, face_id: int, a, values):
        """The key of a in the face's table, from its facet values by facet
        id, or None when a facet containing the face is negative on a, which
        puts a outside the localization; only a key creates the table."""
        vals = tuple(map(values.__getitem__, self._zero_facet_ids[face_id]))
        if min(vals) < 0:
            return None
        torsion = self._table(face_id).torsion
        return vals + tuple(sum(map(mul, a, c)) % m for c, m in torsion) if torsion else vals

    def _table_holds(self, face_id: int, key) -> bool:
        """Whether a key of the face's table (None: outside every table) is a
        member.  A table holds no key above its caps, so only a miss can need
        it grown (_grown_table), after which its keys are read again."""
        if key is None:
            return False
        keys = self._table(face_id).keys
        return keys is not None and key in keys or \
            key in self._grown_table(face_id, key[:len(self._zero_facet_ids[face_id])]).keys


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
    The search packs a key into one int, a bit field per coordinate that
    holds it plus an offset setting the field's top bit once a facet value
    passes its cap, which no move undoes, or a torsion coordinate reaches
    its modulus, which is then subtracted.
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
        moduli = tuple(m for _, m in self.torsion)
        steps = {vals + tuple(sum(map(mul, col, c)) % m for c, m in self.torsion)
                 for col, vals in self.moves}
        bounds = caps + tuple(m - 1 for m in moduli)
        top = 1 << (max(bounds) + max(map(max, steps), default=0)).bit_length()
        shifts = range(0, len(bounds) * top.bit_length(), top.bit_length())
        offsets = [top - 1 - b for b in bounds]
        over = sum(top << shift for shift in shifts[:len(caps)])
        wraps = [(top << shift, m << shift) for shift, m in zip(shifts[len(caps):], moduli)]
        moves = [sum(map(lshift, step, shifts)) for step in steps]
        origin = sum(map(lshift, offsets, shifts))
        states, frontier = {origin}, [origin]
        while frontier:
            nxt = []
            for state in frontier:
                for move in moves:
                    new = state + move
                    if new & over:
                        continue
                    for bit, m in wraps:
                        if new & bit:
                            new -= m
                    if new not in states:
                        states.add(new)
                        nxt.append(new)
            if len(states) > state_limit:
                # leave any previously built table intact
                raise SearchBoundExceeded(f"membership table needs more than {state_limit} states")
            frontier = nxt
        field = 2 * top - 1
        keys = set()
        while states:  # popped, so each int is freed once its key is made
            state = states.pop()
            keys.add(tuple((state >> shift & field) - off for shift, off in zip(shifts, offsets)))
        # keys first: a reader that sees the new caps must see their keys
        self.keys = keys
        self.caps = caps


# -- public membership oracles ----------------------------------------------


def _failing_facets(pres: ToricPresentation, values) -> int:
    """The failing-facet mask of a degree with the given facet values: bit s
    is set iff F_s lies outside the facet numerical semigroup S_s."""
    return sum(1 << s for s, (v, ns) in enumerate(zip(values, pres.facet_semigroups))
               if v not in ns)


def _degree(pres: ToricPresentation, a):
    """The degree as a vector, which must have pres.dim entries."""
    a = la.vec(a)
    if len(a) != pres.dim:
        raise ValueError(f"degree {a} has {len(a)} entries, expected {pres.dim}")
    return a


def localization_faces(pres: ToricPresentation, a, face_ids, key=None) -> frozenset:
    """The faces among face_ids whose localization (semigroup + group of the
    face) contains the degree: those whose zero-residue bit is set in the
    degree's key, its signature, computed unless given."""
    pres._require_pointed()
    sig = degree_signature(pres, a) if key is None else key
    layout = _key_bits(pres)
    return frozenset(f for f in face_ids if sig >> layout[f][1] & 1)


def in_semigroup(pres: ToricPresentation, a) -> bool:
    """Exact test for membership of a degree in the semigroup."""
    return in_face_localization(pres, a, pres.face_lattice.bottom_id)


def in_face_localization(pres: ToricPresentation, a, face_id: int) -> bool:
    """Exact test for membership in (semigroup + group of the face)."""
    pres._require_pointed()
    a = _degree(pres, a)
    if face_id == pres.face_lattice.top_id:
        return True
    if pres.fast_path is None:
        return pres._table_membership(a, face_id)
    # no facet containing the face fails
    return not _failing_facets(pres, pres.facet_values(a)) & pres._zero_facet_masks[face_id]


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


# -- signatures ---------------------------------------------------------------


def face_residue_reps(pres: ToricPresentation, face_id: int) -> tuple:
    """Representatives of the residues of one face, the torsion of Z^d / ZF,
    by torsion coordinates in lexicographic order, the order of the key
    layout (_key_bits); the zero vector is first.  Only the per-query
    reference route (sectors.face_residues) needs the vectors."""
    reps = pres._residue_reps.get(face_id)
    if reps is None:
        reps = la.torsion_coset_reps(pres.face_quotient(face_id))
        pres._residue_reps[face_id] = reps
    return reps


def _key_bits(pres: ToricPresentation) -> tuple:
    """The signature layout: (face id, first bit, residues) per face, by
    face id, one bit per residue: a tuple k of torsion coordinates of
    Z^d / ZF in the order of the face table's columns, lexicographically.
    The full cone, and every face on a fast path, has k = () alone."""
    if pres._key_layout is None:
        layout, offset = [], 0
        for face in pres.face_lattice.faces:
            residues = ((),)
            if pres.fast_path is None and face.face_id != pres.face_lattice.top_id:
                torsion = pres._table(face.face_id).torsion
                residues = tuple(product(*(range(m) for _, m in torsion)))
            layout.append((face.face_id, offset, residues))
            offset += len(residues)
        pres._key_layout = tuple(layout)
    return pres._key_layout


def _table_keys(pres: ToricPresentation, prefix, last: int, lo: int, hi: int) -> list:
    """The table-path keys of the degrees prefix + (x + last,), lo <= x < hi.

    A face's bits can be set only where the values F_s = base + slope * x
    of all its facets are nonnegative, an interval of x.  The face's table
    is grown once, to the largest values there.  A degree a holds the
    residue with torsion coordinates k iff a - r_k is a member, iff its
    table key, the facet values (F_s(r_k) = 0) and the torsion coordinates
    (t(a) - k) mod m with t(a) = t0 + dt * x, is in the table.  The full
    cone's localization is Z^d, so every key starts with its bit set."""
    top = pres.face_lattice.top_id
    keys = [1 << _key_bits(pres)[top][1]] * (hi - lo)
    for face_id, offset, residues in _key_bits(pres):
        if face_id == top:
            continue
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
        coords = [(sum(map(mul, c, prefix)) + c[-1] * last, c[-1], m) for c, m in tbl.torsion]
        for bit, k in enumerate(residues, offset):
            shifted = [[(t0 - kj + dt * x) % m for x in xs]
                       for (t0, dt, m), kj in zip(coords, k)]
            keys[start - lo:stop - lo] = [
                key | 1 << bit if state in tbl.keys else key
                for key, state in zip(keys[start - lo:stop - lo], zip(*vals, *shifted))]
    return keys


class _MaskSignatures(dict):
    """Signatures by failing-facet mask, filled on first use.  On a fast
    path every face quotient is torsion-free (_classify), so each face has
    one bit, set iff none of the face's facets is in the mask."""

    def __init__(self, zero_facet_masks):
        super().__init__()
        self.zero_facet_masks = zero_facet_masks

    def __missing__(self, mask):
        sig = self[mask] = sum(
            1 << f for f, zero in enumerate(self.zero_facet_masks) if not zero & mask)
        return sig


def line_runs(pres: ToricPresentation, prefix, lo: int, hi: int, shift=None) -> list:
    """Maximal runs [(start, signature)] of constant signature over the
    degrees prefix + (x,) for lo <= x < hi, translated by shift when given,
    by increasing start: a run ends where the next starts, the last at hi.

    On the table path the bits of a line are read off the tables
    (_table_keys).  On a fast path every answer tests F_s(a - r) against
    S_s, with r zero or a torsion residue representative of a face inside
    facet s; such an r lies in its face's span, so F_s(a - r) = F_s(a), and
    the signature is a function of the failing-facet mask.  Each facet is a
    face, so the mask is a function of the signature too, and runs of
    constant mask are the runs of constant signature.  Along the line
    F_s = base + slope * x, so bit s of the mask toggles only at the sign
    threshold and at x and x + 1 for an x where F_s is a gap of S_s;
    toggles at one x are XORed, and an x where they cancel starts no run."""
    last = 0
    if shift is not None:
        # map and the dot products below stop at the end of the prefix
        prefix, last = tuple(map(add, prefix, shift)), shift[-1]
    if pres.fast_path is None:
        runs = []
        for x, sig in enumerate(_table_keys(pres, prefix, last, lo, hi), lo):
            if not runs or sig != runs[-1][1]:
                runs.append((x, sig))
        return runs
    mask = 0
    toggles = {}
    for s, ns in zip(pres.supports, pres.facet_semigroups):
        slope = s.coefficients[-1]
        base = sum(map(mul, s.coefficients, prefix)) + slope * last
        bit = 1 << s.facet_id
        value = base + slope * lo
        if value < 0 or value in ns.gaps:  # value not in ns, without a call
            mask |= bit
        if not slope:
            continue
        cuts = [-(base // slope) if slope > 0 else base // -slope + 1]
        for g in ns.gaps:
            x, r = divmod(g - base, slope)
            if not r:
                cuts += (x, x + 1)
        for x in cuts:
            if lo < x < hi:
                toggles[x] = toggles.get(x, 0) ^ bit
    signatures = pres._signatures
    runs = [(lo, signatures[mask])]
    for x in sorted(toggles):
        if toggles[x]:
            mask ^= toggles[x]
            runs.append((x, signatures[mask]))
    return runs


def degree_signature(pres: ToricPresentation, a) -> int:
    """The signature of one degree: the key of its one-degree run."""
    a = _degree(pres, a)
    return line_runs(pres, a[:-1], a[-1], a[-1] + 1)[0][1]


def signature_residues(pres: ToricPresentation, sig) -> tuple:
    """Per face, by face id, the frozenset of residue indices i whose bit the
    signature sets, r_i having the i-th torsion coordinates of the face's
    layout (_key_bits): a - r_i is in the face's localization."""
    return tuple(frozenset(i for i in range(len(ks)) if sig >> offset + i & 1)
                 for _, offset, ks in _key_bits(pres))


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


def _box_walk(pres: ToricPresentation, caps):
    """Lazily, every integer point whose facet values lie in [0, cap] per
    facet, as (point, facet values by facet id).

    Walks the image lattice of the facet-value map on a maximal independent
    subset of facets: its Hermite basis is triangular, so the value tuples
    in the box are enumerated coordinate by coordinate with no wasted
    candidates (the image can have large index in the ambient lattice, so
    scanning all value tuples would be far more expensive).  Each Hermite
    row is the value tuple of the matching row of the unimodular transform;
    facet values are linear, so a point and all its facet values are
    carried along as the same combination of those rows, and the remaining
    facets are filtered at the end.  The basis facets, the Hermite form and
    the lifts are computed once per presentation, whatever the caps."""
    if pres._walk_lifts is None:
        basis_ids, rows = [], []
        for s in pres.supports:
            if len(rows) < pres.dim and la.rank(la.mat([*rows, s.coefficients])) > len(rows):
                rows.append(s.coefficients)
                basis_ids.append(s.facet_id)
        # image lattice of a |-> (F(a)) is generated by the value vectors of
        # the unit directions, i.e. the columns of the basis-normal matrix
        image_basis, transform = la.hermite_normal_form(la.transpose(la.mat(rows)))
        lifts = []
        for facet_id, row, lift in zip(basis_ids, image_basis, transform):
            values = pres.facet_values(lift)
            if tuple(values[s] for s in basis_ids) != tuple(row):
                raise AssertionError(f"facet values of {lift} are not {row}")
            lifts.append((facet_id, lift, values))
        others = tuple(s.facet_id for s in pres.supports if s.facet_id not in basis_ids)
        pres._walk_lifts = tuple(lifts), others
    lifts, others = pres._walk_lifts

    def step(level, point, values):
        s, lift, shift = lifts[level]
        # the Hermite basis is triangular: later levels cannot change this
        # facet value, so its box constraint pins the coefficient range here
        y = -(values[s] // shift[s])
        point = tuple(p + y * u for p, u in zip(point, lift))
        values = tuple(v + y * w for v, w in zip(values, shift))
        while values[s] <= caps[s]:
            if level + 1 < len(lifts):
                yield from step(level + 1, point, values)
            elif not others or all(0 <= values[t] <= caps[t] for t in others):
                yield point, values
            point = tuple(map(add, point, lift))
            values = tuple(map(add, values, shift))

    return step(0, (0,) * pres.dim, (0,) * len(pres.supports))


class _Walk:
    """A lazy walk that can be walked again: each pass yields the items
    drawn so far, then draws on, so a pass that stops at a witness leaves
    the rest of the box unvisited."""

    def __init__(self, items):
        self._items = items
        self._drawn = []

    def __iter__(self):
        yield from self._drawn
        for item in self._items:
            self._drawn.append(item)
            yield item


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
    read = cache(pres._table_holds)
    caps = {
        s.facet_id: ns.conductor + pres.box_margin
        for s, ns in zip(pres.supports, pres.facet_semigroups)
    }
    pres.verification_box = tuple(caps[s.facet_id] for s in pres.supports)

    def holds_box(box, points) -> bool:
        """Whether every point of the box lies in Q, read off a bottom table
        built once at the box's caps rather than grown to them by doubling;
        Z^d / 0 is torsion-free, so a point's key is its facet values."""
        pres._table(bottom).rebuild(
            [box[s] for s in pres._zero_facet_ids[bottom]], pres.table_state_limit)
        return all(read(bottom, values) for _, values in points)

    # Q is normal iff it holds every parallelepiped point of every simplicial
    # cone spanned by columns (Bruns-Gubeladze, Polytopes, Rings, and
    # K-Theory, 2009).  Every box point lies in the cone, so a point outside
    # Q is a hole and the verdict is exact either way.  The part of the
    # normal box inside the verification box, which the flag checks below
    # walk anyway, is searched for a hole first; when it is the whole
    # verification box, those checks continue its walk.
    normal_caps = _normal_caps(pres)
    inner_caps = {s: min(caps[s], normal_caps[s]) for s in caps}
    inner = _Walk(_box_walk(pres, inner_caps))
    pres.normal = holds_box(inner_caps, inner) and (
        inner_caps == normal_caps or holds_box(normal_caps, _box_walk(pres, normal_caps)))
    if pres.normal:
        # normal => scored => S2, and each localization is cut out by the
        # facets containing its face, so no per-face check is needed
        pres.scored = pres.serre_s2 = True
        pres.fast_path = "normal"
        pres.flag_evidence = dict.fromkeys(("normal", "scored", "serre_s2"), "certified")
        return
    points = inner if inner_caps == caps else _Walk(_box_walk(pres, caps))
    masks = pres._zero_facet_masks
    # each failing-facet mask computed as the scored check reads it
    keyed = _Walk((a, values, _failing_facets(pres, values)) for a, values in points)

    def masks_agree(face_id, box) -> bool:
        """Whether the failing-facet masks match the face's table on
        the box, once per distinct (table key, mask & the face's facets)."""
        bits = masks[face_id]
        return all(read(face_id, key) == (not fail) for key, fail in dict.fromkeys(
            (pres._table_key(face_id, a, values), bits & fail) for a, values, fail in box))

    facet_ids = [lattice.facet_face_id(s.facet_id) for s in pres.supports]
    pres.scored = all(read(bottom, values) == (not masks[bottom] & fail)
                      for _, values, fail in keyed)
    # Q lies in every localization, so only a point outside Q can refute S2
    # and only there are the facet tables read; the origin, the walk's first
    # point, is read at every facet first, which builds each at the box's caps
    origin = (0,) * pres.dim, (0,) * len(pres.supports)
    pres.serre_s2 = all(read(f, pres._table_key(f, *origin)) for f in facet_ids) and all(
        read(bottom, values)
        or not all(read(f, pres._table_key(f, a, values)) for f in facet_ids)
        for a, values in points)
    if pres.scored and not pres.serre_s2:
        raise AssertionError("flags violate scored => Serre-S2")
    # a false flag has a witness on the box; a true one is only box-checked
    pres.flag_evidence = {
        "normal": "certified",
        "scored": "box" if pres.scored else "certified",
        "serre_s2": "box" if pres.serre_s2 else "certified",
    }
    # trust the scored masks only where they match the table oracle for
    # every proper face on the box (keyed in full, as scored holds; on the
    # bottom face that is the scored check), whose facet values are
    # nonnegative, and on the negated box, where a nonzero facet value tests
    # the facet's sign; and only where every proper face quotient, which
    # those tables hold, is torsion-free, as it is for a scored Q: then each
    # face has one residue
    proper = [f.face_id for f in lattice.faces if f.face_id != lattice.top_id]
    negated = _Walk((la.vneg(a), values, _failing_facets(pres, values))
                    for a, positive, _ in keyed for values in [tuple(-v for v in positive)])
    pres.fast_path = "scored" if (
        pres.scored and all(masks_agree(f, keyed) for f in proper if f != bottom)
        and all(masks_agree(f, negated) for f in proper)
        and all(pres.face_quotient(f).is_torsion_free() for f in proper)) else None
