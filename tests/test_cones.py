"""Facet enumeration, face lattices, incidence signs, pointedness."""

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import CORPUS
from toriclc import intlinalg as la
from toriclc.cones import (
    build_face_lattice,
    facet_support_functions,
    is_pointed,
    is_simplicial,
)
from toriclc.errors import NotFullDimensional, NotPointed


def facets_of(rows):
    return facet_support_functions(la.mat(rows))


def test_facets_2dim_example():
    sup = facets_of([[1, 1, 1], [0, 1, 2]])
    assert {s.coefficients for s in sup} == {(0, 1), (2, -1)}


def test_facets_identity():
    for d in (1, 2, 3):
        sup = facets_of(la.identity(d))
        assert {s.coefficients for s in sup} == set(la.identity(d))


def test_facets_hartshorne():
    sup = facets_of([[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1]])
    assert {s.coefficients for s in sup} == {
        (0, 0, 1), (0, 1, 0), (1, -1, 0), (1, 0, -1)
    }


def test_facets_nonnegative_on_columns():
    rows = [[2, 0, 1, 1, 2], [0, 2, 1, 2, 1]]
    m = la.mat(rows)
    cols = la.transpose(m)
    for s in facets_of(rows):
        vals = [s.value(c) for c in cols]
        assert all(v >= 0 for v in vals)
        zero_cols = [c for c, v in zip(cols, vals) if v == 0]
        assert la.rank(la.mat(zero_cols)) == len(rows) - 1


def _kernel_line(rows, d):
    """Primitive integer spanning vector of {x : rows @ x == 0}, or None
    unless the kernel is a line; Fraction row reduction."""
    reduced = [[Fraction(e) for e in r] for r in rows]
    pivots = []
    for c in range(d):
        k = next((i for i in range(len(pivots), len(reduced)) if reduced[i][c]), None)
        if k is None:
            continue
        row = len(pivots)
        reduced[row], reduced[k] = reduced[k], reduced[row]
        reduced[row] = [e / reduced[row][c] for e in reduced[row]]
        for i, other in enumerate(reduced):
            if i != row and other[c]:
                reduced[i] = [e - other[c] * p for e, p in zip(other, reduced[row])]
        pivots.append(c)
    free = [c for c in range(d) if c not in pivots]
    if len(free) != 1:
        return None
    x = [Fraction(0)] * d
    x[free[0]] = Fraction(1)
    for row, c in enumerate(pivots):
        x[c] = -reduced[row][free[0]]
    scale = lcm(*(e.denominator for e in x))
    ints = [int(e * scale) for e in x]
    g = gcd(*ints)
    return tuple(e // g for e in ints)


def _kernel_support_functions(rows):
    """Facet normals from the kernel of every (d-1)-subset of columns."""
    cols = la.transpose(la.mat(rows))
    found = set()
    for subset in combinations(cols, len(rows) - 1):
        g = _kernel_line(subset, len(rows))
        if g is None:
            continue
        vals = [la.dot(g, c) for c in cols]
        if all(v >= 0 for v in vals):
            found.add(g)
        elif all(v <= 0 for v in vals):
            found.add(la.vneg(g))
    return sorted(found)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(lambda d: st.lists(
    st.lists(st.integers(-3, 3), min_size=d, max_size=d), min_size=d, max_size=7,
).map(lambda cols: la.transpose(la.mat(cols)))))
def test_facet_minors_match_kernel_reference(rows):
    assume(la.rank(rows) == len(rows))
    assert [s.coefficients for s in facets_of(rows)] == _kernel_support_functions(rows)


def test_facets_not_full_dimensional():
    with pytest.raises(NotFullDimensional):
        facets_of([[1, 2], [1, 2]])


def test_pointedness():
    assert not is_pointed(facets_of([[1, -1]]), 1)
    assert is_pointed(facets_of([[2, 3]]), 1)
    sup = facets_of([[1, 1, 1], [0, 1, 2]])
    assert is_pointed(sup, 2)
    assert is_simplicial(sup, 2)
    hart = facets_of([[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1]])
    assert is_pointed(hart, 3)
    assert not is_simplicial(hart, 3)


def test_face_lattice_2dim():
    m = la.mat([[1, 1, 1], [0, 1, 2]])
    lattice = build_face_lattice(m, facet_support_functions(m))
    assert len(lattice) == 4
    assert [f.dim for f in lattice.faces] == [0, 1, 1, 2]
    assert lattice.faces[lattice.bottom_id].column_indices == frozenset()
    assert lattice.faces[lattice.top_id].column_indices == frozenset({0, 1, 2})


def test_face_lattice_boolean_for_simplicial():
    for d in (2, 3):
        m = la.identity(d)
        lattice = build_face_lattice(m, facet_support_functions(m))
        assert len(lattice) == 2 ** d


def test_face_lattice_hartshorne():
    m = la.mat([[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1]])
    lattice = build_face_lattice(m, facet_support_functions(m))
    assert len(lattice) == 10
    dims = sorted(f.dim for f in lattice.faces)
    assert dims == [0, 1, 1, 1, 1, 2, 2, 2, 2, 3]


def test_face_lattice_rejects_unpointed():
    m = la.mat([[1, -1]])
    with pytest.raises(NotPointed):
        build_face_lattice(m, facet_support_functions(m))


def test_chain_lengths(pres_hartshorne):
    # every maximal chain in a pointed face lattice has full length
    lattice = pres_hartshorne.face_lattice
    def chains(fid):
        ups = [g.face_id for g in lattice.faces
               if g.dim == lattice.face(fid).dim + 1 and lattice.leq(fid, g.face_id)]
        if not ups:
            return [[fid]]
        return [[fid] + rest for up in ups for rest in chains(up)]
    for chain in chains(lattice.bottom_id):
        assert len(chain) == lattice.dim + 1


@pytest.mark.parametrize("rows", [
    [[1, 1, 1], [0, 1, 2]],
    [[1, 0], [0, 1]],
    [[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1]],
    [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    [[2, 0, 1, 1, 2], [0, 2, 1, 2, 1]],
])
def test_incidence_signs_square_to_zero(rows):
    # exhaustive: for every dim-2 gap, the two paths cancel
    m = la.mat(rows)
    lattice = build_face_lattice(m, facet_support_functions(m))
    checked = 0
    for low in lattice.faces:
        for high in lattice.faces:
            if high.dim != low.dim + 2 or not lattice.leq(low.face_id, high.face_id):
                continue
            mids = [
                f.face_id for f in lattice.faces
                if f.dim == low.dim + 1
                and lattice.leq(low.face_id, f.face_id)
                and lattice.leq(f.face_id, high.face_id)
            ]
            assert len(mids) == 2  # diamond property
            total = sum(
                lattice.incidence_sign(low.face_id, mid)
                * lattice.incidence_sign(mid, high.face_id)
                for mid in mids
            )
            assert total == 0
            checked += 1
    assert checked > 0


def test_incidence_signs_nonzero_on_covers(pres_2dim):
    lattice = pres_2dim.face_lattice
    for low in lattice.faces:
        for high in lattice.faces:
            if high.dim == low.dim + 1 and lattice.leq(low.face_id, high.face_id):
                assert lattice.incidence_sign(low.face_id, high.face_id) in (-1, 1)


# (low face id, high face id) -> sign, as computed by the rational
# coordinate-matrix determinant that the integer determinant replaced
PINNED_SIGNS = {
    "dim2_normal": {(0, 1): 1, (0, 2): 1, (1, 3): 1, (2, 3): -1},
    "dim3_hartshorne": {
        (0, 1): 1, (0, 2): 1, (0, 3): 1, (0, 4): 1,
        (1, 5): 1, (1, 6): 1, (2, 5): -1, (2, 7): 1,
        (3, 6): -1, (3, 8): 1, (4, 7): -1, (4, 8): -1,
        (5, 9): 1, (6, 9): -1, (7, 9): 1, (8, 9): -1,
    },
}


@pytest.mark.parametrize("name", sorted(PINNED_SIGNS))
def test_incidence_signs_pinned(name):
    m = la.mat(CORPUS[name][0])
    lattice = build_face_lattice(m, facet_support_functions(m))
    signs = {
        (low.face_id, high.face_id): lattice.incidence_sign(low.face_id, high.face_id)
        for low in lattice.faces
        for high in lattice.faces
        if lattice.incidence_sign(low.face_id, high.face_id)
    }
    assert signs == PINNED_SIGNS[name]


def test_face_lattice_20gon():
    # cone over the lattice 20-gon, the hull of x^2 + y^2 <= 64: 20 rays,
    # 20 two-dimensional faces, the apex and the whole cone
    rows = [
        [1] * 20,
        [-8, -7, -6, -5, -3, 0, 3, 5, 6, 7, 8, 7, 6, 5, 3, 0, -3, -5, -6, -7],
        [0, -3, -5, -6, -7, -8, -7, -6, -5, -3, 0, 3, 5, 6, 7, 8, 7, 6, 5, 3],
    ]
    m = la.mat(rows)
    lattice = build_face_lattice(m, facet_support_functions(m))
    assert len(lattice) == 42
    assert [len(lattice.faces_of_dim(k)) for k in range(4)] == [1, 20, 20, 1]
