"""Exact linear algebra: normal forms, sublattices, quotients, coset reps."""

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import saturation_index

from toriclc import intlinalg as la

small_matrices = st.integers(1, 4).flatmap(
    lambda rows: st.integers(1, 4).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(-9, 9), min_size=cols, max_size=cols),
            min_size=rows, max_size=rows,
        )
    )
).map(la.mat)


def is_row_hnf(h):
    pivots = []
    for row in h:
        p = next((j for j, e in enumerate(row) if e != 0), None)
        if p is None:
            continue
        assert row[p] > 0
        if pivots:
            assert p > pivots[-1][1]
            for prev_row, _ in pivots:
                assert 0 <= prev_row[p] < row[p]
        pivots.append((row, p))
    return True


def test_hnf_identity():
    ident = la.identity(2)
    h, u = la.hermite_normal_form(ident)
    assert h == ident and u == ident


def test_hnf_zero_matrix():
    z = la.mat([[0, 0], [0, 0]])
    h, u = la.hermite_normal_form(z)
    assert h == z
    assert u == la.identity(2)


def test_hnf_reference_case():
    m = la.mat([[2, 4], [1, 3]])
    h, u = la.hermite_normal_form(m)
    assert la.matmul(u, m) == h
    assert abs(la.det(u)) == 1
    assert is_row_hnf(h)
    # row lattice unchanged: both generate index-2 sublattice of Z^2
    assert abs(la.det(h)) == abs(la.det(m)) == 2


@settings(max_examples=120, deadline=None)
@given(small_matrices)
def test_hnf_properties(m):
    h, u = la.hermite_normal_form(m)
    assert la.matmul(u, m) == h
    assert abs(la.det(u)) == 1
    assert is_row_hnf(h)


def test_snf_reference_cases():
    d, u, v = la.smith_normal_form(la.mat([[2, 0], [0, 3]]))
    assert d == la.mat([[1, 0], [0, 6]])
    assert d == la.matmul(la.matmul(u, la.mat([[2, 0], [0, 3]])), v)
    assert la.smith_normal_form(la.identity(3))[0] == la.identity(3)
    d2, _, _ = la.smith_normal_form(la.mat([[2, 0], [0, 2]]))
    assert d2 == la.mat([[2, 0], [0, 2]])


@settings(max_examples=120, deadline=None)
@given(small_matrices)
def test_snf_properties(m):
    d, u, v = la.smith_normal_form(m)
    assert la.matmul(la.matmul(u, m), v) == d
    assert abs(la.det(u)) == 1 and abs(la.det(v)) == 1
    diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
    for i in range(len(d)):
        for j in range(len(d[0])):
            if i != j:
                assert d[i][j] == 0
    for a, b in zip(diag, diag[1:]):
        assert a >= 0
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0


def test_lattice_solve():
    basis = la.mat([[2, 0], [0, 3]])
    assert la.lattice_solve(basis, (4, 3)) == (2, 1)
    assert la.lattice_solve(basis, (1, 0)) is None
    assert la.lattice_solve((), (0, 0)) == ()
    assert la.lattice_solve((), (1, 0)) is None


def test_saturate_gcd_reduction():
    lat = la.Sublattice.from_vectors(2, [(2, 0)])
    assert lat.saturation().basis == ((1, 0),)


def test_saturate_index_two():
    lat = la.Sublattice.from_vectors(2, [(1, 1), (1, -1)])
    sat = lat.saturation()
    assert sat.basis == la.identity(2)
    assert saturation_index(lat) == 2


def test_saturate_full_lattice():
    lat = la.Sublattice.from_vectors(3, la.identity(3))
    assert lat.saturation() == lat


@settings(max_examples=100, deadline=None)
@given(small_matrices)
def test_saturate_idempotent(m):
    lat = la.Sublattice.from_vectors(len(m[0]), m)
    sat = lat.saturation()
    assert sat.saturation() == sat
    for row in lat.basis:
        assert sat.contains(row)


def test_quotient_torsion():
    lat = la.Sublattice.from_vectors(2, [(1, 1), (1, -1)])
    q = la.quotient(2, lat)
    assert q.free_rank == 0
    assert q.torsion_invariants == (2,)


def test_quotient_free():
    q = la.quotient(2, la.Sublattice.from_vectors(2, [(1, 0)]))
    assert q.free_rank == 1
    assert q.torsion_invariants == ()
    q0 = la.quotient(3, la.Sublattice.from_vectors(3, []))
    assert q0.free_rank == 3


def test_quotient_kills_lattice():
    lat = la.Sublattice.from_vectors(2, [(1, 1), (1, -1)])
    q = la.quotient(2, lat)
    zero = q.project((0, 0))
    for row in lat.basis:
        assert q.project(row) == zero
    assert q.project((1, 0)) != zero


def test_coset_reps_saturated():
    lat = la.Sublattice.from_vectors(2, [(1, 0)])
    assert la.torsion_coset_reps(la.quotient(2, lat)) == ((0, 0),)


def test_coset_reps_dim1():
    lat = la.Sublattice.from_vectors(1, [(2,)])
    reps = la.torsion_coset_reps(la.quotient(1, lat))
    assert sorted(reps) == [(0,), (1,)]


def test_coset_reps_transversal():
    lat = la.Sublattice.from_vectors(2, [(1, 1), (1, -1)])
    q = la.quotient(2, lat)
    reps = la.torsion_coset_reps(q)
    assert len(reps) == 2
    assert reps[0] == (0, 0)
    # pairwise inequivalent modulo the lattice
    seen = {q.project(r) for r in reps}
    assert len(seen) == len(reps)


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_coset_reps_properties(m):
    width = len(m[0])
    lat = la.Sublattice.from_vectors(width, m)
    q = la.quotient(width, lat)
    reps = la.torsion_coset_reps(q)
    # count equals the product of the torsion invariants and the index
    prod = 1
    for t in q.torsion_invariants:
        prod *= t
    assert len(reps) == prod == saturation_index(lat)
    assert len({q.project(r) for r in reps}) == len(reps)
    sat = lat.saturation()
    for r in reps:
        assert sat.contains(r)


@st.composite
def rank_deficient_matrices(draw):
    """Products of a random rows x k and k x cols matrix, k <= 4, with up to
    two zero rows inserted: rank at most k, often below both dimensions."""
    rows, cols, k = draw(st.integers(0, 6)), draw(st.integers(1, 6)), draw(st.integers(0, 4))
    entries = st.integers(-5, 5)
    left = draw(st.lists(st.lists(entries, min_size=k, max_size=k), min_size=rows, max_size=rows))
    right = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                          min_size=k, max_size=k))
    m = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] if k else [0] * cols
         for row in left]
    for pos in draw(st.lists(st.integers(0, rows), max_size=2)):
        m.insert(pos, [0] * cols)
    return la.mat(m)


@settings(max_examples=300, deadline=None)
@given(m=st.one_of(small_matrices, rank_deficient_matrices()))
def test_rank_matches_hermite_rank(m):
    # fraction-free elimination against the nonzero rows of the Hermite form
    h, _ = la.hermite_normal_form(m)
    assert la.rank(m) == sum(1 for row in h if any(row))
