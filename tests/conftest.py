"""Shared fixtures: the regression corpus, cached presentations and a
per-degree reference for Cech ranks."""

from itertools import combinations
from pathlib import Path

import pytest

from toriclc import (
    ToricPresentation,
    enumerate_classes,
    smallest_containing_face,
)
from toriclc import intlinalg as la
from oracles import table_membership

REPO = Path(__file__).resolve().parent.parent
CORPUS_DIR = REPO / "corpus"

# name -> (matrix rows, ideal degrees or "maximal" or None)
CORPUS = {
    "dim1_weyl": ([[1]], [(1,)]),
    "dim1_cusp": ([[2, 3]], [(2,)]),
    "dim1_2_5": ([[2, 5]], [(2,)]),
    "dim1_3_4_5": ([[3, 4, 5]], [(3,)]),
    "dim1_3_5_7": ([[3, 5, 7]], [(3,)]),
    "dim1_4_6_9": ([[4, 6, 9]], [(4,)]),
    "dim2_normal": ([[1, 1, 1], [0, 1, 2]], [(1, 1)]),
    "dim2_polynomial": ([[1, 0], [0, 1]], "maximal"),
    "dim2_scored_nonnormal": ([[1, 1, 1], [0, 1, 3]], "maximal"),
    "dim2_nonscored": ([[2, 0, 1, 1, 2], [0, 2, 1, 2, 1]], "maximal"),
    "dim3_hartshorne": ([[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1]],
                        [(1, 0, 0), (1, 1, 0)]),
}

_presentations = {}
_enumerations = {}


def presentation(name: str) -> ToricPresentation:
    pres = _presentations.get(name)
    if pres is None:
        pres = ToricPresentation.build(CORPUS[name][0])
        _presentations[name] = pres
    return pres


def enumeration(name: str):
    enum = _enumerations.get(name)
    if enum is None:
        enum = enumerate_classes(presentation(name))
        _enumerations[name] = enum
    return enum


@pytest.fixture(scope="session")
def corpus_names():
    return tuple(CORPUS)


@pytest.fixture
def pres_2dim():
    return presentation("dim2_normal")


@pytest.fixture
def pres_hartshorne():
    return presentation("dim3_hartshorne")


@pytest.fixture
def pres_cusp():
    return presentation("dim1_cusp")


def reference_cech_ranks(pres, ideal, a):
    """Cech ranks with one table read per generator subset, the subset's
    face localization read off that face's table independently of the
    signature, and the complex built from scratch."""
    degrees = ideal.generator_degrees
    t = len(degrees)
    terms = []
    for size in range(t + 1):
        present = []
        for subset in combinations(range(t), size):
            total = tuple(sum(c) for c in zip(*(degrees[j] for j in subset))) or (0,) * pres.dim
            if table_membership(pres, a, smallest_containing_face(pres, total)):
                present.append(subset)
        terms.append(present)
    rank = []
    for lo_terms, hi_terms in zip(terms, terms[1:]):
        rows = []
        for hi in hi_terms:
            row = []
            for lo in lo_terms:
                extra = set(hi) - set(lo)
                row.append((-1) ** hi.index(extra.pop())
                           if set(lo) < set(hi) else 0)
            rows.append(row)
        rank.append(la.rank(la.mat(rows)))
    rank.append(0)
    return tuple(
        len(terms[i]) - rank[i] - (rank[i - 1] if i else 0) for i in range(t + 1)
    )
