"""Seed-invariant answers read from toriclc machine reports.

Permuting the matrix columns relabels faces and columns but leaves the
semigroup unchanged.  Facets are sorted by their coefficients and classes are
numbered by a fixed lexicographic degree scan, so facet ids, class ids and
everything below are the same for every seed; face ids and column indices
are not, and are never compared.
"""

from __future__ import annotations

import json
from collections import Counter


def _presentation(frag: dict) -> dict:
    out = {
        "ambient_dim": frag["ambient_dim"],
        "generators": frag["generators"],
        "pointed": frag["pointed"],
        "simplicial": frag["simplicial"],
        "facets": [f["coefficients"] for f in frag["facets"]],
    }
    if frag["pointed"]:
        by_dim = Counter(face["dim"] for face in frag["faces"])
        out["faces_by_dim"] = [by_dim[k] for k in range(frag["ambient_dim"] + 1)]
        flags = frag["flags"]
        out["flags"] = {k: flags[k] for k in ("normal", "scored", "serre_s2", "fast_path")}
    return out


def _sectors(frag: dict) -> dict:
    return {
        "classes": len(frag["classes"]),
        "sectors": len(frag["sectors"]),
        "nonempty_sectors": sum(1 for s in frag["sectors"] if s["nonempty"]),
        "poset_pairs": len(frag["poset"]["strictly_below"]),
    }


def _local_cohomology(frag: dict) -> dict:
    return {
        "total_length": frag["total_length"],
        "modules": [
            {
                "degree": m["cohomological_degree"],
                "length": m["length"],
                "series": [[f["class"], f["multiplicity"]] for f in m["series"]],
            }
            for m in frag["modules"]
        ],
    }


def _grd(report: dict) -> dict:
    pres = report["presentation"]
    cols = list(zip(*pres["matrix"]))
    column_degrees = set(cols) | {tuple(-x for x in c) for c in cols}
    identities = report["exponent_identities"]
    out = {
        # pair degrees in the table come from the first columns, so only the
        # +-column degrees are seed-invariant
        "exponents": sorted(
            [row["degree"], row["exponents"]]
            for row in report["exponent_table"]
            if tuple(row["degree"]) in column_degrees
        ),
        "identities": None if identities is None else {
            "pairs_checked": identities["pairs_checked"],
            "clauses": identities["clauses"],
            "failures": len(identities["failures"]),
        },
        "certificates": sorted((
            [
                cert["kind"],
                cert.get("verified"),
                cert.get("poly_vars"),
                sorted([c["name"], c["ok"]] for c in cert.get("checks", [])),
                cert["error"].split(":", 1)[0] if "error" in cert else None,
            ]
            for cert in report["certificates"]
        ), key=json.dumps),
    }
    dim1 = report.get("dim1")
    if dim1 is not None:
        out["dim1"] = {
            "generator_pairs": sorted(dim1["generator_pairs"]),
            "notcm": dim1.get("notcm"),
            "notcm_skipped": dim1.get("notcm_skipped", "").split(":", 1)[0],
        }
    return out


def extract(report: dict) -> dict:
    """The answers a job is checked on, keyed by report section."""
    out = {"presentation": _presentation(report["presentation"])}
    if "sector_analysis" in report:
        out["sectors"] = _sectors(report["sector_analysis"])
    if "local_cohomology" in report:
        out["local_cohomology"] = _local_cohomology(report["local_cohomology"])
    if "socle" in report:
        out["socle"] = [
            [p["cohomological_degree"], p["counts"]] for p in report["socle"]
        ]
    if report["command"] == "grd":
        out["grd"] = _grd(report)
    return out


def cech_matches_ishida(report: dict) -> bool:
    """For a maximal-ideal lc report: every class's Cech multiplicity equals
    the Ishida rank of its sector, degree by degree, and both complexes see
    the same (sector, degree) pairs.  Vacuously true for other reports."""
    lc = report.get("local_cohomology")
    if lc is None or not lc["ideal"]["maximal"]:
        return True
    cech = {}
    for module in lc["modules"]:
        for factor in module["series"]:
            key = (tuple(factor["sector"]), module["cohomological_degree"])
            cech.setdefault(key, set()).add(factor["multiplicity"])
    ishida = {
        (tuple(p["sector"]), p["cohomological_degree"]): p["rank"]
        for p in report["sector_cohomology"]["pieces"]
    }
    return cech.keys() == ishida.keys() and all(
        mults == {ishida[key]} for key, mults in cech.items()
    )
