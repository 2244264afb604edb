"""Report assembly and rendering.

Machine reports are canonical JSON (sorted keys, two-space indent, trailing
newline): byte-identical for identical inputs and options, and exactly the
bytes of json.dumps(report, sort_keys=True, indent=2) plus a newline.  They
are written in one recursive pass (render_machine) rather than through the
standard library's indenting encoder, a chain of pure-Python generators.
Reports hold dicts with str keys, lists or tuples, str, int, bool and None
only; anything else raises TypeError.  Human reports are plain-text tables
carrying the same content.  Wall-clock timing is deliberately not part of
any report; the CLI prints it to stderr.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote

from . import cohomology as co
from . import grading as gr
from . import sectors as se
from .semigroups import ToricPresentation, signature_residues

SCHEMA = "toriclc-report/1"


def render_machine(report: dict) -> str:
    out = []
    _render(report, "", "\n", out)
    out.append("\n")
    return "".join(out)


def _render(value, prefix: str, newline: str, out: list) -> None:
    """Append prefix and the canonical JSON of value to out, prefix joined
    to the value's first piece; newline is a line break followed by the
    indent of the line the value starts on."""
    if isinstance(value, str):
        out.append(prefix + _quote(value))
    elif value is None:
        out.append(prefix + "null")
    elif value is True:
        out.append(prefix + "true")
    elif value is False:
        out.append(prefix + "false")
    elif isinstance(value, int):
        out.append(prefix + int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append(prefix + "[]")
            return
        inner = newline + "  "
        sep = prefix + "[" + inner
        for item in value:
            _render(item, sep, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append(prefix + "{}")
            return
        inner = newline + "  "
        sep = prefix + "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be str, not {type(key).__name__}")
            _render(value[key], sep + _quote(key) + ": ", inner, out)
            sep = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"reports hold no {type(value).__name__}")


# -- report fragments ---------------------------------------------------------


def _presentation_fragment(pres: ToricPresentation) -> dict:
    facets = []
    for s, ns in zip(pres.supports, pres.facet_semigroups):
        facets.append({
            "id": s.facet_id,
            "coefficients": list(s.coefficients),
            "column_values": [s.value(c) for c in pres.columns],
            "value_semigroup": {
                "generators": list(ns.generators),
                "conductor": ns.conductor,
                "gaps": sorted(ns.gaps),
            },
        })
    fragment = {
        "matrix": [list(r) for r in pres.matrix],
        "ambient_dim": pres.dim,
        "generators": pres.ncols,
        "pointed": pres.pointed,
        "simplicial": pres.simplicial,
        "facets": facets,
        "options": {
            "search_bound": pres.search_bound,
            "box_margin": pres.box_margin,
        },
    }
    if pres.pointed:
        fragment["faces"] = [
            {
                "id": f.face_id,
                "dim": f.dim,
                "columns": sorted(f.column_indices),
                "zero_facets": sorted(f.zero_facets),
            }
            for f in pres.face_lattice.faces
        ]
        fragment["flags"] = {
            "normal": pres.normal,
            "scored": pres.scored,
            "serre_s2": pres.serre_s2,
            "evidence": dict(pres.flag_evidence),
            "verification_box": list(pres.verification_box),
            "fast_path": pres.fast_path,
        }
    return fragment


def _classes_fragment(pres: ToricPresentation,
                      enumeration: se.ClassEnumeration,
                      poset: se.ClassPoset) -> dict:
    classes = []
    for cls in enumeration.classes:
        classes.append({
            "id": cls.class_id,
            "representative": list(cls.representative),
            "sector": sorted(cls.sector),
            "residues": [sorted(r) for r in signature_residues(pres, cls.signature)],
            "samples": [list(p) for p in cls.samples],
        })
    sectors = [
        {
            "faces": sorted(s.faces),
            "nonempty": s.nonempty,
            "samples": [list(p) for p in s.sample_points],
        }
        for s in se.sector_inventory(pres, enumeration)
    ]
    return {
        "classes": classes,
        "sectors": sectors,
        "box_radius": enumeration.radius,
        "scan_history": [list(h) for h in enumeration.history],
        "poset": {
            "strictly_below": [list(p) for p in poset.strictly_below],
            "linear_extension": list(poset.linear_extension),
        },
    }


def _module_fragment(enumeration: se.ClassEnumeration,
                     module: co.GradedModuleDescription) -> dict:
    ideal = {
        "maximal": module.ideal.is_maximal,
        "generator_degrees": [list(d) for d in module.ideal.generator_degrees],
    }
    by_degree = []
    for i, factors in module.series_by_degree:
        by_degree.append({
            "cohomological_degree": i,
            "length": module.length_of(i),
            "series": [
                {
                    "class": cid,
                    "multiplicity": mult,
                    "sector": sorted(enumeration.by_id(cid).sector),
                }
                for cid, mult in factors
            ],
        })
    return {
        "ideal": ideal,
        "total_length": module.length,
        "modules": by_degree,
    }


def certificate_fragment(cert: gr.FiberCertificate) -> dict:
    return {
        "kind": cert.kind,
        "verified": cert.verified,
        "checks": [{"name": n, "ok": ok} for n, ok in cert.checks],
        "poly_vars": cert.poly_vars,
        "target_matrix": [list(r) for r in cert.target_matrix],
        "generators": [
            {"degree": list(g.degree), "exponents": list(g.exponents)}
            for g in cert.generator_monomials
        ],
        "notes": list(cert.notes),
    }


# -- full reports -------------------------------------------------------------


def analyze_report(pres: ToricPresentation, echo: dict) -> dict:
    return {
        "schema": SCHEMA,
        "command": "analyze",
        "input": echo,
        "presentation": _presentation_fragment(pres),
    }


def sectors_report(pres, enumeration, poset, echo: dict) -> dict:
    return {
        "schema": SCHEMA,
        "command": "sectors",
        "input": echo,
        "presentation": _presentation_fragment(pres),
        "sector_analysis": _classes_fragment(pres, enumeration, poset),
    }


def lc_report(pres, enumeration, poset, module, socles, echo: dict) -> dict:
    report = {
        "schema": SCHEMA,
        "command": "lc",
        "input": echo,
        "presentation": _presentation_fragment(pres),
        "sector_analysis": _classes_fragment(pres, enumeration, poset),
        "local_cohomology": _module_fragment(enumeration, module),
    }
    if module.ideal.is_maximal:
        sector_view = co.local_cohomology_max(pres, enumeration)
        report["sector_cohomology"] = {
            "pieces": [
                {
                    "sector": sorted(faces),
                    "cohomological_degree": i,
                    "rank": r,
                }
                for faces, i, r in sector_view.pieces
            ],
            "length": sector_view.length,
        }
    if socles:
        report["socle"] = [
            {
                "cohomological_degree": probe.cohomological_degree,
                "counts": [list(c) for c in probe.counts],
                "degrees": {
                    str(r): [list(d) for d in degs[:24]]
                    for r, degs in probe.degrees_by_radius
                },
            }
            for probe in socles
        ]
    return report


def grd_report(pres, exponent_table, identity_report, dim1, certificates, echo: dict) -> dict:
    report = {
        "schema": SCHEMA,
        "command": "grd",
        "input": echo,
        "presentation": _presentation_fragment(pres),
        "exponent_table": exponent_table,
        "exponent_identities": {
            "pairs_checked": identity_report.pairs_checked,
            "clauses": [list(c) for c in identity_report.clause_counts],
            "failures": list(identity_report.failures),
        } if identity_report else None,
        "certificates": certificates,
    }
    if dim1 is not None:
        report["dim1"] = dim1
    return report


# -- human rendering ----------------------------------------------------------


def _human_flags(fragment: dict, lines: list) -> None:
    lines.append(f"matrix ({fragment['ambient_dim']} x {fragment['generators']}):")
    for row in fragment["matrix"]:
        lines.append("    " + " ".join(f"{e:4d}" for e in row))
    lines.append(
        f"pointed: {fragment['pointed']}   simplicial: {fragment['simplicial']}"
    )
    if "flags" in fragment:
        fl = fragment["flags"]
        names = ("normal", "scored", "serre_s2")
        lines.append("   ".join(
            f"{n}: {fl[n]} ({fl['evidence'][n]})" for n in names
        ))
        boxed = [n for n in names if fl["evidence"][n] == "box"]
        if boxed:
            lines.append(
                f"{', '.join(boxed)} verified on facet-value box "
                f"{fl['verification_box']}"
            )
        lines.append(f"fast path: {fl['fast_path']}")
    lines.append("facets:")
    for f in fragment["facets"]:
        ns = f["value_semigroup"]
        lines.append(
            f"  F{f['id']} = {tuple(f['coefficients'])}  values {f['column_values']}"
            f"  conductor {ns['conductor']}  gaps {ns['gaps']}"
        )
    if "faces" in fragment:
        lines.append("faces (id, dim, columns):")
        for f in fragment["faces"]:
            lines.append(f"  {f['id']:3d}  dim {f['dim']}  columns {f['columns']}")


def _human_sectors(analysis: dict, lines: list) -> None:
    lines.append(
        f"classes: {len(analysis['classes'])}   scan box radius "
        f"{analysis['box_radius']}   history {analysis['scan_history']}"
    )
    for c in analysis["classes"]:
        lines.append(
            f"  class {c['id']:3d}  rep {tuple(c['representative'])}  "
            f"sector {c['sector']}"
        )
    lines.append("sector filters (faces : status):")
    for s in analysis["sectors"]:
        status = "nonempty" if s["nonempty"] else "empty in scanned box"
        lines.append(f"  {s['faces']} : {status}")
    lines.append(
        f"class order, larger first: {analysis['poset']['linear_extension']}"
    )


def _human_module(frag: dict, lines: list) -> None:
    ideal = frag["ideal"]
    name = "maximal ideal" if ideal["maximal"] else (
        "ideal with generator degrees "
        + "; ".join(str(tuple(d)) for d in ideal["generator_degrees"])
    )
    lines.append(f"local cohomology at the {name}")
    lines.append(f"total length over all cohomological degrees: {frag['total_length']}")
    for mod in frag["modules"]:
        lines.append(
            f"  H^{mod['cohomological_degree']}: length {mod['length']}, "
            "composition factors (top submodule first):"
        )
        for k, piece in enumerate(mod["series"], start=1):
            lines.append(
                f"    {k}. class {piece['class']} x{piece['multiplicity']}"
                f"  sector {piece['sector']}"
            )


def render_human(report: dict) -> str:
    lines = [f"toriclc {report['command']} report", "=" * 34]
    _human_flags(report["presentation"], lines)
    if "sector_analysis" in report:
        lines.append("")
        _human_sectors(report["sector_analysis"], lines)
    if "local_cohomology" in report:
        lines.append("")
        _human_module(report["local_cohomology"], lines)
    if "sector_cohomology" in report:
        lines.append("")
        lines.append("sector decomposition via the face complex:")
        for piece in report["sector_cohomology"]["pieces"]:
            lines.append(
                f"  H^{piece['cohomological_degree']}: sector {piece['sector']}"
                f" rank {piece['rank']}"
            )
    if "socle" in report:
        lines.append("")
        for probe in report["socle"]:
            lines.append(
                f"socle degrees of H^{probe['cohomological_degree']} per box radius:"
            )
            for radius, count in probe["counts"]:
                lines.append(f"  radius {radius:4d}: {count}")
    if report.get("exponent_identities"):
        lines.append("")
        lem = report["exponent_identities"]
        status = "all passed" if not lem["failures"] else "FAILURES"
        lines.append(
            f"exponent identities: {lem['pairs_checked']} checks, {status}"
        )
        for name, count in lem["clauses"]:
            lines.append(f"  {name}: {count} applicable")
        for f in lem["failures"]:
            lines.append(f"  FAIL {f}")
    if "exponent_table" in report and report["exponent_table"]:
        lines.append("")
        lines.append("facet exponents (degree : per-facet exponent):")
        for row in report["exponent_table"]:
            lines.append(f"  {tuple(row['degree'])} : {row['exponents']}")
    if "dim1" in report:
        lines.append("")
        d1 = report["dim1"]
        lines.append(f"graded ring generator pairs: {d1['generator_pairs']}")
        if d1.get("notcm"):
            cert = d1["notcm"]
            lines.append(
                f"finite codimension threshold: {cert['codimension_threshold']}"
                f"   quadrant gaps: {cert['gap_pairs']}"
            )
            lines.append(
                f"serre_s2 fails for the graded ring: {cert['s2_failed']}"
                f" (box {cert['s2_box']})"
            )
        elif d1.get("notcm_skipped"):
            lines.append(f"non-CM certificate skipped: {d1['notcm_skipped']}")
    if "certificates" in report and report["certificates"]:
        lines.append("")
        for cert in report["certificates"]:
            label = cert["kind"]
            if "face" in cert:
                label += f" (face {cert['face']})"
            if "error" in cert:
                lines.append(f"{label}: rejected ({cert['error']})")
                continue
            lines.append(
                f"{label}: verified={cert['verified']}"
                f"  poly_vars={cert['poly_vars']}"
            )
            for chk in cert["checks"]:
                lines.append(f"    {chk['name']}: {'ok' if chk['ok'] else 'FAIL'}")
            for note in cert["notes"]:
                lines.append(f"    note: {note}")
    lines.append("")
    return "\n".join(lines)
