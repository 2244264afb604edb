"""Command-line interface.

Subcommands:
    analyze  -- facets, face lattice, classification flags
    sectors  -- equivalence classes, sector partition, class order
    lc       -- local cohomology pieces, lengths, composition series, socle
    grd      -- graded-ring exponent data and certificates

Exit codes: 0 success, 2 hypothesis failed, 3 search bound exceeded,
4 parse/usage error, 5 internal invariant failed.
"""

from __future__ import annotations

import argparse
import sys
import time
from functools import cache

from . import cohomology as co
from . import grading as gr
from . import intlinalg as la
from . import reporting as rp
from . import sectors as se
from .errors import (
    ClassRankMismatch,
    CycleDetected,
    DimensionUnsupported,
    FullLatticeRequired,
    GeneratorNotInSemigroup,
    HypothesisFailed,
    IsNormal,
    NoInteriorPoint,
    NotFullDimensional,
    NotPointed,
    NotScored,
    ProblemFormatError,
    SearchBoundExceeded,
    ToricError,
)
from .problems import parse_degree_list, parse_problem_file
from .semigroups import ToricPresentation


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ProblemFormatError(message)


@cache
def _build_parser() -> _Parser:
    """The command-line parser, built once per process: parsing keeps no
    state in the parser between calls."""
    parser = _Parser(prog="toriclc", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("problem", help="path to a problem file")
        p.add_argument("--bound", type=int, default=None,
                       help="feasibility search bound")
        p.add_argument("--box", type=int, default=None,
                       help="initial class-scan box radius")
        p.add_argument("--samples", type=int, default=None,
                       help="sample degrees checked per class")
        p.add_argument("--margin", type=int, default=None,
                       help="flag verification box margin")
        p.add_argument("--output", default=None,
                       help="write the report to this path instead of stdout")
        p.add_argument("--format", choices=("human", "machine"),
                       default="human", help="report format")

    common(sub.add_parser("analyze", help="classify the presentation"))
    common(sub.add_parser("sectors", help="classes and sector partition"))
    p_lc = sub.add_parser("lc", help="local cohomology decomposition")
    common(p_lc)
    which = p_lc.add_mutually_exclusive_group()
    which.add_argument("--ideal", default=None,
                       help="generator degrees, e.g. '1,1;0,2' "
                            "(not with --maximal)")
    which.add_argument("--maximal", action="store_true",
                       help="use the maximal graded ideal (not with --ideal)")
    p_lc.add_argument("--socle", default=None,
                      help="comma-separated socle box radii, e.g. '5,10,20'")
    common(sub.add_parser("grd", help="graded-ring exponent data"))
    return parser


# smallest accepted value of each integer option
_OPTION_FLOORS = {"bound": 1, "box": 1, "samples": 1, "margin": 0}


def _load(args):
    try:
        problem = parse_problem_file(args.problem)
    except OSError as exc:
        raise ProblemFormatError(
            f"cannot read problem file {args.problem}: {exc.strerror}"
        ) from exc
    except UnicodeDecodeError as exc:
        raise ProblemFormatError(
            f"cannot read problem file {args.problem}: not UTF-8 text"
        ) from exc
    options = dict(problem.options)
    for key, floor in _OPTION_FLOORS.items():
        if getattr(args, key) is not None:
            options[key] = getattr(args, key)
        if options.get(key, floor) < floor:
            raise ProblemFormatError(
                f"option {key} must be at least {floor}, got {options[key]}"
            )
    pres = ToricPresentation.build(
        problem.matrix_rows,
        search_bound=options.get("bound"),
        box_margin=options.get("margin", 10),
    )
    echo = {
        "problem": args.problem,
        "options": {k: options[k] for k in sorted(options)},
    }
    return problem, pres, options, echo


def _enumerate(pres, options):
    enumeration = se.enumerate_classes(
        pres,
        initial_radius=options.get("box"),
        samples_per_class=options.get("samples"),
    )
    poset = se.class_poset(enumeration.classes)
    return enumeration, poset


def _resolve_ideal(args, problem, pres):
    if getattr(args, "maximal", False):
        return co.MonomialIdeal.maximal_ideal(pres)
    if getattr(args, "ideal", None) is not None:
        degrees = parse_degree_list(args.ideal, pres.dim)
    elif problem.ideal == "maximal":
        return co.MonomialIdeal.maximal_ideal(pres)
    elif problem.ideal:
        degrees = problem.ideal
    else:
        raise ProblemFormatError(
            "lc needs an ideal: --ideal, --maximal, or an ideal section in the file"
        )
    try:
        return co.MonomialIdeal.from_degrees(pres, degrees)
    except (GeneratorNotInSemigroup, ValueError) as exc:
        raise ProblemFormatError(f"bad ideal: {exc}") from exc


def _socle_radii(text):
    radii = [r.strip() for r in text.split(",") if r.strip()]
    if not radii or not all(r.isdecimal() for r in radii):
        raise ProblemFormatError(f"socle radii must be nonnegative integers, got {text!r}")
    return [int(r) for r in radii]


def _exponent_table(pres):
    degrees = []
    for c in pres.columns:
        degrees.append(c)
        degrees.append(la.vneg(c))
    for i in range(min(pres.ncols, 3)):
        for j in range(i, min(pres.ncols, 3)):
            s = la.vadd(pres.columns[i], pres.columns[j])
            degrees.append(la.vneg(s))
    seen = []
    for d in degrees:
        if d not in seen:
            seen.append(d)
    return [
        {"degree": list(d), "exponents": list(gr.theta_exponents(pres, d))}
        for d in seen[:20]
    ]


def _run_grd(pres, echo):
    identity_report = None
    exponent_table = []
    if pres.scored:
        exponent_table = _exponent_table(pres)
        identity_report = gr.verify_exponent_identities(pres)
    else:
        echo = dict(echo)
        echo["note"] = (
            "exponent data needs the scored flag; only certificate "
            "rejections are reported"
        )
    dim1 = None
    if pres.dim == 1:
        dim1 = {"generator_pairs": [list(p) for p in gr.gr_generators_dim1(pres)]}
        try:
            cert = gr.notcm_certificate(pres)
            dim1["notcm"] = {
                "codimension_threshold": cert.codimension_threshold,
                "gap_pairs": [list(p) for p in cert.gap_pairs],
                "strip_verified": list(cert.strip_verified),
                "s2_failed": cert.s2_failed,
                "s2_box": list(cert.s2_box),
            }
        except ToricError as exc:
            dim1["notcm_skipped"] = f"{type(exc).__name__}: {exc}"
    certificates = []
    for maker in (gr.fiber_at_origin, gr.char_variety_max):
        kind = ("origin_fiber" if maker is gr.fiber_at_origin
                else "char_variety_max")
        try:
            certificates.append(rp.certificate_fragment(maker(pres)))
        except ToricError as exc:
            certificates.append(
                {"kind": kind, "error": f"{type(exc).__name__}: {exc}"}
            )
    if pres.simplicial and pres.scored:
        lattice = pres.face_lattice
        for face in lattice.faces:
            if face.face_id in (lattice.top_id, lattice.bottom_id):
                continue
            try:
                fragment = rp.certificate_fragment(
                    gr.fiber_at_orbit(pres, face.face_id)
                )
                fragment["face"] = face.face_id
                certificates.append(fragment)
            except ToricError as exc:
                certificates.append(
                    {"kind": "orbit_fiber", "face": face.face_id,
                     "error": f"{type(exc).__name__}: {exc}"}
                )
    return rp.grd_report(pres, exponent_table, identity_report, dim1, certificates, echo)


def _emit(report: dict, args) -> None:
    text = (rp.render_machine(report) if args.format == "machine"
            else rp.render_human(report))
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ProblemFormatError(f"cannot write {args.output}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except ProblemFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    started = time.monotonic()
    try:
        problem, pres, options, echo = _load(args)
        if args.command == "analyze":
            report = rp.analyze_report(pres, echo)
        elif args.command == "sectors":
            enumeration, poset = _enumerate(pres, options)
            report = rp.sectors_report(pres, enumeration, poset, echo)
        elif args.command == "lc":
            radii = _socle_radii(args.socle) if args.socle is not None else None
            ideal = _resolve_ideal(args, problem, pres)
            enumeration, poset = _enumerate(pres, options)
            module = co.assemble_module(pres, ideal, enumeration, poset)
            socles = co.socle_probe(
                pres, ideal, [i for i, _ in module.lengths_by_degree], radii
            ) if radii else ()
            report = rp.lc_report(pres, enumeration, poset, module, socles, echo)
        elif args.command == "grd":
            report = _run_grd(pres, echo)
        else:  # pragma: no cover
            raise AssertionError(args.command)
        _emit(report, args)
    except (ProblemFormatError, FullLatticeRequired, NotFullDimensional) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except SearchBoundExceeded as exc:
        print(f"error: search bound exceeded: {exc}", file=sys.stderr)
        return 3
    except (HypothesisFailed, NotPointed, NotScored, IsNormal,
            DimensionUnsupported) as exc:
        print(f"error: hypothesis failed: {exc}", file=sys.stderr)
        return 2
    except (ClassRankMismatch, CycleDetected, NoInteriorPoint, AssertionError) as exc:
        print(f"error: internal invariant failed: {exc}", file=sys.stderr)
        return 5
    finally:
        elapsed = time.monotonic() - started
        print(f"toriclc: completed in {elapsed:.2f}s", file=sys.stderr)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
