"""Problem file parsing.

A problem file is line oriented and contains integers only:

    # comment lines and blank lines are ignored
    matrix:
    1 1 1
    0 1 2
    ideal: maximal        # or a block of degree rows, one per generator
    bound: 60             # optional: feasibility search bound
    box: 8                # optional: initial class-scan radius
    samples: 3            # optional: sample degrees checked per class
    margin: 10            # optional: flag verification box margin

`ideal:` may also open a block of rows (same width as the matrix), e.g.

    ideal:
    1 1

Unknown keys, ragged rows and non-integer tokens are reported with their
line number.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ProblemFile:
    matrix_rows: tuple
    ideal: object = None  # None | "maximal" | tuple of degree tuples
    options: dict = field(default_factory=dict)


_OPTION_KEYS = {"bound", "box", "samples", "margin"}


def _parse_int_row(token_line: str, lineno: int, source: str):
    from .errors import ProblemFormatError

    parts = token_line.split()
    try:
        return tuple(int(p) for p in parts)
    except ValueError as exc:
        raise ProblemFormatError(
            f"{source}:{lineno}: expected integers, got {token_line!r}"
        ) from exc


def parse_problem(text: str, source: str = "<problem>") -> ProblemFile:
    from .errors import ProblemFormatError

    matrix_rows = []
    ideal_rows = []
    ideal = None
    options = {}
    mode = None  # None | "matrix" | "ideal"
    saw_matrix = False
    saw_ideal = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" in line:
            key, _, rest = line.partition(":")
            key = key.strip().lower()
            rest = rest.strip()
            if key == "matrix":
                if saw_matrix:
                    raise ProblemFormatError(f"{source}:{lineno}: duplicate matrix section")
                saw_matrix = True
                mode = "matrix"
                if rest:
                    raise ProblemFormatError(
                        f"{source}:{lineno}: matrix rows start on the following lines"
                    )
                continue
            if key == "ideal":
                if saw_ideal:
                    raise ProblemFormatError(f"{source}:{lineno}: duplicate ideal section")
                saw_ideal = True
                if rest:
                    if rest.lower() != "maximal":
                        raise ProblemFormatError(
                            f"{source}:{lineno}: inline ideal value must be 'maximal'"
                        )
                    ideal = "maximal"
                    mode = None
                else:
                    mode = "ideal"
                continue
            if key in _OPTION_KEYS:
                if key in options:
                    raise ProblemFormatError(f"{source}:{lineno}: duplicate option {key!r}")
                try:
                    options[key] = int(rest)
                except ValueError as exc:
                    raise ProblemFormatError(
                        f"{source}:{lineno}: option {key} needs an integer, got {rest!r}"
                    ) from exc
                mode = None
                continue
            raise ProblemFormatError(f"{source}:{lineno}: unknown key {key!r}")
        if mode == "matrix":
            matrix_rows.append(_parse_int_row(line, lineno, source))
        elif mode == "ideal":
            ideal_rows.append(_parse_int_row(line, lineno, source))
        else:
            raise ProblemFormatError(
                f"{source}:{lineno}: unexpected data line {line!r}"
            )
    if not matrix_rows:
        raise ProblemFormatError(f"{source}: no matrix section")
    width = len(matrix_rows[0])
    if any(len(r) != width for r in matrix_rows):
        raise ProblemFormatError(f"{source}: ragged matrix rows")
    height = len(matrix_rows)
    if ideal_rows:
        if any(len(r) != height for r in ideal_rows):
            raise ProblemFormatError(
                f"{source}: ideal degree rows must have {height} entries"
            )
        ideal = tuple(ideal_rows)
    elif saw_ideal and ideal is None:
        raise ProblemFormatError(f"{source}: empty ideal section")
    return ProblemFile(tuple(matrix_rows), ideal, options)


def parse_problem_file(path) -> ProblemFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_problem(fh.read(), source=str(path))


def parse_degree_list(text: str, dim: int):
    """Parse a CLI degree list like '1,1;0,2' into degree tuples."""
    from .errors import ProblemFormatError

    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [p for p in chunk.replace(",", " ").split() if p]
        try:
            vec = tuple(int(p) for p in parts)
        except ValueError as exc:
            raise ProblemFormatError(f"bad degree {chunk!r}") from exc
        if len(vec) != dim:
            raise ProblemFormatError(
                f"degree {chunk!r} has {len(vec)} entries, expected {dim}"
            )
        out.append(vec)
    if not out:
        raise ProblemFormatError("empty degree list")
    return tuple(out)
