"""Time what a library user waits for before the first query: importing
toriclc, parsing every problem file given on the command line and building
one ToricPresentation per problem.  Prints the seconds on stdout.

Each problem is loaded by the command line's own loader, so the set-up
builds with exactly the options and defaults the timed jobs use.

Usage: python3 perfbench/setup_probe.py SRC_DIR PROBLEM...
"""

import sys
from time import perf_counter


def main(src: str, problems) -> float:
    started = perf_counter()
    sys.path.insert(0, src)
    from toriclc import cli

    parser = cli._build_parser()
    for path in problems:
        cli._load(parser.parse_args(["analyze", path]))
    return perf_counter() - started


if __name__ == "__main__":
    print(repr(main(sys.argv[1], sys.argv[2:])))
