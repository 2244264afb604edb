"""`python -m toriclc ...` runs the command line, as the `toriclc` script does."""

from .cli import main

main()
