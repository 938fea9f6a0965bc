"""`python -m steerbound ...` runs the command line, also from a checkout
that is not installed (with its src directory on PYTHONPATH)."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
