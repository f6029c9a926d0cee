"""``python -m semistrong``: the same command line as the ``semistrong`` script."""

from .cli import main

if __name__ == "__main__":
    main()
