"""Program entry of ``python -m lightclock`` and the ``lightclock`` script."""

import os


def main() -> None:
    """Run the CLI as its own process.

    numpy's OpenBLAS sizes its thread pool when it loads; the ensembles call
    no BLAS routine, so one thread is the default.  A value the user set wins.
    ``cli.main`` leaves the environment alone for in-process callers.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import main as cli_main

    cli_main()


if __name__ == "__main__":
    main()
