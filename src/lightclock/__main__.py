"""Program entry of ``python -m lightclock`` and the ``lightclock`` script."""

import gc
import os


def main() -> None:
    """Run the CLI as its own process.

    numpy's OpenBLAS sizes its thread pool when it loads; the ensembles call
    no BLAS routine, so one thread is the default.  A value the user set wins.

    The process runs one command and exits, and reference counting frees
    every array, row and record of it, so the cyclic collector only costs
    time: it is off for the command, and ``gc.freeze`` keeps the heap out of
    the exit collection, which would take the module graph apart just
    before the OS reclaims it.  atexit handlers and the flush still run.
    ``cli.main`` leaves the environment and the collector alone for
    in-process callers.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    gc.disable()
    from .cli import main as cli_main

    try:
        cli_main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    main()
