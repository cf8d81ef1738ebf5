"""`python -m kbitq` and the `kbitq` console script: main() sets the CLI's one environment
default, then runs the CLI.

kbitq calls no BLAS routine, yet on a machine with more than one CPU `import numpy` starts
OpenBLAS worker threads, which busy-wait against the slab pool for about 0.1 s a command.
So OPENBLAS_NUM_THREADS defaults to 1 before numpy is first imported; a caller's own value
is kept. The library sets nothing: `kbitq/__init__.py` imports no numpy, and only this
entry function touches the environment.
"""

import os


def main() -> None:
    """Set the default, then cli.main and os._exit, with no interpreter teardown. Nothing is
    in flight once cli.main returns: the pool's tasks are drained, every output is closed and
    renamed, stdout is flushed, and stderr, line-buffered, holds only whole lines, each
    written out at its newline."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import main as cli_main  # imports numpy, so only now

    os._exit(cli_main())


if __name__ == "__main__":
    main()
