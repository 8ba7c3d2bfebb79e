"""The entry point of `python -m dualbloch` and of the `dualbloch` script.
run() owns every process-wide effect, so that cli.main stays a plain function."""

import os
import sys


def run() -> int:
    # numpy's OpenBLAS would start a thread per core; equiv-check makes no BLAS call
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    from .cli import main

    try:
        try:
            code = main()
        except SystemExit as exc:  # argparse's way out, after --help as well
            code = exc.code
        if sys.stdout is not None:  # None when fd 1 was closed at start-up
            try:
                sys.stdout.flush()
            except OSError:  # main has reported it; see "Note on SIGPIPE" in module signal
                devnull = os.open(os.devnull, os.O_WRONLY)  # so the flush at exit succeeds
                os.dup2(devnull, sys.stdout.fileno())
                os.close(devnull)
                return 1
        return code
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        import signal  # only an interrupted run needs it

        # Die by SIGINT rather than exit, so the wait status still says
        # "killed by SIGINT": shells and make stop a script on that.
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        signal.raise_signal(signal.SIGINT)
        raise  # reached only if SIGINT is blocked and the process lives on


if __name__ == "__main__":
    sys.exit(run())
