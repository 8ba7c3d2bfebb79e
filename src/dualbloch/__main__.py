"""The entry point of `python -m dualbloch` and of the `dualbloch` script.
run() owns every process-wide effect (one BLAS thread, a failing stream sent to
devnull, death by SIGINT, gc.freeze() after main), so cli.main stays plain."""

import gc
import os
import sys


def run() -> int:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # one BLAS thread: equiv-check makes no BLAS call
    try:
        from .cli import main  # in the try, so Ctrl-C during the import ends in one line
        try:
            code = main()
        except SystemExit as exc:  # argparse's way out, after --help as well
            code = exc.code
        for stream in filter(None, (sys.stdout, sys.stderr)):  # None: fd closed at start-up
            try:
                stream.flush()
            except OSError:  # main has reported stdout's; see "Note on SIGPIPE" in module signal
                devnull = os.open(os.devnull, os.O_WRONLY)  # so the flush at exit succeeds
                os.dup2(devnull, stream.fileno())
                os.close(devnull)
        gc.freeze()  # exit's collections skip what lives; os._exit would skip atexit
        return code
    except KeyboardInterrupt:
        from . import _report
        import signal  # only an interrupted run needs it
        _report("error: interrupted")
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        signal.raise_signal(signal.SIGINT)  # dying by it, not exiting, stops a shell script too
        raise  # reached only if SIGINT is blocked and the process lives on


if __name__ == "__main__":
    sys.exit(run())
