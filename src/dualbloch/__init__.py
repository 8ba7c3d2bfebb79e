"""Single-qubit Bloch-vector dynamics in the Schrodinger and Heisenberg
pictures: SU(2) rotations and their SO(3) adjoint action, dual-picture
evolution and trajectories, and a halting machine whose self-referential
input the two pictures disagree on.

Import each name from its module: dualbloch.su2, .bloch, .pictures,
.halting or .cli.  Importing the package itself loads none of them.
"""

import contextlib
import sys

__version__ = "0.1.0"


def _report(line: str) -> None:
    """Print line to stderr, or drop it where stderr is None (fd 2 closed) or fails."""
    with contextlib.suppress(OSError):  # so it never reaches stdout or sets the exit code
        sys.stderr and print(line, file=sys.stderr)
