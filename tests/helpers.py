import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from dualbloch.su2 import IDENTITY

TOL_ALG = 1e-12  # max entrywise deviation tolerated from exact unitarity
TOL_ROT = 1e-10  # orthogonality / determinant tolerance for 3x3 rotations

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def cli_env():
    """The environment for a CLI subprocess: this checkout's src/ first on the
    path, and any warning raised as an error."""
    env = dict(os.environ, PYTHONWARNINGS="error")
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_cli(*argv):
    """Run the CLI in a fresh subprocess; stdout/stderr come back as bytes.
    A command still running after 60 s raises subprocess.TimeoutExpired."""
    return subprocess.run(
        [sys.executable, "-m", "dualbloch", *map(str, argv)],
        capture_output=True,
        env=cli_env(),
        timeout=60,
    )


def is_unitary(u, tol: float = TOL_ALG) -> bool:
    """True when u is 2x2, finite, and u u+ = I within tol (entrywise)."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2) or not np.all(np.isfinite(u)):
        return False
    return float(np.max(np.abs(u @ u.conj().T - IDENTITY))) <= tol


def equal_entrywise(a, b, tol: float = TOL_ALG) -> bool:
    """Strict equality: max entrywise deviation at most tol."""
    diff = np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex)
    return float(np.max(np.abs(diff))) <= tol


def equal_up_to_phase(a, b, tol: float = TOL_ALG) -> bool:
    """Projective equality: a = phase * b for some unit complex phase.

    A global phase is invisible to conjugation on Bloch vectors, so this is
    the physically meaningful comparison between unitaries.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        return False
    i = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    if abs(b[i]) == 0.0 or abs(a[i]) == 0.0:
        return equal_entrywise(a, b, tol)
    phase = a[i] / b[i]
    phase /= abs(phase)
    return equal_entrywise(a, phase * b, tol)


def is_rotation(r, tol: float = TOL_ROT) -> bool:
    """True when r is 3x3 with r r^T = I and det r = +1 within tol."""
    r = np.asarray(r, dtype=float)
    if r.shape != (3, 3) or not np.all(np.isfinite(r)):
        return False
    if float(np.max(np.abs(r @ r.T - np.eye(3)))) > tol:
        return False
    return abs(float(np.linalg.det(r)) - 1.0) <= tol
