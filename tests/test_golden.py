"""Byte-exact CLI outputs at fixed flags, checked against tests/golden/.

The cases and the standard-library runner are in tests/goldens.py, which
also regenerates the files after a deliberate change.
"""

import pytest

from dualbloch._kernel import bloch_vector, normalized, unit_axis

from goldens import _GENERIC_AXIS, _GENERIC_INPUT, CASES, GOLDEN, check, regenerate
from helpers import run_cli


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_file(name):
    proc = run_cli(*CASES[name])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize(
    "components, validate",
    [(_GENERIC_AXIS, unit_axis), (_GENERIC_INPUT, bloch_vector)],
    ids=["axis", "input"],
)
def test_generic_case_is_normalized_once_then_fixed(components, validate):
    # The CLI normalizes each flag, and that changes the bits, so a skipped
    # normalization shows in trajectory-generic.csv.  EvolutionSpec and the
    # evolution check the vector again; each check returns it bit for bit.
    raw = tuple(map(float, components))
    once = normalized(raw)
    assert once != raw
    assert validate(once) == once and validate(validate(once)) == once


def test_regenerate_refuses_a_failing_command(tmp_path):
    cases = {"ok.txt": CASES["equiv-check.txt"], "bad.txt": ("equiv-check", "--trials", "0")}
    assert regenerate(cases, tmp_path) == 1
    assert list(tmp_path.iterdir()) == []


def test_check_fails_on_a_changed_byte(tmp_path, capsys):
    cases = {name: CASES[name] for name in ("self-ref-sweep.csv", "trajectory-generic.csv")}
    assert regenerate(cases, tmp_path) == 0
    assert check(cases, tmp_path) == 0
    path = tmp_path / "trajectory-generic.csv"
    path.write_bytes(path.read_bytes().replace(b"1", b"2", 1))
    assert check(cases, tmp_path) == 1
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "self-ref-sweep.csv: ok",
        f"trajectory-generic.csv: FAILED: output differs from {path}",
    ]


@pytest.mark.parametrize(
    "numpy_init, verdict",
    [
        ("raise ModuleNotFoundError(\"No module named 'numpy'\", name='numpy')", "skipped"),
        ("raise RuntimeError('a broken numpy')", "FAILED without numpy"),
    ],
    ids=["missing", "broken"],
)
def test_check_without_numpy_wants_a_one_line_error(
    numpy_init, verdict, tmp_path, monkeypatch, capsys
):
    # A numpy package that fails on import, first on the subprocesses' path,
    # stands in for an interpreter without numpy.  equiv-check must then exit
    # 1 with one line; a traceback, as from the broken package, fails the check.
    (tmp_path / "numpy").mkdir()
    (tmp_path / "numpy" / "__init__.py").write_text(numpy_init + "\n")
    monkeypatch.setenv("PYTHONPATH", str(tmp_path))
    monkeypatch.setattr("goldens.find_spec", lambda name: None)
    cases = {name: CASES[name] for name in ("equiv-check.txt", "self-ref-sweep.csv")}
    assert regenerate({"self-ref-sweep.csv": CASES["self-ref-sweep.csv"]}, tmp_path) == 0
    assert check(cases, tmp_path) == (verdict != "skipped")
    first, second = capsys.readouterr().out.splitlines()
    assert first.startswith(f"equiv-check.txt: {verdict}")
    assert second == "self-ref-sweep.csv: ok"
