"""Byte-exact CLI outputs at fixed flags, checked against tests/golden/.

The cases and the standard-library runner are in tests/goldens.py, which
also regenerates the files after a deliberate change.
"""

import pytest

from dualbloch._kernel import bloch_vector, normalized, unit_axis

from goldens import _GENERIC_AXIS, _GENERIC_INPUT, CASES, CONTRACT, GOLDEN, check
from goldens import check_contract, regenerate
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


_WITHOUT_NUMPY = pytest.mark.parametrize(
    "numpy_init, verdict",
    [
        ("raise ModuleNotFoundError(\"No module named 'numpy'\", name='numpy')", "skipped"),
        ("raise RuntimeError('a broken numpy')", "FAILED without numpy"),
    ],
    ids=["missing", "broken"],
)


def _hide_numpy(numpy_init, tmp_path, monkeypatch):
    # A numpy package that fails on import, first on the subprocesses' path,
    # stands in for an interpreter without numpy.
    (tmp_path / "numpy").mkdir()
    (tmp_path / "numpy" / "__init__.py").write_text(numpy_init + "\n")
    monkeypatch.setenv("PYTHONPATH", str(tmp_path))
    monkeypatch.setattr("goldens.find_spec", lambda name: None)


@_WITHOUT_NUMPY
def test_check_without_numpy_wants_a_one_line_error(
    numpy_init, verdict, tmp_path, monkeypatch, capsys
):
    # equiv-check must then exit 1 with one line; a traceback, as from the
    # broken package, fails the check.
    _hide_numpy(numpy_init, tmp_path, monkeypatch)
    cases = {name: CASES[name] for name in ("equiv-check.txt", "self-ref-sweep.csv")}
    assert regenerate({"self-ref-sweep.csv": CASES["self-ref-sweep.csv"]}, tmp_path) == 0
    assert check(cases, tmp_path) == (verdict != "skipped")
    first, second = capsys.readouterr().out.splitlines()
    assert first.startswith(f"equiv-check.txt: {verdict}")
    assert second == "self-ref-sweep.csv: ok"


@_WITHOUT_NUMPY
def test_regenerate_without_numpy_leaves_only_that_file_alone(
    numpy_init, verdict, tmp_path, monkeypatch
):
    # Without numpy the numpy-free files are still rewritten, as long as
    # equiv-check fails in one line; a traceback writes nothing.
    _hide_numpy(numpy_init, tmp_path, monkeypatch)
    out = tmp_path / "golden"
    out.mkdir()
    (out / "equiv-check.txt").write_bytes(b"kept")
    cases = {name: CASES[name] for name in ("equiv-check.txt", "self-ref-sweep.csv")}
    assert regenerate(cases, out) == (verdict != "skipped")
    assert (out / "equiv-check.txt").read_bytes() == b"kept"
    written = sorted(path.name for path in out.iterdir())
    if verdict == "skipped":
        assert written == ["equiv-check.txt", "self-ref-sweep.csv"]
        golden = (GOLDEN / "self-ref-sweep.csv").read_bytes()
        assert (out / "self-ref-sweep.csv").read_bytes() == golden
    else:
        assert written == ["equiv-check.txt"]


def test_contract_check_skips_what_it_cannot_run_and_fails_a_wrong_row(monkeypatch, capsys):
    monkeypatch.setattr("goldens.find_spec", lambda name: None)  # as on a bare interpreter
    usage_error = CONTRACT["usage-error"]
    wrong = [(field, usage_error._replace(**{field: value}), False)
             for field, value in (("code", 0), ("err", b""), ("out", b"usage"))]  # fmt: skip
    assert check_contract([("no-numpy", CONTRACT["equiv-check-closed-pipe"], True), *wrong]) == 1
    skipped, *failed = capsys.readouterr().out.splitlines()
    assert skipped == "no-numpy: skipped, needs numpy"  # not passed
    verdicts = [line.split(": ", 2)[:2] for line in failed]
    assert verdicts == [["code", "FAILED"], ["err", "FAILED"], ["out", "FAILED"]]
