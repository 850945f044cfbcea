"""Every documented command still writes exactly its golden CSV.

The files in `tests/golden/` and the commands that produce them are listed in
`regenerate_golden.py`, which also rebuilds them. Any byte that moves fails
here with a unified diff.
"""

import difflib

import pytest

from regenerate_golden import COMMANDS, GOLDEN_DIR, build_inputs, render


@pytest.fixture(scope="module")
def golden_inputs(tmp_path_factory, recipes):
    return build_inputs(tmp_path_factory.mktemp("golden"), recipes)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_equals_the_golden_file(name, golden_inputs, tmp_path):
    expected = (GOLDEN_DIR / f"{name}.csv").read_text(encoding="utf-8")
    actual = render(name, *golden_inputs, tmp_path / "out.csv")
    if actual != expected:
        diff = "".join(difflib.unified_diff(
            expected.splitlines(keepends=True), actual.splitlines(keepends=True),
            f"golden/{name}.csv", f"specvalley {' '.join(COMMANDS[name])}"))
        pytest.fail(f"output of {name} differs from its golden file:\n{diff}", pytrace=False)


def test_every_golden_file_has_a_command():
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.csv")) == sorted(COMMANDS)
