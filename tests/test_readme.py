import doctest
from pathlib import Path

_README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs_as_written():
    # the Library block is the README's only doctest
    failed, attempted = doctest.testfile(str(_README), module_relative=False,
                                         encoding="utf-8")
    assert attempted >= 10 and failed == 0
