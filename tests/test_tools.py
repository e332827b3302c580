import subprocess
import sys
from pathlib import Path

_CODE_LINES = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

_DOCUMENTED = '''"""A module docstring
over two lines."""

# a comment-only line


class Point:
    """A class docstring."""

    def norm(self):
        """A function docstring."""
        return (self.x * self.x +
                self.y * self.y)  # a multi-line statement, and a trailing comment
'''

_PLAIN = '''x = 1  # code with a trailing comment counts

y = """a string on two lines
that is no docstring"""
'''


def run_code_lines(src):
    return subprocess.run([sys.executable, str(_CODE_LINES), str(src)],
                          capture_output=True, text=True)


def test_code_lines_counts_code_but_no_docstring_comment_or_blank(tmp_path):
    (tmp_path / "documented.py").write_text(_DOCUMENTED)
    (tmp_path / "plain.py").write_text(_PLAIN)
    (tmp_path / "notes.txt").write_text("x = 1\n")  # not a .py file
    proc = run_code_lines(tmp_path)
    assert proc.returncode == 0, proc.stderr
    counts = dict(line.split() for line in proc.stdout.splitlines())
    # class, def and the two lines of the return; the assignment and the
    # two lines of the string
    assert counts == {"documented.py": "4", "plain.py": "3", "total": "7"}


def test_code_lines_refuses_a_directory_without_python_files(tmp_path):
    proc = run_code_lines(tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"no .py files in {tmp_path}\n"
