import subprocess
import sys
import textwrap
from pathlib import Path

COUNTER = Path(__file__).resolve().parent.parent / "tools" / "count_src_lines.py"


def test_count_src_lines_skips_blanks_comments_and_docstrings(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "m.py").write_text(textwrap.dedent('''\
        """A module docstring
        over two lines."""

        # a comment
        import os  # a trailing comment


        def f(x):
            """A function docstring."""
            s = """a string that is
            no docstring"""
            return s


        class C:
            """A class docstring."""
            y = 1
        '''))
    (tmp_path / "top.py").write_text("x = 1\n")
    out = subprocess.run([sys.executable, str(COUNTER), str(tmp_path)],
                         capture_output=True, text=True, check=True).stdout
    # import, def, the string's two lines, return, class and y
    assert out.split("\n") == ["     7  pkg/m.py", "     1  top.py", "     8  total", ""]


def test_count_src_lines_refuses_an_empty_tree(tmp_path):
    proc = subprocess.run([sys.executable, str(COUNTER), str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stdout == ""
