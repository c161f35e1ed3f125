"""The repository's own tools, loaded from their files."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture(scope="module")
def code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", TOOLS / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.code_lines


def test_blank_lines_comments_and_docstrings_are_not_counted(code_lines):
    source = '''"""A module docstring,
over two lines."""

# a comment


class A:
    """A class docstring."""

    def f(self):
        """A function docstring,

        over three lines."""
        # a comment in a body
        return 1  # a trailing comment


async def g():
    """An async function docstring."""
    return 2
'''
    assert code_lines(source) == 5


def test_a_statement_over_several_lines_counts_each_line(code_lines):
    source = "x = f(1,\n      2,\n\n      3)\n"
    assert code_lines(source) == 3


def test_a_string_that_is_not_a_docstring_is_counted(code_lines):
    source = 'def f():\n    x = 1\n    """not a docstring"""\n    return x\n'
    assert code_lines(source) == 4
    assert code_lines('x = """a\nb"""\n') == 2


def test_peak_rss_prints_one_positive_number_for_a_run(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid.nx = 16\ngrid.ny = 16\ngrid.np = 16\n"
                   "time.dt = 1e-3\ntime.t_end = 2e-3\n"
                   "initial.kind = random_smooth:3,0.5\n")
    src = str(TOOLS.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, str(TOOLS / "peak_rss.py"), sys.executable, "-m",
                           "moistpe", "run", "--config", str(cfg), "--quiet"],
                          capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert done.returncode == 0, done.stderr
    words = done.stdout.split()
    assert len(words) == 1 and float(words[0]) > 0.0
