"""The repository's own tools, loaded from their files."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def code_lines():
    return _load(TOOLS / "code_lines.py", "code_lines").code_lines


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


def test_reach_lists_the_statements_a_traced_call_did_not_execute(tmp_path):
    reach = _load(TOOLS / "reach.py", "reach")
    source = '''"""A module docstring."""
import math


def deco(fn):
    return fn


def f(x):
    """A function docstring,
    over two lines."""
    if x > 0:
        return math.sqrt(x)
    y = -x
    return math.sqrt(y)


@deco
def g(a,
      b):
    return a + b


class A:
    """A class docstring."""

    def method(self):
        try:
            return 1
        except ValueError:
            raise
        finally:
            self.done = True
'''
    path = tmp_path / "small.py"
    path.write_text(source)

    def call():
        module = _load(path, "small")
        module.f(4.0)
        module.A().method()

    hits = reach.traced(tmp_path, call)
    assert set(hits) == {str(path)}
    # docstrings are no statements; a decorated def spans its decorator and
    # its signature, a compound statement its header
    spans = reach.statements(source)
    assert len(spans) == 16 and (18, 20) in spans and (12, 12) in spans
    assert all(first not in (1, 10, 25) for first, _ in spans)
    # the branch f did not take, g's body and the handler's raise
    assert reach.unexecuted(source, hits[str(path)]) == [[14, 15], [21], [31]]
