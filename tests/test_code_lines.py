"""What scripts/code_lines.py counts as a code line."""

from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"


def _code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.code_lines


def test_docstrings_comments_and_blanks_do_not_count():
    source = '''"""Module
docstring."""

# comment
X = """a string
that is not a docstring"""


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        return (1,  # trailing comment
                2)
'''
    # X's two lines, class A, def f and the two lines of its return.
    assert _code_lines()(source) == 6
