"""What scripts/code_lines.py counts as a code line."""

from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"


def _script():
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _code_lines():
    return _script().code_lines


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


def _tree(root: Path, modules: dict[str, str]) -> Path:
    package = root / "src" / "chromaflow"
    package.mkdir(parents=True)
    for name, source in modules.items():
        (package / name).write_text(source)
    return root


def test_two_checkouts_print_parent_change_and_delta(tmp_path, capsys):
    # kept.py shrinks by one line, gone.py is only in the parent and
    # new.py only in the change; each counts 0 where it is missing.
    parent = _tree(tmp_path / "parent", {
        "kept.py": '"""Doc."""\nA = 1\nB = 2\n',
        "gone.py": "C = 3\n",
    })
    change = _tree(tmp_path / "change", {
        "kept.py": '"""Doc."""\nA = 1\n',
        "new.py": "D = 4\n\n# comment\nE = (5,\n     6)\n",
    })
    _script().main([str(parent), str(change)])
    assert capsys.readouterr().out.splitlines() == [
        "parent change  delta",
        "     1      0     -1  gone.py",
        "     2      1     -1  kept.py",
        "     0      3     +3  new.py",
        "     3      4     +1  total",
    ]
    _script().main([str(change)])
    assert capsys.readouterr().out.splitlines() == [
        "     1  kept.py",
        "     3  new.py",
        "     4  total",
    ]
