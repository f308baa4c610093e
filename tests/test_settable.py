"""A ratchet on the package's settable values: function parameters with a
default plus class fields with a default, counted over
`src/hetsched/*.py`.  Each is a knob a reader has to understand, so the
count may fall but must not rise."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hetsched"
CEILING = 63


def settable_values(source: str) -> int:
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef):
            count += sum(isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                         for stmt in node.body)
    return count


def test_counting_rule():
    source = '''
def f(a, b=1, *, c=2, d):
    g = lambda x=0: x
class C:
    x: int
    y: int = 0
    z = 3
'''
    assert settable_values(source) == 4


def test_settable_values_do_not_grow():
    total = sum(settable_values(path.read_text())
                for path in sorted(SRC.glob("*.py")))
    assert total <= CEILING
