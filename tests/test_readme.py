"""The README's library quick tour runs as written and gives the values its
comments state."""

import ast
import re
from pathlib import Path

from tomobound import ConsistencyReport

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_tour():
    tour = README.read_text(encoding="utf-8").split("## Library quick tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    namespace: dict = {}
    values = []  # the value of each bare expression, in order
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            values.append(eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace))
        else:
            exec(compile(ast.Module([stmt], type_ignores=[]), "README.md", "exec"), namespace)
    assert len(values) == 6
    assert values[:3] == [38, 95, 26]
    assert values[3] == (10, frozenset(range(10)))
    assert isinstance(values[4], ConsistencyReport)
    assert values[5] is True
