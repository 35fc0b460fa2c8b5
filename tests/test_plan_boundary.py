"""A plan's failure becomes a config error in one place.

cli._reading turns a ValueError or ArithmeticError raised while a plan
reads its keys into a ConfigError naming them; a function of cli.py that
caught an exception itself would keep a second copy of that rule.  So,
parsed with ast, only the value parser, the config loader, _reading and
main hold a try statement.
"""

import ast
from pathlib import Path

_CLI = Path(__file__).resolve().parents[1] / "src" / "smalltime" / "cli.py"
_MAY_TRY = {"_parse_value", "load_config", "_reading", "main"}
_TRY = (ast.Try, getattr(ast, "TryStar", ast.Try))


def _functions_with_try(source: str) -> list:
    """The names of source's functions (nested ones too) that hold a try
    statement."""
    return [node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(isinstance(inner, _TRY) for inner in ast.walk(node))]


def test_the_check_finds_a_try_in_a_function():
    source = ("def f():\n    try:\n        g()\n    except OverflowError:\n        pass\n"
              "def g():\n    return 1\n")
    assert _functions_with_try(source) == ["f"]


def test_only_the_boundary_functions_of_cli_hold_a_try():
    assert [name for name in _functions_with_try(_CLI.read_text())
            if name not in _MAY_TRY] == []
