"""Rules the library source keeps, checked on its syntax trees.

Errors reach the CLI as typed exceptions and exit 2 with one line, so no
handler in ``src/`` may swallow every error: no bare ``except:`` and no
handler that catches ``Exception`` or ``BaseException``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "benenti").glob("*.py"))
BROAD = {"Exception", "BaseException"}


def broad_handlers(source: str) -> list:
    """Line numbers of the handlers in ``source`` that catch everything."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ExceptHandler):
            continue
        caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        names = {c.id if isinstance(c, ast.Name) else getattr(c, "attr", None)
                 for c in caught}
        if node.type is None or names & BROAD:
            lines.append(node.lineno)
    return lines


def test_sources_are_found():
    assert len(SOURCES) >= 10


def test_broad_handlers_are_found():
    body = "try:\n    pass\n"
    for handler in ("except:", "except Exception:", "except BaseException as e:",
                    "except (ValueError, Exception):", "except builtins.Exception:"):
        assert broad_handlers(f"{body}{handler}\n    pass\n") == [3], handler
    for handler in ("except ValueError:", "except (KeyError, OSError) as e:",
                    "except ExceptionGroup:"):
        assert broad_handlers(f"{body}{handler}\n    pass\n") == [], handler


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_handler_catches_every_error(path):
    assert broad_handlers(path.read_text(encoding="utf-8")) == []
