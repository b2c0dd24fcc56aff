"""Every function, class and method defined in `src/evmscope` is used by
the package itself, by the benchmark harness or by the public `__all__`.
A definition that only tests call belongs under `tests/`."""

import ast

import evmscope

from conftest import ROOT

_SRC = sorted((ROOT / "src" / "evmscope").glob("*.py"))
_USERS = _SRC + sorted((ROOT / "perfbench").glob("*.py"))


def _definitions(tree: ast.Module):
    """(qualified name, bare name) of each def and class, at any depth."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield prefix + child.name, child.name
                yield from walk(child, prefix + child.name + ".")
            else:
                yield from walk(child, prefix)
    return walk(tree, "")


def _references(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_every_src_definition_is_used_outside_tests():
    used = set(evmscope.__all__)
    for path in _USERS:
        used |= _references(ast.parse(path.read_text()))
    unused = [f"{path.stem}.{qualified}"
              for path in _SRC
              for qualified, name in _definitions(ast.parse(path.read_text()))
              if name not in used and not (name.startswith("__") and name.endswith("__"))]
    assert unused == []
