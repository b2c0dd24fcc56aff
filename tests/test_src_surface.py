"""Every function, class and method defined in `src/evmscope` is used by
the package itself, by the benchmark harness or by the public `__all__`,
and every field it assigns is read there.  A definition that only tests
call, or a field that only tests read, belongs under `tests/`."""

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


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in node.decorator_list)


def _fields(tree: ast.Module):
    """(class, name) of each `@dataclass` field and each `self.<name>`
    assignment (not an augmented one) in any method."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        if _is_dataclass(cls):
            for node in cls.body:
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    yield cls.name, node.target.id
        for node in ast.walk(cls):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for leaf in ast.walk(target):
                        if (isinstance(leaf, ast.Attribute)
                                and isinstance(leaf.value, ast.Name) and leaf.value.id == "self"):
                            yield cls.name, leaf.attr


def _loads(tree: ast.Module) -> set[str]:
    """Attribute names read; the target of `x.name += 1` is not a read."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_src_field_is_read_outside_tests():
    loaded = set()
    for path in _USERS:
        loaded |= _loads(ast.parse(path.read_text()))
    unread = sorted({f"{path.stem}.{cls}.{name}"
                     for path in _SRC
                     for cls, name in _fields(ast.parse(path.read_text()))
                     if name not in loaded})
    assert unread == []


def test_no_src_code_handles_the_recursion_limit():
    """`symexec.node` bounds every term where it is built, so no walk over
    a term meets the recursion limit and nothing in src catches it."""
    assert [path.name for path in _SRC if "RecursionError" in path.read_text()] == []


def test_only_the_term_builder_makes_compound_terms():
    """`Word(...)` with arguments, and `raise TermTooDeep`, appear in src
    only inside `symexec.node`."""
    found = []
    for path in _SRC:
        for func in ast.walk(ast.parse(path.read_text())):
            if not isinstance(func, ast.FunctionDef) or func.name == "node":
                continue
            for call in ast.walk(func):
                if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "Word" \
                        and (len(call.args) > 1 or any(k.arg == "args" for k in call.keywords)):
                    found.append(f"{path.stem}.{func.name}: Word")
                if isinstance(call, ast.Raise) and "TermTooDeep" in ast.unparse(call):
                    found.append(f"{path.stem}.{func.name}: TermTooDeep")
    assert found == []


def _own_nodes(func: ast.FunctionDef):
    """The nodes of `func` outside any function defined inside it."""
    todo = list(ast.iter_child_nodes(func))
    while todo:
        node = todo.pop()
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
            todo.extend(ast.iter_child_nodes(node))


def test_only_the_block_runners_check_the_stack():
    """`raise StackUnderflow` and `raise StackOverflow` appear in src only
    in the one block runner, `symexec._run_body`, once each, and it has one
    loop over its instructions: no handler checks the stack, and no second
    loop runs a block instruction by instruction."""
    raised, loops = [], []
    for path in _SRC:
        for func in ast.walk(ast.parse(path.read_text())):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in _own_nodes(func):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    name = getattr(exc, "id", getattr(exc, "attr", None))
                    if name in ("StackUnderflow", "StackOverflow"):
                        raised.append(f"{path.stem}.{func.name}: {name}")
                if isinstance(node, (ast.For, ast.While)):
                    loops.append(f"{path.stem}.{func.name}")
    assert sorted(raised) == ["symexec._run_body: StackOverflow",
                              "symexec._run_body: StackUnderflow"]
    assert loops.count("symexec._run_body") == 1


def test_the_block_runner_has_two_callers():
    """`symexec._run_body` is called from the unfolding's piece runner
    (`_piece_runner.enter`) and from `_steer`, the loop that runs every
    single block sequence, and from nowhere else."""
    def calls(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from calls(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.Call) and getattr(child.func, "id", None) == "_run_body":
                yield prefix.rstrip(".")
                yield from calls(child, prefix)
            else:
                yield from calls(child, prefix)
    callers = [f"{path.stem}.{caller}" for path in _SRC
               for caller in calls(ast.parse(path.read_text()), "")]
    assert sorted(callers) == ["symexec._piece_runner.enter", "symexec._steer"]


def _settable_values(tree: ast.Module) -> int:
    """Parameters with a default, plus `@dataclass` fields with one."""
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            count += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(b, ast.AnnAssign) and b.value is not None
                         for b in node.body)
    return count


def test_settable_values_do_not_grow():
    """Each default is a value a caller may set and a test must cover; the
    search sizes of the solver, for one, are fixed.  Lower the bound when a
    change removes one.  The message gives each module's count."""
    counts = {path.stem: _settable_values(ast.parse(path.read_text())) for path in _SRC}
    assert sum(counts.values()) <= 50, counts


_CALL_FRAME = {"stack", "memory", "mem_unknown", "sites", "call_start", "txn"}


def test_the_call_boundary_has_one_home_per_layer():
    """A call starts and ends in `SymbolicState` alone (`begin_transaction`,
    `end_call`): no other src function assigns a state's stack, memory,
    `mem_unknown`, draw counts (`sites`), `call_start` or call counter.  No edge kind leaves a
    call: each is a jump or a fall through, and the unfolding alone starts
    the next call at the root."""
    writers = []
    for path in _SRC:
        tree = ast.parse(path.read_text())
        methods = {node for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) and cls.name == "SymbolicState"
                   for node in cls.body}
        for func in ast.walk(tree):
            if (isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) and func not in methods
                    and any(isinstance(node, ast.Attribute) and node.attr in _CALL_FRAME
                            and isinstance(node.ctx, (ast.Store, ast.Del))
                            for node in _own_nodes(func))):
                writers.append(f"{path.stem}.{func.name}")
    assert writers == []
    assert {kind.name for kind in evmscope.EdgeKind} == {
        "SEQUENTIAL", "DIRECT_JUMP", "INDIRECT_JUMP", "COND_TAKEN", "COND_FALLTHROUGH"}
