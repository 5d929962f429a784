"""Static checks over the package source, with the stdlib ast module alone.

No linter ships with the project, so two rules guard deletions: an import
left behind, or a private helper whose last caller is gone.  Two more keep
start-up cheap: the package and the CLI import no module at load time that a
call may not need, and the modules every call loads import neither
dataclasses nor typing.
"""

import ast
from pathlib import Path

import recurseq

SOURCES = sorted(Path(recurseq.__file__).parent.glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def referenced_names(tree):
    """Every name the module reads, as a bare name or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def imported_names(tree):
    """(bound name, line) for each name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def private_definitions(tree):
    """(name, line) for each module-level _-prefixed function, class or constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


def load_time_statements(tree):
    """Every node that runs when the module is imported: all but function bodies."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
            stack.extend(ast.iter_child_nodes(node))


def load_time_package_imports(tree):
    """The package modules a module imports when it is itself imported."""
    names = set()
    for node in load_time_statements(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level and node.module:  # from .core import x
                names.add(node.module.split(".")[0])
            elif node.level or node.module == "recurseq":  # from . import core
                names.update(alias.name for alias in node.names)
            elif (node.module or "").startswith("recurseq."):
                names.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            names.update(alias.name.split(".")[1] for alias in node.names if alias.name.startswith("recurseq."))
    return names


def test_sources_found():
    assert {path.name for path in SOURCES} >= {"__init__.py", "core.py", "cli.py"}


def test_no_unused_import():
    unused = []
    for path in SOURCES:
        tree = parse(path)
        used = referenced_names(tree)
        unused += [f"{path.name}:{line} {name}" for name, line in imported_names(tree) if name not in used]
    assert unused == []


def test_no_unreferenced_private_name():
    trees = {path.name: parse(path) for path in SOURCES}
    used = set().union(*(referenced_names(tree) for tree in trees.values()))
    unreferenced = [
        f"{name}:{line} {private}"
        for name, tree in trees.items()
        for private, line in private_definitions(tree)
        if private not in used
    ]
    assert unreferenced == []


def test_package_init_imports_no_submodule():
    """Each public name is imported on first use, so `import recurseq` loads nothing else."""
    assert load_time_package_imports(parse(Path(recurseq.__file__))) == set()


def test_cli_imports_only_what_every_subcommand_needs():
    """accel, roots and cf are imported inside the handlers that call them."""
    cli = Path(recurseq.__file__).with_name("cli.py")
    assert load_time_package_imports(parse(cli)) <= {"core", "errors", "formatting"}


def test_every_call_loads_no_dataclasses_or_typing():
    """The modules any CLI call loads import neither at load time (about 10 ms of start-up)."""
    imports = []
    for name in ("__init__", "core", "errors", "formatting", "cli"):
        path = Path(recurseq.__file__).with_name(f"{name}.py")
        for node in load_time_statements(parse(path)):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            imports += [f"{name}.py:{node.lineno} {m}" for m in modules if m.split(".")[0] in ("dataclasses", "typing")]
    assert imports == []
