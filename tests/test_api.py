"""The public API, pinned so that any change to it shows as a reviewed diff, and
the package's private names, each of which the package itself must use."""

import ast
import collections
import importlib
import pkgutil
import types
from pathlib import Path

import gapred


def _api_listing() -> str:
    """The public names of `gapred`, then each module's `__all__`, one name a line, sorted."""
    names = sorted(name for name, value in vars(gapred).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    blocks = [("gapred", names)]
    for info in pkgutil.iter_modules(gapred.__path__):
        if not info.name.startswith("_"):  # __main__ runs the CLI on import
            module = importlib.import_module(f"gapred.{info.name}")
            if hasattr(module, "__all__"):
                blocks.append((f"gapred.{info.name}.__all__", sorted(module.__all__)))
    return "".join(f"{title}\n" + "".join(f"    {name}\n" for name in names)
                   for title, names in blocks)


def test_public_api_is_pinned():
    # To regenerate after a deliberate API change, write _api_listing() to
    # tests/pinned_api.txt.
    expected = (Path(__file__).parent / "pinned_api.txt").read_text()
    assert _api_listing() == expected


def _referenced(tree) -> collections.Counter:
    """How often each name is read in `tree`: as a name, an attribute or an import."""
    names = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name] += 1
    return names


def test_every_private_module_name_is_used_in_the_package():
    # A module-level private name that nothing in src/ reads outside its own
    # definition is code the package does not run; tests and bench/ do not count.
    trees = {path.name: ast.parse(path.read_text())
             for path in Path(gapred.__file__).parent.glob("*.py")}
    used = sum(map(_referenced, trees.values()), collections.Counter())
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            inside = _referenced(node)
            unused += [f"{module}:{name}" for name in names if name.startswith("_")
                       and not name.startswith("__") and used[name] == inside[name]]
    assert unused == []


def test_no_function_in_the_package_calls_itself():
    # A search that calls itself once per level fails past Python's recursion
    # limit, however much budget it has left, so the searches are loops over
    # explicit stacks. A call of a function's own bare name inside its body,
    # nested functions included, is recursion; a method or attribute call such
    # as super().__init__() is not.
    recursive = []
    for path in sorted(Path(gapred.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                recursive += [f"{path.name}:{node.lineno} {node.name}" for call in ast.walk(node)
                              if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                              and call.func.id == node.name]
    assert recursive == []


def test_every_error_class_is_raised_in_the_package():
    # An error class that nothing in src/ raises documents a failure the
    # package cannot have; catching or exporting it does not count.
    from gapred import errors

    raised = set()
    for path in Path(gapred.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    classes = [name for name, value in vars(errors).items() if isinstance(value, type)
               and issubclass(value, errors.GapredError) and value is not errors.GapredError]
    assert classes and [name for name in classes if name not in raised] == []
