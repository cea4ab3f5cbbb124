"""The package's layout: each job has one owning module.

A name that crosses a module boundary is public in the module that
owns it, no module starts a thread, and workers is the one module that
forks processes.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "finitebath"
MODULES = sorted(PACKAGE.glob("*.py"))
STARTERS = {"threading.Thread", "os.fork"}


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _dotted(node, names):
    """The dotted name of an expression such as threading.Thread, through the module's imports."""
    if isinstance(node, ast.Name):
        return names.get(node.id, node.id)
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value, names)
        return None if base is None else f"{base}.{node.attr}"
    return None


def test_the_package_has_the_modules_this_checks():
    assert {"propagator", "transform", "workers"} <= {path.stem for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_no_module_imports_a_private_name_of_another(path):
    """A from-import of a finitebath module names only public names; dunders are public."""
    private = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "finitebath"):
            private += [f"{node.module}.{alias.name}" for alias in node.names
                        if _is_private(alias.name)]
    assert private == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_only_workers_starts_threads_or_forks(path):
    """No module calls threading.Thread, and only workers.py calls os.fork, under any import alias."""
    tree = _tree(path)
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update({alias.asname or alias.name: alias.name for alias in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.update({alias.asname or alias.name: f"{node.module}.{alias.name}"
                          for alias in node.names})
    calls = sorted({_dotted(node.func, names) for node in ast.walk(tree)
                    if isinstance(node, ast.Call)} & STARTERS)
    assert calls == (["os.fork"] if path.stem == "workers" else [])
