"""Repository hygiene checks that read the source rather than run it."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "kljnsim"

# Defined but referenced nowhere else, on purpose, with the reason.
UNREFERENCED_ALLOWED = {
    # The paper's partner-resistance inversion; acceptance criterion 04
    # checks it.
    "infer_partner_resistance",
}


def defined_names(path: Path) -> list[tuple[str, int]]:
    """(name, line) of every function, method and class ``path`` defines,
    and of every name a module-level assignment binds, dunders left
    out."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = [(node.name, node.lineno) for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))]
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        names += [(name.id, name.lineno) for target in targets
                  for name in ast.walk(target) if isinstance(name, ast.Name)]
    return [(name, line) for name, line in names
            if not (name.startswith("__") and name.endswith("__"))]


def test_every_defined_name_is_referenced():
    """A function, class or module constant that nothing in the package
    or the benchmark names is dead code.  The package's ``__init__.py``
    re-exports every public name, so it does not count as a reference."""
    modules = sorted(p for p in PACKAGE.glob("*.py")
                     if p.name != "__init__.py")
    sources = {p: p.read_text(encoding="utf-8").splitlines()
               for p in [*modules, *sorted((ROOT / "bench").glob("*.py"))]}
    unreferenced = set()
    for module in modules:
        for name, line in defined_names(module):
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(word.search(text)
                       for path, lines in sources.items()
                       for number, text in enumerate(lines, 1)
                       if (path, number) != (module, line)):
                unreferenced.add(name)
    assert unreferenced == UNREFERENCED_ALLOWED
