"""Every public module-level name of the package has a caller outside tests.

A public function, class or constant defined in ``src/anchorpose`` must be
read, by name, attribute or ``from`` import, somewhere in the package itself
(not counting ``__init__.py``, which only re-exports), ``scripts/`` or
``perfbench/``. A name that only its own tests reach is dead code.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "anchorpose"

ALLOWED = {
    ("geom", "project"): "the scalar pinhole reference of the crop-intrinsics tests",
}


def _modules() -> list[Path]:
    return [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]


def _public_names(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from (name for name in names if not name.startswith("_"))


def _read_names() -> set[str]:
    names = set()
    for path in [*_modules(), *(ROOT / "scripts").rglob("*.py"),
                 *(ROOT / "perfbench").rglob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def test_every_public_name_has_a_caller():
    read = _read_names()
    unused = [f"{path.stem}.{name}" for path in _modules()
              for name in _public_names(ast.parse(path.read_text()))
              if name not in read and (path.stem, name) not in ALLOWED]
    assert unused == []
