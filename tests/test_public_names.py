"""Every public function and class of the package has a caller or a README entry.

A public top-level name counts as used when some module of the package
reads it outside its own definition (an import alone does not count), or
when README.md names it in backticks.  A name that only tests call is
dead weight in the package.  A private top-level function, class or
constant must be read somewhere in the package, whatever README says.
Likewise every module-level import must be read in its own module.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "codim2flow"


def _names_read(node, skip=None):
    """Identifiers that node loads, as names or attributes, outside the subtree skip."""
    out = set()
    for child in ast.iter_child_nodes(node):
        if child is skip:
            continue
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            out.add(child.id)
        elif isinstance(child, ast.Attribute):
            out.add(child.attr)
        out |= _names_read(child, skip)
    return out


def _readme_names():
    spans = re.findall(r"`([^`]+)`", (ROOT / "README.md").read_text())
    return {tok for span in spans for tok in re.findall(r"[A-Za-z_]\w*", span)}


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_public_names_have_a_caller_or_a_readme_entry(module):
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    documented = _readme_names()
    unused = []
    for node in trees[module].body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        used = any(node.name in _names_read(tree, skip=node if name == module else None)
                   for name, tree in trees.items())
        if not (used or node.name in documented):
            unused.append(node.name)
    assert unused == [], f"{module}: public names with no caller in src/ and no README entry"


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_module_level_imports_are_read(module):
    # a writer that stops using a module (csv, say) must take its import with it
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    assert sorted(imported - read) == [], f"{module}: imports that nothing in it reads"


def _private_definitions(tree):
    """(name, node) of each module-level function, class and assigned name that starts with one _."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from ((name, node) for name in names
                    if name.startswith("_") and not name.startswith("__"))


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_private_names_are_read_in_the_package(module):
    # a helper that its last caller left behind; tests reading it do not count
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    unread = [name for name, node in _private_definitions(trees[module])
              if not any(name in _names_read(tree, skip=node if other == module else None)
                         for other, tree in trees.items())]
    assert unread == [], f"{module}: private names that nothing in src/ reads"


def test_topology_tables_are_read_in_the_package():
    # a table that its last reader left behind; reads in tests do not count
    trees = [ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))]
    build = next(node for tree in trees for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "_build_topology")
    tables = {key.value for node in ast.walk(build)
              if isinstance(node, ast.Return) and isinstance(node.value, ast.Dict)
              for key in node.value.keys}
    assert tables

    def subscripts(node):
        for child in ast.iter_child_nodes(node):
            if child is build:
                continue
            if isinstance(child, ast.Subscript) and isinstance(child.slice, ast.Constant):
                yield child.slice.value
            yield from subscripts(child)

    read = {key for tree in trees for key in subscripts(tree)}
    assert sorted(tables - read) == [], "topology tables that nothing in src/ reads"


def test_recovered_mesh_attributes_are_read_in_the_package():
    # a cache that recover_geometry fills for tests alone; reads in tests do not count
    trees = [ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))]
    recover = next(node for tree in trees for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name == "recover_geometry")
    filled = {n.attr for n in ast.walk(recover) if isinstance(n, ast.Attribute)
              and isinstance(n.ctx, ast.Store) and isinstance(n.value, ast.Name)
              and n.value.id == "mesh"}
    assert filled

    def loads(node):
        for child in ast.iter_child_nodes(node):
            if child is recover:
                continue
            if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                yield child.attr
            yield from loads(child)

    read = {attr for tree in trees for attr in loads(tree)}
    assert sorted(filled - read) == [], "mesh attributes that recover_geometry fills and nothing reads"
