"""The public surface: every public module-level function and class of the
library is called by the library, the CLI, scripts/ or perfbench/, or is
exported by the package.

A use is the name read as an identifier in the parsed code (an ast Name, an
Attribute or an import alias) outside the name's own definition, so a
docstring, a comment or a string in __all__ does not count."""

import ast
from pathlib import Path

import landau_bgcs
from landau_bgcs import bgcs, checks, cli, fock, measure, quantize, specfun, thermo

_ROOT = Path(__file__).resolve().parent.parent
_MODULES = (specfun, fock, bgcs, measure, quantize, thermo, checks, cli)
# public names kept without a caller, each with its reason
_ALLOWED = {
    "landau_bgcs.fock.hamiltonian_matrix":
        "the model's Hamiltonian: ThermalSpec's ensemble and its spectrum "
        "test are defined through it",
}


def _sources():
    for pattern in ("src/landau_bgcs/*.py", "scripts/*.py", "perfbench/*.py"):
        yield from sorted(_ROOT.glob(pattern))


def _identifiers(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rsplit(".", 1)[-1]
            if sub.asname:
                yield sub.asname


def _public_definitions(tree):
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _unused_public_names():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in _sources()}
    used = set()
    for tree in trees.values():
        # a top-level definition's own body does not use its name
        own = {id(node): node.name for node in _public_definitions(tree)}
        for node in tree.body:
            names = set(_identifiers(node))
            names.discard(own.get(id(node)))
            used |= names
    unused = []
    for module in _MODULES:
        tree = trees[Path(module.__file__).resolve()]
        for node in _public_definitions(tree):
            if node.name not in used and node.name not in landau_bgcs.__all__:
                unused.append(f"{module.__name__}.{node.name}")
    return unused


def test_every_public_name_is_used_or_exported():
    assert sorted(_unused_public_names()) == sorted(_ALLOWED)

