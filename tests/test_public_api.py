"""The public surface is what ``verify`` or the CLI reaches.

Every public top-level function and class of a module in ``src/phaseq``, and
every public method of such a class, must be referenced somewhere in the
package outside ``__init__``: by a name, an attribute, or an import.  API that
only tests call fails here unless it is listed in ``ALLOWED`` with its reason.
Matching is by name, so a method that shares its name with a reached one is
not caught.
"""

import ast
from pathlib import Path

import phaseq

PACKAGE = Path(phaseq.__file__).parent

# Public names that nothing in the package reaches, each kept for a reason.
ALLOWED = {
    "io.load_phase_density": "reading half of the density format evolve writes",
    "io.load_wavefunction": "reading half of the wavefunction format evolve writes",
    "wigner.endpoint_matrix": "pure-state factorisation (acceptance criterion 10); "
                              "verify's 58 entry ids are fixed",
    "wigner.factorize_pure": "pure-state factorisation (acceptance criterion 10); "
                             "verify's 58 entry ids are fixed",
}


def _modules():
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _public(name):
    return not name.startswith("_")


def public_definitions(modules):
    """'module.name' and 'module.Class.method' for every public definition."""
    defined = {}
    for module, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or not _public(node.name):
                continue
            defined[f"{module}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and _public(item.name):
                        defined[f"{module}.{node.name}.{item.name}"] = item.name
    return defined


def referenced_names(modules):
    """Every name, attribute and imported name used outside ``__init__``."""
    names = set()
    for module, tree in modules.items():
        if module == "__init__":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_every_public_definition_is_reached_or_allowed():
    modules = _modules()
    reached = referenced_names(modules)
    unreached = sorted(
        key for key, name in public_definitions(modules).items()
        if name not in reached and key not in ALLOWED
    )
    assert unreached == [], f"public API that nothing in src/phaseq reaches: {unreached}"


def test_every_allowed_name_exists_and_is_unreached():
    modules = _modules()
    defined = public_definitions(modules)
    reached = referenced_names(modules)
    assert sorted(set(ALLOWED) - set(defined)) == []
    assert sorted(key for key in ALLOWED if defined[key] in reached) == []


def test_scan_catches_an_uncalled_function():
    modules = _modules()
    modules["fock"] = ast.parse(
        (PACKAGE / "fock.py").read_text() + "\n\ndef only_a_test_calls_this():\n    pass\n"
    )
    defined = public_definitions(modules)
    assert "fock.only_a_test_calls_this" in defined
    assert "only_a_test_calls_this" not in referenced_names(modules)
