"""The public surface is what ``verify`` or the CLI reaches.

Every public top-level function and class of a module in ``src/phaseq``, and
every public method of such a class, must be referenced somewhere in the
package outside ``__init__``: by a name, an attribute, or an import.  API that
only tests call fails here unless it is listed in ``ALLOWED`` with its reason.
Likewise every defaulted parameter of a public function or method, and every
field of a public dataclass that has a value, must be passed, by position or
keyword, by some call in the package: a default that no caller varies is a
constant, unless ``ALLOWED_DEFAULTS`` gives a reason.  Nor may a default be
passed by every call of its callee in the package: then only tests rely on it.
Matching is by name, so a method that shares its name with a reached one is
not caught, and a call through another function of the same name counts.
Finally, no module imports a private name from another or reads one as an
attribute of another: a rule that several modules need belongs behind a
public name in one of them.
"""

import ast
import os
import subprocess
import sys
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

# Defaulted parameters that no call in the package passes, each kept for a reason.
ALLOWED_DEFAULTS = {
    "cli.main(argv)": "tests and the benchmark drive the CLI in-process",
    "wigner.endpoint_matrix(weights)": "the mixture weights of the allow-listed "
                                       "endpoint_matrix (acceptance criterion 10)",
    "phasespace.gaussian_density(p0)": "tests place densities off the q axis",
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


def test_importing_the_package_loads_no_module():
    """Modules are reached by name, so ``import phaseq`` loads none of them."""
    script = "import sys, phaseq; print(sorted(m for m in sys.modules if m.startswith('phaseq.')))"
    probe = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)}, capture_output=True, text=True,
        check=True,
    )
    assert probe.stdout.strip() == "[]"


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


def _functions(modules):
    """(qualified name, node, bound) for every public function and method;
    bound methods receive their instance or class as the first parameter."""
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and _public(node.name):
                yield f"{module}.{node.name}", node, False
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and _public(item.name):
                        static = any(getattr(d, "id", None) == "staticmethod"
                                     for d in item.decorator_list)
                        yield f"{module}.{node.name}.{item.name}", item, not static


def _is_dataclass(node):
    return any(getattr(d, "id", None) == "dataclass"
               or getattr(getattr(d, "func", None), "id", None) == "dataclass"
               for d in node.decorator_list)


def defaulted_fields(modules):
    """'module.Class(field)' -> the ways a constructor call can pass that field,
    for every field of a public dataclass that has a value."""
    found = {}
    for module, tree in modules.items():
        for node in tree.body:
            if not (isinstance(node, ast.ClassDef) and _public(node.name) and _is_dataclass(node)):
                continue
            fields = [item for item in node.body
                      if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
            for index, item in enumerate(fields):
                if item.value is not None:
                    name = item.target.id
                    found[f"{module}.{node.name}({name})"] = {
                        (node.name, index), (node.name, name), (node.name, "*"), (node.name, "**")}
    return found


def defaulted_parameters(modules):
    """'module.function(param)' -> the ways a call can pass that parameter,
    dataclass fields with a value included."""
    found = defaulted_fields(modules)
    for qualified, node, bound in _functions(modules):
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        for index in range(first, len(positional)):
            name = positional[index].arg
            found[f"{qualified}({name})"] = {(node.name, index - bound), (node.name, name),
                                             (node.name, "*"), (node.name, "**")}
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                found[f"{qualified}({arg.arg})"] = {(node.name, arg.arg), (node.name, "**")}
    return found


def calls(modules):
    """(callee name, {(callee name, position or keyword)}) for every call;
    '*' and '**' stand for unpacked positional and keyword arguments."""
    for tree in modules.values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            passed = {(callee, "*" if isinstance(arg, ast.Starred) else index)
                      for index, arg in enumerate(node.args)}
            passed |= {(callee, keyword.arg or "**") for keyword in node.keywords}
            yield callee, passed


def unvaried_defaults(modules):
    passed = set().union(*(arguments for _, arguments in calls(modules)))
    return sorted(key for key, ways in defaulted_parameters(modules).items()
                  if not ways & passed)


def overridden_defaults(modules):
    """Defaulted parameters that every call of their callee's name passes,
    provided there is at least one such call."""
    by_callee = {}
    for callee, passed in calls(modules):
        by_callee.setdefault(callee, []).append(passed)
    overridden = []
    for key, ways in defaulted_parameters(modules).items():
        callee = next(iter(ways))[0]  # every way names the callee
        made = by_callee.get(callee, [])
        if made and all(ways & passed for passed in made):
            overridden.append(key)
    return sorted(overridden)


def test_every_default_is_passed_or_allowed():
    unvaried = [key for key in unvaried_defaults(_modules()) if key not in ALLOWED_DEFAULTS]
    assert unvaried == [], f"defaults that no call in src/phaseq varies: {unvaried}"


def test_every_allowed_default_exists_and_is_unvaried():
    modules = _modules()
    assert sorted(set(ALLOWED_DEFAULTS) - set(defaulted_parameters(modules))) == []
    assert sorted(set(ALLOWED_DEFAULTS) - set(unvaried_defaults(modules))) == []


def test_no_default_is_passed_by_every_call():
    overridden = overridden_defaults(_modules())
    assert overridden == [], f"defaults that every call in src/phaseq overrides: {overridden}"


def test_scan_catches_a_default_every_call_overrides():
    source = (PACKAGE / "fock.py").read_text() + (
        "\n\ndef every_call_overrides_this(x, knob=1):\n    pass\n"
        "\n\ndef caller():\n    every_call_overrides_this(0, 2)\n"
        "    every_call_overrides_this(0, knob=3)\n"
    )
    modules = _modules()
    modules["fock"] = ast.parse(source)
    assert "fock.every_call_overrides_this(knob)" in overridden_defaults(modules)
    modules["fock"] = ast.parse(source + "    every_call_overrides_this(0)\n")
    assert "fock.every_call_overrides_this(knob)" not in overridden_defaults(modules)


def test_scan_catches_an_unvaried_default():
    source = (PACKAGE / "fock.py").read_text() + (
        "\n\ndef only_a_test_varies_this(x, knob=1):\n    pass\n"
        "\n\ndef caller():\n    only_a_test_varies_this(0)\n"
    )
    modules = _modules()
    modules["fock"] = ast.parse(source)
    assert "fock.only_a_test_varies_this(knob)" in unvaried_defaults(modules)
    modules["fock"] = ast.parse(source + "    only_a_test_varies_this(0, knob=2)\n")
    assert "fock.only_a_test_varies_this(knob)" not in unvaried_defaults(modules)


def test_scan_catches_an_unvaried_field():
    source = (PACKAGE / "fock.py").read_text() + (
        "\n\n@dataclass(frozen=True)\nclass OnlyATestVariesThis:\n    x: int\n    knob: int = 1\n"
        "\n\ndef caller():\n    OnlyATestVariesThis(0)\n"
    )
    modules = _modules()
    modules["fock"] = ast.parse(source)
    assert "fock.OnlyATestVariesThis(knob)" in unvaried_defaults(modules)
    assert "fock.OnlyATestVariesThis(x)" not in defaulted_parameters(modules)
    for call in ("OnlyATestVariesThis(0, 2)", "OnlyATestVariesThis(0, knob=2)"):
        varied = ast.parse(source + f"    {call}\n")
        modules["fock"] = varied
        assert "fock.OnlyATestVariesThis(knob)" not in unvaried_defaults(modules)


def private_imports(modules):
    """'module: from x import _y' for every private name a module imports from
    another module of the package.

    Private modules themselves (``from . import _spectral``) may be imported,
    and so may the public names they define.  Reading a private name as an
    attribute of a module, such as ``spin._mode_matrices``, is the part of
    ``private_attributes``.
    """
    found = []
    for module, tree in modules.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or node.module is None:
                continue
            if not (node.level or node.module.startswith(f"{PACKAGE.name}.")):
                continue  # from the package itself (its modules) or from outside it
            source = "." * node.level + node.module
            found += [f"{module}: from {source} import {alias.name}"
                      for alias in node.names if not _public(alias.name)]
    return found


def private_attributes(modules):
    """'module: name._attr' for every private attribute a module reads from a
    module of the package it imported by name (``from . import spin`` or
    ``from phaseq import spin as s``).

    The private module ``_spectral`` may be imported this way, and its public
    names read, like any other module's.
    """
    found = []
    for module, tree in modules.items():
        bound = {alias.asname or alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)
                 and (node.module is None if node.level else node.module == PACKAGE.name)
                 for alias in node.names if alias.name in modules}
        found += [f"{module}: {node.value.id}.{node.attr}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in bound and not _public(node.attr)]
    return found


def test_no_module_imports_a_private_name():
    private = private_imports(_modules())
    assert private == [], f"private names imported across modules: {private}"


def test_scan_catches_a_private_import():
    source = (PACKAGE / "fock.py").read_text()
    modules = _modules()
    for line in ("from .phasespace import _is_power_of_two",
                 "from phaseq.phasespace import NATURAL, _is_power_of_two"):
        modules["fock"] = ast.parse(f"{line}\n{source}")
        assert [found for found in private_imports(modules) if found.startswith("fock:")] == [
            f"fock: from {line.split()[1]} import _is_power_of_two"]
    for line in ("from . import _spectral", "from phaseq import _spectral",
                 "from ._spectral import wavenumbers"):
        modules["fock"] = ast.parse(f"{line}\n{source}")
        assert not [found for found in private_imports(modules) if found.startswith("fock:")]


def test_no_module_reads_a_private_attribute_of_another():
    private = private_attributes(_modules())
    assert private == [], f"private names read across modules: {private}"


def test_scan_catches_a_private_attribute():
    source = (PACKAGE / "fock.py").read_text()
    modules = _modules()
    for line, found in (("from . import phasespace\nphasespace._is_power_of_two(2)",
                         "fock: phasespace._is_power_of_two"),
                        ("from phaseq import phasespace as ps\nps._is_power_of_two(2)",
                         "fock: ps._is_power_of_two"),
                        ("from . import _spectral\n_spectral._private(2)",
                         "fock: _spectral._private")):
        modules["fock"] = ast.parse(f"{source}\n{line}\n")
        assert [f for f in private_attributes(modules) if f.startswith("fock:")] == [found]
    for line in ("from . import _spectral\n_spectral.shear", "np._NoValue", "sys._getframe()"):
        modules["fock"] = ast.parse(f"{source}\n{line}\n")
        assert not [f for f in private_attributes(modules) if f.startswith("fock:")]
