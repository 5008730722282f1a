"""Every module-level function and class of the package has a caller.

A definition counts as used when its name is referenced (as a name, an
attribute or an imported name) somewhere other than inside its own
definition: in the package itself (the re-exports of ``__init__`` do not
count), in the benchmark (``perfbench/*.py`` except its own tests), in
``scripts/`` or in the acceptance criteria.  Unit tests do not count, so
code that only its unit tests reach fails here.

The same holds for the public methods of ``Tensor``, in those files: a
property (``shape``, ``size``, ``ndim``) counts as used when its name is
read as an attribute of anything but a module bound by ``import``, and
any other method only when its name is called that way (``np.exp(x)`` is
no use of ``Tensor.exp``, and reading an array's ``.real`` none of
``Tensor.real``).  An array's method of the same name called does count,
since a name alone cannot tell a ``Tensor`` from an array.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "spectralsr"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def referencing_files():
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    files += [p for p in sorted((ROOT / "perfbench").glob("*.py")) if p.name != "test_perfbench.py"]
    files += sorted((ROOT / "scripts").glob("*.py"))
    return files + [ROOT / "tests" / "test_acceptance.py"]


def referenced_names(tree, defines=False):
    """Names referenced in ``tree``.  With ``defines`` (the file is where its
    top-level definitions live), a definition's references to its own name,
    such as a recursive call, are left out."""
    names = set()
    for statement in tree.body:
        found = set()
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.alias):
                found.add(node.name.split(".")[-1])
        if defines and isinstance(statement, DEFINITIONS):
            found.discard(statement.name)
        names |= found
    return names


def unreferenced_definitions():
    used = set()
    for path in referencing_files():
        used |= referenced_names(ast.parse(path.read_text(), str(path)), path.parent == PACKAGE)
    return sorted(
        f"{path.stem}.{statement.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for statement in ast.parse(path.read_text(), str(path)).body
        if isinstance(statement, DEFINITIONS) and statement.name not in used
    )


def _object_attributes(tree):
    """The attribute nodes of ``tree`` on anything but a module bound by ``import``."""
    modules = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names
    }
    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and not (isinstance(node.value, ast.Name) and node.value.id in modules)
    ]


def attribute_names(tree):
    """Attribute names read in ``tree`` on anything but a module bound by ``import``."""
    return {node.attr for node in _object_attributes(tree)}


def called_names(tree):
    """Attribute names called in ``tree`` on anything but a module bound by ``import``."""
    attributes = {id(node) for node in _object_attributes(tree)}
    return {
        node.func.attr for node in ast.walk(tree)
        if isinstance(node, ast.Call) and id(node.func) in attributes
    }


def _is_property(method):
    return any(isinstance(d, ast.Name) and d.id == "property" for d in method.decorator_list)


def unreferenced_tensor_methods():
    read, called = set(), set()
    for path in referencing_files():
        tree = ast.parse(path.read_text(), str(path))
        read |= attribute_names(tree)
        called |= called_names(tree)
    tree = ast.parse((PACKAGE / "autodiff.py").read_text())
    tensor = next(s for s in tree.body if isinstance(s, ast.ClassDef) and s.name == "Tensor")
    return sorted(
        f"Tensor.{method.name}"
        for method in tensor.body
        if isinstance(method, ast.FunctionDef)
        and not method.name.startswith("_")
        and method.name not in (read if _is_property(method) else called)
    )


def test_every_package_function_and_class_has_a_caller():
    assert unreferenced_definitions() == []


def test_a_definition_used_only_inside_itself_is_reported():
    tree = ast.parse("def f(n):\n    return f(n - 1)\n\ndef g():\n    return h()\n\ndef h():\n    pass\n")
    assert referenced_names(tree, defines=True) == {"h", "n"}
    assert {"f", "h"} <= referenced_names(tree)


def test_every_public_tensor_method_has_a_caller():
    assert unreferenced_tensor_methods() == []


def test_an_attribute_of_an_imported_module_is_no_use():
    tree = ast.parse("import numpy as np\nnp.exp(x.sqrt())\n")
    assert attribute_names(tree) == {"sqrt"}


def test_only_a_call_uses_a_method():
    tree = ast.parse("import numpy as np\nx.real\ny.sqrt()\nnp.exp(z)\n")
    assert called_names(tree) == {"sqrt"}
