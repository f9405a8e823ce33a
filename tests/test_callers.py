"""Every top-level function and class of ``src/ospd`` has a caller in the
library or the demos, so that no definition lives only for its own unit
test.  A reference is a ``Name`` or an ``Attribute`` naming the definition
anywhere in ``src/ospd/*.py`` or ``demos/*.py`` outside the definition's
own body; ``__init__.py`` only re-exports and is not scanned.

The library also holds no module state that code rewrites: no ``setattr``
call and no ``global`` statement anywhere in ``src/ospd``, and no memo that
outlives a call: no ``functools.lru_cache``, ``cache`` or
``cached_property``, whose tables would be shared by every caller.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted(p for p in (ROOT / "src" / "ospd").glob("*.py")
                 if p.name != "__init__.py")
DEMOS = sorted((ROOT / "demos").glob("*.py"))

ALLOWED = {
    # reference oracles that the tests compare the library against
    "is_admissible_sigma", "valid_slide_offsets", "k_set_via_inverse",
    "k_from_character", "gl_f_matrix",
    # readers of what the CLI writes: tableaux, and colour names in the
    # graph JSON
    "tuple_from_json", "parse_root_index",
}

DEFINITION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _referenced(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def scan():
    """(definitions, references): the top-level definitions of the library
    as (module, name), and for each referenced name the set of top-level
    definitions whose bodies reference it (None for module-level code)."""
    definitions = []
    references = {}
    for path in LIBRARY + DEMOS:
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            owner = stmt.name if isinstance(stmt, DEFINITION) else None
            if owner is not None and path in LIBRARY:
                definitions.append((path.stem, owner))
            for name in _referenced(stmt):
                references.setdefault(name, set()).add(owner)
    return definitions, references


def test_every_definition_has_a_caller():
    definitions, references = scan()
    uncalled = sorted("%s.%s" % (module, name) for module, name in definitions
                      if not references.get(name, set()) - {name}
                      and name not in ALLOWED)
    assert not uncalled, "no caller in src/ospd or demos: %s" % uncalled


def test_allowlist_names_existing_definitions():
    definitions, _ = scan()
    assert ALLOWED <= {name for _, name in definitions}


def test_library_rewrites_no_module_state():
    found = []
    for path in sorted((ROOT / "src" / "ospd").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Global) or (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "setattr"):
                found.append("%s:%d" % (path.name, node.lineno))
    assert not found, "setattr or global in src/ospd: %s" % found


def test_library_keeps_no_process_wide_memo():
    memos = {"lru_cache", "cache", "cached_property"}
    found = []
    for path in sorted((ROOT / "src" / "ospd").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                names = {alias.name for alias in node.names}
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id == "functools"):
                names = {node.attr}
            else:
                continue
            if names & memos:
                found.append("%s:%d" % (path.name, node.lineno))
    assert not found, "functools memo in src/ospd: %s" % found
