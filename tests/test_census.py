"""Every module-level function of the package is reached from where the
package is used, or is on a short allowlist.

The census is static, an `ast` walk of name references.  Its roots are
`cli.main`, `spinor_of_immersion` (the converse, which no command runs) and
every name that tests/test_acceptance.py, demos/, tools/ or perfbench/
uses: an identifier, an attribute, an imported name, or a dotted part of a
string (perfbench names the functions it wraps in strings).  From a name
the walk follows every package definition of it: a function's whole body,
a class's bases and methods, a module assignment's value.  Module
statements other than definitions, assignments and imports run on import,
so their names are roots too.  Names are not resolved to modules, so a
function counts as reached when only a namesake is.

A function that nothing reaches is a second implementation, an oracle that
belongs in tests/oracles.py, or dead code.  ALLOWED names the functions
that ROADMAP item 9 will reach, each with its reason.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
ROOTS = {"main", "spinor_of_immersion"}
ALLOWED = {
    "nil_cylinder": "item 9's Nil Hopf cylinder fixture starts from it",
    "ekt_compat_residuals": "item 9 runs it on its E(kappa, tau) fixtures",
    "_rotJ": "ekt_compat_residuals's rotation, reached with it by item 9",
}


def names_in(node, strings=False):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rpartition(".")[2]
        elif strings and isinstance(sub, ast.Constant) \
                and isinstance(sub.value, str):
            yield from (part for part in sub.value.split(".")
                        if part.isidentifier())


def census(root):
    """(every module-level function of the package as (module, name), the
    set of names reached from the roots)."""
    definitions, roots, functions = {}, set(ROOTS), []
    for path in sorted((root / "src" / "spinorforge").glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                definitions.setdefault(stmt.name, []).append(stmt)
                if isinstance(stmt, ast.FunctionDef):
                    functions.append((path.stem, stmt.name))
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) \
                    else [stmt.target]
                for name in {n for t in targets for n in names_in(t)}:
                    definitions.setdefault(name, []).append(stmt.value)
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                roots.update(names_in(stmt))
    users = [root / "tests" / "test_acceptance.py"] + [
        path for folder in ("demos", "tools", "perfbench")
        for path in sorted((root / folder).rglob("*.py"))]
    for path in users:
        roots.update(names_in(ast.parse(path.read_text()), strings=True))
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            for node in definitions.get(name, ()):
                todo.extend(names_in(node))
    return functions, reached


def test_every_package_function_is_reached_or_allowed():
    functions, reached = census(ROOT)
    unreached = sorted(f"{module}.{name}" for module, name in functions
                       if name not in reached)
    assert {name.split(".")[1] for name in unreached} == set(ALLOWED), (
        f"reached by nothing: {unreached}; a function only unit tests "
        f"call is deleted or moved to tests/oracles.py, and an allowed one "
        f"that is reached leaves ALLOWED")


def test_the_census_follows_references_through_the_package():
    functions, reached = census(ROOT)
    assert len(functions) > 150
    # main reaches cmd_solve through the COMMANDS table, and solve_killing
    # reaches the bivector exponential through _edge_operators
    assert {"cmd_solve", "solve_killing", "_edge_operators",
            "bivector_exp_even"} <= reached
    # only test_acceptance.py uses gamma_as_bivector, and only a string of
    # perfbench/trace.py names surface_to_dict
    assert {"gamma_as_bivector", "surface_to_dict"} <= reached
