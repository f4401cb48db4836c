"""The package modules form layers; a module may import only from lower
layers, so each piece of the curvature algebra has one home below its users.
"""
import ast
import functools
import importlib
import inspect
import re
import types
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "pherm"

# modules sharing a layer (liemodels and maps) must not import each other
LAYERS = {
    "spaces": 0,
    "algebra": 1,
    "invariants": 2,
    "liemodels": 3,
    "maps": 3,
    "cli": 4,
}


def package_imports(path: Path) -> set[str]:
    """Names of the package modules that a source file imports, anywhere in it."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:  # from .x import y
                found.add(node.module.split(".")[0])
            elif node.level == 1:  # from . import x
                found.update(alias.name for alias in node.names)
            elif node.level == 0 and (node.module or "").startswith("pherm."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(
                alias.name.split(".")[1]
                for alias in node.names
                if alias.name.startswith("pherm.")
            )
    return found


def test_every_module_has_a_layer():
    modules = {p.stem for p in SRC.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_module_imports_only_lower_layers(module):
    imported = package_imports(SRC / f"{module}.py") - {module}
    upward = sorted(m for m in imported if LAYERS[m] >= LAYERS[module])
    assert upward == [], f"{module} imports from its own or a later layer: {upward}"


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_einsum_calls_have_at_most_two_operands(module):
    # multi-operand contractions go through spaces.slot_contract, one slot
    # at a time, so no unoptimised einsum multiplies all the index ranges
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    wide = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "einsum"
        and (len(node.args) > 3 or any(isinstance(a, ast.Starred) for a in node.args))
    ]
    assert wide == [], f"{module}: einsum with more than two operands at lines {wide}"


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_svd_calls_skip_the_full_left_factor(module):
    # a full SVD of a tall system builds a square U that no caller reads
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    full = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "svd"
        and not any(
            kw.arg in ("full_matrices", "compute_uv")
            and isinstance(kw.value, ast.Constant)
            and kw.value.value is False
            for kw in node.keywords
        )
    ]
    assert full == [], f"{module}: svd without full_matrices=False or compute_uv=False at lines {full}"


def _names(node: ast.AST) -> set[str]:
    """Every bare name and attribute name in an expression."""
    return {
        sub.attr if isinstance(sub, ast.Attribute) else sub.id
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Attribute, ast.Name))
    }


def conjugations_by_contraction(tree: ast.AST) -> list[int]:
    """Lines of `slot_contract` calls with a J or tau argument (`.J`, `.tau`
    or a bare `J` / `tau` name, also inside an expression such as `J.T`)."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "slot_contract"
        and any(_names(arg) & {"J", "tau"} for arg in node.args)
    )


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_no_slot_contract_conjugates_by_j_or_tau(module):
    # J and tau are signed permutations: the space holds them as (perm, s)
    # pairs and conjugates by the exact index gather, never by a contraction
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    lines = conjugations_by_contraction(tree)
    assert lines == [], f"{module}: slot_contract by J or tau at lines {lines}"


def hidden_from_tracer(module) -> list[str]:
    """Public module-level callables defined in `module` that are neither
    plain functions nor classes.  `perfbench/tracer.py` times only
    `inspect.isfunction` objects, so a cache wrapper such as a bare
    `functools.cache` would drop its function from the per-layer metrics."""
    return sorted(
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and callable(obj)
        and getattr(obj, "__module__", None) == module.__name__
        and not (inspect.isfunction(obj) or inspect.isclass(obj))
    )


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_public_callables_are_plain_functions_or_classes(module):
    hidden = hidden_from_tracer(importlib.import_module(f"pherm.{module}"))
    assert hidden == [], f"{module}: public callables the tracer cannot see: {hidden}"


def test_tracer_guard_catches_a_cached_public_function():
    module = types.ModuleType("cached_module")

    def build(d):
        return d

    build.__module__ = module.__name__
    module.build = functools.cache(build)  # what the guard must refuse
    module._build = functools.cache(build)  # private names may be cached
    module.plain = build
    assert hidden_from_tracer(module) == ["build"]


def private_package_imports(tree: ast.AST) -> list[str]:
    """Names starting with `_` that a module imports from a `pherm` module."""
    return sorted(
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level == 1 or (node.module or "").split(".")[0] == "pherm")
        for alias in node.names
        if alias.name.startswith("_")
    )


def test_cli_imports_no_private_package_name():
    # the commands reach each layer through its public functions, the ones
    # `perfbench/tracer.py` wraps, so their calls show in the per-layer metrics
    private = private_package_imports(ast.parse((SRC / "cli.py").read_text(encoding="utf-8")))
    assert private == [], f"cli imports private names: {private}"


def test_the_private_import_guard_sees_a_private_name():
    tree = ast.parse(
        "from ._x import public\n"
        "from .liemodels import _c0_prime, c0_prime\n"
        "from pherm.spaces import _blocks\n"
        "from numpy import _core\n"
    )
    assert private_package_imports(tree) == ["_blocks", "_c0_prime"]


def nodes_by_function(tree: ast.AST, matches) -> set[str]:
    """Names of the innermost functions that contain a node for which matches(node) holds."""
    found = set()

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if matches(child):
                found.add(function)
            visit(child, function)

    visit(tree, None)
    return found


def is_bare_curv4_new(node: ast.AST) -> bool:
    """object.__new__(Curv4): a Curv4 that skips its __post_init__ checks."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "__new__"
        and _names(node.func.value) == {"object"}
        and any(_names(arg) & {"Curv4"} for arg in node.args)
    )


def is_proven_curv4_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "_proven_curv4"
    )


def test_only_the_proven_constructor_skips_the_curv4_checks():
    # a Curv4 that skips its checks comes from one helper, and only the callers
    # that prove the tags themselves (the sampler's check, the factor proof) use it
    bare, proven = set(), set()
    for module in sorted(LAYERS):
        tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
        bare |= {(module, f) for f in nodes_by_function(tree, is_bare_curv4_new)}
        proven |= {(module, f) for f in nodes_by_function(tree, is_proven_curv4_call)}
    assert bare == {("spaces", "_proven_curv4")}
    assert proven == {("spaces", "random_curv4"), ("liemodels", "model_curvature")}


def test_the_proven_constructor_guard_sees_a_bare_curv4():
    tree = ast.parse(
        "def helper(space, q):\n"
        "    c = object.__new__(Curv4)\n"
        "    return c\n"
        "def user(space, q):\n"
        "    return spaces._proven_curv4(space, q, ())\n"
    )
    assert nodes_by_function(tree, is_bare_curv4_new) == {"helper"}
    assert nodes_by_function(tree, is_proven_curv4_call) == {"user"}


def caught_names(tree: ast.AST) -> set[str]:
    """Every bare and attribute name in the exception types of the `except` clauses."""
    return set().union(
        *(_names(node.type) for node in ast.walk(tree) if isinstance(node, ast.ExceptHandler) and node.type)
    )


def package_exception_names() -> set[str]:
    """The exception classes that the `pherm` modules define."""
    return {
        name
        for module in LAYERS
        for name, obj in vars(importlib.import_module(f"pherm.{module}")).items()
        if inspect.isclass(obj) and issubclass(obj, BaseException) and obj.__module__.startswith("pherm.")
    }


def test_only_main_catches_in_the_cli_and_never_a_package_exception():
    # every argument is decided before a command runs, so main tells bad input
    # (2) from a fault (3) by the step that failed, not by exception class
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    assert nodes_by_function(tree, lambda node: isinstance(node, ast.Try)) == {"main"}
    assert caught_names(tree) & package_exception_names() == set()


def test_the_catch_guard_sees_a_try_and_a_package_exception():
    tree = ast.parse(
        "def main():\n"
        "    try:\n"
        "        run()\n"
        "    except (ValueError, spaces.TagError):\n"
        "        return 3\n"
        "class RunConfig:\n"
        "    def __post_init__(self):\n"
        "        try:\n"
        "            check()\n"
        "        except ModelError as exc:\n"
        "            raise ValueError(exc)\n"
    )
    assert nodes_by_function(tree, lambda node: isinstance(node, ast.Try)) == {"main", "__post_init__"}
    assert caught_names(tree) == {"ValueError", "spaces", "TagError", "ModelError"}
    assert {"ModelError", "SpaceMismatchError", "TagError"} <= package_exception_names()


def names_of(tree: ast.AST, name: str) -> list[int]:
    """Lines that name `name`: a bare name, an attribute or an imported name."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == name)
        or (isinstance(node, ast.Attribute) and node.attr == name)
        or (isinstance(node, ast.ImportFrom) and any(name in (a.name, a.asname) for a in node.names))
    )


@pytest.mark.parametrize("module", sorted(set(LAYERS) - {"spaces"}))
def test_only_spaces_reads_the_block_budget(module):
    # every loop cut to the 1 MiB budget asks `spaces._blocks` for its slices,
    # so the budget has one binding, which a patch of `spaces` reaches everywhere
    lines = names_of(ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8")), "_BLOCK_BYTES")
    assert lines == [], f"{module}: names _BLOCK_BYTES at lines {lines}"


def test_the_block_budget_guard_sees_an_import_and_a_use():
    tree = ast.parse(
        "from .spaces import (\n"
        "    _BLOCK_BYTES,\n"
        ")\n"
        "step = spaces._BLOCK_BYTES // 8\n"
        "cap = _BLOCK_BYTES\n"
    )
    assert names_of(tree, "_BLOCK_BYTES") == [1, 4, 5]


def unread_module_names(trees: dict[str, ast.AST]) -> list[str]:
    """`module.NAME` for each name assigned at the top level of a module
    (dunders exempt) that no module reads: not as a loaded name, an
    attribute or an imported name."""
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    unread = []
    for module, tree in sorted(trees.items()):
        for stmt in tree.body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                unread += [
                    f"{module}.{node.id}"
                    for target in targets
                    for node in ast.walk(target)
                    if isinstance(node, ast.Name)
                    and not (node.id.startswith("__") and node.id.endswith("__"))
                    and node.id not in read
                ]
    return unread


def test_every_module_level_name_is_read():
    # a constant that nothing reads documents a decision the code no longer makes
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")}
    assert unread_module_names(trees) == []


def test_the_unread_name_guard_sees_an_unread_constant():
    trees = {
        "low": ast.parse("USED = 1\nIMPORTED = 2\nVIA_ATTR = 3\nSTALE = 4\n__version__ = '0'\n"),
        "high": ast.parse(
            "from .low import IMPORTED\n"
            "from . import low\n"
            "LOCAL: int = 5\n"
            "def f():\n"
            "    return USED + low.VIA_ATTR + LOCAL\n"
        ),
        # `X += 1` stores X without reading it in the guard's eyes, and the
        # binding it needs is checked as the plain assignment before it
        "aug": ast.parse("X = 1\nX += 1\n"),
    }
    assert unread_module_names(trees) == ["aug.X", "low.STALE"]


def unread_imports(tree: ast.AST) -> list[str]:
    """Names that a module binds by `import` or `from ... import` (anywhere
    in it, `__future__` features exempt) and never reads as a loaded name."""
    bound = [
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
    ]
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(set(bound) - read)


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_every_imported_name_is_read_in_its_module(module):
    # an import whose last reader was deleted hides a dependency the module
    # no longer has; `__init__` imports to re-export and is exempt
    unread = unread_imports(ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8")))
    assert unread == [], f"{module}: imported but never read: {unread}"


def test_the_unread_import_guard_sees_an_orphaned_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "import os.path\n"
        "from .spaces import Curv4, TagError, make_space\n"
        "def f(q: Curv4):\n"
        "    from .algebra import hat\n"
        "    return np.asarray(hat(q)), os.sep, make_space\n"
        "def g():\n"
        "    from .maps import canonical_Q\n"
    )
    assert unread_imports(tree) == ["TagError", "canonical_Q"]


# Public functions that neither a command nor an acceptance criterion reaches, each kept for a reason
UNREACHED_PUBLIC_ALLOWED = {
    "spaces.random_curv4": "the seeded curvature draw the tests take their tensors from",
    "spaces.random_bil2": "the seeded bilinear-form draw the tests take their 2-tensors from",
    "maps.random_map_datum": "the seeded horizontal map datum the tests take their maps from",
    "invariants.c0_constant": "the paper's balancing constant -(8d/(d-1)) |CM|^2 / s, alone",
}


def module_bindings(tree: ast.Module) -> dict[str, list]:
    """What each top-level name of a package module is bound to: the def or class node,
    the assigned value (a module-level table) or, for `from .m import name`, the module m."""
    bound = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            bound.setdefault(stmt.name, []).append(stmt)
        elif isinstance(stmt, ast.Assign):
            for node in (sub for target in stmt.targets for sub in ast.walk(target)):
                if isinstance(node, ast.Name):
                    bound.setdefault(node.id, []).append(stmt.value)
        elif isinstance(stmt, ast.ImportFrom) and stmt.level == 1:
            for alias in stmt.names:
                bound.setdefault(alias.asname or alias.name, []).append(stmt.module)
    return bound


def reached_names(trees: dict[str, ast.Module], roots) -> set[tuple[str, str]]:
    """The (module, name) pairs that the roots reach: through each name a definition's
    body loads (function and class bodies and module-level tables alike) and each import."""
    bindings = {module: module_bindings(tree) for module, tree in trees.items()}
    seen, todo = set(), list(roots)
    while todo:
        module, name = todo.pop()
        if (module, name) in seen or name not in bindings.get(module, {}):
            continue
        seen.add((module, name))
        for target in bindings[module][name]:
            if isinstance(target, str):  # imported: the definition lives in that module
                todo.append((target, name))
            else:
                todo += [
                    (module, sub.id)
                    for sub in ast.walk(target)
                    if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
                ]
    return seen


def unreached_public_functions(trees: dict[str, ast.Module], roots) -> list[str]:
    """`module.name` for each public top-level function that the roots do not reach."""
    reached = reached_names(trees, roots)
    return sorted(
        f"{module}.{stmt.name}"
        for module, tree in trees.items()
        for stmt in tree.body
        if isinstance(stmt, ast.FunctionDef)
        and not stmt.name.startswith("_")
        and (module, stmt.name) not in reached
    )


def acceptance_roots(tree: ast.Module) -> list[tuple[str, str]]:
    """(module, name) for each name that a test file imports from `pherm` or a `pherm` module."""
    return [
        ("__init__" if node.module == "pherm" else node.module.split(".")[1], alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "pherm"
        for alias in node.names
    ]


def test_every_public_function_is_reached_by_a_command_or_a_criterion():
    # a public function that no command and no acceptance criterion calls is code
    # that nothing checks the paper with; each one kept has its reason above
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")}
    acceptance = ast.parse((Path(__file__).parent / "test_acceptance.py").read_text(encoding="utf-8"))
    roots = [("cli", "main"), *acceptance_roots(acceptance)]
    assert unreached_public_functions(trees, roots) == sorted(UNREACHED_PUBLIC_ALLOWED)


def test_the_reachability_guard_follows_bodies_tables_and_imports():
    trees = {
        "low": ast.parse(
            "def used():\n"
            "    return TABLE['a']()\n"
            "def via_table():\n"
            "    return 1\n"
            "TABLE = {'a': lambda: via_table()}\n"
            "class Box:\n"
            "    def method(self):\n"
            "        return in_class()\n"
            "def in_class():\n"
            "    return 2\n"
            "def _unreached():\n"
            "    return only_from_unreached()\n"
            "def only_from_unreached():\n"
            "    return 3\n"
            "def orphan():\n"
            "    return 4\n"
        ),
        "cli": ast.parse("from .low import used, Box\ndef main():\n    return used(), Box\n"),
        "__init__": ast.parse("from .low import orphan\n"),
    }
    assert acceptance_roots(ast.parse("from pherm import orphan\nfrom pherm.low import in_class\n")) == [
        ("__init__", "orphan"),
        ("low", "in_class"),
    ]
    assert unreached_public_functions(trees, [("cli", "main")]) == ["low.only_from_unreached", "low.orphan"]
    assert unreached_public_functions(trees, [("cli", "main"), ("__init__", "orphan")]) == [
        "low.only_from_unreached"
    ]


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_citations(text: str) -> list[tuple[str, str]]:
    """(module, name) for each code span that starts `module.name` or `pherm.module.name`
    with a package module, such as `spaces._blocks` or `pherm.spaces.random_curv4(...)`."""
    module = "|".join(LAYERS)
    return re.findall(rf"`(?:pherm\.)?({module})\.([A-Za-z_]\w*)", text)


def test_every_module_attribute_readme_cites_exists():
    # the docs name no deleted or renamed code
    cited = readme_citations(README.read_text(encoding="utf-8"))
    missing = [f"{m}.{name}" for m, name in cited if not hasattr(importlib.import_module(f"pherm.{m}"), name)]
    assert cited and missing == []


def test_the_readme_citation_guard_reads_both_forms():
    text = "`spaces._blocks(count, unit)` and `pherm.maps.fold_residuals`, not `perfbench.run` or maps.py"
    assert readme_citations(text) == [("spaces", "_blocks"), ("maps", "fold_residuals")]


def numpy_random_lines(tree: ast.AST) -> list[int]:
    """Lines that reach numpy.random: `np.random` or `numpy.random` as an attribute,
    `import numpy.random` or `from numpy.random import ...`, `from numpy import random`."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "random":
            named = node.value.id if isinstance(node.value, ast.Name) else None
            if named in ("np", "numpy"):
                lines.append(node.lineno)
        elif isinstance(node, ast.Import):
            lines += [node.lineno for alias in node.names if alias.name.startswith("numpy.random")]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            module = node.module or ""
            if module.startswith("numpy.random") or (
                module == "numpy" and any(alias.name == "random" for alias in node.names)
            ):
                lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py")))
def test_no_module_reaches_numpy_random(module):
    # every draw goes through the counter-based `spaces._Streams`; importing numpy.random
    # brings in secrets, hashlib and libcrypto, about 5 MiB and 11 ms of a run
    lines = numpy_random_lines(ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8")))
    assert lines == [], f"{module}: names numpy.random at lines {lines}"


def test_the_numpy_random_guard_sees_each_spelling():
    tree = ast.parse(
        "import numpy as np\n"
        "rng = np.random.default_rng(0)\n"
        "import numpy.random\n"
        "from numpy.random import default_rng\n"
        "from numpy import random\n"
        "numpy.random.seed(1)\n"
        "x = stream.random\n"
        "import random\n"
    )
    assert numpy_random_lines(tree) == [2, 3, 4, 5, 6]


def pinv_lines(tree: ast.AST) -> list[int]:
    """Lines that name a pseudo-inverse: `pinv` as an attribute (`np.linalg.pinv`,
    `linalg.pinv`) or a bare name (`from numpy.linalg import pinv`)."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr == "pinv")
        or (isinstance(node, ast.Name) and node.id == "pinv")
        or (isinstance(node, ast.ImportFrom) and any(alias.name == "pinv" for alias in node.names))
    )


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py")))
def test_no_module_takes_a_pseudo_inverse(module):
    # structure constants come from the sparse basis and the inverse of its Gram matrix;
    # the dense pseudo-inverse path (N^3 constants, 2.5 s at su(10,8)) is a test oracle only
    lines = pinv_lines(ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8")))
    assert lines == [], f"{module}: names pinv at lines {lines}"


def test_the_pseudo_inverse_guard_sees_each_spelling():
    tree = ast.parse(
        "import numpy as np\n"
        "a = np.linalg.pinv(m)\n"
        "from numpy.linalg import pinv\n"
        "b = pinv(m)\n"
        "c = np.linalg.inv(m)\n"
        "pinvert = 1\n"
    )
    assert pinv_lines(tree) == [2, 3, 4]
