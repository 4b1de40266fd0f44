"""Rules about the source itself, read from its syntax trees.

The package keeps no private helper that only tests read, and the oracle
and the test references import only the standard library, so that their
agreement with the package is evidence, not circularity.  Every test the
README names exists.  Nothing but the solver's workspace is written on a
built value.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gammacap"


def _trees():
    """Module name -> syntax tree, for every module of the package."""
    return {path.stem: _parse(path) for path in PACKAGE.glob("*.py")}


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _private_definitions(tree):
    """(name, statement) for every top-level private name: a def, a class or
    an assignment target spelled _x, dunders excluded."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _package_imports(tree):
    """Local name -> (module, name) for each name imported from a sibling
    module, and -> (module, None) for a sibling module imported whole."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                source = (node.module, alias.name) if node.module else (alias.name, None)
                imported[alias.asname or alias.name] = source
    return imported


def _reads(trees):
    """(module, name, top-level statement) for every read of a package name:
    a bare name of the reading module or one it imported, or an attribute of
    a sibling module imported whole."""
    reads = []
    for module, tree in trees.items():
        imported = _package_imports(tree)
        for statement in tree.body:
            for node in ast.walk(statement):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    reads.append((*imported.get(node.id, (module, node.id)), statement))
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    source, name = imported.get(node.value.id, (None, ""))
                    if name is None:
                        reads.append((source, node.attr, statement))
    return reads


def _unread_private_names(trees):
    """module.name of every private top-level name no other statement reads."""
    reads = _reads(trees)
    return sorted(
        f"{module}.{name}"
        for module, tree in trees.items()
        for name, definition in _private_definitions(tree)
        if not any(
            (source, read) == (module, name) and statement is not definition
            for source, read, statement in reads
        )
    )


class TestNoTestOnlyHelpers:
    """Every private top-level name of the package is read somewhere in the
    package outside its own definition: a helper that only tests read is
    code that no capacity, channel-law, CLI or verify path reaches."""

    def test_every_private_name_is_read_by_the_package(self):
        assert _unread_private_names(_trees()) == []

    def test_a_helper_read_only_by_tests_is_flagged(self):
        trees = _trees()
        helper = ast.parse("def _only_tests(x):\n    return _only_tests(x)\n")
        trees["solver"].body += helper.body
        assert _unread_private_names(trees) == ["solver._only_tests"]

    def test_reads_through_aliases_and_module_attributes_count(self):
        trees = {
            "a": ast.parse("def _k(): pass\ndef _m(): pass\n_unused = 1\n"),
            "b": ast.parse("from .a import _k as k\nfrom . import a\nk()\na._m()\n"),
        }
        assert _unread_private_names(trees) == ["a._unused"]


def _setattr_sites(trees):
    """module.qualname of the function around every ``__setattr__`` call of
    the package, once per call, by module and then in source order."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if (
                isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                and child.func.attr == "__setattr__"
            ):
                sites.append(".".join(scope))
            visit(child, scope)

    for module, tree in sorted(trees.items()):
        visit(tree, [module])
    return sites


class TestFrozenAfterConstruction:
    """The frozen dataclasses set their own fields in their constructors,
    and after that only solver._workspace writes on a built channel, its
    one private slot: no other per-channel cache can creep back."""

    CONSTRUCTORS = ("channel.RankDistribution.__init__", "channel.ChannelParams.__post_init__")

    def _writers(self, trees):
        return [site for site in _setattr_sites(trees) if site not in self.CONSTRUCTORS]

    def test_only_the_solver_workspace_writes_on_a_built_channel(self):
        assert self._writers(_trees()) == ["solver._workspace"]

    def test_a_cache_on_the_channel_is_flagged(self):
        trees = _trees()
        cache = ast.parse(
            "def _memo(params):\n"
            "    if params._memo is None:\n"
            "        object.__setattr__(params, '_memo', {})\n"
        )
        trees["channel"].body += cache.body
        assert self._writers(trees) == ["channel._memo", "solver._workspace"]


def _imported_roots(path):
    """The top-level module of every import in path, '.' for a relative one."""
    roots = set()
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            roots.add("." if node.level else node.module.split(".")[0])
    return roots


class TestReferenceIndependence:
    """The oracle and the test references share no code with the package:
    each imports only standard-library modules, with no relative import."""

    @pytest.mark.parametrize(
        "path", [PACKAGE / "oracle.py", ROOT / "tests" / "reference.py"], ids=lambda p: p.stem
    )
    def test_imports_only_the_standard_library(self, path):
        roots = _imported_roots(path)
        assert roots
        assert sorted(roots - sys.stdlib_module_names) == []


_NODE_ID = re.compile(r"\btests/\w+\.py(?:::\w+)+")
_TEST_CLASS = re.compile(r"\bTest[A-Z]\w*")


def _test_names():
    """The node id of every test file, class and test under tests/:
    ``tests/test_x.py``, ``tests/test_x.py::TestA`` and
    ``tests/test_x.py::TestA::test_b``."""
    names = set()
    for path in (ROOT / "tests").glob("test_*.py"):
        prefix = f"tests/{path.name}"
        names.add(prefix)
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(f"{prefix}::{node.name}")
            if isinstance(node, ast.ClassDef):
                names.update(
                    f"{prefix}::{node.name}::{item.name}" for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                )
    return names


def _unresolved_test_names(text):
    """Every node id and Test class name in text that names no test file,
    class or test under tests/, in order of first appearance."""
    names = _test_names()
    classes = {name.split("::")[1] for name in names if name.count("::") == 1}
    unresolved = [node for node in _NODE_ID.findall(text) if node not in names]
    unresolved += [name for name in _TEST_CLASS.findall(text) if name not in classes]
    return list(dict.fromkeys(unresolved))


class TestReadmeNamesTests:
    """The README points readers at the tests that check what it states:
    every node id and Test class it names exists under tests/."""

    def test_every_named_test_exists(self):
        text = (ROOT / "README.md").read_text(encoding="utf-8")
        assert _NODE_ID.search(text) and _TEST_CLASS.search(text)
        assert _unresolved_test_names(text) == []

    def test_a_retired_test_is_flagged(self):
        text = (
            "`tests/test_channel.py::TestCatalogueWorkspace::test_boundary_calls`, "
            "`tests/test_channel.py::TestGone::test_digest`, `TestPhiEntropies` and "
            "`TestGone`"
        )
        assert _unresolved_test_names(text) == [
            "tests/test_channel.py::TestGone::test_digest", "TestGone",
        ]
