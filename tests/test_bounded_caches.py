"""Memory in the package stays bounded (ROADMAP aim 3): every lru_cache
names an integer maxsize, functools.cache, which never evicts, only
decorates functions without arguments, whose one entry cannot grow, and no
module starts a global as an empty container, a hand-rolled cache that
neither check would see."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import coversat


def _is_name(node: ast.AST, name: str) -> bool:
    return (isinstance(node, ast.Name) and node.id == name) or (
        isinstance(node, ast.Attribute) and node.attr == name
    )


def _is_functools_cache(node: ast.AST, imported: set[str]) -> bool:
    """functools.cache, or a name bound to it by `from functools import`."""
    if isinstance(node, ast.Attribute):
        return node.attr == "cache" and _is_name(node.value, "functools")
    return isinstance(node, ast.Name) and node.id in imported


def _int_maxsize(call: ast.Call) -> bool:
    given = [kw.value for kw in call.keywords if kw.arg == "maxsize"] + call.args[:1]
    return len(given) == 1 and isinstance(given[0], ast.Constant) and type(given[0].value) is int


def _takes_arguments(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    a = fn.args
    return bool(a.posonlyargs or a.args or a.vararg or a.kwonlyargs or a.kwarg)


def _empty_container(node: ast.AST | None) -> bool:
    """{}, [], set(), dict(), list(), or a defaultdict of any factory."""
    if isinstance(node, (ast.Dict, ast.List, ast.Set)):
        return not (node.keys if isinstance(node, ast.Dict) else node.elts)
    if not isinstance(node, ast.Call):
        return False
    if _is_name(node.func, "defaultdict"):
        return True
    return any(_is_name(node.func, name) for name in ("dict", "list", "set")) and not (
        node.args or node.keywords
    )


def _unbounded_caches(tree: ast.AST) -> list[int]:
    """Line numbers of lru_cache uses without an integer maxsize, of
    functools.cache on a function with arguments or outside a decorator, and
    of a module-level name bound to an empty container."""
    found = []
    for node in getattr(tree, "body", ()):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        if _empty_container(node.value) and any(isinstance(t, ast.Name) for t in targets):
            found.append(node.lineno)
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "functools"
        for alias in node.names
        if alias.name == "cache"
    }
    called = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _is_name(node.func, "lru_cache"):
            called.add(id(node.func))
            if not _int_maxsize(node):
                found.append(node.lineno)
    decorating = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                if _is_functools_cache(dec, imported):
                    decorating.add(id(dec))
                    if _takes_arguments(node):
                        found.append(dec.lineno)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)):
            if _is_name(node, "lru_cache") and id(node) not in called:
                found.append(node.lineno)  # bare @lru_cache: maxsize left to the default
            elif _is_functools_cache(node, imported) and id(node) not in decorating:
                found.append(node.lineno)  # cache(f) on a function it cannot see
    return sorted(found)


def test_package_caches_are_bounded():
    package = Path(coversat.__file__).parent
    found = [
        f"{path.relative_to(package)}:{line}"
        for path in sorted(package.rglob("*.py"))
        for line in _unbounded_caches(ast.parse(path.read_text(), str(path)))
    ]
    assert not found, found


def test_lint_flags_unbounded_caches():
    source = """
from functools import cache, lru_cache
import functools

@lru_cache(maxsize=8)
def ok(x): ...

@functools.lru_cache(4)
def ok_positional(x): ...

@cache
def ok_no_arguments(): ...

@lru_cache
def bare(x): ...

@lru_cache()
def default(x): ...

@functools.lru_cache(maxsize=None)
def unbounded(x): ...

@cache
def cached_with_argument(x): ...

wrapped = cache(len)
self.cache = {}
_memo: dict[tuple, int] = {}
seen = set()
by_key = collections.defaultdict(list)
TABLE = {1: 2}
"""
    assert _unbounded_caches(ast.parse(source)) == [14, 17, 20, 23, 26, 28, 29, 30]


_IMPORT_PROBE = """
import json, sys
import coversat.cli
caches = {
    f"{name}.{key}": value.cache_info().currsize
    for name, module in sorted(sys.modules.items())
    if name == "coversat" or name.startswith("coversat.")
    for key, value in vars(module).items()
    if hasattr(value, "cache_info") and getattr(value, "__module__", None) == name
}
print(json.dumps(caches))
"""


def test_importing_the_cli_builds_nothing():
    # a cold `coversat solve` pays only for what its input needs: a brute
    # solve builds no code, so importing the CLI may fill no cache
    package_root = str(Path(coversat.__file__).parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE], env=env, capture_output=True, text=True, check=True
    )
    caches = json.loads(out.stdout)
    assert "coversat.solver._value_masks" in caches, caches
    assert "coversat.cli._build_parser" in caches, caches
    # nor parses a searched code: those are read at their first use, into
    # the same memo as the greedy codes
    assert "coversat.codes._load_code" in caches, caches
    assert all(size == 0 for size in caches.values()), caches
