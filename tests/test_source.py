"""Source hygiene checks that need no linter: no unused imports, no private
helper that nothing calls, an __all__ that lists what its module defines, no
runtime dependency that the package never imports, and a C source that
compiles without a warning and calls no locale-dependent conversion."""

import ast
import re
import shutil
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source: str) -> list:
    """Names a module imports but never reads, as "name (line n)"."""
    tree = ast.parse(source)
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_checker_finds_unused_imports():
    src = ("import os.path\nimport sys\nfrom math import pi, tau as t\n"
           "sys.exit(os.sep + str(pi))\n")
    assert unused_imports(src) == ["t (line 3)"]


def test_no_unused_imports():
    found = {}
    for top in ("src", "tests", "benchmarks"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name == "__init__.py":
                continue  # a package imports names to re-export them
            names = unused_imports(path.read_text())
            if names:
                found[str(path.relative_to(ROOT))] = names
    assert found == {}


def orphaned_private_functions(sources: list) -> list:
    """Private module-level functions that no source refers to by name."""
    defined, used = [], set()
    for source in sources:
        tree = ast.parse(source)
        defined += [node.name for node in tree.body
                    if isinstance(node, ast.FunctionDef)
                    and node.name.startswith("_")
                    and not node.name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return sorted(set(defined) - used)


def test_checker_finds_orphaned_private_functions():
    srcs = ["def _a():\n    pass\ndef _b():\n    pass\ndef _c():\n    pass\n"
            "def __getattr__(n):\n    pass\nx = _a()\n",
            "from m import _b\nclass K:\n    def _d(self):\n        pass\n"]
    assert orphaned_private_functions(srcs) == ["_c"]


def test_no_orphaned_private_functions():
    sources = [p.read_text() for p in (ROOT / "src").rglob("*.py")]
    assert orphaned_private_functions(sources) == []


def export_mismatches(source: str) -> tuple:
    """For a module with __all__: the public functions and classes it
    defines but does not list, and the names it lists but never binds at
    its top level (by a def, a class, an assignment or an import)."""
    tree = ast.parse(source)
    listed, bound, public = None, set(), set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
            if not node.name.startswith("_"):
                public.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    bound.add(target.id)
                    if target.id == "__all__":
                        listed = set(ast.literal_eval(node.value))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0]
                         for alias in node.names)
    if listed is None:
        return [], []
    return sorted(public - listed), sorted(listed - bound)


def test_checker_finds_export_mismatches():
    src = ("from m import imp\n__all__ = ['f', 'K', 'imp', 'X', 'gone']\n"
           "X = 1\ndef f():\n    pass\ndef g():\n    pass\n"
           "def _h():\n    pass\nclass K:\n    def m(self):\n        pass\n"
           "class L:\n    pass\n")
    assert export_mismatches(src) == (["L", "g"], ["gone"])
    assert export_mismatches("def f():\n    pass\n") == ([], [])


def test_all_matches_the_module():
    """Every name in a module's __all__ exists, and every public function
    or class it defines is listed there."""
    found = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        unlisted, unbound = export_mismatches(path.read_text())
        if unlisted or unbound:
            found[path.name] = {"unlisted": unlisted, "unbound": unbound}
    assert found == {}


def imported_modules(source: str) -> set:
    """Top-level names of the modules a source file imports, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def declared_dependencies() -> set:
    """Module names of the runtime dependencies in pyproject.toml."""
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", d).group().lower().replace("-", "_")
            for d in deps}


def package_imports() -> set:
    used = set()
    for path in (ROOT / "src").rglob("*.py"):
        used |= imported_modules(path.read_text())
    return used


def test_every_dependency_is_imported():
    assert declared_dependencies() - package_imports() == set()


def test_every_import_is_a_dependency():
    """A module the package imports is the standard library's, the
    package's own, or a declared runtime dependency."""
    own = {p.name for p in (ROOT / "src").iterdir() if p.is_dir()}
    third_party = package_imports() - set(sys.stdlib_module_names) - own
    assert third_party - declared_dependencies() == set()


def test_readme_lists_every_config_key():
    """The README's config table gives every key of montecarlo.SECTIONS
    with the JSON type it is checked against."""
    from slowsde.montecarlo import SECTIONS
    readme = (ROOT / "README.md").read_text()
    for section, types in SECTIONS.items():
        for key, kind in types.items():
            if isinstance(kind, tuple):
                kind = "one of " + ", ".join(f"`{v}`" for v in kind)
            assert f"| `{section}.{key}` | {kind} |" in readme, key


def readme_names(readme: str) -> list:
    """(module, name) for every backticked identifier in a row of the
    README's "What's inside" table, module being the row's first cell.  A
    call form name() counts as name; expressions and file names such as
    _em.c are no identifiers."""
    table = readme.split("## What's inside", 1)[1].split("\n## ", 1)[0]
    names = []
    for line in table.splitlines():
        cells = re.split(r"(?<!\\)\|", line)[1:-1]
        if len(cells) != 2 or not cells[0].strip().startswith("`"):
            continue
        module = cells[0].strip().strip("`")
        for token in re.findall(r"`([^`]+)`", cells[1]):
            token = token.removesuffix("()")
            if (re.fullmatch(r"[A-Za-z_]\w*(\.\w+)*", token)
                    and token.rsplit(".", 1)[-1] not in ("c", "py", "json")):
                names.append((module, token))
    return names


def test_checker_reads_readme_names():
    readme = ("## What's inside\n\n| module | contents |\n| --- | --- |\n"
              "| `m.a` | `f`, `g()`, `_em.c`, `x = 1`, `h.k` and `\\|x\\|` |\n"
              "\n## Next\n| `m.b` | `z` |\n")
    assert readme_names(readme) == [("m.a", "f"), ("m.a", "g"),
                                    ("m.a", "h.k")]


def test_readme_names_resolve():
    """Every identifier the README's module table names exists: an
    attribute of the row's module or of slowsde, a dotted module.name of
    the package, a kernel of the compiled library or an experiment tag."""
    import importlib

    import slowsde
    from slowsde import _compiled
    from slowsde.montecarlo import ALL_TAGS

    def resolves(module, name):
        for obj in (importlib.import_module(module), slowsde):
            for part in name.split("."):
                obj = getattr(obj, part, None)
            if obj is not None:
                return True
        return False

    names = readme_names((ROOT / "README.md").read_text())
    assert names
    missing = [(module, name) for module, name in names
               if not resolves(module, name)
               and name not in _compiled.ARGTYPES and name not in ALL_TAGS]
    assert missing == []


def test_c_kernel_source_is_shipped():
    """The stepping kernel's C source is package data, which the installed
    package builds from."""
    with open(ROOT / "pyproject.toml", "rb") as fh:
        data = tomllib.load(fh)["tool"]["setuptools"]["package-data"]
    from slowsde import _compiled
    assert _compiled.SOURCE.is_file()
    assert _compiled.SOURCE.name in data["slowsde"]


def c_prototype(source: str, name: str) -> tuple:
    """The return type and parameter declarations of the C function name
    in source."""
    match = re.search(rf"(\w+)\s+\b{name}\s*\(([^)]*)\)\s*{{", source)
    assert match, f"no definition of {name}"
    return match.group(1), [p.strip() for p in match.group(2).split(",")]


def test_checker_reads_c_parameters():
    src = ("/* f(int) */\nvoid f(double *a,\n  ptrdiff_t n, double c)\n{\n}\n"
           "ptrdiff_t g(const char *s)\n{\n}\n")
    assert c_prototype(src, "f") == ("void",
                                     ["double *a", "ptrdiff_t n", "double c"])
    assert c_prototype(src, "g") == ("ptrdiff_t", ["const char *s"])


def ctype_of(declaration: str):
    """The ctypes type _compiled must declare for a C parameter or return
    type: a pointer, a ptrdiff_t, a double or void."""
    import ctypes
    if "*" in declaration:
        return ctypes.c_void_p
    return {"ptrdiff_t": ctypes.c_ssize_t, "double": ctypes.c_double,
            "void": None}[declaration.split()[0]]


def test_c_kernel_prototype_matches_argtypes():
    """ctypes passes what _compiled declares whatever C expects, so every
    exported function's parameters and return type are checked against the
    source."""
    from slowsde import _compiled
    source = _compiled.SOURCE.read_text()
    for name, (argtypes, restype) in _compiled.ARGTYPES.items():
        ret, params = c_prototype(source, name)
        assert [ctype_of(p) for p in params] == list(argtypes), name
        assert ctype_of(ret) is restype, name
    assert set(_compiled._WRAPPERS) == set(_compiled.ARGTYPES)


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_c_source_compiles_without_warnings(tmp_path):
    """_em.c builds with the library's flags plus -Wall -Wextra -Werror."""
    from slowsde import _compiled
    proc = subprocess.run(
        ["cc", *_compiled.FLAGS, "-Wall", "-Wextra", "-Werror", "-o",
         str(tmp_path / "_em.so"), str(_compiled.SOURCE)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def locale_calls(source: str) -> list:
    """The calls in the C source that follow the C locale: the printf and
    scanf families, strtod and its kin, atof, localeconv and setlocale.
    Comments are not code."""
    code = re.sub(r"/\*.*?\*/|//[^\n]*", "", source, flags=re.S)
    return re.findall(r"\b(\w*printf|\w*scanf|strto\w+|ato[fil]l?|"
                      r"localeconv|setlocale)\s*\(", code)


def test_checker_finds_locale_calls():
    src = ("/* snprintf(buf, n, \"%g\", x) */\nint f(char *s, double x)\n{\n"
           "    return snprintf(s, 8, \"%g\", x) + (int)strtod(s, 0)\n"
           "        + (int)atof(s) + g17(s, x);  // printf(s)\n}\n")
    assert locale_calls(src) == ["snprintf", "strtod", "atof"]


def test_c_source_reads_no_locale():
    """fmt_g17 writes "." whatever LC_NUMERIC holds, so write_csv calls it
    under any locale: no kernel may call a conversion that reads it."""
    from slowsde import _compiled
    assert locale_calls(_compiled.SOURCE.read_text()) == []
