"""The library holds only what product paths run; test oracles live in tests/.

A static pass over the sources decides which top-level functions and classes
and which public methods of ``src/semvis`` are reachable from a product
entry point: the module-level code of the package, the demos, the benchmark
scripts and the console script declared in ``pyproject.toml``.  A name is
reached when reachable code refers to it: a bare name resolves through the
file's own definitions and imports, ``module.name`` through the module, and
an attribute of any other object reaches every method and function of that
name (the benchmark reaches modules through a dict, so this side stays
generous).  Reaching a class reaches its private and special methods, and
all its methods when it subclasses a class from outside the package: that
outside code calls the interface the class implements.  Importing or
re-exporting a name does not reach it.

A second pass fails on any name that a file in ``src/``, ``tests/`` or
``demos/`` imports and never reads.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "semvis"
ROOT_DIRS = ("demos", "benchmarks")


class _File:
    """One parsed source file with its import bindings."""

    def __init__(self, path: Path, module: str | None):
        self.module = module        # "semvis.x" for package files, None for scripts
        self.tree = ast.parse(path.read_text(encoding="utf-8"))
        self.modules: dict[str, str | None] = {}          # local name -> semvis module or None
        self.names: dict[str, tuple[str, str]] = {}       # local name -> (semvis module, name)
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    target = alias.name if alias.name.startswith("semvis") else None
                    if alias.asname:
                        self.modules[alias.asname] = target
                    else:
                        top = alias.name.split(".")[0]
                        self.modules[top] = top if target else None
            elif isinstance(node, ast.ImportFrom):
                base = self._absolute(node)
                for alias in node.names:
                    local = alias.asname or alias.name
                    if base is None:
                        self.modules[local] = None
                    elif base == "semvis" and (PACKAGE / f"{alias.name}.py").is_file():
                        self.modules[local] = f"semvis.{alias.name}"
                    else:
                        self.names[local] = (base, alias.name)

    def _absolute(self, node: ast.ImportFrom) -> str | None:
        if node.level:
            return "semvis" + (f".{node.module}" if node.module else "")
        if node.module and node.module.split(".")[0] == "semvis":
            return node.module
        return None


def _package_files() -> dict[str, _File]:
    files = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = "semvis" if path.stem == "__init__" else f"semvis.{path.stem}"
        files[module] = _File(path, module)
    return files


class _Reach:
    def __init__(self):
        self.files = _package_files()
        # Definitions: (module, name) for top-level, (module, class, method) for methods.
        self.defs: dict[tuple, ast.AST] = {}
        self.methods_by_name: dict[str, list[tuple]] = {}
        self.top_by_name: dict[str, list[tuple]] = {}
        for module, f in self.files.items():
            for node in f.tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    self.defs[(module, node.name)] = node
                    self.top_by_name.setdefault(node.name, []).append((module, node.name))
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                            key = (module, node.name, item.name)
                            self.defs[key] = item
                            self.methods_by_name.setdefault(item.name, []).append(key)
        self.reached: set[tuple] = set()
        self.queue: list[tuple] = []

    def resolve(self, module: str, name: str, depth: int = 0) -> tuple | None:
        """The definition that ``name`` in package module ``module`` stands for."""
        if (module, name) in self.defs:
            return (module, name)
        binding = self.files[module].names.get(name) if module in self.files else None
        if binding and depth < 5:
            return self.resolve(*binding, depth + 1)
        return None

    def outside(self, base: ast.expr, f: _File) -> bool:
        """Whether a class base comes from outside the package (a builtin or a
        non-semvis module's class) rather than from a semvis module."""
        root = base
        while isinstance(root, ast.Attribute):
            root = root.value
        if root is base:
            return isinstance(base, ast.Name) and self.resolve(f.module, base.id) is None
        return isinstance(root, ast.Name) and f.modules.get(root.id, "") is None

    def reach(self, key) -> None:
        if key is not None and key in self.defs and key not in self.reached:
            self.reached.add(key)
            self.queue.append(key)

    def visit(self, nodes, f: _File) -> None:
        """Reach every definition the given code refers to."""
        for root in nodes:
            for node in ast.walk(root):
                if isinstance(node, ast.Name):
                    if f.module and (f.module, node.id) in self.defs:
                        self.reach((f.module, node.id))
                    elif node.id in f.names:
                        self.reach(self.resolve(*f.names[node.id]))
                elif isinstance(node, ast.Attribute):
                    base = node.value
                    if isinstance(base, ast.Name) and base.id in f.modules:
                        module = f.modules[base.id]
                        if module is not None:
                            self.reach(self.resolve(module, node.attr))
                        continue
                    for key in self.methods_by_name.get(node.attr, []):
                        self.reach(key)
                    for key in self.top_by_name.get(node.attr, []):
                        self.reach(key)

    def module_level(self, f: _File) -> list[ast.AST]:
        """The code a package module runs on import: everything but function and
        method bodies (decorators and defaults included)."""
        out = []
        for node in f.tree.body:
            if isinstance(node, ast.FunctionDef):
                out += node.decorator_list + node.args.defaults + node.args.kw_defaults
            elif isinstance(node, ast.ClassDef):
                out += node.decorator_list + node.bases + node.keywords
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        out += item.decorator_list + item.args.defaults + item.args.kw_defaults
                    else:
                        out.append(item)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                out.append(node)
        return [n for n in out if n is not None]

    def run(self, scripts: list[_File], entry_points: list[tuple[str, str]]) -> set[tuple]:
        for f in self.files.values():
            self.visit(self.module_level(f), f)
        for f in scripts:
            self.visit([f.tree], f)
        for module, name in entry_points:
            self.reach(self.resolve(module, name))
        while self.queue:
            key = self.queue.pop()
            f = self.files[key[0]]
            node = self.defs[key]
            if isinstance(node, ast.ClassDef):
                # Reaching a class runs its private and special methods implicitly.
                self.visit([item for item in node.body if isinstance(item, ast.FunctionDef)
                            and item.name.startswith("_")], f)
                if any(self.outside(base, f) for base in node.bases):
                    # It implements an interface from outside the package (numpy's
                    # ISeedSequence, say), whose code calls its public methods.
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef):
                            self.reach((key[0], node.name, item.name))
            else:
                self.visit(node.body, f)
        return set(self.defs) - self.reached


def _entry_points() -> list[tuple[str, str]]:
    """(module, function) of every ``name = "module:function"`` line under
    ``[project.scripts]`` in pyproject.toml (tomllib needs Python 3.11)."""
    section = (ROOT / "pyproject.toml").read_text(encoding="utf-8").split("[project.scripts]")
    lines = section[1].split("\n[")[0].splitlines() if len(section) > 1 else []
    return [tuple(line.split("=", 1)[1].strip().strip('"').split(":"))
            for line in lines if "=" in line]


def unreachable() -> list[str]:
    scripts = [_File(p, None) for d in ROOT_DIRS for p in sorted((ROOT / d).glob("*.py"))]
    missing = _Reach().run(scripts, _entry_points())
    return sorted(".".join(key) for key in missing)


def test_every_library_definition_is_reachable_from_a_product_path():
    dead = unreachable()
    assert not dead, ("reachable only from tests (move them to tests/ or delete them): "
                      + ", ".join(dead))


def unread_imports() -> list[str]:
    """``file:line name`` of every name a file in src/, tests/ or demos/ imports and
    never reads (``from __future__`` imports aside)."""
    unread = []
    for path in sorted(p for d in ("src", "tests", "demos") for p in (ROOT / d).rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
                and isinstance(n.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                                and node.module != "__future__"):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unread.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    return unread


def test_every_imported_name_is_read():
    unread = unread_imports()
    assert not unread, "imported and never read: " + ", ".join(unread)
