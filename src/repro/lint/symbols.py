"""Lightweight per-module symbol tables over ``ast`` for the rule engine.

The project-specific rules need three things plain ``ast`` walks do not
give them:

* **import resolution** — the dotted origin of every local name
  (``np`` → ``numpy``, ``CheckpointWriteError`` →
  ``repro.runtime.errors.CheckpointWriteError``), including relative
  imports resolved against the module's own package;
* **a cross-module class index** — class definitions with their base
  names and methods, so a contract rule can start from a factory *name*
  in one module and land on the ``__init__`` signature in another,
  chasing re-exports (``from .crash import CrashAdversary``) on the way;
* **source access** — the raw line of any node, for waiver comments and
  for anchoring findings.

Everything here is a static approximation: no module is imported, so the
tables describe what the source *says*, which is exactly the surface the
determinism and contract rules audit.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple


@dataclass
class ClassInfo:
    """One class definition: where it lives, its bases, its methods."""

    name: str
    module: str
    node: ast.ClassDef
    #: Base expressions as written (resolved to dotted names where possible).
    bases: Tuple[str, ...]
    methods: Dict[str, ast.FunctionDef]


@dataclass
class ModuleInfo:
    """One parsed module: tree, source, imports, class definitions."""

    name: str
    path: Path
    relpath: str
    tree: ast.Module
    source: str
    lines: List[str]
    #: local name -> dotted origin ("np" -> "numpy",
    #: "RegistryError" -> "repro.api.registries.RegistryError").
    imports: Dict[str, str] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)

    def line_text(self, lineno: int) -> str:
        """The 1-indexed source line, or the empty string out of range."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def resolve(self, node: ast.AST) -> Optional[str]:
        """The dotted origin of a ``Name``/``Attribute`` chain, if importable.

        ``Name`` nodes resolve through the import table (a name that was
        never imported is local and resolves to ``None``); ``Attribute``
        chains resolve their base and append the attribute, so
        ``np.random.seed`` becomes ``numpy.random.seed``.
        """
        if isinstance(node, ast.Name):
            return self.imports.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self.resolve(node.value)
            if base is None:
                return None
            return f"{base}.{node.attr}"
        return None


def _module_name(root: Path, package: str, path: Path) -> str:
    """Dotted module name of *path* relative to the linted package root."""
    rel = path.relative_to(root).with_suffix("")
    parts = [package] + list(rel.parts)
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _resolve_relative(module: str, level: int, target: Optional[str],
                      is_package: bool) -> str:
    """The absolute module a ``from ...x import y`` refers to."""
    parts = module.split(".")
    # A package's own __init__ counts as one level deeper than its name.
    if not is_package:
        parts = parts[:-1]
    if level > 1:
        parts = parts[:-(level - 1)] if level - 1 < len(parts) else []
    base = ".".join(parts)
    if target:
        return f"{base}.{target}" if base else target
    return base


def _collect_imports(info: ModuleInfo, is_package: bool) -> None:
    for node in ast.walk(info.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                origin = alias.name if alias.asname else alias.name.split(".")[0]
                info.imports[local] = origin
        elif isinstance(node, ast.ImportFrom):
            origin_module = node.module
            if node.level:
                origin_module = _resolve_relative(
                    info.name, node.level, node.module, is_package)
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                info.imports[local] = f"{origin_module}.{alias.name}"


def _collect_classes(info: ModuleInfo) -> None:
    for node in info.tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        bases = tuple(info.resolve(base) or ast.unparse(base)
                      for base in node.bases)
        methods = {item.name: item for item in node.body
                   if isinstance(item, ast.FunctionDef)}
        info.classes[node.name] = ClassInfo(
            name=node.name, module=info.name, node=node, bases=bases,
            methods=methods)


@dataclass
class Project:
    """Every parsed module of one lint run plus the cross-module indexes."""

    root: Path
    package: str
    modules: Dict[str, ModuleInfo] = field(default_factory=dict)
    #: Parse failures as (path, error) — reported as findings, not crashes.
    failures: List[Tuple[Path, SyntaxError]] = field(default_factory=list)

    @classmethod
    def load(cls, root: Path, package: Optional[str] = None) -> "Project":
        """Parse every ``*.py`` under *root* (sorted walk) into a project."""
        root = root.resolve()
        package = package or root.name
        project = cls(root=root, package=package)
        for path in sorted(root.rglob("*.py")):
            source = path.read_text(encoding="utf-8")
            name = _module_name(root, package, path)
            try:
                tree = ast.parse(source, filename=str(path))
            except SyntaxError as exc:
                project.failures.append((path, exc))
                continue
            info = ModuleInfo(
                name=name, path=path,
                relpath=path.relative_to(root).as_posix(),
                tree=tree, source=source, lines=source.splitlines())
            _collect_imports(info, is_package=path.name == "__init__.py")
            _collect_classes(info)
            project.modules[name] = info
        return project

    def iter_modules(self) -> Iterator[ModuleInfo]:
        """Modules in sorted-name order (deterministic rule output)."""
        for name in sorted(self.modules):
            yield self.modules[name]

    # -- class lookup --------------------------------------------------------
    def find_class(self, dotted: str, _depth: int = 0) -> Optional[ClassInfo]:
        """The :class:`ClassInfo` a dotted name refers to, chasing re-exports.

        ``repro.adversary.CrashAdversary`` first tries a class literally
        defined in ``repro.adversary``; failing that, it follows the
        package ``__init__``'s own import of the name (bounded depth, so an
        import cycle cannot loop the linter).
        """
        if _depth > 8:
            return None
        module_name, _, attr = dotted.rpartition(".")
        if not module_name:
            return None
        module = self.modules.get(module_name)
        if module is None:
            return None
        if attr in module.classes:
            return module.classes[attr]
        reexport = module.imports.get(attr)
        if reexport is not None:
            return self.find_class(reexport, _depth + 1)
        return None

    def init_params(self, cls_info: ClassInfo,
                    _depth: int = 0) -> Optional[List[ast.arg]]:
        """The ``__init__`` parameters of a class, walking project bases.

        Returns the parameter list *excluding* ``self`` with each arg
        paired to its default in :func:`init_signature`; ``None`` means the
        signature is not statically checkable (``*args``/``**kwargs``, or
        every base lives outside the project and none defines an
        ``__init__`` we can see — treated as the zero-parameter object
        constructor by callers that choose to).
        """
        signature = self.init_signature(cls_info, _depth)
        if signature is None:
            return None
        return [arg for arg, _ in signature]

    def init_signature(self, cls_info: ClassInfo, _depth: int = 0
                       ) -> Optional[List[Tuple[ast.arg, Optional[ast.expr]]]]:
        """``[(arg, default)]`` of the class's effective ``__init__``.

        Defaults are the AST expressions as written (``None`` = required).
        A signature using ``*args``/``**kwargs`` returns ``None``
        (unverifiable); a class whose whole base chain is external returns
        the empty list (``object.__init__``).
        """
        if _depth > 8:
            return []
        init = cls_info.methods.get("__init__")
        if init is not None:
            args = init.args
            if args.vararg is not None or args.kwarg is not None:
                return None
            positional = list(args.posonlyargs) + list(args.args)
            defaults = [None] * (len(positional) - len(args.defaults)) \
                + list(args.defaults)
            pairs = list(zip(positional, defaults))[1:]  # drop self
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                pairs.append((arg, default))
            return pairs
        module = self.modules.get(cls_info.module)
        for base in cls_info.bases:
            base_info = None
            if module is not None and base in module.classes:
                base_info = module.classes[base]
            else:
                base_info = self.find_class(base, _depth + 1)
            if base_info is not None:
                found = self.init_signature(base_info, _depth + 1)
                if found is not None:
                    return found
        return []
