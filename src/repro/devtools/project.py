"""Project-wide class and function index for the SL204 budget check.

The per-module rules (SL1--SL6) judge one AST at a time.  SL204 has to
tie every engine-clock charge site to the cost-model class it reads,
which needs a view spanning the whole linted tree.  This module builds
one, with the approximations that make Python receiver typing
tractable:

- **import/alias resolution** -- ``from x import Y as Z`` and local
  aliases like ``clock = self.clock`` are followed;
- **typed receivers** -- ``self.costs.fifo_pop`` resolves through the
  annotated ``__init__`` parameter that initialised ``self.costs``
  (``Optional[X]``/``X | None`` unwrap to ``X``); an untyped receiver
  stays unresolved.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Set, Tuple


@dataclass
class FunctionInfo:
    """One function or method in the linted tree."""

    key: str  #: ``"<module>::Class.method"`` or ``"<module>::function"``.
    module: str  #: Module path relative to the lint root.
    node: ast.FunctionDef | ast.AsyncFunctionDef
    class_name: str = ""  #: Empty for module-level functions.

    @property
    def line(self) -> int:
        return self.node.lineno


@dataclass
class ClassInfo:
    """One class definition plus what the index learned about it."""

    name: str
    module: str
    node: ast.ClassDef
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: ``self.<attr>`` -> annotation-derived type name (unresolved).
    attr_type_names: Dict[str, str] = field(default_factory=dict)
    base_names: List[str] = field(default_factory=list)


def import_table(tree: ast.Module) -> Dict[str, str]:
    """Local name -> dotted origin for every import in *tree*."""
    table: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                table[local] = alias.name
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            for alias in node.names:
                local = alias.asname or alias.name
                origin = f"{module}.{alias.name}" if module else alias.name
                table[local] = origin
    return table


def annotation_name(node: ast.expr) -> Optional[str]:
    """The class name an annotation denotes, unwrapping ``Optional``.

    Handles ``X``, ``pkg.X``, ``Optional[X]``, ``X | None`` and string
    annotations; anything fancier returns ``None`` (untyped fallback).
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            parsed = ast.parse(node.value, mode="eval")
        except SyntaxError:
            return None
        return annotation_name(parsed.body)
    if isinstance(node, ast.Name):
        return None if node.id == "None" else node.id
    if isinstance(node, ast.Attribute):
        base = annotation_name(node.value)
        return f"{base}.{node.attr}" if base else node.attr
    if isinstance(node, ast.Subscript):
        base = annotation_name(node.value)
        if base is not None and base.split(".")[-1] == "Optional":
            index = node.slice
            return annotation_name(index) if isinstance(index, ast.expr) else None
        return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        left = annotation_name(node.left)
        right = annotation_name(node.right)
        if left is None:
            return right
        if right is None:
            return left
        return None
    return None


def self_attribute_path(
    expr: ast.expr, env: Mapping[str, Tuple[str, ...]]
) -> Optional[Tuple[str, ...]]:
    """The ``self``-rooted attribute path *expr* denotes, if any.

    ``self`` -> ``()``; ``self.fifo`` -> ``("fifo",)``; a local alias
    recorded in *env* expands to the path it was assigned from.
    """
    if isinstance(expr, ast.Name):
        if expr.id == "self":
            return ()
        return env.get(expr.id)
    if isinstance(expr, ast.Attribute):
        base = self_attribute_path(expr.value, env)
        if base is None:
            return None
        return base + (expr.attr,)
    return None


def local_alias_env(func: ast.AST) -> Dict[str, Tuple[str, ...]]:
    """``local name -> self-rooted path`` for hoisted-attribute aliases.

    Two passes so chains like ``engine = self.engine`` followed by
    ``clock = engine.clock`` resolve regardless of walk order.
    """
    env: Dict[str, Tuple[str, ...]] = {}
    for _ in range(2):
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
            ):
                path = self_attribute_path(node.value, env)
                if path:
                    env[node.targets[0].id] = path
    return env


def terminal_name(expr: ast.expr) -> Optional[str]:
    """The last name component of a receiver expression."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


@dataclass
class CallTarget:
    """A resolved view of what a call expression invokes."""

    method: str  #: The invoked attribute/function name.
    receiver: Optional[Tuple[str, ...]]  #: Self-rooted path, or ``None``.
    terminal: Optional[str]  #: Last name component of the receiver.


def call_target(
    func: ast.expr, env: Mapping[str, Tuple[str, ...]]
) -> Optional[CallTarget]:
    """Resolve a ``Call.func`` into a :class:`CallTarget`, if method-like.

    Bare names that are not local aliases return ``None`` -- they are
    module-level function calls.
    """
    if isinstance(func, ast.Name):
        path = env.get(func.id)
        if path and len(path) >= 1:
            receiver = path[:-1]
            terminal = receiver[-1] if receiver else "self"
            return CallTarget(method=path[-1], receiver=receiver, terminal=terminal)
        return None
    if isinstance(func, ast.Attribute):
        base = self_attribute_path(func.value, env)
        if base is not None:
            terminal = base[-1] if base else "self"
            return CallTarget(method=func.attr, receiver=base, terminal=terminal)
        return CallTarget(
            method=func.attr, receiver=None, terminal=terminal_name(func.value)
        )
    return None


class ProjectIndex:
    """Classes, functions and receiver types across the tree."""

    def __init__(self) -> None:
        self.imports: Dict[str, Dict[str, str]] = {}
        self.classes: Dict[str, ClassInfo] = {}  #: key "<module>::<name>"
        self.classes_by_name: Dict[str, List[str]] = {}
        self.functions: Dict[str, FunctionInfo] = {}

    # -- construction --------------------------------------------------

    @classmethod
    def build(cls, modules: Mapping[str, ast.Module]) -> "ProjectIndex":
        index = cls()
        for module, tree in sorted(modules.items()):
            index.imports[module] = import_table(tree)
            index._index_module(module, tree)
        for info in index.classes.values():
            index._collect_attr_types(info)
        return index

    def _index_module(self, module: str, tree: ast.Module) -> None:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(module, node.name, node, class_name="")
            elif isinstance(node, ast.ClassDef):
                key = f"{module}::{node.name}"
                info = ClassInfo(name=node.name, module=module, node=node)
                for base in node.bases:
                    base_name = annotation_name(base)
                    if base_name is not None:
                        info.base_names.append(base_name)
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        fn = self._add_function(
                            module,
                            f"{node.name}.{item.name}",
                            item,
                            class_name=node.name,
                        )
                        info.methods[item.name] = fn
                self.classes[key] = info
                self.classes_by_name.setdefault(node.name, []).append(key)

    def _add_function(
        self,
        module: str,
        qualname: str,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        class_name: str,
    ) -> FunctionInfo:
        info = FunctionInfo(
            key=f"{module}::{qualname}",
            module=module,
            node=node,
            class_name=class_name,
        )
        self.functions[info.key] = info
        return info

    def _collect_attr_types(self, info: ClassInfo) -> None:
        for method in info.methods.values():
            params: Dict[str, str] = {}
            for arg in (
                list(method.node.args.posonlyargs)
                + list(method.node.args.args)
                + list(method.node.args.kwonlyargs)
            ):
                if arg.annotation is not None:
                    name = annotation_name(arg.annotation)
                    if name is not None:
                        params[arg.arg] = name
            for node in ast.walk(method.node):
                target: Optional[ast.expr] = None
                value: Optional[ast.expr] = None
                ann: Optional[str] = None
                if isinstance(node, ast.AnnAssign):
                    target = node.target
                    value = node.value
                    ann = annotation_name(node.annotation)
                elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target = node.targets[0]
                    value = node.value
                if (
                    not isinstance(target, ast.Attribute)
                    or not isinstance(target.value, ast.Name)
                    or target.value.id != "self"
                ):
                    continue
                attr = target.attr
                type_name = ann if ann is not None else self._value_type(
                    value, params
                )
                if type_name is not None and attr not in info.attr_type_names:
                    info.attr_type_names[attr] = type_name

    def _value_type(
        self, value: Optional[ast.expr], params: Mapping[str, str]
    ) -> Optional[str]:
        if value is None:
            return None
        if isinstance(value, ast.Name):
            return params.get(value.id)
        if isinstance(value, ast.Call):
            callee = value.func
            name = annotation_name(callee) if isinstance(
                callee, (ast.Name, ast.Attribute)
            ) else None
            if name is not None and name.split(".")[-1] in self.classes_by_name:
                return name
            return None
        if isinstance(value, ast.IfExp):
            return self._value_type(value.body, params) or self._value_type(
                value.orelse, params
            )
        return None

    # -- resolution ----------------------------------------------------

    def resolve_class(self, type_name: str, module: str) -> Optional[ClassInfo]:
        """The project :class:`ClassInfo` a type name denotes, if any."""
        simple = type_name.split(".")[-1]
        candidates = self.classes_by_name.get(simple, [])
        if not candidates:
            return None
        if len(candidates) == 1:
            return self.classes[candidates[0]]
        same_module = [key for key in candidates if key.startswith(f"{module}::")]
        if len(same_module) == 1:
            return self.classes[same_module[0]]
        origin = self.imports.get(module, {}).get(type_name.split(".")[0], "")
        if origin:
            tail = origin.replace(".", "/")
            for key in candidates:
                class_module = key.split("::", 1)[0]
                stem = class_module[:-3] if class_module.endswith(".py") else class_module
                if tail.endswith(stem) or stem.endswith(tail.rsplit("/", 1)[0]):
                    return self.classes[key]
        return None

    def class_of(self, fn: FunctionInfo) -> Optional[ClassInfo]:
        if not fn.class_name:
            return None
        return self.classes.get(f"{fn.module}::{fn.class_name}")

    def attr_class(self, info: ClassInfo, attr: str) -> Optional[ClassInfo]:
        """Resolve one attribute hop, walking base classes if needed."""
        seen: Set[str] = set()
        current: Optional[ClassInfo] = info
        while current is not None and current.name not in seen:
            seen.add(current.name)
            type_name = current.attr_type_names.get(attr)
            if type_name is not None:
                return self.resolve_class(type_name, current.module)
            current = self._first_base(current)
        return None

    def _first_base(self, info: ClassInfo) -> Optional[ClassInfo]:
        for base_name in info.base_names:
            base = self.resolve_class(base_name, info.module)
            if base is not None:
                return base
        return None

    def receiver_class(
        self, fn: FunctionInfo, receiver: Tuple[str, ...]
    ) -> Optional[ClassInfo]:
        """The class a ``self``-rooted receiver path resolves to."""
        current = self.class_of(fn)
        if current is None:
            return None
        for attr in receiver:
            current = self.attr_class(current, attr)
            if current is None:
                return None
        return current
