#!/usr/bin/env python3
"""Print every knob in ``src/repro`` that no run sets, and every
public name there that no run calls.

    python scripts/knob_audit.py

A *run* is any file under ``src/ perf/``: the code that runs the
simulator, its experiments and claims, and the ledger workloads.  Nothing
under ``tests/`` or ``examples/`` counts.  A value only tests set is
one value in use, so it is a constant a test can monkeypatch; a name
only tests reach is code no run executes; an example narrates a
registry run rather than being one.

A *knob* is a defaulted parameter of a function or method defined at
module or class level in any module under ``src/repro`` (the audit
walks the whole tree, so no package is left out), or a defaulted field
of a dataclass there.  It is *set* when some call in a run passes it:

- by keyword, by position, or through ``*`` / ``**`` (a ``**`` over a
  dict literal sets that literal's keys; ``*args`` / ``**kwargs``
  forwarded from the enclosing function set what that function's own
  callers pass it; ``functools.partial`` counts as a call);
- for a dataclass field, also by ``dataclasses.replace``, by an
  attribute store (``cfg.field = ...``), or by any dict literal that
  names it (config objects arrive as JSON through ``-p``).

Calls are matched by name: ``f(...)`` / ``x.f(...)`` call every ``f``
in scope, ``C(...)`` constructs class ``C`` (and ``super().__init__``
its bases; ``C`` may be defined inside a function), and a name that was bound to a class (``mac_factory=CsmaMac``)
calls that class.  A function or method handed on as a value (a
callback given to ``sim.schedule``) counts as having every parameter
set, because whoever calls it may pass any of them.  Matching by name
over-approximates "set", so what this prints has no caller at all.

A *public name* is a function or class defined at module level
anywhere in ``src/repro`` whose name has no leading underscore
(methods are not names: ``AttributeVectorBuilder.ne`` is the paper's
operator set).  It is *called* when some run refers to it: an
``ast.Name``, the last part of an ``ast.Attribute``, a
``"module:function"`` string (how campaigns name their trial
functions), or an import inside a function body.  Its own definition
does not count, nor do module-level imports, ``__all__``, docstrings or
comments.

One line per finding, sorted together: ``module:Qualname(param)`` for a
knob, ``module:Name`` for a public name.
"""

from __future__ import annotations

import ast
import re
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
#: left to its own decision: random-waypoint mobility waits on whether a
#: run can reach it.
EXCLUDED_CLASSES = {"RandomWaypointMobility"}
#: the runs: where a call sets a knob and a reference calls a name (not
#: tests/, not examples/).
RUN_DIRS = ("src", "perf")
#: a campaign's ``"module:function"`` trial reference.
MODULE_FUNCTION = re.compile(r"[\w.]+:(\w+)")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

#: callee name -> list of (positional count, star position or None,
#: keywords, an unknown ``**`` mapping)
Calls = Dict[str, List[Tuple[int, Optional[int], Set[str], bool]]]


class Knob:
    def __init__(self, module: str, qualname: str, key: str, name: str,
                 position: Optional[int], field: bool) -> None:
        self.module = module
        self.qualname = qualname
        self.key = key            # the callee name that reaches it
        self.name = name
        self.position = position  # index among the call's positionals
        self.field = field        # a dataclass field, not a parameter

    def __str__(self) -> str:
        return f"{self.module}:{self.qualname}({self.name})"


def _is_dataclass(node: ast.ClassDef) -> bool:
    if any(_terminal(base) == "NamedTuple" for base in node.bases):
        return True
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = getattr(target, "id", getattr(target, "attr", None))
        if name == "dataclass":
            return True
    return False


def _terminal(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _fields(node: ast.ClassDef) -> Iterator[Tuple[str, bool]]:
    """(name, has a default) for each init field of a dataclass body."""
    for stmt in node.body:
        if not (isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)):
            continue
        if "ClassVar" in ast.unparse(stmt.annotation):
            continue
        value = stmt.value
        if (isinstance(value, ast.Call) and _terminal(value.func) == "field"
                and any(k.arg == "init" and isinstance(k.value, ast.Constant)
                        and k.value.value is False for k in value.keywords)):
            continue
        yield stmt.target.id, value is not None


def _params(fn: ast.FunctionDef, method: bool) -> Iterator[Tuple[str, Optional[int], bool]]:
    """(name, positional index or None, has a default) after self/cls."""
    args = fn.args
    positional = args.posonlyargs + args.args
    skip = 1 if method and not _is_static(fn) else 0
    first_default = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional):
        if i < skip:
            continue
        yield arg.arg, i - skip, i >= first_default
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        yield arg.arg, None, default is not None


def _is_static(fn: ast.FunctionDef) -> bool:
    return any(_terminal(d) == "staticmethod" for d in fn.decorator_list)


class Definitions:
    """Every knob, plus what the caller scan needs to resolve names:
    class bases, which names are classes, which are functions."""

    def __init__(self) -> None:
        self.knobs: List[Knob] = []
        self.bases: Dict[str, List[str]] = defaultdict(list)
        self.classes: Set[str] = set()
        self.functions: Set[str] = set()
        self.methods: Dict[str, Set[str]] = defaultdict(set)
        self.own_init: Set[str] = set()
        self.dataclass_fields: Set[str] = set()
        #: (module, name) of every public module-level function or class
        self.public: List[Tuple[str, str]] = []

    def scan(self, module: str, tree: ast.Module) -> None:
        for node in tree.body:
            if isinstance(node, DEFINITIONS) and not node.name.startswith("_"):
                self.public.append((module, node.name))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions.add(node.name)
                self._function(module, node.name, node.name, node, False)
                self._local_classes(node)
            elif isinstance(node, ast.ClassDef):
                self._class(module, node)

    def _local_classes(self, fn: ast.FunctionDef) -> None:
        """A class defined inside a function: a call of it reaches its
        bases as a module-level class's does (its own parameters are
        not knobs)."""
        for node in ast.walk(fn):
            if isinstance(node, ast.ClassDef):
                self.classes.add(node.name)
                self.bases[node.name] = [
                    b for b in map(_terminal, node.bases) if b
                ]
                if any(isinstance(stmt, ast.FunctionDef)
                       and stmt.name == "__init__" for stmt in node.body):
                    self.own_init.add(node.name)

    def _class(self, module: str, node: ast.ClassDef) -> None:
        self.classes.add(node.name)
        self.bases[node.name] = [b for b in map(_terminal, node.bases) if b]
        audited = node.name not in EXCLUDED_CLASSES
        if _is_dataclass(node):
            for position, (name, default) in enumerate(_fields(node)):
                self.dataclass_fields.add(name)
                if audited and default:
                    self.knobs.append(Knob(module, node.name, node.name, name,
                                           position, True))
        for stmt in node.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if stmt.name == "__init__":
                self.own_init.add(node.name)
                key = node.name
            elif stmt.name.startswith("__"):
                continue
            else:
                key = stmt.name
                self.methods[stmt.name].add(node.name)
            if audited:
                self._function(module, f"{node.name}.{stmt.name}", key, stmt,
                               True)

    def _function(self, module: str, qualname: str, key: str,
                  fn: ast.FunctionDef, method: bool) -> None:
        if qualname.endswith(".__init__"):
            qualname = qualname[: -len(".__init__")]
        for name, position, default in _params(fn, method):
            if default:
                self.knobs.append(Knob(module, qualname, key, name, position,
                                       False))


class Callers(ast.NodeVisitor):
    """Collects, over every caller file, what each callee name is passed."""

    def __init__(self, defs: Definitions) -> None:
        self.defs = defs
        self.calls: Calls = defaultdict(list)
        self.as_value: Set[str] = set()
        #: (method name, enclosing class or None when not ``self.name``)
        self._method_values: List[Tuple[str, Optional[str]]] = []
        self.dict_keys: Set[str] = set()
        self.stored: Set[str] = set()      # ``obj.attr = ...``, obj not self
        self.attributes: Set[str] = set()  # any attribute ever stored
        self.aliases: Dict[str, Set[str]] = defaultdict(set)
        #: ``g(*args)`` / ``g(**kwargs)`` inside ``f``: (g's names, f's
        #: key, f's named params, where the star sits in g's call, f's
        #: own positional count, True for ``**``)
        self.forwards: List[Tuple[List[str], str, Set[str], Optional[int], int, bool]] = []
        self._scope: List[Tuple[str, Optional[ast.FunctionDef]]] = []
        self._import_alias: Dict[str, str] = {}
        self._string_tuples: Dict[str, List[str]] = {}

    def visit_Module(self, node: ast.Module) -> None:
        self._import_alias = {}
        self._string_tuples = {}
        for stmt in node.body:
            if (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)
                    and isinstance(stmt.value, (ast.Tuple, ast.List))
                    and all(isinstance(e, ast.Constant) and isinstance(e.value, str)
                            for e in stmt.value.elts)):
                self._string_tuples[stmt.targets[0].id] = [
                    e.value for e in stmt.value.elts]
        self.generic_visit(node)

    # -- traversal -------------------------------------------------------

    #: nodes that hold nothing the scan reads below themselves (their
    #: parents inspect the names and constants they are).
    _LEAVES = (ast.Name, ast.Constant, ast.expr_context, ast.operator,
               ast.cmpop, ast.unaryop, ast.boolop, ast.alias)

    def visit(self, node: ast.AST) -> None:
        method = getattr(self, "visit_" + type(node).__name__, None)
        if method is None:
            self.generic_visit(node)
        else:
            method(node)

    def generic_visit(self, node: ast.AST) -> None:
        leaves = self._LEAVES
        for name in node._fields:
            value = getattr(node, name, None)
            if isinstance(value, list):
                for item in value:
                    if isinstance(item, ast.AST) and not isinstance(item, leaves):
                        self.visit(item)
            elif isinstance(value, ast.AST) and not isinstance(value, leaves):
                self.visit(value)

    # -- structure -------------------------------------------------------

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for alias in node.names:
            if alias.asname:
                self._import_alias[alias.asname] = alias.name

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._scope.append((node.name, None))
        self.generic_visit(node)
        self._scope.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        for default in node.args.defaults + [
            d for d in node.args.kw_defaults if d is not None
        ]:
            self._value(default)
        args = node.args.posonlyargs + node.args.args
        for arg, default in zip(args[len(args) - len(node.args.defaults):],
                                node.args.defaults):
            self._bind(arg.arg, default)
        self._scope.append((node.name, node))
        self.generic_visit(node)
        self._scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    # -- evidence --------------------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        self._value(node.value)
        for target in node.targets:
            name = _terminal(target)
            if name:
                self._bind(name, node.value)
            self._store(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._store(node.target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._value(node.value)
        self._store(node.target)
        self.generic_visit(node)

    def visit_Return(self, node: ast.Return) -> None:
        if node.value is not None:
            self._value(node.value)
        self.generic_visit(node)

    def visit_Dict(self, node: ast.Dict) -> None:
        for key in node.keys:
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                self.dict_keys.add(key.value)
        for value in node.values:
            self._value(value)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = self._callee(func)
        if name == "partial" and node.args:
            # functools.partial(f, *args, **kw) calls f with them later.
            target = self._callee(node.args[0])
            if target:
                self._record([target], node.args[1:], node.keywords)
        elif name in ("dict", "replace"):
            # dict(k=...) and dataclasses.replace(obj, k=...) name fields.
            self.dict_keys.update(k.arg for k in node.keywords if k.arg)
        elif name == "setattr" and len(node.args) > 1:
            attr = node.args[1]
            if isinstance(attr, ast.Constant) and isinstance(attr.value, str):
                self.stored.add(attr.value)
        if name:
            self._record(self._keys(func, name), node.args, node.keywords)
        for arg in node.args:
            self._value(arg.value if isinstance(arg, ast.Starred) else arg)
        for keyword in node.keywords:
            self._value(keyword.value)
            if keyword.arg:
                self._bind(keyword.arg, keyword.value)
        self.generic_visit(node)

    # -- helpers ---------------------------------------------------------

    def _callee(self, func: ast.AST) -> Optional[str]:
        name = _terminal(func)
        return self._import_alias.get(name, name) if name else None

    def _keys(self, func: ast.AST, name: str) -> List[str]:
        """The names one call reaches before aliases are known."""
        if (name == "__init__" and isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Call)
                and _terminal(func.value.func) == "super"):
            cls = self._enclosing_class()
            return self.defs.bases.get(cls, []) if cls else []
        return [name]

    def _expand(self, name: str) -> List[str]:
        """Every definition key a called name reaches: the classes bound
        to it, and the base whose ``__init__`` a subclass without its own
        runs."""
        keys, seen = [name], []
        while keys:
            key = keys.pop()
            if key in seen:
                continue
            seen.append(key)
            keys.extend(self.aliases.get(key, ()))
            if key in self.defs.classes and key not in self.defs.own_init:
                keys.extend(self.defs.bases.get(key, ()))
        return seen

    def resolve_aliases(self) -> None:
        calls: Calls = defaultdict(list)
        for name, entries in self.calls.items():
            for key in self._expand(name):
                calls[key].extend(entries)
        self.calls = calls

    def _enclosing_class(self) -> Optional[str]:
        for name, fn in reversed(self._scope):
            if fn is None:
                return name
        return None

    def _enclosing_function(self) -> Optional[Tuple[str, ast.FunctionDef]]:
        for i in range(len(self._scope) - 1, -1, -1):
            name, fn = self._scope[i]
            if fn is not None:
                outer = self._scope[i - 1] if i else None
                if name == "__init__" and outer and outer[1] is None:
                    return outer[0], fn
                return name, fn
        return None

    def _record(self, keys: List[str], args: List[ast.AST],
                keywords: List[ast.keyword]) -> None:
        npos, star, names, everything = 0, None, set(), False
        enclosing = self._enclosing_function()
        for arg in args:
            if isinstance(arg, ast.Starred):
                if self._forwarded(arg.value, enclosing, "vararg"):
                    self._forward(keys, enclosing, npos, False)
                elif star is None:
                    star = npos  # an unknown sequence: any later position
            else:
                npos += 1
        for keyword in keywords:
            if keyword.arg is not None:
                names.add(keyword.arg)
            elif isinstance(keyword.value, ast.Dict):
                names.update(k.value for k in keyword.value.keys
                             if isinstance(k, ast.Constant))
            elif self._comprehended(keyword.value) is not None:
                names.update(self._comprehended(keyword.value))
            elif self._forwarded(keyword.value, enclosing, "kwarg"):
                self._forward(keys, enclosing, None, True)
            else:
                everything = True  # an unknown mapping: any keyword
        for key in keys:
            self.calls[key].append((npos, star, names, everything))

    def _comprehended(self, value: ast.AST) -> Optional[List[str]]:
        """The keys of ``{k: ... for k in NAMES}`` over a module-level
        tuple of strings."""
        if (isinstance(value, ast.DictComp) and len(value.generators) == 1
                and isinstance(value.key, ast.Name)
                and isinstance(value.generators[0].target, ast.Name)
                and value.key.id == value.generators[0].target.id
                and isinstance(value.generators[0].iter, ast.Name)):
            return self._string_tuples.get(value.generators[0].iter.id)
        return None

    @staticmethod
    def _forwarded(value: ast.AST, enclosing, kind: str) -> bool:
        if enclosing is None or not isinstance(value, ast.Name):
            return False
        rest = getattr(enclosing[1].args, kind)
        return rest is not None and rest.arg == value.id

    def _forward(self, keys, enclosing, star, keywords: bool) -> None:
        name, fn = enclosing
        named = {a.arg for a in fn.args.posonlyargs + fn.args.args
                 + fn.args.kwonlyargs}
        method = bool(fn.args.args) and fn.args.args[0].arg in ("self", "cls")
        own_positional = len(fn.args.posonlyargs + fn.args.args) - method
        self.forwards.append((keys, name, named, star, own_positional,
                              keywords))

    def _value(self, node: ast.AST) -> None:
        """A function handed on as a value: its caller may set anything."""
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            for element in node.elts:
                self._value(element)
        elif isinstance(node, ast.Name):
            name = self._import_alias.get(node.id, node.id)
            if name in self.defs.functions:
                self.as_value.add(name)
        elif isinstance(node, ast.Attribute) and node.attr in self.defs.methods:
            owner = (self._enclosing_class()
                     if isinstance(node.value, ast.Name)
                     and node.value.id in ("self", "cls") else None)
            self._method_values.append((node.attr, owner))

    def _bind(self, name: str, value: ast.AST) -> None:
        """``name`` now stands for a class: calling it constructs that."""
        if isinstance(value, ast.IfExp):
            self._bind(name, value.body)
            self._bind(name, value.orelse)
        elif isinstance(value, ast.BoolOp):
            for operand in value.values:
                self._bind(name, operand)
        elif isinstance(value, (ast.Name, ast.Attribute)):
            target = _terminal(value)
            if target in self.defs.classes and target != name:
                self.aliases[name].add(target)

    def _store(self, target: ast.AST) -> None:
        while isinstance(target, ast.Subscript):
            target = target.value
        if isinstance(target, ast.Attribute):
            self.attributes.add(target.attr)
            if not (isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                self.stored.add(target.attr)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._store(element)

    def resolve_values(self) -> None:
        """``self.m`` handed on is a method reference when the class (or a
        base) defines ``m``; ``obj.m`` is one unless ``m`` is also the name
        of a data attribute somewhere (a field, or ever stored)."""
        data = self.attributes | self.defs.dataclass_fields
        for name, owner in self._method_values:
            if owner is not None:
                classes, seen = [owner], set()
                while classes:
                    cls = classes.pop()
                    if cls in seen:
                        continue
                    seen.add(cls)
                    if cls in self.defs.methods[name]:
                        self.as_value.add(name)
                        break
                    classes.extend(self.defs.bases.get(cls, ()))
            elif name not in data:
                self.as_value.add(name)

    def resolve_forwards(self) -> None:
        """``g(*args, **kwargs)`` inside ``f`` passes ``g`` what ``f``'s
        own callers pass beyond ``f``'s named parameters (to a fixpoint:
        forwarders can chain)."""
        changed = True
        while changed:
            changed = False
            for keys, source, named, star, own_positional, keywords in self.forwards:
                for npos, _, names, everything in list(self.calls.get(source, ())):
                    if keywords:
                        entry = (0, None, names - named, everything)
                    else:
                        extra = max(npos - own_positional, 0)
                        entry = ((star or 0) + extra, None, set(), everything)
                    for key in (k for raw in keys for k in self._expand(raw)):
                        if entry not in self.calls[key]:
                            self.calls[key].append(entry)
                            changed = True


def _references(tree: ast.Module) -> Set[str]:
    """Every name one file refers to, by the rule in the module
    docstring."""
    docstrings = {
        id(node.body[0].value) for node in ast.walk(tree)
        if isinstance(node, (ast.Module,) + DEFINITIONS) and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }

    def visit(node: ast.AST, in_function: bool, out: Set[str]) -> None:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if in_function:
                out.update(a.name.rpartition(".")[2] for a in node.names)
            return
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            match = MODULE_FUNCTION.fullmatch(node.value)
            if match:
                out.add(match.group(1))
        in_function = in_function or isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for child in ast.iter_child_nodes(node):
            visit(child, in_function, out)

    found: Set[str] = set()
    for stmt in tree.body:
        refs: Set[str] = set()
        visit(stmt, False, refs)
        if isinstance(stmt, DEFINITIONS):
            refs.discard(stmt.name)  # its own definition is not a caller
        found |= refs
    return found


def _modules() -> Iterator[Tuple[Path, str]]:
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        parts = path.relative_to(ROOT / "src").with_suffix("").parts
        yield path, ".".join(p for p in parts if p != "__init__")


def _is_set(knob: Knob, callers: Callers) -> bool:
    if knob.key in callers.as_value:
        return True
    if knob.field and (knob.name in callers.dict_keys
                       or knob.name in callers.stored):
        return True
    for npos, star, names, everything in callers.calls.get(knob.key, ()):
        # A mapping handed to a dataclass is built from dict literals,
        # which the field test above has already read.
        if (everything and not knob.field) or knob.name in names:
            return True
        if knob.position is not None and (
            knob.position < npos or (star is not None and knob.position >= star)
        ):
            return True
    return False


def audit() -> List[str]:
    trees = {
        path: ast.parse(path.read_text(), str(path))
        for directory in RUN_DIRS
        for path in sorted((ROOT / directory).rglob("*.py"))
    }
    defs = Definitions()
    for path, module in _modules():
        defs.scan(module, trees[path])
    callers = Callers(defs)
    referenced: Set[str] = set()
    for tree in trees.values():
        callers.visit(tree)
        referenced |= _references(tree)
    callers.resolve_values()
    callers.resolve_aliases()
    callers.resolve_forwards()
    unset = {str(k) for k in defs.knobs if not _is_set(k, callers)}
    uncalled = {f"{module}:{name}" for module, name in defs.public
                if name not in referenced}
    return sorted(unset | uncalled)


def main() -> int:
    for line in audit():
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
