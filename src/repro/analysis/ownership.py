"""Static ownership / race checker for the model tree (RACE2xx).

The paper's central software discipline is the lock-free single-reader/
single-writer descriptor queue between host driver and adaptor firmware
(section 2.1.1).  PR 5 enforces it *dynamically*: the ``--sanitize``
SRSW hook fires on whichever actor pair a given seed happens to
exercise.  This module proves the discipline *statically*, for every
code path: it builds an actor/attribute access graph over the model
packages and checks declared ownership contracts against it, without
running the simulator.

Actor model
-----------

An *actor* is a logical thread of control from the paper's split:
``rx-processor`` and ``tx-processor`` (the two on-board processors),
``boundary`` (the cross-shard boundary-message dispatcher -- the only
context allowed to apply remote effects), ``recovery`` (the heartbeat
chain of the owning shard), and ``setup`` (construction time, before
concurrency exists, exempt from all rules).  Actors come from three
sources, mirroring the dynamic sanitizer:

1. *Entry points*: every method of ``RxProcessor`` / ``TxProcessor``
   runs as that processor; ``ShardFabric.deliver`` runs as the
   boundary dispatcher.  Entry points are **barriers**: their actor is
   fixed regardless of callers.
2. *Annotations* in class docstrings (grammar below).
3. *Propagation*: a function reachable from an actor's code runs as
   that actor, unless it is itself a barrier; a call made inside a
   lexical ``sanitize.actor("x")`` / ``maybe_actor("x")`` block runs
   as ``x``.  ``__init__`` is always ``setup``.  Unreachable functions
   are *anonymous* and make no claims.

Annotation grammar (lines anywhere in a class docstring)::

    Owner: <actor>                  # root every method as <actor>
    Owner: <field> -> <actor>       # field is written only by <actor>
    SRSW: <field> via <m1>[, m2..]  # pointer field, mutated via m1..
    Boundary: <m1>[, m2...]         # boundary portals (actor 'boundary')
    Fold: <m1>[, m2...]             # cell-train fused-fold roots
    Root: <method> -> <actor>       # root one method as <actor>
    Effect: <m1>[, m2...]           # cross-shard effectors (RACE202)

Rule catalog (full rationale in DESIGN.md section 13):

``RACE201 srsw-second-writer``
    Two distinct concrete actors reach mutators of the same declared
    SRSW field on the same structure instance (grouped by receiver
    class + field path).  One actor per pointer is the whole contract.
``RACE202 unmediated-cross-shard-effect``
    A cross-shard effector (``CellSwitch.input_cell``,
    ``CreditGate.refill`` ...) invoked directly by a concrete
    non-boundary actor.  Effects must travel as boundary messages
    (``_emit_boundary`` -> the shard mailboxes of
    ``repro.sim.parallel`` -> ``_apply_boundary``), or the sharded run
    diverges from ``--shards 1``.
``RACE203 order-op-in-fold``
    An order-sensitive operation (queue push/pop, signal fire, credit
    acquire/refill ...) reachable from a cell-train fused fold.  The
    fold commits a whole train in one event; per-cell expansion would
    interleave these ops differently, breaking byte-identity.
``RACE204 foreign-owner-write``
    A field with a declared ``Owner:`` written under a different
    concrete actor -- e.g. recovery-manager replicated state written
    outside the owning shard's heartbeat or boundary chain.

Audited exceptions live in a suppression file with the same syntax and
unused-entry reporting as the DET allowlist (default:
``repro/analysis/ownership_baseline.txt``).

Usage::

    python -m repro check              # static pass, exit 1 on findings
    python -m repro check --json       # machine-readable findings
    python -m repro check --replay t.json   # happens-before verifier
"""

from __future__ import annotations

import argparse
import ast
import json
import re
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

from .lint import AllowlistEntry, Finding, parse_allowlist

RULES = {
    "RACE201": "srsw-second-writer: second distinct actor mutates a "
               "declared SRSW field",
    "RACE202": "unmediated-cross-shard-effect: effector invoked "
               "directly instead of via a boundary message",
    "RACE203": "order-op-in-fold: order-sensitive operation inside a "
               "cell-train fused fold",
    "RACE204": "foreign-owner-write: field written by an actor other "
               "than its declared owner",
}

# Packages (top-level directories under the scanned root) that hold
# model code; analysis/, bench/, driver-side harnesses etc. are out of
# scope.  Loose files directly under the root are always included so
# fixture corpora check without package structure.
MODEL_PACKAGES = frozenset({"atm", "cluster", "faults", "osiris",
                            "recovery", "sim", "topology"})

SETUP_ACTOR = "setup"
BOUNDARY_ACTOR = "boundary"


def actor_root(label: str) -> str:
    """Dotted actor labels form a hierarchy: 'boundary.train-fold'
    is a sub-actor of 'boundary' -- the same thread of control,
    refined for sanitizer attribution.  Rules compare roots, so a
    sub-actor never races with its parent."""
    return label.split(".", 1)[0]

# Entry-point barriers (ISSUE: reachability from RxProcessor /
# TxProcessor / ShardFabric / RecoveryManager).  RecoveryManager's
# roots are docstring annotations: its methods split between the
# heartbeat chain ('recovery') and the broadcast receiver ('boundary').
ENTRY_CLASS_ACTORS = {
    "RxProcessor": "rx-processor",
    "TxProcessor": "tx-processor",
}
ENTRY_METHOD_ACTORS = {
    ("ShardFabric", "deliver"): BOUNDARY_ACTOR,
}

# Built-in cross-shard effectors (class, method): applying one of
# these mutates state that remote shards also observe, so the call
# must come from the boundary dispatcher.  Classes may add their own
# with an `Effect:` docstring line.
BUILTIN_EFFECTORS = frozenset({
    ("CellSwitch", "input_cell"),
    ("CellSwitch", "input_train"),
    ("CreditGate", "refill"),
    ("CreditGate", "pause"),
    ("RecoveryManager", "apply_dead"),
    ("OsirisBoard", "deliver_cell"),
})

# Operations whose relative order is observable (queue pointers,
# signals, credits, IRQs): banned inside a fused cell-train fold,
# where one event stands in for many per-cell events.
ORDER_OPS = frozenset({
    "push", "pop", "pop_rr", "pop_fifo", "push_out_longest",
    "fire", "acquire", "refill", "pause", "put", "try_put",
    "enqueue", "input_cell", "deliver_cell", "raise_receive_irq",
})

# Method names that mutate their receiver: a call to one of these on
# `self.<field>` counts as a write to <field> for RACE204.
MUTATOR_METHODS = frozenset({
    "append", "add", "clear", "pop", "popitem", "update",
    "setdefault", "extend", "remove", "discard", "insert", "popleft",
    "appendleft",
})

_ANNOTATION_RE = re.compile(
    r"^\s*(Owner|SRSW|Boundary|Fold|Root|Effect):\s*(.+?)\s*$",
    re.MULTILINE)

_IDENT = r"[A-Za-z_][A-Za-z0-9_.*<>-]*"


class AnnotationError(ValueError):
    """A malformed ownership annotation in a class docstring."""


@dataclass
class ClassAnnotations:
    class_actor: Optional[str] = None
    owners: dict = field(default_factory=dict)      # field -> actor
    srsw: dict = field(default_factory=dict)        # field -> (methods,)
    boundary: tuple = ()
    fold: tuple = ()
    roots: dict = field(default_factory=dict)       # method -> actor
    effects: tuple = ()

    @property
    def empty(self) -> bool:
        return not (self.class_actor or self.owners or self.srsw
                    or self.boundary or self.fold or self.roots
                    or self.effects)


def parse_annotations(docstring: Optional[str],
                      where: str = "?") -> ClassAnnotations:
    """Extract ownership annotations from one class docstring."""
    ann = ClassAnnotations()
    if not docstring:
        return ann
    for kind, payload in _ANNOTATION_RE.findall(docstring):
        if kind == "Owner":
            if "->" in payload:
                fld, _, actor = payload.partition("->")
                fld, actor = fld.strip(), actor.strip()
                if not fld or not actor:
                    raise AnnotationError(
                        f"{where}: bad 'Owner: field -> actor' "
                        f"annotation: {payload!r}")
                ann.owners[fld] = actor
            else:
                ann.class_actor = payload.strip()
        elif kind == "SRSW":
            fld, sep, methods = payload.partition(" via ")
            names = tuple(m.strip() for m in methods.split(",")
                          if m.strip())
            if not sep or not fld.strip() or not names:
                raise AnnotationError(
                    f"{where}: bad 'SRSW: field via m1, m2' "
                    f"annotation: {payload!r}")
            ann.srsw[fld.strip()] = names
        elif kind == "Root":
            meth, sep, actor = payload.partition("->")
            if not sep or not meth.strip() or not actor.strip():
                raise AnnotationError(
                    f"{where}: bad 'Root: method -> actor' "
                    f"annotation: {payload!r}")
            ann.roots[meth.strip()] = actor.strip()
        else:   # Boundary / Fold / Effect: comma-separated methods
            names = tuple(m.strip() for m in payload.split(",")
                          if m.strip())
            if not names or not all(re.fullmatch(_IDENT, n)
                                    for n in names):
                raise AnnotationError(
                    f"{where}: bad '{kind}:' method list: {payload!r}")
            if kind == "Boundary":
                ann.boundary += names
            elif kind == "Fold":
                ann.fold += names
            else:
                ann.effects += names
    return ann


# -- the access-graph index ---------------------------------------------------


@dataclass
class _CallSite:
    name: str                       # method/function name invoked
    recv_class: Optional[str]       # resolved receiver class, if any
    recv_tail: Optional[str]        # field path tail naming the instance
    recv_is_self: bool
    is_attr: bool                   # obj.m() vs bare f()
    line: int
    col: int
    deferred: bool                  # inside a nested def / lambda
    ctx_actor: Optional[str]        # lexical sanitize.actor(...) label


@dataclass
class _WriteSite:
    owner_class: Optional[str]      # resolved class owning the attr
    attr: str
    line: int
    col: int
    deferred: bool
    ctx_actor: Optional[str]


@dataclass
class _FuncInfo:
    key: tuple                      # (relpath, class_name, func_name)
    class_name: str                 # "" for module-level functions
    name: str
    relpath: str
    line: int
    calls: list = field(default_factory=list)
    writes: list = field(default_factory=list)


@dataclass
class _ClassInfo:
    name: str
    relpath: str
    line: int
    ann: ClassAnnotations
    attr_types: dict = field(default_factory=dict)   # attr -> class
    elem_types: dict = field(default_factory=dict)   # attr -> elem class
    methods: dict = field(default_factory=dict)      # name -> _FuncInfo


def _ann_to_class(node: Optional[ast.AST]) -> tuple:
    """(direct class name, element class name) for an annotation
    expression -- shallow: Name, 'quoted', Optional[X], list[X],
    dict[K, V], tuple[X, ...]."""
    if node is None:
        return None, None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value.strip()
        m = re.fullmatch(r"Optional\[(\w+)\]|(\w+)", text)
        if m:
            return (m.group(1) or m.group(2)), None
        return None, None
    if isinstance(node, ast.Name):
        return node.id, None
    if isinstance(node, ast.Subscript):
        base = node.value
        base_name = base.attr if isinstance(base, ast.Attribute) \
            else (base.id if isinstance(base, ast.Name) else None)
        inner = node.slice
        if base_name == "Optional":
            return _ann_to_class(inner)
        if base_name in ("list", "List", "Sequence", "Iterable",
                         "tuple", "Tuple", "set", "frozenset", "deque",
                         "Deque"):
            first = (inner.elts[0] if isinstance(inner, ast.Tuple)
                     and inner.elts else inner)
            return None, _ann_to_class(first)[0]
        if base_name in ("dict", "Dict", "defaultdict", "Mapping",
                         "WeakKeyDictionary", "OrderedDict"):
            value = (inner.elts[1] if isinstance(inner, ast.Tuple)
                     and len(inner.elts) == 2 else None)
            return None, _ann_to_class(value)[0]
    return None, None


class _Index:
    """Classes, functions, and access sites for a set of modules."""

    def __init__(self) -> None:
        self.classes: dict[str, _ClassInfo] = {}
        # (relpath, name) -> _ClassInfo; ``classes`` keeps only the
        # last definition of a bare name (cross-module resolution is
        # name-based), but every version is scanned.
        self.all_classes: dict[tuple, _ClassInfo] = {}
        self.funcs: dict[tuple, _FuncInfo] = {}
        # method name -> [keys]; fallback for unresolved receivers.
        self.by_name: dict[str, list] = {}
        # module relpath -> {name: key} for bare-name calls.
        self.module_funcs: dict[str, dict] = {}
        # class name -> base class names (textual, shallow).
        self.bases: dict[str, tuple] = {}

    def subclasses(self, cls: str) -> set:
        """Transitive textual subclasses of ``cls``."""
        out: set[str] = set()
        work = [cls]
        while work:
            cur = work.pop()
            for name, bases in sorted(self.bases.items()):
                if cur in bases and name not in out:
                    out.add(name)
                    work.append(name)
        return out

    def hierarchy_methods(self, cls: str, name: str) -> list:
        """Keys of methods ``name`` may dispatch to on a ``cls``
        receiver: the definition in ``cls`` or its nearest ancestor,
        plus every override in a subclass (the static type may
        underestimate the dynamic one)."""
        keys = []
        for candidate in [cls, *sorted(self.subclasses(cls))]:
            cinfo = self.classes.get(candidate)
            if cinfo is not None and name in cinfo.methods:
                keys.append(cinfo.methods[name].key)
        if not keys or self.classes.get(cls) is not None \
                and name not in self.classes[cls].methods:
            # Not defined on cls itself: inherit from the nearest
            # ancestor that defines it.
            seen = {cls}
            work = list(self.bases.get(cls, ()))
            while work:
                base = work.pop(0)
                if base in seen:
                    continue
                seen.add(base)
                cinfo = self.classes.get(base)
                if cinfo is not None and name in cinfo.methods:
                    keys.append(cinfo.methods[name].key)
                    break
                work.extend(self.bases.get(base, ()))
        return keys

    # -- phase A: declarations + attribute types -----------------------------

    def add_module(self, tree: ast.Module, relpath: str) -> None:
        self.module_funcs.setdefault(relpath, {})
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                self._add_class(node, relpath)
            elif isinstance(node, (ast.FunctionDef,
                                   ast.AsyncFunctionDef)):
                info = _FuncInfo(key=(relpath, "", node.name),
                                 class_name="", name=node.name,
                                 relpath=relpath, line=node.lineno)
                self.funcs[info.key] = info
                self.module_funcs[relpath][node.name] = info.key

    def _add_class(self, node: ast.ClassDef, relpath: str) -> None:
        ann = parse_annotations(ast.get_docstring(node),
                                where=f"{relpath}:{node.lineno} "
                                      f"class {node.name}")
        cinfo = _ClassInfo(name=node.name, relpath=relpath,
                           line=node.lineno, ann=ann)
        self.classes[node.name] = cinfo
        self.all_classes[(relpath, node.name)] = cinfo
        self.bases[node.name] = tuple(
            b.id for b in node.bases if isinstance(b, ast.Name))
        for item in node.body:
            if isinstance(item, ast.AnnAssign) \
                    and isinstance(item.target, ast.Name):
                direct, elem = _ann_to_class(item.annotation)
                if direct:
                    cinfo.attr_types[item.target.id] = direct
                if elem:
                    cinfo.elem_types[item.target.id] = elem
            elif isinstance(item, (ast.FunctionDef,
                                   ast.AsyncFunctionDef)):
                finfo = _FuncInfo(key=(relpath, node.name, item.name),
                                  class_name=node.name, name=item.name,
                                  relpath=relpath, line=item.lineno)
                self.funcs[finfo.key] = finfo
                cinfo.methods[item.name] = finfo
                self.by_name.setdefault(item.name, []).append(finfo.key)
                self._infer_attr_types(cinfo, item)

    def _infer_attr_types(self, cinfo: _ClassInfo,
                          func: ast.FunctionDef) -> None:
        """self.x = ClassName(...) / self.x = <annotated param>."""
        params = {}
        args = func.args
        for arg in (args.posonlyargs + args.args + args.kwonlyargs):
            direct, elem = _ann_to_class(arg.annotation)
            if direct:
                params[arg.arg] = direct
        for stmt in ast.walk(func):
            if not isinstance(stmt, ast.Assign):
                continue
            for target in stmt.targets:
                if not (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    continue
                value = stmt.value
                if (isinstance(value, ast.Call)
                        and isinstance(value.func, ast.Name)):
                    cinfo.attr_types.setdefault(target.attr,
                                                value.func.id)
                elif (isinstance(value, ast.Name)
                        and value.id in params):
                    cinfo.attr_types.setdefault(target.attr,
                                                params[value.id])


# -- phase B: per-function body scans ----------------------------------------


_ACTOR_CTX_NAMES = frozenset({"actor", "maybe_actor"})


def _actor_label(call: ast.Call) -> Optional[str]:
    """The actor name a `with actor(...)` context establishes."""
    fn = call.func
    name = fn.attr if isinstance(fn, ast.Attribute) else (
        fn.id if isinstance(fn, ast.Name) else None)
    if name not in _ACTOR_CTX_NAMES or not call.args:
        return None
    arg = call.args[0]
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg.value
    if isinstance(arg, ast.JoinedStr):
        return "".join(
            part.value if isinstance(part, ast.Constant) else "*"
            for part in arg.values)
    return "<dynamic>"


class _BodyScanner:
    """Collect call and write sites of one function body, resolving
    receivers through shallow type inference."""

    def __init__(self, index: _Index, finfo: _FuncInfo,
                 cinfo: Optional[_ClassInfo]):
        self.index = index
        self.finfo = finfo
        self.cinfo = cinfo
        # local name -> (class name, tail) -- tail is the attribute
        # name the value came from, used to group SRSW instances.
        self.env: dict[str, tuple] = {}

    def scan(self, node: ast.FunctionDef) -> None:
        args = node.args
        for arg in (args.posonlyargs + args.args + args.kwonlyargs):
            direct, _ = _ann_to_class(arg.annotation)
            if direct:
                self.env[arg.arg] = (direct, arg.arg)
        for stmt in node.body:
            self._visit(stmt, deferred=False, ctx=None)

    # -- resolution ----------------------------------------------------------

    def _class_info(self, base_cls) -> Optional[_ClassInfo]:
        """Class info for a resolved base, preferring the scanner's
        own class over a same-named definition in another module."""
        if base_cls is None:
            return None
        if self.cinfo is not None and base_cls == self.cinfo.name:
            return self.cinfo
        return self.index.classes.get(base_cls)

    def _resolve(self, node: ast.AST) -> tuple:
        """(class name or None, tail name or None) of an expression."""
        if isinstance(node, ast.Name):
            if node.id == "self" and self.cinfo is not None:
                return self.cinfo.name, "self"
            return self.env.get(node.id, (None, None))
        if isinstance(node, ast.Attribute):
            base_cls, _ = self._resolve(node.value)
            cinfo = self._class_info(base_cls)
            if cinfo is not None:
                return cinfo.attr_types.get(node.attr), node.attr
            return None, node.attr
        if isinstance(node, ast.Subscript):
            base = node.value
            if isinstance(base, ast.Attribute):
                base_cls, _ = self._resolve(base.value)
                cinfo = self._class_info(base_cls)
                if cinfo is not None:
                    return (cinfo.elem_types.get(base.attr),
                            base.attr)
            return None, None
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Name) \
                and node.func.id in self.index.classes:
            return node.func.id, None
        return None, None

    # -- traversal -----------------------------------------------------------

    def _visit(self, node: ast.AST, deferred: bool,
               ctx: Optional[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            body = node.body if isinstance(node.body, list) \
                else [node.body]
            for child in body:
                self._visit(child, deferred=True, ctx=ctx)
            return
        if isinstance(node, ast.With):
            inner = ctx
            for item in node.items:
                if isinstance(item.context_expr, ast.Call):
                    label = _actor_label(item.context_expr)
                    if label is not None:
                        inner = label
                self._visit(item.context_expr, deferred, ctx)
            for child in node.body:
                self._visit(child, deferred, inner)
            return
        if isinstance(node, ast.Assign):
            self._record_assign(node, deferred, ctx)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            if node.target is not None:
                self._record_write_target(node.target, deferred, ctx)
        elif isinstance(node, ast.Call):
            self._record_call(node, deferred, ctx)
        for child in ast.iter_child_nodes(node):
            self._visit(child, deferred, ctx)

    def _record_assign(self, node: ast.Assign, deferred: bool,
                       ctx: Optional[str]) -> None:
        for target in node.targets:
            self._record_write_target(target, deferred, ctx)
        # Local type inference: v = <resolvable expression>.
        if (len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and not deferred):
            cls, tail = self._resolve(node.value)
            name = node.targets[0].id
            if cls is not None:
                self.env[name] = (cls, tail or name)
            else:
                self.env.pop(name, None)

    def _record_write_target(self, target: ast.AST, deferred: bool,
                             ctx: Optional[str]) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._record_write_target(elt, deferred, ctx)
            return
        # Peel subscripts: self._records[k] = v writes _records.
        while isinstance(target, ast.Subscript):
            target = target.value
        if isinstance(target, ast.Attribute):
            owner_cls, _ = self._resolve(target.value)
            self.finfo.writes.append(_WriteSite(
                owner_class=owner_cls, attr=target.attr,
                line=target.lineno, col=target.col_offset + 1,
                deferred=deferred, ctx_actor=ctx))

    def _record_call(self, node: ast.Call, deferred: bool,
                     ctx: Optional[str]) -> None:
        fn = node.func
        if isinstance(fn, ast.Attribute):
            recv_cls, tail = self._resolve(fn.value)
            is_self = (isinstance(fn.value, ast.Name)
                       and fn.value.id == "self")
            self.finfo.calls.append(_CallSite(
                name=fn.attr, recv_class=recv_cls, recv_tail=tail,
                recv_is_self=is_self, is_attr=True,
                line=node.lineno, col=node.col_offset + 1,
                deferred=deferred, ctx_actor=ctx))
            # A mutator call on an attribute chain is also a write to
            # that attribute: self._masked.add(x) writes _masked.
            if fn.attr in MUTATOR_METHODS \
                    and isinstance(fn.value, ast.Attribute):
                owner_cls, _ = self._resolve(fn.value.value)
                self.finfo.writes.append(_WriteSite(
                    owner_class=owner_cls, attr=fn.value.attr,
                    line=node.lineno, col=node.col_offset + 1,
                    deferred=deferred, ctx_actor=ctx))
        elif isinstance(fn, ast.Name):
            self.finfo.calls.append(_CallSite(
                name=fn.id, recv_class=None, recv_tail=None,
                recv_is_self=False, is_attr=False,
                line=node.lineno, col=node.col_offset + 1,
                deferred=deferred, ctx_actor=ctx))


# -- the checker --------------------------------------------------------------


class OwnershipChecker:
    """Run the RACE2xx rules over a set of parsed modules."""

    def __init__(self, modules: list) -> None:
        # modules: [(relpath, ast.Module)]
        self.index = _Index()
        for relpath, tree in modules:
            self.index.add_module(tree, relpath)
        for relpath, tree in modules:
            self._scan_bodies(tree, relpath)
        self.roots = self._find_roots()
        self.actors = self._propagate_actors()
        self.fold_funcs = self._fold_reachable()
        self.findings: list[Finding] = []

    # -- construction --------------------------------------------------------

    def _scan_bodies(self, tree: ast.Module, relpath: str) -> None:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
                finfo = self.index.funcs[(relpath, "", node.name)]
                _BodyScanner(self.index, finfo, None).scan(node)
            elif isinstance(node, ast.ClassDef):
                cinfo = self.index.all_classes.get(
                    (relpath, node.name))
                if cinfo is None:
                    continue
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        finfo = self.index.funcs[
                            (relpath, node.name, item.name)]
                        _BodyScanner(self.index, finfo, cinfo).scan(item)

    def _find_roots(self) -> dict:
        """func key -> fixed actor (propagation barrier)."""
        roots: dict[tuple, str] = {}
        for key, finfo in sorted(self.index.funcs.items()):
            cls = finfo.class_name
            cinfo = self.index.classes.get(cls) if cls else None
            ann = cinfo.ann if cinfo else None
            if finfo.name == "__init__":
                roots[key] = SETUP_ACTOR
            elif ann and finfo.name in ann.roots:
                roots[key] = ann.roots[finfo.name]
            elif ann and finfo.name in ann.boundary:
                roots[key] = BOUNDARY_ACTOR
            elif (cls, finfo.name) in ENTRY_METHOD_ACTORS:
                roots[key] = ENTRY_METHOD_ACTORS[(cls, finfo.name)]
            elif cls in ENTRY_CLASS_ACTORS:
                roots[key] = ENTRY_CLASS_ACTORS[cls]
            elif ann and ann.class_actor:
                roots[key] = ann.class_actor
        return roots

    def _callees(self, finfo: _FuncInfo, site: _CallSite) -> list:
        """Candidate function keys a call site may invoke."""
        if site.recv_class is not None:
            keys = self.index.hierarchy_methods(site.recv_class,
                                                site.name)
            if keys:
                return keys
            # Resolved class, unknown method: a stdlib container --
            # fall through to the name match.
        if not site.is_attr:
            # Bare name: a module-level function of the same module.
            key = self.index.module_funcs.get(finfo.relpath,
                                              {}).get(site.name)
            return [key] if key else []
        if site.recv_is_self and finfo.class_name:
            keys = self.index.hierarchy_methods(finfo.class_name,
                                                site.name)
            if keys:
                return keys
        # Unresolved receiver: over-approximate by method name.
        return list(self.index.by_name.get(site.name, ()))

    def _propagate_actors(self) -> dict:
        """func key -> set of actors it may run as."""
        actors: dict[tuple, set] = {k: set()
                                    for k in self.index.funcs}
        work = []
        for key, actor in sorted(self.roots.items()):
            actors[key].add(actor)
            work.append((key, actor))
        while work:
            key, actor = work.pop()
            finfo = self.index.funcs[key]
            for site in finfo.calls:
                effective = site.ctx_actor or actor
                for callee in self._callees(finfo, site):
                    if callee in self.roots:
                        continue
                    if effective not in actors[callee]:
                        actors[callee].add(effective)
                        work.append((callee, effective))
        return actors

    def _fold_reachable(self) -> set:
        """Function keys reachable from a fused-fold root through
        direct (non-deferred) calls.  Nested defs and scheduled
        callbacks run as their own events, outside the fold."""
        reach: set[tuple] = set()
        work = []
        for _, cinfo in sorted(self.index.classes.items()):
            for meth in cinfo.ann.fold:
                finfo = cinfo.methods.get(meth)
                if finfo is not None:
                    reach.add(finfo.key)
                    work.append(finfo.key)
        while work:
            key = work.pop()
            finfo = self.index.funcs[key]
            for site in finfo.calls:
                if site.deferred:
                    continue
                for callee in self._callees(finfo, site):
                    if callee not in reach:
                        reach.add(callee)
                        work.append(callee)
        return reach

    # -- shared helpers ------------------------------------------------------

    def _funcs_in_order(self) -> list:
        """Functions in deterministic (path, class, name) order so
        finding order never depends on dict insertion order."""
        return [self.index.funcs[k] for k in sorted(self.index.funcs)]

    def _site_actors(self, finfo: _FuncInfo, site) -> set:
        """Concrete actors a call/write site may execute under."""
        if site.ctx_actor is not None:
            return {site.ctx_actor}
        return set(self.actors.get(finfo.key, ()))

    def _flag(self, rule: str, finfo: _FuncInfo, site,
              message: str) -> None:
        self.findings.append(Finding(
            rule=rule, path=finfo.relpath, line=site.line,
            col=site.col, message=message))

    # -- rules ---------------------------------------------------------------

    def run(self) -> list:
        self._check_srsw()
        self._check_effectors()
        self._check_folds()
        self._check_owners()
        self.findings.sort(key=lambda f: (f.path, f.line, f.col,
                                          f.rule))
        return self.findings

    def _check_srsw(self) -> None:
        """RACE201: group mutator call sites of declared SRSW fields
        by (receiver class, instance path tail); each group admits
        exactly one concrete actor."""
        groups: dict[tuple, list] = {}
        for finfo in self._funcs_in_order():
            for site in finfo.calls:
                cinfo = self.index.classes.get(site.recv_class) \
                    if site.recv_class else None
                if cinfo is None or cinfo.ann.empty:
                    continue
                for fld, methods in sorted(cinfo.ann.srsw.items()):
                    if site.name in methods:
                        key = (cinfo.name, fld,
                               site.recv_tail or "?")
                        groups.setdefault(key, []).append(
                            (finfo, site))
        for (cls, fld, tail), sites in sorted(
                groups.items(), key=lambda kv: kv[0]):
            attributed = []
            for finfo, site in sites:
                actors = {a for a in self._site_actors(finfo, site)
                          if actor_root(a) != SETUP_ACTOR}
                for actor in sorted(actors):
                    attributed.append((finfo, site, actor))
            attributed.sort(key=lambda t: (t[0].relpath, t[1].line,
                                           t[1].col, t[2]))
            if len({actor_root(a) for _, _, a in attributed}) < 2:
                continue
            owner_finfo, owner_site, owner = attributed[0]
            for finfo, site, actor in attributed[1:]:
                if actor_root(actor) == actor_root(owner):
                    continue
                self._flag(
                    "RACE201", finfo, site,
                    f"second actor '{actor}' mutates SRSW field "
                    f"'{cls}.{fld}' (instance '{tail}') via "
                    f".{site.name}(); already written by '{owner}' "
                    f"at {owner_finfo.relpath}:{owner_site.line} -- "
                    f"one actor per pointer (paper section 2.1.1)")

    def _check_effectors(self) -> None:
        """RACE202: direct invocation of a cross-shard effector by a
        concrete non-boundary actor."""
        effectors = set(BUILTIN_EFFECTORS)
        for _, cinfo in sorted(self.index.classes.items()):
            for meth in cinfo.ann.effects:
                effectors.add((cinfo.name, meth))
        for finfo in self._funcs_in_order():
            for site in finfo.calls:
                if site.recv_class is None or site.recv_is_self:
                    continue
                if (site.recv_class, site.name) not in effectors:
                    continue
                actors = sorted(
                    a for a in self._site_actors(finfo, site)
                    if actor_root(a) not in (SETUP_ACTOR,
                                             BOUNDARY_ACTOR))
                if not actors:
                    continue
                self._flag(
                    "RACE202", finfo, site,
                    f"actor '{actors[0]}' invokes "
                    f"{site.recv_class}.{site.name}() directly; "
                    f"cross-shard effects must travel as a boundary "
                    f"message (_emit_boundary -> shard mailbox -> "
                    f"_apply_boundary)")

    def _check_folds(self) -> None:
        """RACE203: order-sensitive operation inside a fused fold."""
        for key in sorted(self.fold_funcs):
            finfo = self.index.funcs[key]
            for site in finfo.calls:
                if site.deferred or site.name not in ORDER_OPS:
                    continue
                self._flag(
                    "RACE203", finfo, site,
                    f"order-sensitive '.{site.name}()' inside a "
                    f"cell-train fused fold ({finfo.class_name or ''}"
                    f".{finfo.name}); per-cell expansion would order "
                    f"this differently -- emit per-cell events or "
                    f"move the operation outside the fused commit")

    def _check_owners(self) -> None:
        """RACE204: write to an Owner:-annotated field under a
        different concrete actor."""
        for finfo in self._funcs_in_order():
            for site in finfo.writes:
                cinfo = self.index.classes.get(site.owner_class) \
                    if site.owner_class else None
                if cinfo is None or site.attr not in cinfo.ann.owners:
                    continue
                owner = cinfo.ann.owners[site.attr]
                actors = sorted(
                    a for a in self._site_actors(finfo, site)
                    if actor_root(a) not in (SETUP_ACTOR,
                                             actor_root(owner)))
                if not actors:
                    continue
                self._flag(
                    "RACE204", finfo, site,
                    f"field '{cinfo.name}.{site.attr}' is owned by "
                    f"actor '{owner}' (Owner: annotation) but "
                    f"written here under actor '{actors[0]}'")

    # -- reporting helpers ---------------------------------------------------

    def stats(self) -> dict:
        by_actor: dict[str, int] = {}
        anonymous = 0
        for key in self.index.funcs:
            actors = self.actors.get(key, set())
            if not actors:
                anonymous += 1
            for actor in actors:
                by_actor[actor] = by_actor.get(actor, 0) + 1
        return {
            "classes": len(self.index.classes),
            "functions": len(self.index.funcs),
            "annotated_classes": sum(
                1 for c in self.index.classes.values()
                if not c.ann.empty),
            "anonymous_functions": anonymous,
            "functions_by_actor": dict(sorted(by_actor.items())),
            "fold_reachable": len(self.fold_funcs),
        }


# -- public API ---------------------------------------------------------------


def check_source(source: str, relpath: str) -> list:
    """Check one module's source as if it lived at ``relpath``."""
    tree = ast.parse(source, filename=relpath)
    checker = OwnershipChecker([(relpath, tree)])
    return checker.run()


def default_root() -> Path:
    return Path(__file__).resolve().parent.parent


def default_suppressions_path() -> Path:
    return Path(__file__).resolve().parent / "ownership_baseline.txt"


@dataclass
class CheckResult:
    findings: list
    checked_files: int
    suppressed: int
    unused_suppressions: list
    stats: dict


def _collect_files(root: Path) -> list:
    files = []
    for path in sorted(root.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        rel = path.relative_to(root)
        top = rel.parts[0]
        if len(rel.parts) == 1 or top in MODEL_PACKAGES:
            files.append((path, rel.as_posix()))
    return files


def check_tree(root: Optional[Path] = None,
               suppressions: Optional[list] = None) -> CheckResult:
    """Check every model-package module under ``root`` (default: the
    installed repro package), filtering through the suppression
    file."""
    root = (default_root() if root is None else root).resolve()
    if suppressions is None:
        path = default_suppressions_path()
        suppressions = (parse_allowlist(path.read_text(), rules=RULES)
                        if path.exists() else [])
    modules = []
    for path, relpath in _collect_files(root):
        modules.append((relpath,
                        ast.parse(path.read_text(), filename=relpath)))
    checker = OwnershipChecker(modules)
    findings = checker.run()
    kept: list[Finding] = []
    used: set[AllowlistEntry] = set()
    suppressed = 0
    for finding in findings:
        entry = next((e for e in suppressions if e.matches(finding)),
                     None)
        if entry is None:
            kept.append(finding)
        else:
            used.add(entry)
            suppressed += 1
    return CheckResult(
        findings=kept, checked_files=len(modules),
        suppressed=suppressed,
        unused_suppressions=[e for e in suppressions
                             if e not in used],
        stats=checker.stats())


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro check",
        description="static ownership/race checker (RACE201-RACE204) "
                    "and happens-before trace verifier")
    parser.add_argument("--root", default=None,
                        help="directory to check (default: the "
                             "installed repro package)")
    parser.add_argument("--suppressions", default=None,
                        help="audited-exception file (default: "
                             "repro/analysis/ownership_baseline.txt)")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output")
    parser.add_argument("--replay", metavar="TRACE", action="append",
                        default=None,
                        help="verify a recorded happens-before trace "
                             "(repro cluster --trace-out) instead of "
                             "running the static pass; repeatable")
    args = parser.parse_args(argv)

    if args.replay:
        from .causality import verify_trace_file
        failed = 0
        reports = []
        for trace in args.replay:
            violations = verify_trace_file(Path(trace))
            reports.append({"trace": trace,
                            "violations": violations})
            failed += bool(violations)
            if not args.json:
                for v in violations:
                    print(f"{trace}: {v}")
                print(f"{trace}: "
                      f"{len(violations)} violation(s)")
        if args.json:
            print(json.dumps({"replay": reports}, indent=2,
                             sort_keys=True))
        return 1 if failed else 0

    suppressions = None
    if args.suppressions is not None:
        text = Path(args.suppressions).read_text() \
            if Path(args.suppressions).exists() else ""
        suppressions = parse_allowlist(text, rules=RULES)
    result = check_tree(
        root=Path(args.root) if args.root else None,
        suppressions=suppressions)

    if args.json:
        print(json.dumps({
            "checked_files": result.checked_files,
            "suppressed": result.suppressed,
            "findings": [asdict(f) for f in result.findings],
            "unused_suppressions": [asdict(e) for e in
                                    result.unused_suppressions],
            "stats": result.stats,
        }, indent=2, sort_keys=True))
    else:
        for finding in result.findings:
            print(finding.render())
        for entry in result.unused_suppressions:
            print(f"note: unused suppression {entry.rule} "
                  f"{entry.path}" + (f":{entry.line}" if entry.line
                                     else ""))
        stats = result.stats
        print(f"{result.checked_files} files checked "
              f"({stats['classes']} classes, "
              f"{stats['annotated_classes']} annotated), "
              f"{len(result.findings)} finding(s), "
              f"{result.suppressed} suppressed")
    return 1 if (result.findings or result.unused_suppressions) else 0


if __name__ == "__main__":
    sys.exit(main())


__all__ = ["RULES", "CheckResult", "OwnershipChecker",
           "ClassAnnotations", "AnnotationError", "parse_annotations",
           "check_source", "check_tree", "main"]
