"""Determinism rules (DET001-DET006): nondeterminism on cacheable and
worker-executed paths.

The engine's result cache keys on ``(kind, config, input digests)`` and
exports hits as ``wasCachedFrom`` provenance, so a cacheable processor
implementation must be a pure function of those keys.  These rules walk
the functions statically reachable from processor-implementation roots
(see :class:`repro.analysis.code.model.CodebaseState`) and flag the
classic nondeterminism sources: ambient clocks, randomness, ambient
I/O, shared-state mutation, unordered-set iteration, and (DET006)
unsynchronized writes to lock-owning shared state — the shape the
streaming layer's buffer/curator classes make easy to get wrong.

Severity policy: clock/randomness reads on a *cacheable* path are
errors (the cached bytes are already wrong); ambient I/O and shared
mutation are warnings (wrong only when the environment actually
varies); set-iteration is a warning (wrong only when len > 1).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.code.model import (
    CodebaseState,
    FunctionInfo,
    iter_own_nodes,
)
from repro.analysis.registry import rule

__all__: list[str] = []

#: Ambient-clock reads.  ``time.sleep`` is deliberately absent: it
#: delays but does not *observe* the clock, so it cannot leak into a
#: cached value.
_CLOCK_CALLS = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns", "time.clock_gettime", "time.localtime",
    "time.gmtime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}

#: Randomness sources.  ``random.Random`` (the class) is excluded: a
#: seeded instance is the *fix* DET002 suggests.
_RANDOM_CALLS = {"os.urandom", "uuid.uuid1", "uuid.uuid4"}
_RANDOM_PREFIXES = ("random.", "secrets.")
_RANDOM_EXEMPT = {"random.Random", "random.seed"}

#: Ambient I/O: reads whatever the environment holds at run time.
_IO_CALLS = {
    "open", "input",
    "os.listdir", "os.walk", "os.scandir", "os.stat", "os.getenv",
    "os.environ.get", "os.path.exists", "os.path.getmtime",
    "os.path.getsize",
}
_IO_ROOTS = {"socket", "urllib", "requests", "http", "subprocess"}
_IO_BASENAMES = {
    "read_text", "read_bytes", "write_text", "write_bytes", "urlopen",
}

#: Method basenames that mutate their receiver in place (the storage
#: engine's batched write, ``bulk_load``, counts like ``insert``).
_MUTATOR_BASENAMES = {
    "append", "extend", "insert", "add", "update", "setdefault",
    "pop", "popitem", "remove", "discard", "clear", "write",
    "writelines", "sort", "bulk_load",
}

#: Methods whose ``self`` writes happen before (or after) the object
#: is shared with other threads.
_CONSTRUCTION_METHODS = {"__init__", "__new__", "__del__",
                         "__post_init__"}


def _context_phrase(state: CodebaseState, info: FunctionInfo) -> str:
    kind = state.kind_of(info.qualname)
    if kind is not None:
        return f"processor implementation for kind {kind!r}"
    return f"function {info.name!r} on a cacheable processor path"


def _emit_call_findings(rule_obj, state: CodebaseState, reachable,
                        matcher, describe: str,
                        suggestion: str) -> Iterator:
    for info in state.functions_in(reachable):
        for site in info.calls:
            hit = matcher(site)
            if not hit:
                continue
            yield rule_obj.emit(
                state.location(info),
                f"{_context_phrase(state, info)} calls {hit}() — "
                f"{describe}",
                suggestion=suggestion,
                source=info.file.display,
                line=site.lineno,
            )


@rule("DET001", "code", "error",
      "cacheable processor code reads the ambient clock")
def _det001_clock(rule_obj, state: CodebaseState, context) -> Iterator:
    def matcher(site):
        return site.dotted if site.dotted in _CLOCK_CALLS else ""

    yield from _emit_call_findings(
        rule_obj, state, state.cacheable_reachable, matcher,
        "wall-clock reads make cached bytes depend on *when* the run "
        "happened, breaking wasCachedFrom provenance",
        "take the timestamp from the engine's injected clock/config, "
        "or opt the kind out with config={'cacheable': False}",
    )


@rule("DET002", "code", "error",
      "cacheable processor code draws unseeded randomness")
def _det002_random(rule_obj, state: CodebaseState, context) -> Iterator:
    def matcher(site):
        dotted = site.dotted
        if not dotted or dotted in _RANDOM_EXEMPT:
            return ""
        if dotted in _RANDOM_CALLS:
            return dotted
        if dotted.startswith(_RANDOM_PREFIXES):
            return dotted
        return ""

    yield from _emit_call_findings(
        rule_obj, state, state.cacheable_reachable, matcher,
        "unseeded randomness yields different output bytes per run, so "
        "the cache can never validate a replay",
        "derive values from a random.Random seeded by the input "
        "digest, or opt the kind out of caching",
    )


@rule("DET003", "code", "warning",
      "cacheable processor code performs ambient file/network I/O")
def _det003_ambient_io(rule_obj, state: CodebaseState,
                       context) -> Iterator:
    def matcher(site):
        dotted = site.dotted
        if dotted in _IO_CALLS:
            return dotted
        if dotted and dotted.split(".", 1)[0] in _IO_ROOTS:
            return dotted
        if site.name in _IO_BASENAMES:
            return dotted or site.name
        return ""

    yield from _emit_call_findings(
        rule_obj, state, state.cacheable_reachable, matcher,
        "the bytes read are invisible to the cache key, so a changed "
        "environment silently serves stale cached results",
        "route the data through declared inputs (content-addressed "
        "payloads) so it participates in the cache key",
    )


def _mutation_root(node: ast.expr) -> str:
    """The root name of an attribute/subscript target chain ('' when
    rooted in a call result or similar)."""
    current = node
    while isinstance(current, (ast.Attribute, ast.Subscript)):
        current = current.value
    if isinstance(current, ast.Name):
        return current.id
    return ""


@rule("DET004", "code", "warning",
      "worker-executed code mutates shared state")
def _det004_shared_mutation(rule_obj, state: CodebaseState,
                            context) -> Iterator:
    for info in state.functions_in(state.worker_reachable):
        construction = info.name in _CONSTRUCTION_METHODS
        module_globals = state.module_globals.get(info.file.module, set())
        declared: set[str] = set()
        for node in iter_own_nodes(info.node):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                declared.update(node.names)
        seen_lines: set[tuple[str, int]] = set()

        def flag(what: str, lineno: int, why: str):
            key = (what, lineno)
            if key in seen_lines:
                return None
            seen_lines.add(key)
            return rule_obj.emit(
                state.location(info),
                f"worker-executed {info.name!r} mutates {what} — {why}",
                suggestion="return results instead of mutating shared "
                           "state, or guard the write with the owning "
                           "object's lock and exclude it from cacheable "
                           "paths",
                source=info.file.display,
                line=lineno,
            )

        for node in iter_own_nodes(info.node):
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = list(node.targets)
            for target in targets:
                if isinstance(target, ast.Name):
                    if target.id in declared:
                        finding = flag(
                            f"global {target.id!r}", node.lineno,
                            "module state outlives the run and is "
                            "shared across pool threads")
                        if finding:
                            yield finding
                    continue
                root = _mutation_root(target)
                if root == "self" and not construction:
                    finding = flag(
                        "self-shared state", node.lineno,
                        "instance attributes are visible to every "
                        "concurrent invocation")
                    if finding:
                        yield finding
                elif root and root in module_globals \
                        and isinstance(target,
                                       (ast.Attribute, ast.Subscript)):
                    finding = flag(
                        f"module-level {root!r}", node.lineno,
                        "module state outlives the run and is shared "
                        "across pool threads")
                    if finding:
                        yield finding
        for site in info.calls:
            if site.name not in _MUTATOR_BASENAMES:
                continue
            dotted = site.dotted
            if not dotted or "." not in dotted:
                continue
            root = dotted.split(".", 1)[0]
            if root == "self" and not construction:
                finding = flag(
                    "self-shared state", site.lineno,
                    "instance attributes are visible to every "
                    "concurrent invocation")
                if finding:
                    yield finding
            elif root in module_globals:
                finding = flag(
                    f"module-level {root!r}", site.lineno,
                    "module state outlives the run and is shared "
                    "across pool threads")
                if finding:
                    yield finding


def _walk_unordered(node: ast.AST) -> Iterator[ast.AST]:
    """Walk an expression skipping subtrees whose order is already
    pinned by ``sorted(...)``."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id == "sorted":
        return
    yield node
    for child in ast.iter_child_nodes(node):
        yield from _walk_unordered(child)


def _is_setish(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in {"set", "frozenset"}:
        return True
    return False


@rule("DET005", "code", "warning",
      "cacheable processor code iterates an unordered set into output")
def _det005_set_iteration(rule_obj, state: CodebaseState,
                          context) -> Iterator:
    for info in state.functions_in(state.cacheable_reachable):
        for node in iter_own_nodes(info.node):
            iter_expr: ast.expr | None = None
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iter_expr = node.iter
            elif isinstance(node, ast.comprehension):
                iter_expr = node.iter
            if iter_expr is not None and _is_setish(iter_expr):
                yield rule_obj.emit(
                    state.location(info),
                    f"{_context_phrase(state, info)} iterates a set "
                    "literal/constructor — set order varies with hash "
                    "seeding, so output byte order is unstable",
                    suggestion="iterate sorted(...) over the set, or "
                               "use an order-preserving dict",
                    source=info.file.display,
                    line=node.iter.lineno
                    if isinstance(node, (ast.For, ast.AsyncFor))
                    else iter_expr.lineno,
                )
            if isinstance(node, ast.Return) and node.value is not None:
                for sub in _walk_unordered(node.value):
                    if not isinstance(sub, ast.expr) or not _is_setish(sub):
                        continue
                    yield rule_obj.emit(
                        state.location(info),
                        f"{_context_phrase(state, info)} returns a set "
                        "— downstream serialization of an unordered "
                        "set is not byte-stable",
                        suggestion="return sorted(...) or a list with "
                                   "an explicit order",
                        source=info.file.display,
                        line=sub.lineno,
                    )


@rule("DET006", "code", "warning",
      "cacheable code writes lock-owning shared state without the lock")
def _det006_unlocked_shared_writes(rule_obj, state: CodebaseState,
                                   context) -> Iterator:
    """A method of a lock-owning class (a stream buffer, a curator, a
    cache) that is reachable from a cacheable processor implementation
    and writes ``self.<attr>`` with no lock held: concurrent flushers
    interleave the writes, so the bytes the cache memoizes depend on
    thread timing.  LK002 catches the subset where the attribute is
    *also* guarded elsewhere; this rule holds the stricter streaming
    invariant that every shared-state write on a cacheable path goes
    through the owning lock."""
    from repro.analysis.code.lock_rules import (
        _lock_model,
        _self_attr_writes,
    )
    model = _lock_model(state, context)
    for regions in model.sorted_regions():
        info = regions.info
        if info.qualname not in state.cacheable_reachable:
            continue
        if info.name in _CONSTRUCTION_METHODS \
                or info.name.endswith("_locked"):
            continue
        lock_attrs = regions.klass.locks
        lock_labels = ", ".join(
            f"self.{attr}" for attr in sorted(lock_attrs))
        seen: set[tuple[str, int]] = set()
        for node, held in regions.nodes:
            if held:
                continue
            written = list(_self_attr_writes(node))
            if isinstance(node, ast.Call):
                site = model.sites.get(id(node))
                if site is not None \
                        and site.name in _MUTATOR_BASENAMES \
                        and site.dotted.startswith("self.") \
                        and site.dotted.count(".") == 2:
                    written.append(site.dotted.split(".")[1])
            for attr in written:
                if attr in lock_attrs:
                    continue
                key = (attr, node.lineno)
                if key in seen:
                    continue
                seen.add(key)
                yield rule_obj.emit(
                    state.location(info),
                    f"{_context_phrase(state, info)} writes "
                    f"self.{attr} without holding {lock_labels} — "
                    "concurrent invocations interleave the writes, so "
                    "the cached bytes depend on thread timing",
                    suggestion="wrap the write in `with self.<lock>:` "
                               "(or a *_locked helper called under "
                               "it), or keep cacheable paths free of "
                               "shared-state writes",
                    source=info.file.display,
                    line=node.lineno,
                )
