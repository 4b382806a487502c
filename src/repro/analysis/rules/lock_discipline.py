"""lock-discipline: guarded state must be touched under its lock.

The project's shared planes — engine plan cache, scheduler lease table,
runtime lifetime stats, sqlite-cache LRU touches, metrics registry, the
server's engine/dataset maps, and module-level telemetry sinks — each
declare a guard lock.  This rule flags any read or write of a registered
attribute (``self.<attr>`` inside the owning class, or a module global)
that is not lexically inside a ``with <lock>:`` block.

It is a *lexical* race lint, not a model checker: constructor/pickle
plumbing is exempt, and deliberate unlocked fast paths (double-checked
initialisation, snapshot reads of atomic references) carry an inline
``# repro: ignore[lock-discipline]`` with a justification.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple

from repro.analysis.core import Finding, Project, SourceModule, register

RULE_NAME = "lock-discipline"

# Methods where unguarded access is fine: the object is not yet shared
# (construction) or is being rebuilt on one thread (unpickling, teardown).
EXEMPT_METHODS = frozenset(
    {"__init__", "__post_init__", "__new__", "__getstate__", "__setstate__", "__del__"}
)

# Naming convention: a method whose name ends in ``_locked`` declares that
# its caller must already hold the guard — the suffix is the contract, so
# the body is exempt from the lexical check.
LOCKED_SUFFIX = "_locked"


@dataclass(frozen=True)
class AttrGuard:
    """``self.<attr>`` on the named classes must be used under ``self.<lock>``."""

    path: str  # module path suffix, e.g. "api/engine.py"
    classes: Tuple[str, ...]
    attrs: Tuple[str, ...]
    lock: str


@dataclass(frozen=True)
class GlobalGuard:
    """Module-global names guarded by a module-level lock."""

    path: str
    names: Tuple[str, ...]
    lock: str


DEFAULT_ATTR_GUARDS: Tuple[AttrGuard, ...] = (
    AttrGuard(
        "api/engine.py", ("CertificationEngine",), ("_plan_cache", "_scheduler"), "_plan_lock"
    ),
    AttrGuard(
        "api/scheduler.py",
        ("CertificationScheduler",),
        ("_inflight", "_executor", "stats"),
        "_lock",
    ),
    AttrGuard("runtime/runtime.py", ("CertificationRuntime",), ("stats",), "_stats_lock"),
    AttrGuard("runtime/cache.py", ("CertificationCache",), ("_touches",), "_lock"),
    AttrGuard("telemetry/metrics.py", ("MetricsRegistry",), ("_metrics", "_merged_tasks"), "_lock"),
    AttrGuard(
        "telemetry/metrics.py",
        ("_Metric", "Counter", "Gauge", "Histogram"),
        ("_series",),
        "_lock",
    ),
    AttrGuard(
        "service/server.py",
        ("CertificationServer",),
        ("_engines", "_datasets", "_active_ops", "requests_served"),
        "_lock",
    ),
    AttrGuard("fleet/link.py", ("BackendPool",), ("_idle", "_closed"), "_lock"),
    AttrGuard("fleet/health.py", ("HealthMonitor",), ("_alive",), "_lock"),
)

DEFAULT_GLOBAL_GUARDS: Tuple[GlobalGuard, ...] = (
    GlobalGuard("telemetry/events.py", ("_sink", "_sink_path", "_env_checked"), "_lock"),
    GlobalGuard("telemetry/tracing.py", ("_completed",), "_completed_lock"),
)


def _is_self_attr(node: ast.AST, attr: str) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == attr
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def _with_holds(item_expr: ast.AST, lock: str, *, on_self: bool) -> bool:
    if on_self:
        return _is_self_attr(item_expr, lock)
    return isinstance(item_expr, ast.Name) and item_expr.id == lock


def _under_lock(module: SourceModule, node: ast.AST, lock: str, *, on_self: bool) -> bool:
    for ancestor in module.ancestors(node):
        if isinstance(ancestor, (ast.With, ast.AsyncWith)):
            for item in ancestor.items:
                if _with_holds(item.context_expr, lock, on_self=on_self):
                    return True
    return False


@register
class LockDisciplineRule:
    name = RULE_NAME
    description = "registered shared state must be accessed under its guard lock"

    def __init__(
        self,
        attr_guards: Sequence[AttrGuard] = DEFAULT_ATTR_GUARDS,
        global_guards: Sequence[GlobalGuard] = DEFAULT_GLOBAL_GUARDS,
    ) -> None:
        self.attr_guards = tuple(attr_guards)
        self.global_guards = tuple(global_guards)

    # ------------------------------------------------------------------ check
    def check(self, project: Project) -> Iterator[Finding]:
        for guard in self.attr_guards:
            module = project.find_module(guard.path)
            if module is None:
                continue
            yield from self._check_attr_guard(module, guard)
        for guard in self.global_guards:
            module = project.find_module(guard.path)
            if module is None:
                continue
            yield from self._check_global_guard(module, guard)

    def _check_attr_guard(self, module: SourceModule, guard: AttrGuard) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef) or node.name not in guard.classes:
                continue
            for attr_node in ast.walk(node):
                if not isinstance(attr_node, ast.Attribute):
                    continue
                if attr_node.attr not in guard.attrs:
                    continue
                if not (
                    isinstance(attr_node.value, ast.Name) and attr_node.value.id == "self"
                ):
                    continue
                function = module.enclosing_function(attr_node)
                if function is None or function.name in EXEMPT_METHODS:
                    continue
                if function.name.endswith(LOCKED_SUFFIX):
                    continue
                if module.enclosing_class(attr_node) is not node:
                    continue  # nested class: not this guard's scope
                if _under_lock(module, attr_node, guard.lock, on_self=True):
                    continue
                yield Finding(
                    rule=self.name,
                    path=module.path,
                    line=attr_node.lineno,
                    message=(
                        f"{node.name}.{attr_node.attr} accessed in "
                        f"{function.name}() outside `with self.{guard.lock}:`"
                    ),
                    hint=(
                        f"wrap the access in `with self.{guard.lock}:`, or mark a "
                        "deliberate fast path with `# repro: ignore[lock-discipline]` "
                        "plus a justification"
                    ),
                )

    def _check_global_guard(self, module: SourceModule, guard: GlobalGuard) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Name) or node.id not in guard.names:
                continue
            function = module.enclosing_function(node)
            if function is None:
                continue  # import-time initialisation is single-threaded
            if function.name.endswith(LOCKED_SUFFIX):
                continue
            if _under_lock(module, node, guard.lock, on_self=False):
                continue
            yield Finding(
                rule=self.name,
                path=module.path,
                line=node.lineno,
                message=(
                    f"module global {node.id} accessed in {function.name}() "
                    f"outside `with {guard.lock}:`"
                ),
                hint=(
                    f"wrap the access in `with {guard.lock}:`, or mark a deliberate "
                    "fast path with `# repro: ignore[lock-discipline]`"
                ),
            )
