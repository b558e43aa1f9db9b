"""The unit of work: a pure function plus a content-hashed config.

A :class:`Cell` is the quantum every executor schedules, every store
caches, and every shard manifest ships to another machine.  It is
deliberately minimal:

* ``fn`` — an import reference (``"package.module:callable"``) to a
  *cell function*: a module-level callable taking one JSON-shaped
  payload dict and returning a result that is a pure function of it.
  Referencing by name (not by pickled object) is what lets a shard
  manifest be executed by ``python -m repro worker`` on a machine that
  shares nothing with the parent but the installed package;
* ``payload`` — the cell's entire configuration as a JSON value, so it
  round-trips through manifests and process boundaries without loss;
* ``key`` — the cache/store identity.  By default a content hash of
  ``(fn, payload)``, so equal work shares one key everywhere; domain
  layers may override it with their own content hash (scenario cells
  keep their ``scn-…`` ids so pre-runtime caches stay warm);
* ``after`` — optionally, the key of a *predecessor* cell whose
  decoded result is handed to this cell's function as a second
  argument.  This is the warm-fabric chain primitive: a successor
  tenant runs on the fabric state its predecessor persisted.
  Executors run a chain's cells in order (keeping whole chains on one
  shard), so a chained cell's result is a pure function of its own
  payload plus — transitively — its chain's payloads.

Purity is the contract that makes the whole runtime composable: because
a cell's result depends only on its payload (and, for chained cells,
its predecessors' payloads), executor choice, worker count, shard
partitioning, and cache hits can never change *what* is computed —
only when and where.
"""

from __future__ import annotations

import hashlib
import importlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.runtime.store import validate_key

__all__ = [
    "Cell",
    "cell_key",
    "content_id",
    "resolve_ref",
    "order_cells",
]


def resolve_ref(ref: str) -> Callable:
    """Import a ``"module:attr"`` (or ``"module:attr.attr"``) reference."""
    module_name, _, attr_path = ref.partition(":")
    if not module_name or not attr_path:
        raise ValueError(
            f"function reference {ref!r} must look like 'package.module:callable'"
        )
    target: Any = importlib.import_module(module_name)
    for attr in attr_path.split("."):
        target = getattr(target, attr)
    if not callable(target):
        raise TypeError(f"function reference {ref!r} resolved to non-callable {target!r}")
    return target


def content_id(prefix: str, body: Any) -> str:
    """``prefix-`` plus 16 hex digits of the sha256 of ``body`` as sorted JSON."""
    payload = json.dumps(body, sort_keys=True)
    return f"{prefix}-{hashlib.sha256(payload.encode()).hexdigest()[:16]}"


def cell_key(fn: str, payload: Any, after: str | None = None) -> str:
    """Content hash of a cell: same function + same payload => same key.

    A chained cell's key additionally covers its predecessor key (the
    same payload seeded by a different upstream is different work);
    unchained cells hash exactly as they always did, so existing stores
    stay warm.
    """
    return content_id("cell", [fn, payload] if after is None else [fn, payload, after])


@dataclass(frozen=True)
class Cell:
    """One schedulable, cacheable, shippable unit of campaign work."""

    fn: str
    payload: Any = field(default_factory=dict)
    key: str = ""
    #: Key of the predecessor cell whose decoded result seeds this one
    #: (warm-fabric chains); ``None`` for independent cells.
    after: str | None = None

    def __post_init__(self) -> None:
        if ":" not in self.fn:
            raise ValueError(
                f"cell fn {self.fn!r} must be an import reference "
                "('package.module:callable')"
            )
        # Round-trip the payload through JSON once, eagerly: a payload
        # that cannot survive a shard manifest would otherwise only
        # fail on the machine that received it.
        try:
            canonical = json.loads(json.dumps(self.payload))
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"cell payload must be JSON-serializable: {exc}"
            ) from exc
        object.__setattr__(self, "payload", canonical)
        if not self.key:
            object.__setattr__(
                self, "key", cell_key(self.fn, self.payload, self.after)
            )
        validate_key(self.key, kind="cell key")
        if self.after is not None:
            validate_key(self.after, kind="predecessor key")
            if self.after == self.key:
                raise ValueError(f"cell {self.key!r} cannot chain to itself")

    def run(self, upstream: Any = None) -> Any:
        """Resolve ``fn`` and apply it to the payload.

        A chained cell (``after`` set) passes its predecessor's decoded
        result as the function's second positional argument.
        """
        fn = resolve_ref(self.fn)
        if self.after is None:
            return fn(self.payload)
        return fn(self.payload, upstream)

    # -- manifest round-trip -----------------------------------------------
    def to_entry(self) -> dict:
        """The shard-manifest representation of this cell."""
        entry = {"fn": self.fn, "payload": self.payload, "key": self.key}
        if self.after is not None:
            entry["after"] = self.after
        return entry

    @classmethod
    def from_entry(cls, entry: dict) -> "Cell":
        return cls(
            fn=entry["fn"],
            payload=entry["payload"],
            key=entry["key"],
            after=entry.get("after"),
        )


def order_cells(cells: Sequence["Cell"]) -> list["Cell"]:
    """Dependency-order ``cells``: predecessors before their successors.

    Stable: cells keep their submission order except where an ``after``
    edge (to another cell *in the set*) forces a successor later.
    Edges to keys outside the set are the caller's concern (a cached or
    stored predecessor) and do not constrain the order.  Raises on
    dependency cycles.
    """
    keys = {cell.key for cell in cells}
    emitted: set[str] = set()
    ordered: list[Cell] = []
    pending = list(cells)
    while pending:
        rest: list[Cell] = []
        progressed = False
        for cell in pending:
            blocked = (
                cell.after is not None
                and cell.after in keys
                and cell.after not in emitted
            )
            if blocked:
                rest.append(cell)
            else:
                ordered.append(cell)
                emitted.add(cell.key)
                progressed = True
        if not progressed:
            cycle = sorted(cell.key for cell in rest)
            raise ValueError(f"cell dependency cycle among {cycle}")
        pending = rest
    return ordered
