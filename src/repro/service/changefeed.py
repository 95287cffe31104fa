"""Versioned catalog changefeed: the single spine mutation flows through.

Every catalog-mutation path (``register``, table adds, row appends --
whether in-memory or storage-backed) records a transition event here:

    {"seq", "catalog", "kind", "old_fingerprint", "new_fingerprint",
     "diff", "ts"}

``seq`` is a per-catalog monotonic counter starting at 1 with no gaps;
``old_fingerprint`` of event *n+1* always equals ``new_fingerprint`` of
event *n*, so a consumer can verify it saw every transition.  ``diff``
is a structural summary (tables added/removed/changed) computed by
:func:`snapshot_diff`; ``grow_only`` in the diff means no existing data
a program could have recorded moved -- exactly the condition under
which stored programs rebind silently.

The feed is the *only* propagation mechanism: the registry's snapshot
writer, legacy ``add_listener`` callbacks, worker-pool invalidation,
the revalidation subsystem and webhook notifiers all subscribe to it,
and the HTTP server exposes it as ``GET /catalogs/<name>/changes``
with long-poll and SSE variants (polled on the server's event loop).

Durability: when the registry runs with a SQLite storage tier, each
recorded event is also appended (synchronously, in sequence order) to a
per-catalog ``changefeed.db`` via the ``persister`` hook, and replayed
through :meth:`ChangeFeed.seed` on restart so sequences resume instead
of restarting from 1.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.exceptions import ChangefeedRangeError

__all__ = ["ChangeFeed", "snapshot_diff"]

# Events kept in memory per catalog; older events are dropped from the
# in-memory window (head stays monotonic, `since` below the window tail
# replays from the durable store when one exists, else returns what is
# left).  Mutation feeds are low-rate; this is a backstop, not a cache.
MAX_EVENTS_IN_MEMORY = 4096


def _table_summary(table: Any) -> Dict[str, Any]:
    return {
        "columns": list(table.columns),
        "num_rows": table.num_rows,
        "data_fingerprint": table.data_fingerprint(),
    }


def snapshot_diff(old: Optional[Any], new: Any) -> Dict[str, Any]:
    """Structural diff between two catalog snapshots of the same name.

    Returns ``{"tables_added", "tables_removed", "tables_changed",
    "grow_only"}``.  ``tables_changed`` maps table name to what moved:
    ``{"rows_appended": n}`` when old rows survive as a prefix,
    ``{"columns": [old, new]}`` on schema change, ``{"rows_removed"}`` /
    ``{"rewritten": True}`` when recorded data was lost or replaced.
    ``grow_only`` is True iff nothing a program could have recorded
    moved: only new tables and appended rows.
    """
    old_names = list(old.table_names()) if old is not None else []
    new_names = list(new.table_names())
    old_set = set(old_names)
    new_set = set(new_names)

    added = sorted(new_set - old_set)
    removed = sorted(old_set - new_set)
    changed: Dict[str, Dict[str, Any]] = {}
    grow_only = not removed

    for name in sorted(old_set & new_set):
        old_table = old.table(name)
        new_table = new.table(name)
        if list(old_table.columns) != list(new_table.columns):
            changed[name] = {
                "columns": [list(old_table.columns), list(new_table.columns)],
            }
            grow_only = False
        elif new_table.num_rows < old_table.num_rows:
            changed[name] = {
                "rows_removed": old_table.num_rows - new_table.num_rows,
            }
            grow_only = False
        elif new_table.data_fingerprint(old_table.num_rows) != (
            old_table.data_fingerprint()
        ):
            changed[name] = {"rewritten": True}
            grow_only = False
        elif new_table.num_rows > old_table.num_rows:
            changed[name] = {
                "rows_appended": new_table.num_rows - old_table.num_rows,
            }

    return {
        "tables_added": added,
        "tables_removed": removed,
        "tables_changed": changed,
        "grow_only": grow_only,
    }


class ChangeFeed:
    """Per-catalog monotonic event log.

    Thread-safe.  ``record`` is called by the registry on the mutating
    thread while it holds the per-name catalog lock, which is what makes
    sequences gap-free: two concurrent mutations of one catalog are
    already serialized before they reach the feed.  Listeners run on the
    mutating thread *outside* the feed lock with exceptions swallowed,
    mirroring the registry's legacy listener contract.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._events: Dict[str, List[Dict[str, Any]]] = {}
        self._heads: Dict[str, int] = {}
        self._listeners: List[Callable[[Dict[str, Any], Any], None]] = []
        # Optional durability hook: persister(name, event) is invoked in
        # sequence order while the per-catalog mutation lock is held.
        self.persister: Optional[Callable[[str, Dict[str, Any]], None]] = None

    # -- subscription ---------------------------------------------------
    def add_listener(
        self, callback: Callable[[Dict[str, Any], Any], None]
    ) -> None:
        """Register ``callback(event, catalog)`` for every new event."""
        with self._lock:
            self._listeners.append(callback)

    # -- recording ------------------------------------------------------
    def record(
        self,
        name: str,
        old: Optional[Any],
        new: Any,
        kind: str,
    ) -> Dict[str, Any]:
        """Append a transition event for catalog ``name`` and fan it out."""
        event = {
            "seq": 0,  # assigned under the lock below
            "catalog": name,
            "kind": kind,
            "old_fingerprint": old.fingerprint() if old is not None else None,
            "new_fingerprint": new.fingerprint(),
            "diff": snapshot_diff(old, new),
            "ts": time.time(),
        }
        with self._lock:
            seq = self._heads.get(name, 0) + 1
            event["seq"] = seq
            self._heads[name] = seq
            window = self._events.setdefault(name, [])
            window.append(event)
            if len(window) > MAX_EVENTS_IN_MEMORY:
                del window[: len(window) - MAX_EVENTS_IN_MEMORY]
            persister = self.persister
            listeners = list(self._listeners)
        if persister is not None:
            # In sequence order: record() runs under the registry's
            # per-name mutation lock, so appends cannot interleave.
            try:
                persister(name, event)
            except Exception:
                pass  # durability is best-effort; serving must not stall
        for callback in listeners:
            try:
                callback(event, new)
            except Exception:
                pass
        return event

    def seed(self, name: str, events: List[Dict[str, Any]]) -> None:
        """Replay persisted events for ``name`` (restart resume).

        No-op when the feed already has in-memory events for the
        catalog -- live events always win over a stale replay.
        """
        if not events:
            return
        ordered = sorted(events, key=lambda e: e.get("seq", 0))
        with self._lock:
            if self._heads.get(name, 0) > 0:
                return
            window = ordered[-MAX_EVENTS_IN_MEMORY:]
            self._events[name] = list(window)
            self._heads[name] = ordered[-1].get("seq", len(ordered))

    # -- querying -------------------------------------------------------
    def head(self, name: str) -> int:
        """Latest sequence number for ``name`` (0 = no events yet)."""
        with self._lock:
            return self._heads.get(name, 0)

    def events_since(
        self, name: str, since: int
    ) -> Tuple[int, List[Dict[str, Any]]]:
        """``(head, events with seq > since)``; 416 past the head."""
        with self._lock:
            head = self._heads.get(name, 0)
            if since > head:
                raise ChangefeedRangeError(name, since, head)
            if since == head:
                return head, []
            window = self._events.get(name, [])
            return head, [dict(e) for e in window if e["seq"] > since]

    # -- introspection --------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                name: {"head": head, "buffered": len(self._events.get(name, []))}
                for name, head in sorted(self._heads.items())
            }
