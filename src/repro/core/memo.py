"""A bounded memo keyed on the *identity* of an immutable source.

``(id(source), *extra) -> (source, value)``.  The entry's own reference
to the source pins its id against reuse, and sources are immutable
(bags), so a hit is always valid.  Bounded LRU: a long session cannot
leak sources.  Lock-guarded: concurrent queries share it.  A
``compute`` that raises stores nothing.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import Any, Callable

#: Entries per memo.  Each keeps a whole bag alive, so this is a memory
#: bound: a session that keeps rebuilding its database holds only a
#: few dead generations of it.
CAPACITY = 128


class IdentityMemo:
    def __init__(self):
        self._entries: "OrderedDict[tuple, tuple]" = OrderedDict()
        self._fresh_lock()
        # a worker forked while another thread is inside get() would
        # inherit the lock held and never return from its first lookup
        if hasattr(os, "register_at_fork"):
            os.register_at_fork(after_in_child=self._fresh_lock)

    def _fresh_lock(self) -> None:
        self._lock = threading.Lock()

    def get(self, source: Any, extra: tuple,
            compute: Callable[[], Any]) -> Any:
        """The value memoised for ``(source, *extra)``; a miss computes
        and stores it."""
        key = (id(source),) + extra
        with self._lock:
            hit = self._entries.get(key)
            if hit is not None and hit[0] is source:
                self._entries.move_to_end(key)
                return hit[1]
        value = compute()  # outside the lock: may scan a whole bag
        with self._lock:
            self._entries[key] = (source, value)
            self._entries.move_to_end(key)
            if len(self._entries) > CAPACITY:
                self._entries.popitem(last=False)
        return value

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
