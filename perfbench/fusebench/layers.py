"""Tracing for the profiled pass: parent-linked spans and per-layer self time.

Spans are recorded from the benchmark's own files, around its calls into
the program; nothing inside ``src/`` is touched.  In the traced pass each
leaf span runs under a deterministic profiler (:mod:`cProfile`) that
belongs to the span's phase, and :func:`layer_self_times` folds the
profile into the program's layers by source module.
"""

from __future__ import annotations

import cProfile
import pstats
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

#: (path prefix below ``repro/``, layer) in match order: the first prefix
#: a function's source file starts with names its layer.
_LAYER_BY_PATH: Tuple[Tuple[str, str], ...] = (
    ("sim/lanes.py", "sim.lanes"),
    ("sim/", "sim.kernel"),
    ("net/routing.py", "net.routing"),
    ("net/topology.py", "net.routing"),
    ("net/mercator.py", "net.routing"),
    ("net/", "net"),
    ("overlay/", "overlay.skipnet"),
    ("fuse/", "fuse"),
)

#: The FUSE piggyback: the hash exchange riding on every SkipNet ping
#: (outgoing payload and incoming evidence check), split out of ``fuse``.
_PIGGYBACK = frozenset(
    {"_payload_for", "_on_ping_evidence", "_shared_ids", "_shared_hash", "_hash_ids"}
)

#: Every key :func:`layer_self_times` returns.
LAYERS = ("sim.kernel", "sim.lanes", "net", "net.routing", "overlay.skipnet",
          "fuse", "fuse.piggyback", "other")

Func = Tuple[str, int, str]


def layer_of(func: Func) -> Optional[str]:
    """The layer a profiled function's own code belongs to, or None for
    code outside the program (stdlib, builtins).  The benchmark's own
    callbacks count as ``other``."""
    path = func[0].replace("\\", "/")
    if "/repro/" not in path:
        return "other" if "/fusebench/" in path else None
    rel = path.rsplit("/repro/", 1)[1]
    for prefix, layer in _LAYER_BY_PATH:
        if rel.startswith(prefix):
            if rel == "fuse/service.py" and func[2] in _PIGGYBACK:
                return "fuse.piggyback"
            return layer
    return "other"


def layer_self_times(stats: Dict[Func, tuple]) -> Dict[str, float]:
    """Self time (s) per layer from ``pstats.Stats(...).stats``.

    Code outside the program — builtins such as ``heappush``, stdlib
    helpers such as ``random.sample`` — is charged to the layers that
    called it, in proportion to the self time each caller incurred it
    for.  What no program layer called stays in ``other``.
    """
    shares: Dict[Func, Dict[str, float]] = {}

    def share_of(func: Func) -> Dict[str, float]:
        cached = shares.get(func)
        if cached is not None:
            return cached
        # A recursive caller cycle resolves its back edge to ``other``.
        shares[func] = {"other": 1.0}
        layer = layer_of(func)
        if layer is not None:
            result = {layer: 1.0}
        else:
            callers = stats[func][4]
            total = sum(entry[2] for entry in callers.values())
            result = {} if total > 0.0 else {"other": 1.0}
            for caller, entry in callers.items():
                if entry[2] <= 0.0:
                    continue
                sub = share_of(caller) if caller in stats else {"other": 1.0}
                for name, part in sub.items():
                    result[name] = result.get(name, 0.0) + entry[2] / total * part
        shares[func] = result
        return result

    totals = {name: 0.0 for name in LAYERS}
    for func, entry in stats.items():
        self_time = entry[2]
        if self_time:
            for name, part in share_of(func).items():
                totals[name] += self_time * part
    return totals


def call_count(stats: Dict[Func, tuple], path_suffix: str, name: str) -> int:
    """Exact number of calls the profile saw to ``name`` defined in a file
    ending with ``path_suffix``."""
    return sum(
        entry[1]
        for func, entry in stats.items()
        if func[2] == name and func[0].replace("\\", "/").endswith(path_suffix)
    )


class Spans:
    """Parent-linked spans kept in memory, optionally profiled by phase.

    ``span(name)`` records ``{id, name, parent, start, end}`` with wall
    times relative to the recorder's creation.  With ``profiled=True`` a
    span given a ``phase`` runs under that phase's :class:`cProfile.Profile`
    (profiles accumulate across spans of one phase; phased spans must not
    nest, since only one profiler can be active).
    """

    def __init__(self, profiled: bool = False) -> None:
        self.rows: List[dict] = []
        self.profiles: Dict[str, cProfile.Profile] = {}
        self._profiled = profiled
        self._stack: List[int] = []
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str, phase: Optional[str] = None, **attrs) -> Iterator[dict]:
        row = {
            "id": len(self.rows),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            **attrs,
        }
        self.rows.append(row)
        self._stack.append(row["id"])
        profile = None
        if self._profiled and phase is not None:
            profile = self.profiles.setdefault(phase, cProfile.Profile())
        row["start"] = time.perf_counter() - self._origin
        try:
            if profile is None:
                yield row
            else:
                profile.enable()
                try:
                    yield row
                finally:
                    profile.disable()
        finally:
            row["end"] = time.perf_counter() - self._origin
            self._stack.pop()

    def seconds(self, name: str) -> float:
        """Total wall seconds of every span called ``name``."""
        return sum(row["end"] - row["start"] for row in self.rows if row["name"] == name)

    def stats(self, phase: str) -> Dict[Func, tuple]:
        """The ``pstats`` table of one phase's profile (empty if unprofiled)."""
        profile = self.profiles.get(phase)
        if profile is None:
            return {}
        return pstats.Stats(profile).stats
