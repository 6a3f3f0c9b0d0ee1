"""In-memory span recording around the benchmark's calls into nashrand.

A span is (name, start, end, parent span, op id, count).  Names are
``<layer>.<function>``, where the layer is a nashrand module (``exact``,
``games``, ``solving``, ``families``, ``sampling``, ``serialize``, ``cli``)
or ``op`` for the benchmark's own op and set-up spans.  ``count`` is the
number of library calls the span covers: 1, except for sample batches.

Spans are stored in flat arrays so that a traced run of a few hundred
thousand tiny calls stays small, and are written out only when the run
ends.  ``Untraced`` has the same interface and records nothing; the
end-to-end metrics come from untraced passes only.
"""

from __future__ import annotations

import time
from array import array

SETUP_OP = -1


class Untraced:
    """Calls straight through; used for every timed end-to-end pass."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def open(self, name, op=None):
        return None

    def close(self, token, count=1):
        pass


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.count = array("i")
        self._open_ids: list[int] = []

    def _intern(self, name: str) -> int:
        idx = self._ids.get(name)
        if idx is None:
            idx = self._ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def open(self, name: str, op: int | None = None):
        """Start a span; the spans opened before close() are its children.

        Without ``op`` the span belongs to its parent's op, or to set-up.
        """
        # The span's index is reserved now so children can point at it.
        idx = len(self.start)
        parent = self._open_ids[-1] if self._open_ids else -1
        if op is None:
            op = self.op[parent] if parent >= 0 else SETUP_OP
        self.name_id.append(self._intern(name))
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.parent.append(parent)
        self.op.append(op)
        self.count.append(1)
        self._open_ids.append(idx)
        return idx

    def close(self, idx: int, count: int = 1) -> None:
        self.end[idx] = time.perf_counter()
        self.count[idx] = count
        self._open_ids.pop()

    def call(self, name, fn, *args, **kwargs):
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def summarize(self, pass_weight: float = 1.0):
        """Per-name [calls, busy] and per-layer [busy, self] over all spans.

        Set-up spans count once and pass spans count ``pass_weight`` times,
        so that with ``1 / traced passes`` the figures are per pass.  A
        layer's busy time sums its spans that have no ancestor in the same
        layer; its self time sums each span's duration minus the time its
        direct children cover.
        """
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        layer_of = [name.split(".", 1)[0] for name in self.names]
        child_time = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child_time[self.parent[i]] += dur[i]
        by_name: dict[str, list[float]] = {}
        layers: dict[str, list[float]] = {}
        for i in range(n):
            w = 1.0 if self.op[i] == SETUP_OP else pass_weight
            entry = by_name.setdefault(self.names[self.name_id[i]], [0.0, 0.0])
            entry[0] += w * self.count[i]
            entry[1] += w * dur[i]
            layer = layer_of[self.name_id[i]]
            busy_self = layers.setdefault(layer, [0.0, 0.0])
            busy_self[1] += w * (dur[i] - child_time[i])
            p = self.parent[i]
            while p >= 0 and layer_of[self.name_id[p]] != layer:
                p = self.parent[p]
            if p < 0:
                busy_self[0] += w * dur[i]
        return by_name, layers

    def write_csv(self, path: str, header: str) -> None:
        """One line per span: id, name, start, end, parent, op, count."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# {header}\n")
            fh.write("id,name,start_s,end_s,parent,op,count\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.names[self.name_id[i]]},{self.start[i]:.9f},"
                    f"{self.end[i]:.9f},{self.parent[i]},{self.op[i]},"
                    f"{self.count[i]}\n"
                )
