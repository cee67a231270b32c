"""Module-boundary spans recorded from the benchmark's side.

`Tracer.patch` replaces a function bound in one of the package's modules
with a wrapper that opens a span around each call, and `Tracer.restore`
puts the originals back.  Every span adds to per-name totals (calls,
wall time, self time).  Coarse spans are also kept as records (id, name,
start, end, parent) and written out when the run ends; spans that fire
once per walk step are only totalled, so that a traced run stays small in
memory.  Self time is a span's duration minus the time its child spans
cover.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

clock = time.perf_counter


class Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    def __init__(self):
        self.records: List[tuple] = []  # (id, name, start, end, parent id)
        self.stats: Dict[str, Stat] = {}
        self.counts: Dict[str, int] = {}
        self._stack: List[list] = []  # [name, start, child time, id]
        self._next_id = 0
        self._patched: List[tuple] = []

    # -- spans ---------------------------------------------------------------

    def enter(self, name: str) -> list:
        self._next_id += 1
        frame = [name, clock(), 0.0, self._next_id]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list, record: bool = True) -> None:
        end = clock()
        self._stack.pop()
        duration = end - frame[1]
        stack = self._stack
        if stack:
            stack[-1][2] += duration
        stat = self.stats.get(frame[0])
        if stat is None:
            stat = self.stats[frame[0]] = Stat()
        stat.calls += 1
        stat.total += duration
        stat.self_time += duration - frame[2]
        if record:
            parent = stack[-1][3] if stack else 0
            self.records.append((frame[3], frame[0], frame[1], end, parent))

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- patching ------------------------------------------------------------

    def patch(
        self,
        module,
        attr: str,
        name,
        record: bool = True,
        on_result: Optional[Callable] = None,
    ) -> None:
        """Wrap `module.attr`; `name` is a string or a function of
        (args, kwargs) giving the span name; `on_result(tracer, args,
        kwargs, result)` records counts taken from the call's result."""
        original = getattr(module, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer.enter(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.exit(frame, record)
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
            return result

        self._patched.append((module, attr, original))
        setattr(module, attr, wrapper)

    def patch_generator(self, module, attr: str, name: str, on_start=None, on_item=None) -> None:
        """Wrap a generator function: each resumption is one unrecorded
        span, so the time the consumer spends between items is not counted.
        `on_start(tracer, args, kwargs)` runs once per call and returns a
        state passed to `on_item(tracer, state, item)` for each item."""
        original = getattr(module, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            state = on_start(tracer, args, kwargs) if on_start else None
            iterator = original(*args, **kwargs)
            while True:
                frame = tracer.enter(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer.exit(frame, record=False)
                if on_item:
                    on_item(tracer, state, item)
                yield item

        self._patched.append((module, attr, original))
        setattr(module, attr, wrapper)

    def count_calls(self, cls, attr: str, name: str) -> None:
        """Count calls of a method without timing them."""
        original = getattr(cls, attr)
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        self._patched.append((cls, attr, original))
        setattr(cls, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- summaries -----------------------------------------------------------

    def total(self, *names: str) -> float:
        return sum(self.stats[n].total for n in names if n in self.stats)

    def self_time(self, *names: str) -> float:
        return sum(self.stats[n].self_time for n in names if n in self.stats)

    def calls(self, *names: str) -> int:
        return sum(self.stats[n].calls for n in names if n in self.stats)

    def layer_self_times(self) -> Dict[str, float]:
        """Self time summed by layer, the part of a span name before '.'."""
        out: Dict[str, float] = {}
        for name, stat in self.stats.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + stat.self_time
        return out

    def to_json(self) -> dict:
        return {
            "fields": ["id", "name", "start_s", "end_s", "parent"],
            "spans": [list(r) for r in self.records],
            "totals": {
                name: {"calls": s.calls, "total_s": s.total, "self_s": s.self_time}
                for name, s in sorted(self.stats.items())
            },
            "counts": dict(sorted(self.counts.items())),
        }
