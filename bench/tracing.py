"""In-memory span tracer for the benchmark's traced runs.

A span covers one call the benchmark makes into a public function of a
``wanas`` module.  Spans are kept in a list until the run ends; nothing is
written while the workload runs.  Names are ``<layer>.<function>`` where the
layer is a package module (``poly``, ``algebra``, ``geometry``, ``soliton``,
``catalog``, ``verify``, ``cli``) or ``bench`` for the benchmark's own glue.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Iterator


@dataclass(frozen=True)
class Span:
    name: str
    label: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root
    run: int     # index of the root span: one id per traced operation

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Records nested spans; single-threaded, so children never overlap."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[tuple[int, int]] = []  # (index, run) of open spans

    @contextmanager
    def span(self, name: str, label: str = "") -> Iterator[None]:
        index = len(self.spans)
        parent, run = self._open[-1] if self._open else (-1, index)
        self.spans.append(None)  # placeholder keeps parents before children
        self._open.append((index, run))
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans[index] = Span(name, label, start, end, parent, run)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, covered)]


def root_names(spans: list[Span]) -> dict[int, str]:
    """Run id -> name of the root span that opened it."""
    return {s.run: s.name for s in spans if s.parent < 0}
