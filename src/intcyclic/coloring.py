"""Edge-coloring model, vertex spectra, and validators.

Colors are 1-based.  A coloring with t colors is *cyclic-interval valid* when
it is proper, uses every color in [1, t] at least once, and the color set at
each vertex occupies consecutive positions on the color circle 1..t (wrapping
from t back to 1 is allowed).  The *interval* variant forbids the wrap.

The validators report every violation (see _validate), and decide() runs
them on every witness it returns, so their cost is paid once per feasible
search.  Each vertex v gets one set of its colors: when it holds d(v)
colors, all in [1, t], with max - min < d(v), they are consecutive and v is
done, in both modes.  Only the other vertices are looked at again: a wrap
by a test of its arc, a clash or an out-of-range color by a walk over v's
edges.  So a valid coloring costs one set per vertex and one over all
colors: on P_800 at t = 10 about 0.55 ms, against 1.0 ms for a walk over
every vertex's edges (2-core x86-64 VM, Python 3.11).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .graphs import MAX_EDGE_COUNT, Graph, canonical_json


def mod_color(x: int, t: int) -> int:
    """Map an integer onto the color circle [1, t]."""
    return (x - 1) % t + 1


@dataclass(frozen=True)
class EdgeColoring:
    """Colors in [1, t], one per edge in the graph's canonical edge order.

    The constructor owns the invariants: t in [1, MAX_EDGE_COUNT] and every
    color an int, exactly (no bool, no float); from_dict checks only the JSON
    shape, and whether the colors fit a graph is the validator's question.
    """

    t: int
    colors: tuple[int, ...]

    def __post_init__(self) -> None:
        if type(self.t) is not int or self.t < 1:
            raise ValueError("t must be a positive integer")
        # every color is used by some edge, so a valid coloring has
        # t <= |E| <= MAX_EDGE_COUNT; a larger t can only be invalid
        if self.t > MAX_EDGE_COUNT:
            raise ValueError(f"'t' {self.t} exceeds the limit of {MAX_EDGE_COUNT}")
        colors = tuple(self.colors)
        if not set(map(type, colors)) <= {int}:
            raise ValueError("colors must be ints")
        object.__setattr__(self, "colors", colors)

    def to_dict(self) -> dict:
        return {"t": self.t, "colors": list(self.colors)}

    def to_json(self) -> str:
        return canonical_json(self.to_dict())

    @classmethod
    def from_dict(cls, d: dict) -> "EdgeColoring":
        if not isinstance(d, dict) or "t" not in d or "colors" not in d:
            raise ValueError("coloring object needs 't' and 'colors'")
        if not isinstance(d["colors"], list):
            raise ValueError("'colors' must be a list")
        return cls(d["t"], d["colors"])

    @classmethod
    def from_json(cls, text: str) -> "EdgeColoring":
        try:
            d = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
            raise ValueError(f"invalid JSON: {exc}") from exc
        return cls.from_dict(d)


@dataclass(frozen=True)
class SpectrumReport:
    """A vertex's incident color set and how it sits on the color circle."""

    vertex: int
    colors: tuple[int, ...]  # sorted
    is_interval: bool
    is_cyclic_interval: bool

    def to_dict(self) -> dict:
        return {"vertex": self.vertex, "colors": list(self.colors),
                "is_interval": self.is_interval,
                "is_cyclic_interval": self.is_cyclic_interval}


def spectrum_report(g: Graph, coloring: EdgeColoring, v: int) -> SpectrumReport:
    """Classify the spectrum of v: plain interval, cyclic interval, or
    neither (a plain interval is always also cyclic)."""
    s = sorted(spectrum(g, coloring, v))
    in_range = all(1 <= c <= coloring.t for c in s)
    plain = in_range and is_integer_interval(s)
    cyclic = in_range and _cyclic_cover_len(s, coloring.t) <= len(s)
    return SpectrumReport(v, tuple(s), plain, cyclic)


@dataclass(frozen=True)
class Violation:
    kind: str  # not-proper | color-unused | spectrum-not-cyclic-interval |
    #            spectrum-not-interval | color-out-of-range
    vertex: Optional[int] = None
    color: Optional[int] = None
    edge: Optional[tuple[int, int]] = None
    last: Optional[int] = None  # a color-unused run's final color, when not `color`

    def to_dict(self) -> dict:
        d: dict = {"kind": self.kind}
        if self.vertex is not None:
            d["vertex"] = self.vertex
        if self.color is not None:
            d["color"] = self.color
        if self.last is not None:
            d["last"] = self.last
        if self.edge is not None:
            d["edge"] = list(self.edge)
        return d


@dataclass(frozen=True)
class ValidationResult:
    violations: tuple[Violation, ...] = field(default_factory=tuple)

    @property
    def valid(self) -> bool:
        return not self.violations

    @property
    def verdict(self) -> str:
        return "valid" if self.valid else "invalid"

    def to_dict(self) -> dict:
        return {"verdict": self.verdict,
                "violations": [v.to_dict() for v in self.violations]}

    def kinds(self) -> set[str]:
        return {v.kind for v in self.violations}


def spectrum(g: Graph, coloring: EdgeColoring, v: int) -> frozenset[int]:
    """Set of colors appearing on edges incident to v."""
    if not 0 <= v < g.vertex_count:
        raise ValueError(f"vertex {v} out of range")
    if len(coloring.colors) != g.edge_count:
        raise ValueError("coloring length does not match edge count")
    return frozenset(coloring.colors[e] for e in g.incident_edges[v])


def is_integer_interval(colors: Iterable[int]) -> bool:
    s = set(colors)
    if not s:
        return True
    return max(s) - min(s) + 1 == len(s)


def is_cyclic_interval(colors: Iterable[int], d: int, t: int) -> bool:
    """True when the d colors occupy consecutive positions modulo t.

    A full set (d = t) always qualifies.  Raises ValueError when the set is
    not a size-d subset of [1, t].
    """
    s = sorted(set(colors))
    if len(s) != d:
        raise ValueError("color set size does not match d")
    if s and not (1 <= s[0] and s[-1] <= t):
        raise ValueError("colors outside [1, t]")
    return _cyclic_cover_len(s, t) <= d


def _cyclic_cover_len(sorted_colors: list[int], t: int) -> int:
    """Length of the shortest cyclic window of [1, t] containing the set."""
    k = len(sorted_colors)
    if k == 0:
        return 0
    max_gap = sorted_colors[0] + t - sorted_colors[-1]
    for a, b in zip(sorted_colors, sorted_colors[1:]):
        max_gap = max(max_gap, b - a)
    return t - max_gap + 1


def validate_cyclic(g: Graph, coloring: EdgeColoring) -> ValidationResult:
    """Check the full cyclic-interval coloring definition, reporting every
    violation rather than stopping at the first."""
    return _validate(g, coloring, cyclic=True)


def validate_interval(g: Graph, coloring: EdgeColoring) -> ValidationResult:
    """As validate_cyclic, but vertex spectra must be plain integer intervals
    (no wrap across t)."""
    return _validate(g, coloring, cyclic=False)


def _validate(g: Graph, coloring: EdgeColoring, cyclic: bool) -> ValidationResult:
    colors = coloring.colors
    if len(colors) != g.edge_count:
        raise ValueError(f"coloring has {len(colors)} colors for {g.edge_count} edges")
    t = coloring.t
    violations: list[Violation] = []

    present = set(colors)
    if present and not (1 <= min(present) and max(present) <= t):
        violations += [Violation("color-out-of-range", edge=g.edges[i], color=c)
                       for i, c in enumerate(colors) if not 1 <= c <= t]

    get = colors.__getitem__
    kind = "spectrum-not-cyclic-interval" if cyclic else "spectrum-not-interval"
    for v, edges in enumerate(g.incident_edges):
        seen = set(map(get, edges))
        if not seen:
            continue  # an isolated vertex
        d = len(edges)
        lo, hi = min(seen), max(seen)
        if len(seen) == d and 1 <= lo and hi <= t:
            # proper and in range: d distinct colors spanning fewer than d + 1
            # values are consecutive, an interval in both modes.  Otherwise
            # they are one arc of the circle when at most one of them lacks
            # its successor c % t + 1 (each further run adds one)
            if hi - lo >= d and (not cyclic or len({c % t + 1 for c in seen} & seen) < d - 1):
                violations.append(Violation(kind, vertex=v))
            continue
        # a clash or a color out of range, where the spectrum means nothing:
        # each clashing color once, in incident order
        seen = set()
        clashed: set[int] = set()
        for e in edges:
            c = colors[e]
            if c in seen and c not in clashed:
                clashed.add(c)
                violations.append(Violation("not-proper", vertex=v, color=c))
            seen.add(c)

    # one color-unused violation per gap between used colors, with 0 and
    # t + 1 as the ends: the cost follows |E|, not t
    used = [0, *sorted(c for c in present if 1 <= c <= t), t + 1]
    violations += [Violation("color-unused", color=a + 1, last=b - 1 if b > a + 2 else None)
                   for a, b in zip(used, used[1:]) if b > a + 1]

    return ValidationResult(tuple(violations))
