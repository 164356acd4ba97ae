"""Bounded-manifold ket identities: the objects a pairing glues.

A dimension-1 ket over labeled boundary points is a perfect matching (its
arcs) plus free circles; a dimension-2 ket over labeled boundary circles is a
list of orientable components (genus, attached circle labels) plus closed
components that ride along.  Both are canonical on construction, so equal
kets compare and hash equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..errors import StructureError


def _check_count(x, what: str) -> None:
    """Reject anything but a nonnegative ``int`` (``bool`` included)."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise StructureError(f"{what} must be an integer, got {x!r}")
    if x < 0:
        raise StructureError(f"{what} must be nonnegative")


@dataclass(frozen=True)
class Bounded1Ket:
    """Perfect matching of labeled boundary points plus free circles."""

    matching: Tuple[Tuple[int, int], ...]
    free_circles: int = 0

    def __post_init__(self):
        for p in self.matching:
            if not isinstance(p, (list, tuple)) or len(p) != 2:
                raise StructureError(f"arc {p!r} must join two points")
        norm = tuple(sorted(tuple(sorted(p)) for p in self.matching))
        object.__setattr__(self, "matching", norm)
        labels = [x for p in self.matching for x in p]
        if len(set(labels)) != len(labels):
            raise StructureError("matching covers a label twice")
        _check_count(self.free_circles, "free circle count")

    @property
    def labels(self) -> frozenset:
        return frozenset(x for p in self.matching for x in p)

    def __str__(self):
        arcs = " ".join(f"{a}-{b}" for a, b in self.matching)
        return f"match[{arcs}]+{self.free_circles}o"


@dataclass(frozen=True)
class BoundedSurfaceKet:
    """Orientable surface pieces attached to labeled boundary circles.

    Each component is (genus, frozenset of circle labels); closed components
    without boundary ride along as a genus multiset.
    """

    components: Tuple[Tuple[int, frozenset], ...]
    closed_genera: Tuple[int, ...] = ()

    def __post_init__(self):
        for c in self.components:
            if not (isinstance(c, (list, tuple)) and len(c) == 2
                    and isinstance(c[1], (list, tuple, set, frozenset))):
                raise StructureError(f"component {c!r} must be a genus and a list of circle labels")
            if len(set(c[1])) != len(c[1]):
                raise StructureError(f"component {c!r} lists a boundary circle twice")
        comps = tuple(sorted(((g, frozenset(ls)) for g, ls in self.components),
                             key=lambda c: (c[0], tuple(sorted(c[1])))))
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "closed_genera", tuple(sorted(self.closed_genera)))
        seen = set()
        for g, ls in self.components:
            _check_count(g, "genus")
            if not ls:
                raise StructureError("bounded component without boundary labels")
            if seen & ls:
                raise StructureError("a boundary circle label appears twice")
            seen |= ls
        for g in self.closed_genera:
            _check_count(g, "genus")

    @property
    def labels(self) -> frozenset:
        out = set()
        for _, ls in self.components:
            out |= ls
        return frozenset(out)

    def __str__(self):
        parts = [f"g{g}({','.join(sorted(map(str, ls)))})" for g, ls in self.components]
        if self.closed_genera:
            parts.append("closed" + str(list(self.closed_genera)))
        return "surf[" + " ".join(parts) + "]"


def disk_with_handles(n: int, label: str = "c0") -> BoundedSurfaceKet:
    """Genus-n surface with a single boundary circle."""
    return BoundedSurfaceKet(((n, frozenset([label])),))
