"""Total edge colorings over a 1-based palette."""

from __future__ import annotations

from .graph import _Frozen


class Coloring(_Frozen):
    """colors[i] is the color of edge i; every color lies in [1, k].
    Immutable; colors is stored as a tuple, so a Coloring is hashable."""

    __slots__ = ("colors", "k")
    colors: tuple[int, ...]
    k: int

    def __init__(self, colors, k: int):
        colors = tuple(colors)  # no copy when colors is a tuple already
        if colors and not (1 <= min(colors) and max(colors) <= k):
            i = next(i for i, c in enumerate(colors) if not 1 <= c <= k)  # the first out of range
            raise ValueError(f"edge {i} has color {colors[i]} outside [1,{k}]")
        self._set(colors, k)

    def __len__(self) -> int:
        return len(self.colors)

    def distinct_colors(self) -> int:
        return len(set(self.colors))

    def classes(self) -> dict[int, list[int]]:
        """color -> sorted edge indices (only colors actually used)."""
        out: dict[int, list[int]] = {}
        for i, c in enumerate(self.colors):
            out.setdefault(c, []).append(i)
        return out


def from_list(colors, k: int | None = None) -> Coloring:
    cols = tuple(colors)
    if k is None:
        k = max(cols, default=0)
    return Coloring(colors=cols, k=k)
