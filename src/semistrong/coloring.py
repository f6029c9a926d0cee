"""Total edge colorings over a 1-based palette."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Coloring:
    """colors[i] is the color of edge i; every color lies in [1, k]."""

    colors: tuple[int, ...]
    k: int

    def __post_init__(self):
        if self.colors and not (1 <= min(self.colors) and max(self.colors) <= self.k):
            i = next(i for i, c in enumerate(self.colors) if not 1 <= c <= self.k)  # the first out of range
            raise ValueError(f"edge {i} has color {self.colors[i]} outside [1,{self.k}]")

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
