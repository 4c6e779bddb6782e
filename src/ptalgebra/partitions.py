"""Integer partitions and Young diagrams.

Partitions label the irreducible representations of symmetric groups; the
Frobenius characteristic (arm/leg counts along the diagonal) feeds the
closed-form transposition character.
"""

from __future__ import annotations

from functools import cache, total_ordering
from math import factorial
from typing import Iterable

# Labels that each per-label memo holds (``induced.q_matrix``,
# ``induced.z_matrix``, ``algebra.u_terms``): every partition of n - 2 up to
# n = 9 (p(7) = 15), so that one suite builds each of them once.
LABEL_MEMO_SIZE = 16


@total_ordering
class Partition:
    """Weakly decreasing positive parts; the empty partition has weight 0."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int] = ()):
        parts = tuple(int(p) for p in parts)
        if any(p <= 0 for p in parts):
            raise ValueError(f"parts must be positive: {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts must be weakly decreasing: {parts}")
        object.__setattr__(self, "parts", parts)

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def height(self) -> int:
        return len(self.parts)

    def __getitem__(self, i: int) -> int:
        return self.parts[i]

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __hash__(self) -> int:
        return hash(self.parts)

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.parts == other.parts

    def __lt__(self, other: "Partition") -> bool:
        return self.parts < other.parts

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)})"

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts) if self.parts else "()"

    @staticmethod
    def parse(text: str) -> "Partition":
        text = text.strip().lstrip("(").rstrip(")")
        if not text:
            return Partition(())
        return Partition(int(tok) for tok in text.replace(",", " ").split())

    # -- diagram geometry -------------------------------------------------

    def conjugate(self) -> "Partition":
        return Partition(
            sum(1 for p in self.parts if p > j) for j in range(self.parts[0])
        ) if self.parts else Partition(())

    @property
    def rank(self) -> int:
        """Length of the diagonal of the Young diagram."""
        return sum(1 for i, p in enumerate(self.parts) if p > i)

    @property
    def characteristic(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Frobenius coordinates: per diagonal box, (boxes below, boxes right)."""
        conj = self.conjugate()
        legs = tuple(conj[i] - i - 1 for i in range(self.rank))
        arms = tuple(self.parts[i] - i - 1 for i in range(self.rank))
        return legs, arms

    def contains(self, other: "Partition") -> bool:
        if other.height > self.height:
            return False
        return all(self.parts[i] >= q for i, q in enumerate(other.parts))

    def hook_dimension(self) -> int:
        """Number of standard tableaux (hook length formula)."""
        if not self.parts:
            return 1
        conj = self.conjugate()
        num = factorial(self.weight)
        for i, row in enumerate(self.parts):
            for j in range(row):
                num //= row - j + conj[j] - i - 1
        return num


@cache
def partitions_of(m: int) -> tuple[Partition, ...]:
    """All partitions of m in descending lexicographic order; m = 0 gives ()."""
    if m < 0:
        raise ValueError("m must be nonnegative")

    def gen(remaining: int, limit: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, limit), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first, *rest)

    return tuple(Partition(parts) for parts in gen(m, m if m else 1))


def add_box(alpha: Partition) -> list[tuple[Partition, int, bool]]:
    """All ways to grow alpha by one box.

    Returns (nu, row, extends_diagonal) triples, ordered by the 1-based row
    index of the added box; this coincides with descending lexicographic
    order on nu.  The flag marks the box landing on the diagonal.
    """
    out = []
    r = alpha.rank
    for i in range(1, alpha.height + 2):
        row_len = alpha.parts[i - 1] if i <= alpha.height else 0
        above = alpha.parts[i - 2] if i >= 2 else None
        if above is not None and row_len + 1 > above:
            continue
        parts = list(alpha.parts)
        if i <= alpha.height:
            parts[i - 1] += 1
        else:
            parts.append(1)
        nu = Partition(parts)
        out.append((nu, i, nu.rank == r + 1))
    return out
