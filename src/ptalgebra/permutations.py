"""Permutations of {1..m} in one-line notation.

Composition is function composition: ``(p * q)(x) = p(q(x))``, the right
factor acting first.  Every permutation carries the classification
``(a, b)`` with ``p(a) = m`` and ``b = p(m)``; ``a = m`` exactly when ``p``
fixes the last point, in which case ``p`` lies in the natural copy of
S(m-1) inside S(m).

For whole-group work the same permutations are also held as integer
arrays of 0-based one-line images, ``images[..., i]`` being the image of
point ``i``: ``image_array(m)`` stacks all of S(m) in ``Permutation.all``
order and ``lehmer_rank`` maps any stack back to positions in that order.
``descent_levels`` orders them by inversion count, each with the position
of its parent under the first-descent rule of ``yor.descent_image``.
"""

from __future__ import annotations

import itertools
import re
from functools import cache, total_ordering
from math import factorial
from typing import Iterable, Iterator, Sequence

import numpy as np


@total_ordering
class Permutation:
    """Immutable permutation of {1..m}; ``images[i-1]`` is the image of i."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        images = tuple(images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a bijection of {{1..{len(images)}}}: {images}")
        object.__setattr__(self, "images", images)

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __hash__(self) -> int:
        return hash(self.images)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __lt__(self, other: "Permutation") -> bool:
        return (self.degree, self.images) < (other.degree, other.images)

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)})"

    def __str__(self) -> str:
        return self.cycle_string()

    # -- construction -------------------------------------------------

    @staticmethod
    def identity(m: int) -> "Permutation":
        return Permutation(range(1, m + 1))

    @staticmethod
    def transposition(m: int, x: int, y: int) -> "Permutation":
        """The transposition (x y) in S(m); (x x) denotes the identity."""
        if not (1 <= x <= m and 1 <= y <= m):
            raise ValueError(f"points {x},{y} outside {{1..{m}}}")
        images = list(range(1, m + 1))
        images[x - 1], images[y - 1] = y, x
        return Permutation(images)

    @staticmethod
    def from_cycles(m: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        images = list(range(1, m + 1))
        for cycle in cycles:
            for i, point in enumerate(cycle):
                if not 1 <= point <= m:
                    raise ValueError(f"point {point} outside {{1..{m}}}")
                images[point - 1] = cycle[(i + 1) % len(cycle)]
        return Permutation(images)

    @staticmethod
    def parse(text: str, m: int | None = None) -> "Permutation":
        """Parse one-line form ``"2,3,1"`` or cycle form ``"(1 3 2)"``."""
        text = text.strip()
        if text.startswith("("):
            cycles = []
            for chunk in re.sub(r"\)\s*\(", ")|(", text).split("|"):
                body = chunk.strip().lstrip("(").rstrip(")").replace(",", " ")
                if body and " " not in body:
                    # compact form like (132): one digit per point
                    points = [int(ch) for ch in body]
                else:
                    points = [int(tok) for tok in body.split()]
                if points:
                    cycles.append(points)
            top = max((p for c in cycles for p in c), default=1)
            return Permutation.from_cycles(m if m is not None else top, cycles)
        images = [int(tok) for tok in text.replace(",", " ").split()]
        return Permutation(images)

    @staticmethod
    def all(m: int) -> Iterator["Permutation"]:
        """All m! permutations of degree m, in lexicographic image order."""
        for images in itertools.permutations(range(1, m + 1)):
            yield Permutation(images)

    # -- group operations ----------------------------------------------

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Function composition self∘other (other acts first)."""
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} != {other.degree}")
        return Permutation(tuple(self.images[j - 1] for j in other.images))

    def inverse(self) -> "Permutation":
        images = [0] * self.degree
        for i, j in enumerate(self.images, start=1):
            images[j - 1] = i
        return Permutation(images)

    def is_identity(self) -> bool:
        return all(j == i for i, j in enumerate(self.images, start=1))

    # -- structure -----------------------------------------------------

    def cycles(self, keep_fixed: bool = False) -> list[tuple[int, ...]]:
        seen = [False] * self.degree
        out = []
        for start in range(1, self.degree + 1):
            if seen[start - 1]:
                continue
            cycle = []
            point = start
            while not seen[point - 1]:
                seen[point - 1] = True
                cycle.append(point)
                point = self(point)
            if len(cycle) > 1 or keep_fixed:
                out.append(tuple(cycle))
        return out

    def cycle_count(self) -> int:
        """Number of cycles including fixed points."""
        return len(self.cycles(keep_fixed=True))

    def cycle_type(self) -> tuple[int, ...]:
        return tuple(sorted((len(c) for c in self.cycles(keep_fixed=True)), reverse=True))

    def sign(self) -> int:
        return -1 if (self.degree - self.cycle_count()) % 2 else 1

    def cycle_string(self) -> str:
        cycles = self.cycles()
        if not cycles:
            return "()"
        sep = "" if self.degree < 10 else " "
        return "".join("(" + sep.join(str(p) for p in c) + ")" for c in cycles)

    def one_line_string(self) -> str:
        return ",".join(str(j) for j in self.images)

    # -- classification and embeddings ----------------------------------

    def classify(self) -> tuple[int, int]:
        """The labels (a, b) with self(a) = m and b = self(m)."""
        m = self.degree
        return self.inverse()(m), self(m)

    def fixes_last(self) -> bool:
        return self(self.degree) == self.degree

    def embed(self, m: int) -> "Permutation":
        """The same permutation viewed in S(m), fixing the new points."""
        if m < self.degree:
            raise ValueError("cannot embed into a smaller degree")
        return Permutation(self.images + tuple(range(self.degree + 1, m + 1)))

    def restrict(self, m: int) -> "Permutation":
        """Restriction to S(m); requires all points above m to be fixed."""
        if any(self(i) != i for i in range(m + 1, self.degree + 1)):
            raise ValueError(f"{self!r} moves a point above {m}")
        return Permutation(self.images[:m])


def compose(p: Permutation, q: Permutation) -> Permutation:
    """p∘q with the right factor applied first."""
    return p * q


@cache
def image_array(m: int) -> np.ndarray:
    """Read-only ``(m!, m)`` array of 0-based images in ``Permutation.all`` order."""
    out = np.array(list(itertools.permutations(range(m))), dtype=np.intp)
    out = out.reshape(factorial(m), m)
    out.flags.writeable = False
    return out


def lehmer_rank(images: np.ndarray) -> np.ndarray:
    """Positions in ``Permutation.all`` order of a stack ``(..., m)`` of
    0-based images, from their Lehmer codes (lexicographic rank)."""
    images = np.asarray(images)
    m = images.shape[-1]
    # Lehmer digit i counts the later points j > i with a smaller image.
    i, j = np.triu_indices(m, 1)
    weights = np.array([factorial(m - 1 - k) for k in i], dtype=np.intp)
    return (images[..., i] > images[..., j]) @ weights


@cache
def descent_levels(m: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """S(m) by inversion count, one read-only ``(rows, parents, descents)``
    per level above the identity: the positions p of the level in
    ``Permutation.all`` order, the positions of p s_k, and k - 1, with
    s_k = (k k+1) and k the first descent of p.  p s_k has one inversion
    less, so each level reads only the levels below it."""
    if m < 2:
        return ()
    images = image_array(m)
    first = np.argmax(images[:, :-1] > images[:, 1:], axis=1)
    swap = (np.arange(len(images))[:, None], first[:, None] + [0, 1])
    parents = images.copy()
    parents[swap] = images[swap][:, ::-1]
    i, j = np.triu_indices(m, 1)
    inversions = (images[:, i] > images[:, j]).sum(axis=1)
    levels = []
    for level in range(1, inversions.max() + 1):
        rows = np.flatnonzero(inversions == level)
        arrays = (rows, lehmer_rank(parents[rows]), first[rows])
        for array in arrays:
            array.flags.writeable = False
        levels.append(arrays)
    return tuple(levels)


def degree(p: Permutation | np.ndarray) -> int:
    """The degree of a Permutation, or of a batch ``(k, m)`` of 0-based images.

    Every image method reads its input through here, so this is where a batch
    is checked: a 2-D integer array whose rows are permutations of 0..m-1.
    Anything else raises a ValueError that names the first bad row."""
    if isinstance(p, Permutation):
        return p.degree
    batch = np.asarray(p)
    if batch.ndim != 2 or not np.issubdtype(batch.dtype, np.integer):
        raise ValueError(f"a batch is a 2-D integer array of 0-based images, "
                         f"not {batch.dtype} of shape {batch.shape}")
    m = batch.shape[1]
    bad = np.flatnonzero((np.sort(batch, axis=1) != np.arange(m)).any(axis=1))
    if len(bad):
        raise ValueError(f"row {bad[0]} of the batch, {batch[bad[0]].tolist()}, "
                         f"is not a permutation of 0..{m - 1}")
    return m
