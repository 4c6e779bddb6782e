"""Unitary irreducible representations of S(m) in Young's orthogonal form.

The basis is indexed by standard tableaux in last-letter order (tableaux
compared by the row of m, then of m-1, ...).  In this order the image of an
adjacent transposition (k, k+1) is the classical real orthogonal matrix
built from inverse axial distances, and the restriction to S(m-1) is block
diagonal.  All other images follow by one rule, ``descent_image``:
image(p) = image(p s_k) image(s_k), s_k = (k k+1) and k the first descent
of p.  ``induced.InducedRep`` reads it from its own images of the s_k.

``image`` takes one Permutation or a batch: an int array ``(k, m)`` of
0-based one-line images, whose ``(k, dim, dim)`` images are read off the
stack of all of S(m), built by the same rule one inversion count at a time
(``permutations.descent_levels``), one batched product per level.  The
stack lives for the call; a Permutation keeps the sparse walk and its cache.
"""

from __future__ import annotations

from functools import cache
from math import sqrt

import numpy as np

from .partitions import Partition
from .permutations import (Permutation, degree, descent_levels, image_array,
                           lehmer_rank)


def standard_tableaux(shape: Partition) -> list[tuple[tuple[int, ...], ...]]:
    """All standard tableaux of the given shape, in last-letter order."""
    if shape.weight == 0:
        return [()]

    rows = shape.height
    out: list[tuple[tuple[int, ...], ...]] = []

    def fill(tab: list[list[int]], value: int):
        if value > shape.weight:
            out.append(tuple(tuple(row) for row in tab))
            return
        for i in range(rows):
            j = len(tab[i])
            if j < shape[i] and (i == 0 or len(tab[i - 1]) > j):
                tab[i].append(value)
                fill(tab, value + 1)
                tab[i].pop()

    fill([[] for _ in range(rows)], 1)
    out.sort(key=lambda tab: tuple(_position(tab, v)[0]
                                   for v in range(shape.weight, 0, -1)))
    return out


def _position(tab, value: int) -> tuple[int, int]:
    for i, row in enumerate(tab):
        for j, v in enumerate(row):
            if v == value:
                return i, j
    raise ValueError(f"{value} not in tableau")


class SymmetricGroupIrrep:
    """The irrep of S(m) labelled by a partition of m, with cached images."""

    def __init__(self, label: Partition):
        self.label = label
        self.m = label.weight
        self.tableaux = standard_tableaux(label)
        self.dim = len(self.tableaux)
        assert self.dim == label.hook_dimension()
        self._adjacent = [self._adjacent_image(k) for k in range(1, self.m)]
        self._images = {tuple(range(1, self.m + 1)): np.eye(self.dim)}
        self._characters: dict[tuple[int, ...], float] = {}

    def _adjacent_image(self, k: int) -> np.ndarray:
        """Image of (k, k+1): diagonal 1/axial distance, off-diagonal sqrt."""
        index = {tab: t for t, tab in enumerate(self.tableaux)}
        mat = np.zeros((self.dim, self.dim))
        for t, tab in enumerate(self.tableaux):
            i1, j1 = _position(tab, k)
            i2, j2 = _position(tab, k + 1)
            dist = (j2 - i2) - (j1 - i1)
            mat[t, t] = 1.0 / dist
            swapped = tuple(
                tuple(k + 1 if v == k else k if v == k + 1 else v for v in row)
                for row in tab
            )
            if swapped in index:
                mat[index[swapped], t] = sqrt(1.0 - 1.0 / dist**2)
        return mat

    def image(self, p: Permutation | np.ndarray) -> np.ndarray:
        """Matrix of p, or the stack of a batch of 0-based images;
        multiplicative for composition (right factor first)."""
        if degree(p) != self.m:
            raise ValueError(f"degree {degree(p)} != weight {self.m}")
        return descent_image(p, self._images, self._adjacent)

    def character(self, p: Permutation) -> float:
        key = p.cycle_type()
        if key not in self._characters:
            self._characters[key] = float(np.trace(self.image(p)))
        return self._characters[key]


def descent_image(p: Permutation | np.ndarray,
                  images: dict[tuple[int, ...], np.ndarray],
                  adjacent: list[np.ndarray]) -> np.ndarray:
    """image(p) = image(p s_k) image(s_k), k the first descent of p.

    ``images`` caches by one-line tuple and holds the identity, and
    ``adjacent[k - 1]`` is the image of s_k = (k k+1).  p s_k swaps the
    entries k, k+1 of p, so the walk down ends at a cached image; only p is
    added.  p s_k precedes p in ``Permutation.all`` order, so a traversal
    in that order takes one product per image.

    A batch ``(k, m)`` of 0-based images builds the stack of every image of
    S(m) from the identity, level by level of ``descent_levels``, with the
    same products, reads it at the ranks of the batch and caches nothing.
    """
    if not isinstance(p, Permutation):
        m = np.shape(p)[-1]
        identity = images[tuple(range(1, m + 1))]
        stack = np.empty((len(image_array(m)),) + identity.shape)
        stack[0] = identity
        moves = np.array(adjacent).reshape((-1,) + identity.shape)
        for rows, parents, descents in descent_levels(m):
            stack[rows] = stack[parents] @ moves[descents]
        return stack[lehmer_rank(p)]
    line, descents = p.images, []
    while (image := images.get(line)) is None:
        k = next(k for k in range(len(line) - 1) if line[k] > line[k + 1])
        line = line[:k] + (line[k + 1], line[k]) + line[k + 2:]
        descents.append(k)
    for k in reversed(descents):
        image = image @ adjacent[k]
    images[p.images] = image
    return image


@cache
def irrep(label: Partition) -> SymmetricGroupIrrep:
    return SymmetricGroupIrrep(label)


def averaging_weights(alpha: Partition) -> np.ndarray:
    """(w/m!) phi_ji(g^{-1}) at ``[i, j, g]``, g over S(m) with m = |alpha| in
    ``Permutation.all`` order: the weights of the averaged matrix operators
    E_ij = sum_g weights[i, j, g] D(g) and of the u terms."""
    phi = irrep(alpha)
    inverses = np.argsort(image_array(alpha.weight), axis=1)
    return (phi.dim / len(inverses)) * phi.image(inverses).transpose(2, 1, 0)


def character(alpha: Partition, p: Permutation) -> float:
    if alpha.weight != p.degree:
        raise ValueError(f"weight {alpha.weight} != degree {p.degree}")
    return irrep(alpha).character(p)


def transposition_character_frobenius(alpha: Partition) -> float:
    """Character value on the class of transpositions, from the Frobenius
    coordinates: (dim / m(m-1)) * sum_i (b_i(b_i+1) - a_i(a_i+1))."""
    m = alpha.weight
    if m < 2:
        raise ValueError("needs weight >= 2")
    legs, arms = alpha.characteristic
    total = sum(b * (b + 1) - a * (a + 1) for a, b in zip(legs, arms))
    return alpha.hook_dimension() * total / (m * (m - 1))


def class_sum_scalar(alpha: Partition, class_rep: Permutation, class_size: int) -> float:
    """The scalar by which a conjugacy-class sum acts in the irrep alpha."""
    return class_size * character(alpha, class_rep) / alpha.hook_dimension()


def multiplicity_in_V(alpha: Partition, d: int) -> int:
    """Multiplicity of alpha inside the permutation action on (C^d)^{tensor m}.

    By Schur-Weyl duality it is the dimension of the GL(d) irrep alpha,
    given exactly by the hook-content formula: the product of d + j - i
    over the boxes (i, j) over the product of their hook lengths, in
    integers.  Zero exactly when d < height(alpha).
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    conj = alpha.conjugate()
    contents = hooks = 1
    for i, row in enumerate(alpha.parts):
        for j in range(row):
            contents *= d + j - i
            hooks *= row - j + conj[j] - i - 1
    return contents // hooks
