"""Unitary irreducible representations of S(m) in Young's orthogonal form.

The basis is indexed by standard tableaux in last-letter order (tableaux
compared by the row of m, then of m-1, ...).  In this order the image of an
adjacent transposition (k, k+1) is the classical real orthogonal matrix
built from inverse axial distances, and the restriction to S(m-1) is block
diagonal.  All other images follow by one rule, ``descent_image``:
image(p) = image(p s_k) image(s_k), s_k = (k k+1) and k the first descent
of p.  ``induced.InducedRep`` reads it from its own images of the s_k.

``image`` takes one Permutation, whose image is its first-descent chain
multiplied up from the identity, or a batch: an int array ``(k, m)`` of
0-based one-line images, whose ``(k, dim, dim)`` images are read off the
stack of all of S(m), built by the same rule one inversion count at a time
(``permutations.descent_levels``), one batched product per level.  Nothing
is cached: the stack lives for the call.
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
    """The irrep of S(m) labelled by a partition of m, on its adjacent images."""

    def __init__(self, label: Partition):
        self.label = label
        self.m = label.weight
        self.tableaux = standard_tableaux(label)
        self.dim = len(self.tableaux)
        assert self.dim == label.hook_dimension()
        self._adjacent = [self._adjacent_image(k) for k in range(1, self.m)]

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
        if (m := degree(p)) != self.m:
            raise ValueError(f"degree {m} != weight {self.m}")
        return descent_image(p, self._adjacent, self.dim)


def descent_image(p: Permutation | np.ndarray, adjacent: list[np.ndarray],
                  dim: int) -> np.ndarray:
    """image(p) = image(p s_k) image(s_k), k the first descent of p.

    ``adjacent[k - 1]`` is the ``(dim, dim)`` image of s_k = (k k+1).  p s_k
    swaps the entries k, k+1 of p and has one inversion less, so a
    Permutation walks its chain down to the identity and multiplies back up
    from it: one product per inversion of p.  The entries before the first
    descent are sorted, so the chain is the swaps of an insertion sort.

    A batch ``(k, m)`` of 0-based images builds the stack of every image of
    S(m) from the identity, level by level of ``descent_levels``, with the
    same products, so each row is bitwise the image of its Permutation, and
    reads it at the ranks of the batch.
    """
    image = np.eye(dim)
    if not isinstance(p, Permutation):
        m = np.shape(p)[-1]
        stack = np.empty((len(image_array(m)), dim, dim))
        stack[0] = image
        moves = np.array(adjacent).reshape(-1, dim, dim)
        for rows, parents, descents in descent_levels(m):
            stack[rows] = stack[parents] @ moves[descents]
        return stack[lehmer_rank(p)]
    line, descents = list(p.images), []
    for j in range(1, len(line)):
        for k in range(j - 1, -1, -1):
            if line[k] < line[k + 1]:
                break
            line[k], line[k + 1] = line[k + 1], line[k]
            descents.append(k)
    for k in reversed(descents):
        image = image @ adjacent[k]
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


def transposition_character_frobenius(alpha: Partition) -> float:
    """Character value on the class of transpositions, from the Frobenius
    coordinates: (dim / m(m-1)) * sum_i (b_i(b_i+1) - a_i(a_i+1))."""
    m = alpha.weight
    if m < 2:
        raise ValueError("needs weight >= 2")
    legs, arms = alpha.characteristic
    total = sum(b * (b + 1) - a * (a + 1) for a, b in zip(legs, arms))
    return alpha.hook_dimension() * total / (m * (m - 1))


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
