"""Diagonal blocks of a square matrix, and the symmetric eigensolver that
solves them one block size at a time.

Indices i and j of an N x N matrix M are joined where |m_ij| or |m_ji|
exceeds eps (|m_ii| + |m_jj|): the QR algorithm's deflation test (Golub &
Van Loan 7.5), applied up front. The blocks are the connected components;
of several matrices, the components of the union of their graphs. The test
is homogeneous, so M -> c M gives the same blocks. Every dense solve on the
beam path takes its blocks from the pencil's one partition, of D and A0
together (pencil.QuadraticPencil.partition): the graded T(lam) (its
graded_blocks), D and the whitened damping (eigvalsh below), and, with each
block r taken with r + n (companion), the companion's eigensolve, norm and
trapezoid propagator (linearization, evolution). Modes that a symmetric
damping profile decouples exactly (odd from even, or each from every other
under constant damping) then cost one small solve each. _components is the
one connected-components routine: it also gives the eigenvalue clusters of
linearization.full_spectrum (_cluster_labels below), on the graph of pairs
within tol.

Soundness: the dropped coupling E (the entries between blocks) of a matrix
M whose own test splits it has |E_ij| <= eps (|m_ii| + |m_jj|) <= 2 eps |M|_2,
so its 1- and inf-norms are at most 2N eps |M|_2 and
|E|_2 <= sqrt(|E|_1 |E|_inf) <= 2N eps |M|_2: the order of the backward
error of the whole dgeev, dsyevd or dgetrf that the block solves replace.
On the pencil's partition the same holds for D and A0 each. T(lam) =
lam^2 I + lam D + A0 has no identity term between blocks, so its dropped
coupling is lam E_D + E_A0, of norm at most 2N eps (|lam| |D| + |A0|) <=
2N eps term_scale(lam): the order of the rounding of forming T(lam) itself,
even where T(lam) is much smaller than its terms.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np


class Partition(NamedTuple):
    """The blocks of a square matrix. sizes are the block sizes in the order
    of each block's smallest index. groups holds, per distinct block size,
    the pair (slots, rows) of its blocks: rows[b] are the ascending indices
    of block b, and slots[b] their positions when all indices are laid out
    block by block in that order."""

    sizes: tuple[int, ...]
    groups: tuple[tuple[np.ndarray, np.ndarray], ...]

    def stacks(self, m: np.ndarray):
        """(slots, rows, stack) per block size, stack a new (blocks, size,
        size) array of m restricted to each block."""
        for slots, rows in self.groups:
            yield slots, rows, m[rows[:, :, None], rows[:, None, :]]


def _deflation_graph(m: np.ndarray) -> np.ndarray:
    """Symmetric boolean adjacency joining i and j where |m_ij| or |m_ji|
    exceeds eps (|m_ii| + |m_jj|), tested as |m_ij| - eps |m_jj| > eps |m_ii|
    (eps |m| is exact, the difference one rounding) so that no N x N
    temporary is made beyond |M|."""
    mag = np.abs(m)
    cut = np.finfo(float).eps * np.diagonal(mag)
    np.subtract(mag, cut, out=mag)
    edge = mag > cut[:, None]
    edge |= edge.T
    return edge


def _components(adjacency: np.ndarray) -> np.ndarray:
    """Connected components of a symmetric boolean adjacency matrix, as one
    label per vertex, numbered in the order of each component's smallest
    vertex.

    Min-label propagation with pointer jumping: each vertex takes the
    smallest label among its own and its neighbours', then its label's
    label. Labels only decrease and stay inside the component, so the
    fixed point labels every vertex with its component's smallest vertex.
    A vertex's neighbour of smallest label is its first neighbour with the
    columns in label order, one argmax over booleans per pass.
    """
    size = adjacency.shape[0]
    index = np.arange(size)
    labels = index
    near = np.argmax(adjacency, axis=1)  # the labels are in index order
    while True:
        low = np.where(adjacency[index, near], np.minimum(labels, labels[near]), labels)
        low = low[low]
        if np.array_equal(low, labels):  # number the smallest vertices in order
            return (np.cumsum(labels == index) - 1)[labels]
        labels = low
        order = np.argsort(labels, kind="stable")
        near = order[np.argmax(adjacency[:, order], axis=1)]


# The cell offsets that bound, in (column, row) order, the run of a point's
# own cell and the cell above it, and the run of the next column's three
# cells (_cluster_labels).
_RUN_BOUNDS = np.array([[1.5j], [1.0 - 1.5j], [1.0 + 1.5j]])


def _cluster_labels(values: np.ndarray, tol: float) -> np.ndarray:
    """Single-linkage clustering of real or complex points: the connected
    components of the graph joining every pair within tol, as one label per
    point, the clusters numbered in the order of their smallest index. An
    empty input has no labels.

    Only pairs that can be within tol are tested, by the same
    |w_i - w_j| <= tol as the dense graph, and no N x N array is formed.
    The points are bucketed in square cells of side 2 tol, or 2^-40 times
    the largest |w| where that is larger, so the cell coordinates are
    integers below 2^41, exact in floating point, and a pair within tol lies
    in the same or neighbouring cells, also where rounding stretches the
    quotients of its distance by the side a little beyond 1/2. With the
    cells sorted by (column, row), a point's own cell after it and the cell
    above are one run, and the three cells of the next column another, so
    each point is tested against two runs: the work is O(N log N) plus the
    pairs in neighbouring cells, however the points are placed
    (proportional damping puts every complex eigenvalue on one vertical
    line). _components joins the points that have an edge (found by
    bincount: np.unique imports numpy.ma); the others are clusters of one.
    """
    values = np.ascontiguousarray(values, dtype=complex)
    index = np.arange(values.size)
    side = max(2.0 * tol, math.ldexp(float(np.abs(values).max(initial=0.0)), -40)) or 1.0
    keys = np.floor(values.view(float) / side).view(complex)  # sorts by (column, row)
    order = keys.argsort(kind="stable")
    keys = keys[order]
    bounds = keys.searchsorted(keys + _RUN_BOUNDS)
    starts = np.concatenate([index + 1, bounds[1]])
    count = np.concatenate([bounds[0], bounds[2]]) - starts
    if not count.any():  # no pair in neighbouring cells
        return index
    tested = np.arange(count.sum()) + (starts - count.cumsum() + count).repeat(count)
    first, second = order[np.concatenate([index, index]).repeat(count)], order[tested]
    edge = np.abs(values[first] - values[second]) <= tol
    if not edge.any():
        return index
    first, second = first[edge], second[edge]
    ends = np.flatnonzero(np.bincount(np.concatenate([first, second])))
    adjacency = np.zeros((ends.size, ends.size), dtype=bool)
    i, j = np.searchsorted(ends, first), np.searchsorted(ends, second)
    adjacency[i, j] = adjacency[j, i] = True
    components = _components(adjacency)
    _, smallest = np.unique(components, return_index=True)
    root = index.copy()
    root[ends] = ends[smallest[components]]
    return (np.cumsum(root == index) - 1)[root]


def partition(*matrices: np.ndarray) -> Partition:
    """The blocks that _deflation_graph leaves connected in the given
    matrices of one size, joined where any of them joins."""
    edge = _deflation_graph(matrices[0])
    for m in matrices[1:]:
        edge |= _deflation_graph(m)
    labels = _components(edge)
    sizes = np.bincount(labels)
    members = np.argsort(labels, kind="stable")
    starts = np.cumsum(sizes) - sizes
    groups = []
    for size in np.flatnonzero(np.bincount(sizes)):  # np.unique would import numpy.ma
        slots = starts[sizes == size][:, None] + np.arange(size)
        groups.append((slots, members[slots]))
    return Partition(tuple(sizes.tolist()), tuple(groups))


def companion(part: Partition, n: int) -> Partition:
    """The partition of the 2n x 2n companion [[0, S], [-S, -D]] that part,
    the partition of the n x n pencil, gives: block r becomes r with r + n.
    Its blocks keep their order, so each slot row of part starts at twice
    its start there."""
    return Partition(tuple(2 * size for size in part.sizes), tuple(
        (2 * slots[:, :1] + np.arange(2 * slots.shape[1]), np.hstack([rows, rows + n]))
        for slots, rows in part.groups))


def eigvalsh(m: np.ndarray, part: Partition) -> np.ndarray:
    """np.linalg.eigvalsh of a symmetric matrix from one stacked eigvalsh
    per block size of part, ascending.

    The blocks' eigenvalues are exact for M - E + F, E the dropped coupling
    (the soundness note above bounds it) and F dsyevd's backward error on
    the blocks, so by Weyl every eigenvalue lies within |E|_2 + |F|_2 of M's.
    A matrix with one block is solved whole, so there is no second code path.
    """
    w = np.empty(m.shape[0])
    for slots, _, stack in part.stacks(m):
        w[slots] = np.linalg.eigvalsh(stack)
    return np.sort(w)


class BlockDiagonal(NamedTuple):
    """A block diagonal matrix held as its blocks, in the layout of a
    Partition: per block size the pair (rows, stack), stack[b] the block on
    the ascending indices rows[b], the blocks in the order of their smallest
    index and covering every index. It is exactly zero between blocks. A
    product with it is one stacked product per block size, with no dense
    matrix. A diagonal matrix (one group of 1 x 1 blocks) scales, bitwise
    its dense product, whose other terms are exact zeros, and a matrix of
    one block is that one dense product."""

    groups: tuple[tuple[np.ndarray, np.ndarray], ...]

    def dense(self, out: np.ndarray | None = None) -> np.ndarray:
        """The matrix itself, written into out (zero off the blocks) or a
        new array."""
        if out is None:
            size = sum(rows.size for rows, _ in self.groups)
            out = np.zeros((size, size))
        for rows, stack in self.groups:
            out[rows[:, :, None], rows[:, None, :]] = stack
        return out

    def left(self, m: np.ndarray) -> np.ndarray:
        """self @ m for a matrix m of as many rows."""
        (rows, stack), *more = self.groups
        if not more and rows.shape[1] == 1:
            return stack.reshape(-1, 1) * m
        if not more and len(rows) == 1:
            return stack[0] @ m
        out = np.empty(m.shape, np.promote_types(m.dtype, float))
        for rows, stack in self.groups:
            out[rows] = product(stack, m.take(rows, axis=0))
        return out

    def right(self, m: np.ndarray) -> np.ndarray:
        """m @ self for a matrix m of as many columns."""
        (rows, stack), *more = self.groups
        if not more and rows.shape[1] == 1:
            return m * stack.reshape(-1)
        if not more and len(rows) == 1:
            return m @ stack[0]
        out = np.empty(m.shape, np.promote_types(m.dtype, float))
        for rows, stack in self.groups:
            part = m.take(rows, axis=1).swapaxes(0, 1)  # (blocks, rows of m, size)
            out[:, rows] = product(part, stack).swapaxes(0, 1)
        return out


def product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y for stacks of matrices; where the summed dimension has length 1
    (1 x 1 blocks) that is the scaling x * y, with no matrix product."""
    return x * y if x.shape[-1] == 1 else x @ y
