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


def _cluster_labels(values: np.ndarray, tol: float) -> np.ndarray:
    """Single-linkage clustering of real or complex points: the connected
    components of the dense graph joining every pair within tol, as one
    label per point, the clusters numbered in the order of their smallest
    index. An empty input has no labels."""
    if values.size == 0:
        return np.empty(0, dtype=int)
    return _components(np.abs(values[:, None] - values) <= tol)


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


def eigh(m: np.ndarray, part: Partition) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eigh of a symmetric matrix from one stacked eigh per block
    size of part: eigenvalues ascending, each eigenvector zero off its block.

    The blocks' eigenpairs are exact for M - E + F, E the dropped coupling
    (the soundness note above bounds it) and F dsyevd's backward error on
    the blocks, so by Weyl every eigenvalue lies within |E|_2 + |F|_2 of M's.
    A matrix with one block is solved whole, so there is no second code path.
    """
    w, v = np.empty(m.shape[0]), np.zeros(m.shape)
    for slots, rows, stack in part.stacks(m):
        w[slots], v[rows[:, :, None], slots[:, None, :]] = np.linalg.eigh(stack)
    order = np.argsort(w, kind="stable")
    return w[order], v[:, order]


def eigvalsh(m: np.ndarray, part: Partition) -> np.ndarray:
    """np.linalg.eigvalsh of a symmetric matrix from one stacked eigvalsh
    per block size of part, ascending; the bound of eigh holds."""
    w = np.empty(m.shape[0])
    for slots, _, stack in part.stacks(m):
        w[slots] = np.linalg.eigvalsh(stack)
    return np.sort(w)
