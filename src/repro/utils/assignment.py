"""Linear sum assignment (minimum-cost bipartite matching).

Partition alignment and clustering accuracy (Eq. 36) both match the clusters
of two labellings by maximum overlap, i.e. a minimum-cost assignment on the
negated contingency table.  This is a port of the shortest augmenting path
algorithm of Crouse, "On implementing 2D rectangular assignment algorithms"
(IEEE Trans. Aerospace and Electronic Systems, 2016), in the form SciPy's
``scipy.optimize.linear_sum_assignment`` implements it.

Integer contingency tables are full of ties, and the tie-break decides which
clusters get which labels, so the port follows that implementation step for
step: the same scan order over the remaining columns, the same preference
for an unassigned column among equally cheap ones, the same swap-remove, the
same dual updates and the same floating-point operations in the same order.
The result is identical to SciPy's, ties included.

The tables here have at most a few tens of rows and columns, where a plain
Python loop over the remaining columns is several times faster than
vectorising each step with numpy.
"""

from __future__ import annotations

import numpy as np

__all__ = ["linear_sum_assignment"]


def linear_sum_assignment(cost) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-cost assignment of rows to columns.

    Parameters
    ----------
    cost : array-like of shape (n_rows, n_cols)
        Cost of assigning each row to each column.  ``+inf`` forbids an
        assignment.

    Returns
    -------
    row_ind, col_ind : ndarray of int
        ``min(n_rows, n_cols)`` matched pairs, ``row_ind`` sorted ascending;
        ``cost[row_ind, col_ind].sum()`` is minimal.

    Raises
    ------
    ValueError
        If ``cost`` is not 2-D, contains NaN or ``-inf``, or admits no
        complete assignment.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ValueError(f"expected a matrix (2-D array), got shape {cost.shape}")
    if np.isnan(cost).any() or np.isneginf(cost).any():
        raise ValueError("matrix contains invalid numeric entries")
    # The algorithm assigns every row, so it needs at least as many columns.
    transpose = cost.shape[1] < cost.shape[0]
    if transpose:
        cost = cost.T
    n_rows, n_cols = cost.shape
    rows = cost.tolist()

    inf = float("inf")
    u = [0.0] * n_rows
    v = [0.0] * n_cols
    path = [-1] * n_cols
    col4row = [-1] * n_rows
    row4col = [-1] * n_cols
    for cur_row in range(n_rows):
        # Shortest augmenting path from cur_row to an unassigned column.
        shortest = [inf] * n_cols
        scanned_rows = [False] * n_rows
        scanned_cols = [False] * n_cols
        # Reverse order, so that a constant cost matrix yields the identity.
        remaining = list(range(n_cols - 1, -1, -1))
        min_val = 0.0
        i = cur_row
        sink = -1
        while sink == -1:
            scanned_rows[i] = True
            row = rows[i]
            u_i = u[i]
            index = -1
            lowest = inf
            for position, j in enumerate(remaining):
                reduced = min_val + row[j] - u_i - v[j]
                if reduced < shortest[j]:
                    path[j] = i
                    shortest[j] = reduced
                candidate = shortest[j]
                # Among equally cheap columns, a later unassigned one wins:
                # it ends the path.
                if candidate < lowest or (candidate == lowest and row4col[j] == -1):
                    lowest = candidate
                    index = position
            if lowest == inf:
                raise ValueError("cost matrix is infeasible")
            min_val = lowest
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            scanned_cols[j] = True
            remaining[index] = remaining[-1]
            remaining.pop()

        # Dual update.
        u[cur_row] += min_val
        for r in range(n_rows):
            if scanned_rows[r] and r != cur_row:
                u[r] += min_val - shortest[col4row[r]]
        for c in range(n_cols):
            if scanned_cols[c]:
                v[c] -= min_val - shortest[c]

        # Augment along the path back to cur_row.
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break

    assigned = np.array(col4row, dtype=np.intp)
    if transpose:
        order = np.argsort(assigned)
        return assigned[order], order
    return np.arange(n_rows), assigned
