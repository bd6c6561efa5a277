"""Sparse exact linear algebra over a coefficient field.

A matrix is a list of rows, and a row is a dict {column: value} that
holds only the nonzero entries.  The monoid-surface systems are built
this way straight from normal forms, on the template columns that
division touches: on the extremal curve of degree 20 and genus 80 that
is 165 x 166 with 330 nonzeros, out of a template of 1762 columns, so a
dense grid would be almost all zeros.

`rref` is Gauss-Jordan elimination over such rows.  A column -> rows
index lets each pivot touch only the rows that hold its column.  Among
the unused rows holding the current column, the pivot row is the one
with the fewest entries, ties going to the lowest index; this keeps
fill-in small, as in structured Gaussian elimination (LaMacchia-Odlyzko)
and the Macaulay-matrix reduction of F4.  The reduced row echelon form is
unique, so the pivot rule changes the cost and never the result.
"""


def rref(field, rows, ncols):
    """Reduced row echelon form of sparse rows with nonzero values.

    Returns (reduced rows, pivot columns): one dict per pivot, in
    increasing pivot-column order, each with value one at its pivot.
    The input rows are not modified.
    """
    rows = [dict(r) for r in rows]
    holders = {}
    for i, row in enumerate(rows):
        for j in row:
            holders.setdefault(j, set()).add(i)
    used = [False] * len(rows)
    pivot_rows, pivots = [], []
    for c in range(ncols):
        if len(pivots) == len(rows):
            break
        # rows left unused here hold no column < c, so once c has its pivot
        # no row can gain an entry in column c again
        col = holders.pop(c, None)
        if not col:
            continue
        unused = [i for i in col if not used[i]]
        if not unused:
            continue
        p = min(unused, key=lambda i: (len(rows[i]), i))
        prow = rows[p]
        lead = prow[c]
        if lead != field.one:
            inv = field.inv(lead)
            prow = rows[p] = {j: field.mul(inv, v) for j, v in prow.items()}
        for i in col:               # pivot rows of earlier columns included
            if i == p:
                continue
            row = rows[i]
            f = row.pop(c)
            for j, v in prow.items():
                if j == c:
                    continue
                old = row.get(j)
                if old is None:
                    row[j] = field.neg(field.mul(f, v))
                    holders[j].add(i)
                else:
                    new = field.sub(old, field.mul(f, v))
                    if field.is_zero(new):
                        del row[j]
                        holders[j].discard(i)
                    else:
                        row[j] = new
        used[p] = True
        pivot_rows.append(prow)
        pivots.append(c)
    return pivot_rows, pivots


def nullspace(field, rows, ncols):
    """Basis of the right kernel of sparse rows, as dense vectors, one per
    free column in increasing order."""
    reduced, pivots = rref(field, rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [field.zero] * ncols
        vec[free] = field.one
        for row, pc in zip(reduced, pivots):
            c = row.get(free)
            if c is not None:
                vec[pc] = field.neg(c)
        basis.append(vec)
    return basis


def mat_inverse(field, m):
    """Inverse of a dense square matrix; raises ValueError when singular."""
    n = len(m)
    aug = []
    for i, row in enumerate(m):
        sparse = {j: v for j, v in enumerate(row) if not field.is_zero(v)}
        sparse[n + i] = field.one
        aug.append(sparse)
    reduced, pivots = rref(field, aug, 2 * n)
    if pivots[:n] != list(range(n)):
        raise ValueError("singular matrix")
    return [[row.get(j, field.zero) for j in range(n, 2 * n)]
            for row in reduced]
