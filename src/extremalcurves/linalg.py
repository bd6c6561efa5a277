"""Dense exact linear algebra over a coefficient field.

Matrices are lists of row lists of field elements.  Sizes here are tiny
(coordinate changes are 4x4, monoid-surface systems are a few dozen rows),
so plain Gaussian elimination is the right tool.
"""


def mat_identity(field, n):
    one, zero = field.one, field.zero
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def rref(field, rows, ncols):
    """Reduced row echelon form; returns (rows, pivot column list)."""
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if not field.is_zero(rows[i][c]):
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(inv, v) for v in rows[r]]
        for i in range(len(rows)):
            if i != r and not field.is_zero(rows[i][c]):
                f = rows[i][c]
                rows[i] = [field.sub(rows[i][j], field.mul(f, rows[r][j]))
                           for j in range(ncols)]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def rank(field, rows, ncols):
    return len(rref(field, rows, ncols)[1])


def nullspace(field, rows, ncols):
    """Basis of the right kernel of the matrix, one vector per free column."""
    reduced, pivots = rref(field, rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [field.zero] * ncols
        vec[free] = field.one
        for r, pc in enumerate(pivots):
            vec[pc] = field.neg(reduced[r][free])
        basis.append(vec)
    return basis


def mat_inverse(field, m):
    """Inverse of a square matrix; raises ValueError when singular."""
    n = len(m)
    aug = [list(m[i]) + mat_identity(field, n)[i] for i in range(n)]
    reduced, pivots = rref(field, aug, 2 * n)
    if len(pivots) < n or pivots[:n] != list(range(n)):
        raise ValueError("singular matrix")
    return [row[n:] for row in reduced[:n]]


def mat_is_invertible(field, m):
    try:
        mat_inverse(field, m)
        return True
    except ValueError:
        return False
