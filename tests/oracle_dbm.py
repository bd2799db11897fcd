"""Naive concrete difference-bound matrices used as the test oracle.

Deliberately independent of the package implementation: bounds are plain
(value, strict) tuples with None for infinity, the closure is a textbook
triple loop, and every operation is written from its definition.
"""

INF = None


def lt(a, b):
    """Strict order on bounds: smaller value first, strict before weak."""
    if b is INF:
        return a is not INF
    if a is INF:
        return False
    return a[0] < b[0] or (a[0] == b[0] and a[1] and not b[1])


def add(a, b):
    if a is INF or b is INF:
        return INF
    return (a[0] + b[0], a[1] or b[1])


def minimum(a, b):
    return a if lt(a, b) else b


def bounds_of(cpdbm, table):
    """The matrix's entries as bounds, each id read back from the bound
    table that numbered it."""
    return [[table.bound(i) for i in row] for row in cpdbm.mat]


def from_valuation(cpdbm, v, table):
    """Evaluate a constrained parametric matrix at one valuation, on the
    oracle's own representation: each entry is read back as a bound and
    its expression evaluated with ``AffineExpr.eval``."""
    out = []
    for bounds in bounds_of(cpdbm, table):
        row = []
        for b in bounds:
            if b.expr is None:
                row.append(INF)
            else:
                row.append((b.expr.eval(v), b.strict))
        out.append(row)
    return out


def is_canonical(cpdbm, table):
    """True when the matrix is closed at every valuation of its
    extension: closing it there with ``close`` changes no entry."""
    box = table.box
    for idx in range(box.size):
        if not cpdbm.bits >> idx & 1:
            continue
        m = from_valuation(cpdbm, box.point(idx), table)
        closed = clone(m)
        close(closed)
        if closed != m:
            return False
    return True


def clone(m):
    return [list(row) for row in m]


def close(m):
    """Shortest-path closure; returns False when the zone is empty."""
    n = len(m)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                cand = add(m[i][k], m[k][j])
                if lt(cand, m[i][j]):
                    m[i][j] = cand
    for i in range(n):
        if lt(m[i][i], (0, False)):
            return False
    return True


def constrain(m, i, j, bound):
    if lt(bound, m[i][j]):
        m[i][j] = bound


def up(m):
    for i in range(1, len(m)):
        m[i][0] = INF


def reset(m, clocks):
    n = len(m)
    for r in sorted(clocks):
        for j in range(n):
            if j != r:
                m[r][j] = m[0][j]
        for i in range(n):
            if i != r:
                m[i][r] = m[i][0]


def free(m, clocks):
    """Forget all that ``m`` says about ``clocks`` but that they are
    non-negative, then close: the existential projection."""
    for c in clocks:
        for j in range(len(m)):
            if j != c:
                m[c][j] = m[j][c] = INF
        m[0][c] = (0, False)
    close(m)


def unbound_below(m, c):
    """Forget every lower bound of clock ``c``, its differences with the
    other clocks included, but that it is non-negative, then close: the
    points of ``m`` with ``c`` lowered to any value down to 0."""
    for i in range(len(m)):
        if i != c:
            m[i][c] = INF
    m[0][c] = (0, False)
    close(m)


def extrapolate(m, maxima):
    """Per-entry widening against the per-clock maxima."""
    n = len(m)
    for i in range(n):
        for j in range(n):
            if i == j or m[i][j] is INF:
                continue
            val = m[i][j][0]
            if val > maxima[i]:
                m[i][j] = INF
            elif val < -maxima[j]:
                m[i][j] = (-maxima[j], True)


def equal(m1, m2):
    return m1 == m2
