"""Exact linear algebra over the scalar field Q(i)(mu).

Small dense matrices with Coefficient entries: enough for reading bilinear
forms off kernels, computing ranks and kernels, and putting an antisymmetric
form into canonical (Darboux) block shape by an exact congruence.

All routines use deterministic lowest-index pivoting so reported bases are
reproducible.
"""

from __future__ import annotations

from . import scalars
from .scalars import Coefficient

Vector = tuple[Coefficient, ...]


class Matrix:
    """An immutable matrix of Coefficient entries."""

    __slots__ = ("rows", "_hash")

    def __init__(self, rows):
        self.rows = tuple(tuple(r) for r in rows)
        width = {len(r) for r in self.rows}
        if len(width) > 1:
            raise ValueError("ragged rows")
        self._hash = None

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "Matrix":
        return cls([[scalars.ZERO] * ncols for _ in range(nrows)])

    @classmethod
    def canonical_symplectic(cls, n: int, scale: Coefficient = scalars.ONE) -> "Matrix":
        """The 2n x 2n block matrix [[0, scale*I], [-scale*I, 0]]."""
        rows = [[scalars.ZERO] * (2 * n) for _ in range(2 * n)]
        for i in range(n):
            rows[i][n + i] = scale
            rows[n + i][i] = -scale
        return cls(rows)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(self.rows)
            self._hash = h
        return h

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        cols = list(zip(*other.rows))
        out = []
        for row in self.rows:
            out.append(
                [
                    sum((a * b for a, b in zip(row, col)), scalars.ZERO)
                    for col in cols
                ]
            )
        return Matrix(out)

    def scale(self, c: Coefficient) -> "Matrix":
        return Matrix([[a * c for a in row] for row in self.rows])

    def transpose(self) -> "Matrix":
        return Matrix(list(zip(*self.rows)))

    @property
    def is_antisymmetric(self) -> bool:
        if self.nrows != self.ncols:
            return False
        for i in range(self.nrows):
            for j in range(i, self.ncols):
                if self.rows[i][j] != -self.rows[j][i]:
                    return False
        return True

    def is_zero(self) -> bool:
        return all(not c for row in self.rows for c in row)

    def form(self, x: Vector, y: Vector) -> Coefficient:
        """The bilinear value x^T M y."""
        total = scalars.ZERO
        for i, xi in enumerate(x):
            if not xi:
                continue
            row = self.rows[i]
            for j, yj in enumerate(y):
                if yj:
                    total = total + xi * row[j] * yj
        return total

    def rref(self) -> tuple["Matrix", list[int]]:
        """Reduced row echelon form and the pivot column indices."""
        rows = [list(r) for r in self.rows]
        pivots: list[int] = []
        r = 0
        for c in range(self.ncols):
            pivot = next((k for k in range(r, len(rows)) if rows[k][c]), None)
            if pivot is None:
                continue
            rows[r], rows[pivot] = rows[pivot], rows[r]
            inv = rows[r][c].inverse()
            rows[r] = [a * inv for a in rows[r]]
            for k in range(len(rows)):
                if k != r and rows[k][c]:
                    f = rows[k][c]
                    rows[k] = [a - f * b for a, b in zip(rows[k], rows[r])]
            pivots.append(c)
            r += 1
            if r == len(rows):
                break
        return Matrix(rows), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def nullspace(self) -> list[Vector]:
        """Deterministic basis of the right kernel (one vector per free column)."""
        red, pivots = self.rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.ncols) if c not in pivot_set]
        basis = []
        for f in free:
            vec = [scalars.ZERO] * self.ncols
            vec[f] = scalars.ONE
            for r, pc in enumerate(pivots):
                vec[pc] = -red.rows[r][f]
            basis.append(tuple(vec))
        return basis

    def __repr__(self):
        body = "; ".join(", ".join(str(c) for c in row) for row in self.rows)
        return f"Matrix[{body}]"


def skew_canonical(m: Matrix) -> tuple[Matrix, list[Coefficient], list[Vector]]:
    """Exact canonical decomposition of an antisymmetric matrix.

    Returns (basis, pairings, kernel_basis) where the columns of `basis` are
    ordered as (a_1..a_r, b_1..b_r, kernel vectors) and the congruent form
    basis^T m basis is block-canonical: pairing lambda_k = a_k^T m b_k on the
    k-th conjugate pair and zero elsewhere.

    Pivoting is deterministic: the first remaining vector that pairs
    nontrivially is matched with the lowest-index partner.
    """
    if not m.is_antisymmetric:
        raise ValueError("matrix is not antisymmetric")
    size = m.nrows
    working: list[Vector] = [
        tuple(scalars.ONE if i == j else scalars.ZERO for j in range(size))
        for i in range(size)
    ]
    a_vecs: list[Vector] = []
    b_vecs: list[Vector] = []
    pairings: list[Coefficient] = []
    while True:
        pair = None
        for i in range(len(working)):
            for j in range(i + 1, len(working)):
                if m.form(working[i], working[j]):
                    pair = (i, j)
                    break
            if pair:
                break
        if pair is None:
            break
        i, j = pair
        a, b = working[i], working[j]
        lam = m.form(a, b)
        inv = lam.inverse()
        rest = []
        for k, w in enumerate(working):
            if k in (i, j):
                continue
            # Project w onto the symplectic complement of the (a, b) plane.
            ca = m.form(w, b) * inv
            cb = m.form(a, w) * inv
            rest.append(
                tuple(
                    wk - ca * ak - cb * bk
                    for wk, ak, bk in zip(w, a, b)
                )
            )
        a_vecs.append(a)
        b_vecs.append(b)
        pairings.append(lam)
        working = rest
    columns = a_vecs + b_vecs + working
    basis = Matrix(list(zip(*columns))) if columns else Matrix.zeros(size, 0)
    return basis, pairings, list(working)
