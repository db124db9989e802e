"""Theorems 1 and 2 by exact linear algebra.

Theorem 1: every normalised 2-cocycle is a coboundary plus an antisymmetric
bilinear form, and nothing else.

The cocycle map b -> b(v,w) - b(u+v,w) + b(u,v+w) - b(u,v) (`cocycle_defect`)
is linear in b and keeps the weight a + e of a pair monomial u^a v^e, the
sum of its two exponent blocks.  So its kernel on the normalised pair
monomials (a != 0 and e != 0) splits into one block per weight alpha, and
the prediction is, for |alpha| >= 2,

    dim ker_alpha = 1 + [alpha = e_i + e_j with i != j]:

the coboundary of chi = sigma^alpha, and for alpha = e_i + e_j also the
antisymmetric form u_i v_j - u_j v_i.  Summed over the weights of degree d
that is C(d + N - 1, N - 1) for d >= 3 and N^2 at d = 2, N = 2n.  This is
the premise of `cocycle.factorize` and `cocycle.chi_extract`.  The ranks
come from a Fraction elimination written here, not from `moyal.linalg`, so
the check does not rest on the code it checks.

Theorem 2 at first order, for n = 1.  Around w = u1*v2 - u2*v1 the Jacobi
condition of A = w + X is, to first order in X, L(X) = 0 with

    L(X) = X(u,v+w) w(v,w) + w(u,v+w) X(v,w) + its two cyclic rotations,

linear in X and homogeneous: it maps the antisymmetric X of degree d with
X(0, v) = 0 to degree d + 2.  The prediction is

    dim ker L_d = g(d) + [d = 2] + [d = 6],   g(d) = d - 1 for d >= 4, else 0:

g(d) counts the gauge directions (delta chi) * w, chi of degree d - 2 >= 2
in u1, u2, and the two extra directions are the scale of w and w^3, which is
the mu^2 of the sinh class.  Nothing else is free at first order; in
particular w^5 is not, at d = 10.  This is the premise of `lie._fit_structured`.

The same for n = 2, around w = u1*v3 - u3*v1 + u2*v4 - u4*v2 (omega = J).
The prediction is

    dim ker L_d = C(d + 1, 3) [d >= 4] + 6 [d = 2] + [d = 6],

that is 6, 0, 10, 20 and 36 for d = 2..6: every constant bivector at d = 2,
the gauge directions (delta chi) * w with chi of degree d - 2 in four
variables, and w^3 at d = 6.  L keeps each of the n weights (degree in u_i,
v_i) - (degree in u_(n+i), v_(n+i)), so ker L is the sum of its kernels on
the weight blocks, which are counted one by one.

Theorem 2 beyond first order, for n = 1 and chi = 0.  Write the kernel as
A = w + X_6 + X_10 + X_14 + ..., X_d of degree d, with X_6 = a*w^3; the
other orders below 14 lie in ker L, the gauge, so chi = 0 sets them to 0.
The degree-(d+2) part of the Jacobi condition B(A, A) = 0, with

    B(X, Y) = X(u,v+w) Y(v,w) + its two cyclic rotations,

is L(X_d) = -(sum of B(X_i, X_j) over i + j = d + 2, i, j >= 6).  The
prediction: each system is consistent, and its solutions X_10 and X_14 are
(3a^2/10) w^5 and (3a^3/70) w^7 up to ker L, the sinh values k^4/120 and
k^6/5040 with k^2 = 6a.  So through degree 16 Jacobi leaves h no choice
beyond its w^3 coefficient, which is what `lie.classify_h` tests as the
sinh recurrence.  L keeps the weight (degree in u1, v1) - (degree in u2, v2)
and w has weight 0, so X_d is sought among weight-0 monomials.

The centre of a star product, product side, for n = 2.  For a kernel (chi, M)
whose chi has no linear part, `u_map` fixes the coordinates z_i, so they
generate the algebra and f is central exactly when bracket(f, z_i) = 0 for
every i.  The centre in degree <= D is then the nullspace of
f -> (bracket(f, z_i))_i over the monomials of degree <= D.  For chi = 0,
bracket(f, z_i) is a multiple of sum_j M_ji df/dz_j, so the centre is the
polynomials in the k = dim Ker M coordinates along Ker M, and `u_map` carries
it to the centre for any chi without changing the degree filtration.  The
prediction is

    dim centre_{<= D} = C(D + k, k),

so a nondegenerate M leaves only the constants.  It is checked for D = 2, 3
and 4 on four hand-written kernels, with k read off M by hand, not from
`factorize`: M = mu*J (k = 0), a rank-2 M with chi = 0 and with
chi = u1^2*u3 + mu*u2*u4 (k = 2), and M = 0 with chi = u1^2 (k = 4).  The
entries of this map lie in Q(i)(mu), not in Q, so its rank is
`linalg.Matrix.rank` over Q(i)(mu), not the file's `Fraction` elimination.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, product
from math import comb

import pytest

from moyal import scalars
from moyal.cocycle import RawKernelExponent, cocycle_defect
from moyal.expressions import parse_coefficient, parse_poly
from moyal.linalg import Matrix
from moyal.poly import Poly, pair_space, phase_space, sigma_space, triple_space
from moyal.star import StarKernel, bracket, slot_sum

CASES = [(1, d) for d in range(2, 7)] + [(2, d) for d in range(2, 5)] + [(3, 2), (3, 3)]


def rational(c):
    """A rational Coefficient as a Fraction."""
    assert c.den.is_one and c.num.degree == 0 and not c.num.im, c
    return Fraction(c.num.re[0], c.num.d)


def vector(p):
    """A rational polynomial as a sparse vector."""
    return {e: rational(c) for e, c in p.terms.items()}


def eliminate(vectors):
    """Exact elimination of sparse vectors ({coordinate: Fraction}), in order.

    Yields, for each vector, what is left of it once the earlier vectors are
    subtracted, and that leftover as a combination of the inputs
    ({index: Fraction})."""
    pivots = {}  # pivot coordinate -> (a reduced vector with 1 there, its combination)
    for index, vector in enumerate(vectors):
        vector, combination = dict(vector), {index: Fraction(1)}
        for key, (row, row_combination) in pivots.items():
            factor = vector.get(key)
            if factor:
                subtract(vector, factor, row)
                subtract(combination, factor, row_combination)
        if vector:
            key = min(vector)
            lead = vector[key]
            pivots[key] = (
                {k: x / lead for k, x in vector.items()},
                {k: x / lead for k, x in combination.items()},
            )
        yield vector, combination


def subtract(vector, factor, row):
    """vector -= factor * row, in place, dropping the zeros."""
    for k, x in row.items():
        value = vector.get(k, 0) - factor * x
        if value:
            vector[k] = value
        else:
            vector.pop(k, None)


def rank(vectors):
    """The rank of sparse vectors ({coordinate: Fraction}) by exact elimination."""
    return sum(1 for leftover, _ in eliminate(vectors) if leftover)


def solve(vectors, target):
    """Fractions x with sum_i x[i] * vectors[i] = target, or None if there are none."""
    *_, (leftover, combination) = eliminate([*vectors, target])
    if leftover:
        return None
    return {i: -x for i, x in combination.items() if i < len(vectors)}


def weights(width, degree):
    """Every exponent tuple of the given degree in `width` variables."""
    for combo in combinations_with_replacement(range(width), degree):
        yield tuple(combo.count(k) for k in range(width))


def block_kernel_dimension(n, alpha):
    """dim ker of the cocycle map on the normalised pair monomials of weight alpha."""
    pair = pair_space(n)
    splits = [
        a for a in product(*(range(k + 1) for k in alpha))
        if any(a) and a != alpha
    ]
    defects = []
    for a in splits:
        b = Poly.monomial(pair, a + tuple(k - x for k, x in zip(alpha, a)))
        defect = cocycle_defect(RawKernelExponent(n, b))
        defects.append(vector(defect))
    return len(splits) - rank(defects)


@pytest.mark.parametrize("n, degree", CASES, ids=[f"n{n}-d{d}" for n, d in CASES])
def test_cocycles_are_coboundaries_plus_antisymmetric_forms(n, degree):
    width = 2 * n
    total = 0
    for alpha in weights(width, degree):
        bilinear_pair = degree == 2 and max(alpha) == 1
        dimension = block_kernel_dimension(n, alpha)
        assert dimension == 1 + bilinear_pair, alpha
        total += dimension
    assert total == (width * width if degree == 2 else comb(degree + width - 1, width - 1))


W = parse_poly("u1*v2 - u2*v1", pair_space(1))
# The same form for n = 2, omega = J.
W2 = parse_poly("u1*v3 - u3*v1 + u2*v4 - u4*v2", pair_space(2))


def jacobi_terms(x, y):
    """X(u,v+w) and Y(v,w) over triple space, the factors of B(X, Y)."""
    tri = triple_space(len(x.space) // 4)
    return slot_sum(x, tri, (1, "u", "vw")), slot_sum(y, tri, (1, "v", "w"))


@lru_cache(maxsize=4)
def jacobi_terms_of(w):
    """jacobi_terms(w, w), once per form w."""
    return jacobi_terms(w, w)


def cyclic_sum(p):
    return slot_sum(p, p.space, (1, "u", "v", "w"), (1, "v", "w", "u"), (1, "w", "u", "v"))


def jacobi_form(x, y):
    """B(X, Y) = X(u,v+w) Y(v,w) + its two cyclic rotations."""
    left, right = jacobi_terms(x, y)
    return cyclic_sum(left * right)


def first_order_jacobi(x, w=W):
    """L(X) = B(X, w) + B(w, X) (see the module docstring), as one cyclic sum."""
    x_left, x_right = jacobi_terms(x, x)
    w_left, w_right = jacobi_terms_of(w)
    return cyclic_sum(x_left * w_right + w_left * x_right)


def antisymmetric_basis(degree, n=1):
    """m - m o swap, one per swap orbit of the degree-d pair monomials with both
    slot degrees at least 1."""
    width = 2 * n
    basis = []
    for exps in weights(2 * width, degree):
        u, v = exps[:width], exps[width:]
        if sum(u) and sum(v) and u > v:
            basis.append(Poly.from_terms(pair_space(n), [(exps, scalars.ONE), (v + u, -scalars.ONE)]))
    return basis


@pytest.mark.parametrize("degree", range(2, 12))
def test_first_order_lie_kernels_are_gauge_plus_w_and_w_cubed(degree):
    basis = antisymmetric_basis(degree)
    images = [vector(first_order_jacobi(x)) for x in basis]
    gauge = degree - 1 if degree >= 4 else 0
    assert len(basis) - rank(images) == gauge + (degree == 2) + (degree == 6)


def test_rank_on_hand_made_vectors():
    e = {0: Fraction(1)}
    assert rank([]) == 0
    assert rank([e, e]) == 1
    assert rank([{0: Fraction(1), 1: Fraction(2)}, {0: Fraction(2), 1: Fraction(4)}]) == 1
    assert rank([{0: Fraction(1), 1: Fraction(1)}, {1: Fraction(1)}, {0: Fraction(3)}]) == 2
    assert rank([{0: Fraction(1, 2)}, {1: Fraction(1)}, {2: Fraction(-1)}]) == 3


def weight(x):
    """The n weights of the first monomial of x, (degree in u_i, v_i) - (degree
    in u_(n+i), v_(n+i)) for i = 1..n; the swap keeps them, so both monomials
    of a basis element share them."""
    exps = next(iter(x.terms))
    n = len(exps) // 4
    return tuple(
        exps[i] + exps[2 * n + i] - exps[n + i] - exps[3 * n + i] for i in range(n)
    )


# The n = 2 prediction of the module docstring, written before the count.
FIRST_ORDER_N2 = {2: 6, 3: 0, 4: 10, 5: 20, 6: 36}


@pytest.mark.parametrize("degree", sorted(FIRST_ORDER_N2))
def test_first_order_lie_kernels_for_n2(degree):
    # L keeps each weight, so ker L is the sum of its kernels on the weight blocks.
    blocks = {}
    for x in antisymmetric_basis(degree, 2):
        blocks.setdefault(weight(x), []).append(x)
    dimension = sum(
        len(block) - rank([vector(first_order_jacobi(x, W2)) for x in block])
        for block in blocks.values()
    )
    assert dimension == FIRST_ORDER_N2[degree]


@pytest.mark.parametrize("a", [Fraction(1), Fraction(2), Fraction(-1, 3)])
def test_jacobi_forces_the_sinh_w5_and_w7_coefficients(a):
    orders = {2: W, 6: (W**3).scale_fraction(a)}
    # The prediction: the sinh values k^4/120 and k^6/5040 with k^2 = 6a.
    for d, predicted in ((10, 3 * a**2 / 10), (14, 3 * a**3 / 70)):
        # L keeps the weight, and w has weight 0.
        basis = [x for x in antisymmetric_basis(d) if weight(x) == (0,)]
        target = Poly.zero(triple_space(1))
        for i, x in orders.items():
            if i > 2 and d + 2 - i in orders:
                target = target - jacobi_form(x, orders[d + 2 - i])
        solution = solve([vector(first_order_jacobi(x)) for x in basis], vector(target))
        assert solution is not None, d
        found = sum(
            (basis[i].scale_fraction(x) for i, x in solution.items()), Poly.zero(W.space)
        )
        orders[d] = (W ** (d // 2)).scale_fraction(predicted)
        assert first_order_jacobi(found - orders[d]).is_zero, d


# Rows 0 and 2 are equal and row 3 is mu times row 1, so dim Ker M = 2.
RANK_TWO = Matrix(
    [[parse_coefficient(x) for x in row.split()] for row in ("0 1 0 mu", "-1 0 -1 0", "0 1 0 mu", "-mu 0 -mu 0")]
)
# (name, M, chi, k = dim Ker M)
CENTRE_KERNELS = [
    ("muJ", Matrix.canonical_symplectic(2, scalars.MU), "0", 0),
    ("rank2", RANK_TWO, "0", 2),
    ("rank2-chi", RANK_TWO, "u1^2*u3 + mu*u2*u4", 2),
    ("zero-chi", Matrix.zeros(4, 4), "u1^2", 4),
]


def centre_dimension(kernel, degree):
    """dim of the f of degree <= `degree` with bracket(f, z_i) = 0 for every i, n = 2."""
    space = phase_space(2)
    monomials = [Poly.monomial(space, e) for d in range(degree + 1) for e in weights(4, d)]
    images = [
        [bracket(m, Poly.variable(space, z), kernel) for z in space.names] for m in monomials
    ]
    coordinates = sorted({(i, e) for row in images for i, image in enumerate(row) for e in image.terms})
    rows = [[row[i].terms.get(e, scalars.ZERO) for row in images] for i, e in coordinates]
    return len(monomials) - (Matrix(rows).rank() if rows else 0)


@pytest.mark.parametrize("degree", [2, 3, 4])
@pytest.mark.parametrize(
    "m, chi, k", [case[1:] for case in CENTRE_KERNELS], ids=[case[0] for case in CENTRE_KERNELS]
)
def test_the_centre_is_the_polynomials_on_ker_m(m, chi, k, degree):
    kernel = StarKernel(2, parse_poly(chi, sigma_space(2)), m)
    assert centre_dimension(kernel, degree) == comb(degree + k, k)
