"""The low Jacobi blocks from h alone: the paper's reduction of Jacobi to
F_h(x, y, z) = 0.

For A = exp(delta chi) h(w) through degree T, the Jacobi defect J_A agrees
through degree T + 2 with exp(D3 chi) F_h(x, y, z), where
D3 chi = chi(u) + chi(v) + chi(w) - chi(u+v+w), x, y and z are the
omega-pairings w(u, v), w(v, w) and w(w, u), and
F_h = h(x-z) h(y) + h(y-x) h(z) + h(z-y) h(x).  F_h vanishes for the sinh
and linear h, so `theorem2_pipeline` skips the blocks at or below T + 2
when `classify_h` accepts the fitted series.  Checked here: the identity on
Coefficients (`exp_truncated`, `oracle_slot_sum`), with its lowest block
nonzero exactly when `classify_h` rejects; the census of F_h = 0 on a
test-side oracle of integer tables (cross-checked against sympy), solved
degree by degree and compared with the sinh prediction written first, and
`classify_h` on the solved series and on each one-coefficient
perturbation; the pipeline's reports against the path that builds every
low block on kernels whose lowest block is T + 2 and T + 3; and the
precedence of "axioms-failed".
"""

from fractions import Fraction
from itertools import count

import pytest
import sympy

from conftest import build_every_low_block, counting_blocks, exp_truncated, oracle_slot_sum, sinh_series
from moyal import lie, scalars
from moyal.errors import DegreeGuardError
from moyal.expressions import parse_coefficient, parse_poly
from moyal.lie import (
    RawLieKernel,
    StructuredLieKernel,
    classify_h,
    jacobi_defect,
    lie_axiom_check,
    theorem2_pipeline,
)
from moyal.linalg import Matrix
from moyal.poly import Poly, pair_space, sigma_space, triple_space, unlift_blocks
from moyal.star import bilinear_pair_poly

ONE, ZERO, MU = scalars.ONE, scalars.ZERO, scalars.MU
C = scalars.Coefficient.from_int


def diagonal_omega(*lams):
    """omega with omega[i, n+i] = lam_i = -omega[n+i, i]: nondegenerate."""
    n = len(lams)
    rows = [[ZERO] * (2 * n) for _ in range(2 * n)]
    for i, lam in enumerate(lams):
        rows[i][n + i], rows[n + i][i] = C(lam), C(-lam)
    return Matrix(rows)


def mixed_omega():
    """An n = 2 omega that couples every coordinate: nondegenerate (Pf = -6)."""
    rows = [[ZERO] * 4 for _ in range(4)]
    for (i, j), c in {(0, 1): 1, (0, 2): 2, (0, 3): -1, (1, 2): 1, (1, 3): 3, (2, 3): 1}.items():
        rows[i][j], rows[j][i] = C(c), C(-c)
    return Matrix(rows)


def rank_two_omega(n):
    """omega coupling only u1 and u(n+1): rank 2, degenerate for n > 1."""
    rows = [[ZERO] * (2 * n) for _ in range(2 * n)]
    rows[0][n], rows[n][0] = ONE, -ONE
    return Matrix(rows)


def product_through(p, q, top):
    """(p * q) truncated at total degree top: only the homogeneous parts of
    p and q whose degrees add to at most top are multiplied."""
    def parts(f):
        return {d: f.homogeneous_component(d) for d in {sum(e) for e in f.terms}}

    total = Poly.zero(p.space)
    for i, left in parts(p).items():
        for j, right in parts(q).items():
            if i + j <= top:
                total = total + left * right
    return total


def h_of(series, t, top):
    """h(t) = sum c_k t^k over the odd k, truncated at total degree top."""
    out, power, t_squared = Poly.zero(t.space), t, t * t
    for c in series:
        out = out + power.scale(c)
        power = product_through(power, t_squared, top)
    return out.truncate_degree(top)


def f_h_of_pairings(series, omega, n, top):
    """F_h(x, y, z) on Coefficients, x, y, z the omega-pairings over triple
    space, truncated at total degree top."""
    w, tri = bilinear_pair_poly(omega.transpose(), n), triple_space(n)
    x, y, z = (oracle_slot_sum(w, tri, (1, a, b)) for a, b in ("uv", "vw", "wu"))
    total = Poly.zero(tri)
    for left, right in ((x - z, y), (y - x, z), (z - y, x)):
        total = total + product_through(h_of(series, left, top), h_of(series, right, top), top)
    return total


def d3(chi, n):
    """D3 chi = delta chi(u, v+w) + delta chi(v, w) over triple space."""
    delta = oracle_slot_sum(chi, pair_space(n), (1, "u"), (1, "v"), (-1, "uv"))
    return oracle_slot_sum(delta, triple_space(n), (1, "u", "vw"), (1, "v", "w"))


def low_defect(raw, top):
    """The part of `jacobi_defect(raw)` of degree <= top: its blocks through top."""
    degrees, block, _ = lie._defect_blocks(raw, False)
    return unlift_blocks({d: block(d) for d in degrees if d <= top}, triple_space(raw.n))


SINH_MU = sinh_series(MU * MU, 8)  # a = mu^2/6
SINH_9 = sinh_series(C(9), 8)  # a = 3/2
FAILS = (ONE, C(2), C(5))  # F_h has lowest degree 6: a nonzero block 12

# (n, chi, omega, series, T, lowest block of J_A at or below T + 2 or None).
# At T = 12 the blocks 13 and 14 hold exp(D3 chi) past its constant term.
# The identity needs only an antisymmetric omega; at n = 3 a rank-two one
# keeps F_h(x, y, z) small.
IDENTITY_CASES = [
    (1, "mu*u1^3 + i*u2^2", diagonal_omega(1), SINH_MU, 8, None),
    (1, "u1^2*u2/(mu+1) + i*u2^2", diagonal_omega(-2), SINH_9, 9, None),
    (1, "i*mu*u1^3/(mu+1)", diagonal_omega(1), FAILS, 12, 12),
    (1, "0", diagonal_omega(3), FAILS, 10, 12),
    (2, "i*u1*u3 + mu*u2^2*u4", mixed_omega(), SINH_MU, 6, None),
    (2, "u1^2/(mu+2) + i*u4^3", diagonal_omega(2, 1), FAILS, 10, 12),
    (3, "u1^2*u4 + i*u3^2", diagonal_omega(1, -2, 3), sinh_series(C(1), 4), 5, None),
    (3, "mu*u2*u5 + i*u1*u3^2/(mu+1)", rank_two_omega(3), FAILS, 12, 12),
]


@pytest.mark.parametrize("n, chi_text, omega, series, top, lowest", IDENTITY_CASES)
def test_low_blocks_are_exp_d3_chi_times_f_h(n, chi_text, omega, series, top, lowest):
    """The degree <= T + 2 part of the Jacobi defect of the kernel expanded
    through T is that of exp(D3 chi) * F_h(pairings), and one of its blocks
    is nonzero exactly when `classify_h` rejects the series."""
    chi = parse_poly(chi_text, sigma_space(n))
    series = series[: (top // 2 + 1) // 2]  # the c_k with 2k <= T
    raw = StructuredLieKernel(n, chi, omega, series).expand(top)
    defect = low_defect(raw, top + 2)
    if n == 1:
        assert defect == jacobi_defect(raw).truncate_degree(top + 2)
    f_h = f_h_of_pairings(series, omega, n, top + 2)
    if f_h.is_zero:
        assert defect.is_zero
    else:
        # exp(D3 chi) matters only through top + 2 less the lowest degree of F_h.
        dressing = exp_truncated(d3(chi, n), top + 2 - min(map(sum, f_h.terms)))
        assert defect == product_through(dressing, f_h, top + 2)
    assert (None if defect.is_zero else min(map(sum, defect.terms))) == lowest
    assert (lowest is None) == (classify_h(series).tag in ("sinh", "linear"))


# ---------------------------------------------------------------------------
# The census: F_h = 0 through x^21
# ---------------------------------------------------------------------------

CENSUS_A = ["1", "2", "mu^2/6", "i", "1/mu"]
CENSUS_TOP = 22  # the degree of F_h that c_21 first reaches


def predicted_series(a, length):
    """The prediction, written before any solve: c1 = 1, c3 = a,
    c5 = 3 a^2 / 10, then c_{k+2} = mu^2 c_k / ((k+1)(k+2)) with mu^2 = 6a,
    the sinh recurrence (for a = 0, h = x)."""
    series = [ONE, a, (a * a).scale_fraction(Fraction(3, 10))]
    mu_squared = a.scale_int(6)
    for k in count(5, 2):
        if len(series) == length:
            return tuple(series)
        series.append((mu_squared * series[-1]).scale_fraction(Fraction(1, (k + 1) * (k + 2))))


def cyclic_table(j, k):
    """Q_{j,k} = P_{j,k} + P_{k,j} for j < k, Q_{j,j} = P_{j,j}, with
    P_{j,k} = (x - z)^j y^k and its two rotations x -> y -> z -> x:
    {(a, b, c): the integer coefficient of x^a y^b z^c}, zeros dropped.
    (x - z)^p is read off Pascal's rule."""
    table = {}
    for p, q in {(j, k), (k, j)}:
        row = (1,)  # row[i]: the coefficient of x^i z^(p - i) in (x - z)^p
        for _ in range(p):
            row = tuple(left - right for left, right in zip((0,) + row, row + (0,)))
        for i, c in enumerate(row):
            e = (i, q, p - i)
            for key in (e, (e[2], e[0], e[1]), (e[1], e[2], e[0])):
                table[key] = table.get(key, 0) + c
    return {e: c for e, c in table.items() if c}


def f_h_part(series, m):
    """The degree-m part of F_h, h = c1 x + c3 x^3 + ... listed by `series`:
    the sum over odd j <= k, j + k = m, of c_j c_k Q_{j,k}, as
    {(a, b, c): Coefficient}, zeros dropped."""
    coefficients = dict(zip(count(1, 2), series))
    part = {}
    for j in range(1, m // 2 + 1, 2):
        scale = coefficients.get(j, ZERO) * coefficients.get(m - j, ZERO)
        for e, c in cyclic_table(j, m - j).items():
            part[e] = part.get(e, ZERO) + scale.scale_int(c)
    return {e: c for e, c in part.items() if c}


def f_h_lowest_degree(series, top):
    """The lowest degree m <= top of a nonzero part of F_h; None when none."""
    return next((m for m in range(2, top + 1, 2) if f_h_part(series, m)), None)


def solve_census(a):
    """c_1 = 1, c_3 = a, and c_5 .. c_21 from F_h = 0, one degree at a time.

    c_{m-1} first enters at degree m, and only through c_1 c_{m-1} Q_{1,m-1},
    so the degree-m system reads Q_{1,m-1}[e] c_{m-1} = -R[e] at every
    monomial e, R the part of the known coefficients.  It has exactly one
    solution when Q_{1,m-1} is nonzero and every equation gives the same
    value; the test fails otherwise."""
    series = [ONE, a]
    assert not f_h_part(series, 2) and not f_h_part(series, 4)
    for m in range(6, CENSUS_TOP + 1, 2):
        known, linear = f_h_part(series, m), cyclic_table(1, m - 1)
        assert linear, f"c_{m - 1} is free at degree {m}"
        e0 = next(iter(linear))
        value = -known.get(e0, ZERO) / C(linear[e0])
        for e in known.keys() | linear.keys():
            assert known.get(e, ZERO) + value.scale_int(linear.get(e, 0)) == ZERO, (m, e)
        series.append(value)
    return tuple(series)


def as_sympy(table):
    x, y, z = sympy.symbols("x y z")
    return sympy.expand(sum(c * x**a * y**b * z**e for (a, b, e), c in table.items()))


def test_oracle_tables_against_sympy():
    """The census oracle's Q_{j,k} through j + k = CENSUS_TOP against sympy;
    Q_{1,1} and Q_{1,3} vanish, and every other Q does not."""
    x, y, z = sympy.symbols("x y z")

    def p(j, k):
        return sum((a - c) ** j * b**k for a, b, c in ((x, y, z), (y, z, x), (z, x, y)))

    for m in range(2, CENSUS_TOP + 1, 2):
        for j in range(1, m // 2 + 1, 2):
            k = m - j
            table = cyclic_table(j, k)
            assert as_sympy(table) == sympy.expand(p(j, k) + (p(k, j) if j < k else 0)), (j, k)
            assert (not table) == ((j, k) in ((1, 1), (1, 3))), (j, k)


@pytest.mark.parametrize("a_text", CENSUS_A + ["0"])
def test_f_h_census_solves_to_the_prediction(a_text):
    """Each degree's system has one solution, and the solved c_5 .. c_21
    are the predicted ones."""
    a = parse_coefficient(a_text)
    assert solve_census(a) == predicted_series(a, 11)


@pytest.mark.parametrize("a_text", CENSUS_A + ["0"])
def test_f_h_census_accepts_the_sinh_and_linear_series(a_text):
    """The solved series is the sinh series of mu^2 = 6a (`sinh_series`),
    F_h has no term through degree 22, and `classify_h` accepts it."""
    a = parse_coefficient(a_text)
    series = solve_census(a)
    assert series == sinh_series(a.scale_int(6), 11)
    assert f_h_lowest_degree(series, CENSUS_TOP) is None
    assert classify_h(series).tag == ("sinh" if a else "linear")


@pytest.mark.parametrize("a_text", CENSUS_A + ["0"])
def test_f_h_census_rejects_each_one_coefficient_perturbation(a_text):
    """Adding 1 to c_k leaves F_h a term at degree max(k + 1, 6), and
    `classify_h` rejects the series: c_k first meets c_1 at degree k + 1,
    and Q_{1,1} = Q_{1,3} = 0 move c_1 and c_3 to degree 6.  A fitted series
    through T holds the c_k with k <= T // 2, so when `classify_h` rejects
    a perturbed c_k, k >= 5, a Jacobi block at or below T + 2 is nonzero.
    For a = 0 the scale c_1 is free (2x is linear), so it is not perturbed
    there."""
    a = parse_coefficient(a_text)
    series = solve_census(a)
    for index in range(0 if a else 1, 11):
        perturbed = list(series)
        perturbed[index] = perturbed[index] + ONE
        k = 2 * index + 1
        assert f_h_lowest_degree(perturbed, CENSUS_TOP) == max(k + 1, 6), k
        assert classify_h(perturbed).tag == "neither", k
    scaled = (series[0] + ONE,) + series[1:]
    assert (f_h_lowest_degree(scaled, CENSUS_TOP) is None) == (not a)
    assert classify_h(scaled).tag == ("neither" if a else "linear")


# ---------------------------------------------------------------------------
# The pipeline: same reports, fewer blocks
# ---------------------------------------------------------------------------


def full_block_report(monkeypatch, raw, fit_degree):
    with monkeypatch.context() as patch:
        build_every_low_block(patch)
        return theorem2_pipeline(raw, fit_degree)


def planted(chi_text, series, fit_degree, omega=None):
    return StructuredLieKernel(
        1, parse_poly(chi_text, sigma_space(1)), omega or diagonal_omega(1), series
    ).expand(fit_degree)


# Lowest nonzero block exactly T + 2 (= 12): h = x + x^3/6 lacks its x^5 term.
AT_T_PLUS_2 = planted("u1^3", (ONE, parse_coefficient("1/6")), 10)
# Lowest nonzero block exactly T + 3 (= 9): a linear kernel cut at T = 6.
AT_T_PLUS_3 = planted("u1^2*u2 + u2^2", (ONE,), 6)


def test_lowest_block_at_truncation_plus_two_is_a_violation(monkeypatch):
    """The fit reads c_5 = 0 and `classify_h` rejects the series, so the
    blocks are built and the lowest, at T + 2, makes Jacobi fail.  F_h has
    its lowest term at degree (T + 2) / 2, so a shortcut that also skipped
    block T + 2 would call the defect a truncation."""
    w = bilinear_pair_poly(diagonal_omega(1).transpose(), 1)
    _, series, witness = lie._fit_structured(AT_T_PLUS_2.a, 1, w, 10)
    assert witness is None and series == [ONE, parse_coefficient("1/6"), ZERO]
    assert classify_h(series).tag == "neither"
    report = theorem2_pipeline(AT_T_PLUS_2, 10)
    assert report == full_block_report(monkeypatch, AT_T_PLUS_2, 10)
    assert report.axioms == lie_axiom_check(AT_T_PLUS_2, 10)
    assert report.status == "axioms-failed"
    assert report.axioms.jacobi_status == "violation"
    assert report.axioms.defect_degree_range[0] == 12


def test_lowest_block_at_truncation_plus_three_is_read_without_a_block(monkeypatch):
    """The fit leaves no witness and F_h vanishes, so the low end is read
    from T + 3 up by its lead, and no block is built; the report is the one
    the blocks give.  Starting at T + 4 would miss the low end, at T + 2
    would build a block."""
    expected = full_block_report(monkeypatch, AT_T_PLUS_3, 6)
    counts = counting_blocks(monkeypatch)
    report = theorem2_pipeline(AT_T_PLUS_3, 6)
    assert counts == {"blocks": 0, "leads": 2}
    assert report == expected
    assert report.axioms == lie_axiom_check(AT_T_PLUS_3, 6)
    assert report.status == "poisson-class"
    assert report.axioms.jacobi_status == "truncation-defect"
    assert report.axioms.defect_degree_range[0] == 9


# h = x + 2x^3 + 5x^5: the fit succeeds (omega extractable and nondegenerate),
# classify_h says "neither", and Jacobi fails at degree 12.
NOT_SINH = planted("u1^3", FAILS, 10)
# The bidegree-(2, 3) term u1^2 v1^3 is not divisible by w: the fit stops
# with a witness at degree 5.
NOT_DRESSED = RawLieKernel(1, parse_poly("v1*u2 - v2*u1 + u1^2*v1^3 - u1^3*v1^2", pair_space(1)))


@pytest.mark.parametrize("raw, fit_degree", [(NOT_SINH, 10), (NOT_DRESSED, 6)])
def test_axioms_failed_takes_precedence_over_neither(monkeypatch, raw, fit_degree):
    """A non-Lie kernel with an extractable, nondegenerate omega reports
    "axioms-failed", never "neither"; so does it when the fit run before
    the axioms raises."""
    report = theorem2_pipeline(raw, fit_degree)
    assert lie.extract_omega(raw).nullspace() == []
    _, series, witness = lie._fit_structured(
        raw.a, 1, bilinear_pair_poly(lie.extract_omega(raw).transpose(), 1), fit_degree
    )
    # Either way the stages after the axioms would say "neither".
    assert witness is not None or lie.classify_h(series).tag == "neither"
    assert (witness is None) == (raw is NOT_SINH)
    assert report.status == "axioms-failed"
    assert report.axioms == lie_axiom_check(raw, fit_degree)
    assert report == full_block_report(monkeypatch, raw, fit_degree)

    def guard(*args):
        raise DegreeGuardError("fit over the degree guard")

    monkeypatch.setattr(lie, "_fit_structured", guard)
    assert theorem2_pipeline(raw, fit_degree) == report
    # On a Lie kernel the same error is raised, after the axioms pass.
    with pytest.raises(DegreeGuardError, match="fit over the degree guard"):
        theorem2_pipeline(AT_T_PLUS_3, 6)
