import pytest
from hypothesis import assume, given, settings, strategies as st

from qconvdec.algebra import (
    GF2, GF4, W, WBAR,
    DegreeCapError, FieldMismatchError, ZeroDenominatorError,
    Poly, RatMatrix, RationalFn,
    format_poly, parse_poly, ratio,
)
from qconvdec.circuits import minors_gcd, polynomial_kernel_basis

from reference_elimination import RankDeficientError, left_inverse, rank
from reference_rational import (
    identity, is_identity, is_zero, matmul, padd, pmul, pole_order_at_zero,
    poly_gcd, tensor, transpose,
)


def p2(*coeffs):
    return Poly(coeffs, GF2)


def p4(*coeffs):
    return Poly(coeffs, GF4)


class TestFieldTables:
    def test_gf4_relations(self):
        # w^2 = w + 1, w^3 = 1
        assert GF4.mul(W, W) == WBAR
        assert WBAR == W ^ 1
        assert GF4.mul(GF4.mul(W, W), W) == 1

    def test_gf4_inverses(self):
        for a in range(1, 4):
            assert GF4.mul(a, GF4.inv(a)) == 1


class TestPoly:
    def test_char2_squaring(self):
        # (1+D)*(1+D) = 1+D^2
        assert pmul(p2(1, 1), p2(1, 1)) == p2(1, 0, 1)

    def test_example1_isf_identity(self):
        # (1+D)(1+D^2) + D(1+D+D^2) = 1
        lhs = padd(pmul(p2(1, 1), p2(1, 0, 1)), pmul(p2(0, 1), p2(1, 1, 1)))
        assert lhs == p2(1)

    def test_gcd_coprime(self):
        assert poly_gcd(p2(1, 0, 1), p2(1, 1, 1)) == p2(1)

    def test_gcd_with_zero(self):
        a = p2(1, 1)
        assert poly_gcd(a, Poly.zero(GF2)) == a

    def test_canonical_trailing_zeros(self):
        assert Poly((1, 0, 0), GF2) == p2(1)
        assert Poly((0, 0), GF2).is_zero()
        assert Poly((), GF2).degree == -1

    def test_field_mismatch(self):
        with pytest.raises(FieldMismatchError):
            padd(p2(1), p4(1))

    def test_degree_cap(self):
        with pytest.raises(DegreeCapError):
            pmul(Poly.monomial(300, field=GF2), Poly.monomial(300, field=GF2))

    def test_gf4_arithmetic(self):
        # (1 + wD)(1 + w2 D) = 1 + D + D^2
        assert pmul(p4(1, W), p4(1, WBAR)) == p4(1, 1, 1)

    def test_format_parse_roundtrip(self):
        for p in [p2(1, 0, 1), p2(0, 1, 1, 1), Poly.zero(GF2), p4(1, W, WBAR)]:
            assert parse_poly(format_poly(p), p.field) == p
        assert format_poly(p2(1, 0, 1)) == "1+D^2"
        assert format_poly(p4(1, W)) == "1+w*D"


class TestRational:
    def test_reduce_square(self):
        # (1+D^2)/(1+D) = 1+D in GF(2)
        r = ratio(p2(1, 0, 1), p2(1, 1))
        assert r == RationalFn(p2(1, 1))

    def test_reduce_common_d(self):
        # (D+D^3)/D = 1+D^2
        assert ratio(p2(0, 1, 0, 1), p2(0, 1)) == RationalFn(p2(1, 0, 1))

    def test_noncausal_entry(self):
        # 1/(D+D^3) keeps its denominator and has a pole at D = 0
        r = ratio(p2(1), p2(0, 1, 0, 1))
        assert r.den == p2(0, 1, 0, 1)
        assert pole_order_at_zero(r) == 1

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominatorError):
            ratio(p2(1), Poly.zero(GF2))

    def test_idempotent_canonical(self):
        a = ratio(p2(1, 0, 1), p2(1, 1, 1))
        b = ratio(pmul(p2(1, 0, 1), p2(1, 1)), pmul(p2(1, 1, 1), p2(1, 1)))
        assert a == b

    def test_monic_denominator_gf4(self):
        r = ratio(p4(1), p4(0, W))
        assert r.den.leading_coeff() == 1

    @settings(deadline=None, max_examples=80)
    @given(st.sampled_from([GF2, GF4]), st.data())
    def test_polynomial_equals_reduced_fraction(self, field, data):
        # a polynomial over 1 takes no gcd; it must equal num d / d, which
        # the gcd (or, for a constant d, the scaling) reduces
        coeff = st.integers(0, field.order - 1)
        num = Poly(data.draw(st.lists(coeff, max_size=6)), field)
        d = Poly(data.draw(st.lists(coeff, min_size=1, max_size=5)), field)
        assume(not d.is_zero())
        assert RationalFn(num) == RationalFn(pmul(num, d), d)
        assert RationalFn(num).den == Poly.one(field)


class TestLeftInverse:
    def test_example1_column(self):
        m = RatMatrix.from_polys([[p2(1, 0, 1)], [p2(1, 1, 1)]])
        L = left_inverse(m)
        assert is_identity(matmul(L, m))

    def test_known_fir_isf_verifies(self):
        # (1+D, D) is one valid left inverse of the same column
        m = RatMatrix.from_polys([[p2(1, 0, 1)], [p2(1, 1, 1)]])
        L = RatMatrix.from_polys([[p2(1, 1), p2(0, 1)]])
        assert is_identity(matmul(L, m))

    def test_identity(self):
        eye = identity(2)
        assert left_inverse(eye) == eye

    def test_rank_deficient(self):
        m = RatMatrix.from_polys([[p2(1, 1)], [p2(1, 1)]])
        L = left_inverse(m)  # rank 1, 1 column: fine
        assert is_identity(matmul(L, m))
        bad = RatMatrix.from_polys([[p2(1), p2(1)], [p2(1), p2(1)]])
        with pytest.raises(RankDeficientError):
            left_inverse(bad)

    def test_gram_singular_column(self):
        # (1,1)^T has full column rank but a singular Gram matrix m^T m in
        # char 2; elimination still finds a left inverse
        m = RatMatrix.from_polys([[p2(1)], [p2(1)]])
        assert is_identity(matmul(left_inverse(m), m))


def left_kernel(m):
    """Minimal polynomial basis of {g : g @ m = 0} for an n x r matrix m of
    full column rank r."""
    return RatMatrix.from_coeff_tensor(polynomial_kernel_basis(
        tensor(transpose(m)), m.field, m.rows - m.cols), m.field)


class TestNullSpace:
    def test_example1(self):
        m = RatMatrix.from_polys([[p2(1, 0, 1)], [p2(1, 1, 1)]])
        G = left_kernel(m)
        assert G.rows == 1
        assert is_zero(matmul(G, m))
        # an equivalent rational basis (1, (1+D^2)/(1+D+D^2)) spans the same space:
        alt = RatMatrix([[RationalFn.one(GF2), ratio(p2(1, 0, 1), p2(1, 1, 1))]])
        assert is_zero(matmul(alt, m))

    def test_trivial(self):
        m = RatMatrix.from_polys([[p2(1)], [Poly.zero(GF2)]])
        G = left_kernel(m)
        assert G.rows == 1
        assert G == RatMatrix.from_polys([[Poly.zero(GF2), p2(1)]])

    def test_rank(self):
        m = RatMatrix.from_polys([[p2(1, 0, 1)], [p2(1, 1, 1)]])
        assert rank(m) == 1
        G = left_kernel(m)
        assert rank(G) == 1


class TestMinorsGcd:
    def test_single_row_generator_noncatastrophic(self):
        g = RatMatrix.from_polys([[p2(0, 0, 1), p2(1, 0, 1), p2(1, 0, 1)]])
        assert minors_gcd(tensor(g), GF2) == p2(1)

    def test_catastrophic(self):
        g = RatMatrix.from_polys([[p2(1, 1), p2(1, 0, 1)]])
        assert minors_gcd(tensor(g), GF2) == p2(1, 1)

    def test_identity(self):
        assert minors_gcd(tensor(identity(3)), GF2) == p2(1)


# ---- property tests ---------------------------------------------------------

polys2 = st.builds(lambda c: Poly(c, GF2), st.lists(st.integers(0, 1), max_size=8))
polys4 = st.builds(lambda c: Poly(c, GF4), st.lists(st.integers(0, 3), max_size=6))


@given(polys2, polys2)
def test_mul_commutes(a, b):
    assert pmul(a, b) == pmul(b, a)


@given(polys4, polys4)
def test_mul_commutes_gf4(a, b):
    assert pmul(a, b) == pmul(b, a)


@given(polys2)
def test_add_involution(a):
    assert padd(a, a).is_zero()


@given(polys2, polys2)
def test_rational_canonical(a, b):
    if b.is_zero():
        return
    r1 = ratio(a, b)
    scale = p2(1, 1, 1)
    r2 = ratio(pmul(a, scale), pmul(b, scale))
    assert r1 == r2


@st.composite
def full_rank_poly_matrix(draw):
    n = draw(st.integers(2, 4))
    r = draw(st.integers(1, min(2, n - 1)))
    entries = [[Poly(draw(st.lists(st.integers(0, 1), max_size=4)), GF2)
                for _ in range(r)] for _ in range(n)]
    m = RatMatrix.from_polys(entries)
    if rank(m) < r:
        # nudge to full rank with an embedded identity block
        entries = [list(row) for row in entries]
        for i in range(r):
            entries[i][i] = padd(entries[i][i], p2(1))
        m = RatMatrix.from_polys(entries)
    return m


@given(full_rank_poly_matrix())
@settings(max_examples=40, deadline=None)
def test_left_inverse_and_nullspace_posts(m):
    if rank(m) < m.cols:
        return
    L = left_inverse(m)
    assert is_identity(matmul(L, m))
    G = left_kernel(m)
    assert G.rows == m.rows - m.cols
    assert is_zero(matmul(G, m))
    assert rank(G) == m.rows - m.cols
    assert minors_gcd(tensor(G), GF2) == p2(1)  # basic

