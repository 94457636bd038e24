"""Gaussian-rational scalar: every operation against a two-Fraction reference."""
import operator
import sys
from fractions import Fraction as Q
from math import gcd

import pytest
import numpy as np
from hypothesis import assume, given, settings, strategies as st

from flagcones.diffgeo import _log_det
from flagcones.exact import (QC, ZERO, abs2, hermitian_elimination, hermitian_inverse, linear_map, modulus, real,
                             solve, to_field)


class RefQC:
    """The plain form of a Gaussian rational: real and imaginary ``Fraction`` parts."""

    def __init__(self, re=0, im=0):
        self.re, self.im = Q(re), Q(im)

    @staticmethod
    def of(x):
        return x if isinstance(x, RefQC) else RefQC(x, 0)

    def __add__(self, other):
        o = RefQC.of(other)
        return RefQC(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = RefQC.of(other)
        return RefQC(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return RefQC.of(other) - self

    def __mul__(self, other):
        o = RefQC.of(other)
        return RefQC(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = RefQC.of(other)
        d = o.abs2()
        return RefQC((self.re * o.re + self.im * o.im) / d, (self.im * o.re - self.re * o.im) / d)

    def __rtruediv__(self, other):
        return RefQC.of(other) / self

    def conj(self):
        return RefQC(self.re, -self.im)

    def abs2(self):
        return self.re * self.re + self.im * self.im

    def to_complex(self):
        return complex(self.re) + 1j * complex(self.im)


rationals = st.builds(Q, st.integers(-30, 30), st.integers(1, 12))
pairs = st.tuples(rationals, rationals)
# A second operand as the QC arithmetic meets it: another QC, an int or a Fraction.
operands = st.one_of(pairs, st.integers(-30, 30), rationals)

OPS = [operator.add, operator.sub, operator.mul, operator.truediv]


def _as(cls, x):
    return cls(*x) if isinstance(x, tuple) else x


def _is_canonical(z):
    return z.d > 0 and gcd(z.a, z.b, z.d) == 1


def _matches(z, ref):
    assert isinstance(z, QC) and _is_canonical(z)
    assert (z.re, z.im, z.real) == (ref.re, ref.im, ref.re)
    assert isinstance(z.re, Q) and isinstance(z.abs2(), Q)
    assert z.abs2() == ref.abs2()
    assert z.to_complex() == ref.to_complex()
    c = z.conj()
    assert _is_canonical(c) and (c.re, c.im) == (ref.re, -ref.im)


@settings(deadline=None, derandomize=True, max_examples=300)
@given(pairs, operands, st.sampled_from(OPS), st.booleans())
def test_ops_match_fraction_reference(x, y, op, swap):
    # zero divisors are tested below
    divisor = RefQC(*x) if swap else RefQC.of(_as(RefQC, y))
    assume(op is not operator.truediv or divisor.abs2() != 0)
    a, b = (_as(QC, y), QC(*x)) if swap else (QC(*x), _as(QC, y))
    ra, rb = (_as(RefQC, y), RefQC(*x)) if swap else (RefQC(*x), _as(RefQC, y))
    _matches(op(a, b), op(ra, rb))


@settings(deadline=None, derandomize=True)
@given(pairs)
def test_unary_and_boundary_match_reference(x):
    z, ref = QC(*x), RefQC(*x)
    _matches(z, ref)
    _matches(-z, RefQC(-ref.re, -ref.im))
    assert z.is_zero() == (ref.abs2() == 0) == (not z)
    assert repr(z) == f"QC({ref.re!s}, {ref.im!s})"


@settings(deadline=None, derandomize=True)
@given(pairs)
def test_equal_values_compare_and_hash_equal(x):
    re, im = x
    scaled = QC(Q(re.numerator * 6, re.denominator * 6), Q(im.numerator * 6, im.denominator * 6))
    z = QC(re, im)
    assert z == scaled and (z.a, z.b, z.d) == (scaled.a, scaled.b, scaled.d)
    assert hash(z) == hash(scaled)
    if im == 0:                             # a real value hashes as the Fraction it equals
        assert z == re and hash(z) == hash(re) and {re: z}[z] is z
    assert z == z + QC(0) == z * 1 == (z * 3) / 3


@settings(deadline=None, derandomize=True)
@given(st.builds(Q, st.integers(-10 ** 40, 10 ** 40), st.integers(1, 10 ** 40)))
def test_real_values_hash_as_the_number_they_equal(x):
    """A real ``QC`` is interchangeable with its ``Fraction`` (or int) as a dict key."""
    assert hash(QC(x)) == hash(x) and {x: 1}.get(QC(x)) == 1 and {QC(x): 1}.get(x) == 1
    if x.denominator == 1:
        assert hash(QC(x.numerator)) == hash(x.numerator)


def test_hash_at_the_hash_modulus():
    """Denominators divisible by the hash modulus hash as Python's rationals do."""
    P = sys.hash_info.modulus
    for x in (Q(1, P), Q(-3, 2 * P), Q(P + 1, P), Q(P, 3), Q(-1), Q(-2)):
        assert hash(QC(x)) == hash(x)


def test_equality_across_constructors():
    assert QC(Q(2, 4)) == QC(Q(1, 2), 0) == Q(1, 2)
    assert hash(QC(Q(2, 4))) == hash(QC(Q(1, 2), 0)) == hash(Q(1, 2))
    assert QC(3) == 3 and hash(QC(3)) == hash(3) == hash(Q(3)) and {3: "x"}.get(QC(3)) == "x"
    assert QC(-1) == -1 and hash(QC(-1)) == hash(-1) and {Q(-7, 3): "y"}.get(QC(Q(-7, 3))) == "y"
    assert QC(Q(4, 2), Q(-6, 3)) == QC(2, -2)
    s = QC(Q(1, 2)) + QC(Q(1, 2))          # equal denominators still reduce
    assert s == QC(1) and (s.a, s.b, s.d) == (1, 0, 1)
    assert QC(1, 1) != QC(1) and QC(0, 1) != 0
    assert (QC(1) == "x") is False


def test_division_by_zero_raises():
    for zero in (QC(0), 0, Q(0)):
        with pytest.raises(ZeroDivisionError):
            QC(1, 2) / zero


def test_coercion_rejects_other_types():
    with pytest.raises(TypeError):
        QC.of("x")
    with pytest.raises(TypeError):
        QC(1) + "x"


def test_arithmetic_dunders_are_class_attributes():
    """The benchmark tracer counts exact operations by wrapping these in ``vars(QC)``."""
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
        assert name in vars(QC)


# -- zero short-cuts and the numpy protocol -------------------------------------------

def test_zero_operands_give_canonical_fields():
    """0 * x, x + 0 and x - x return canonical fields: (0, 0, 1) for zero, x's own fields otherwise."""
    x = QC(Q(3, 4), Q(-5, 6))
    for zero in (0 * x, x * 0, x * Q(0), ZERO * x, x * QC(0), x - x, x + (-x), 0 / x, QC(0) / x):
        assert isinstance(zero, QC) and (zero.a, zero.b, zero.d) == (0, 0, 1)
    for same in (x + 0, 0 + x, x + ZERO, ZERO + x, x - 0, x - QC(0), x + Q(0)):
        assert isinstance(same, QC) and (same.a, same.b, same.d) == (x.a, x.b, x.d)
    for value in (ZERO + 5, 5 + ZERO, ZERO + Q(2, 3), ZERO - x, 0 - x):
        assert isinstance(value, QC) and _is_canonical(value)
    assert ZERO + 5 == 5 and ZERO + Q(2, 3) == Q(2, 3) and ZERO - x == -x == 0 - x


@settings(deadline=None, derandomize=True)
@given(pairs, st.sampled_from([0, Q(0), (Q(0), Q(0))]), st.sampled_from(OPS[:3]), st.booleans())
def test_zero_short_cut_changes_no_value(x, zero, op, swap):
    """Every operation with a zero operand agrees with the two-Fraction reference."""
    a, b = (_as(QC, zero), QC(*x)) if swap else (QC(*x), _as(QC, zero))
    ra, rb = (_as(RefQC, zero), RefQC(*x)) if swap else (RefQC(*x), _as(RefQC, zero))
    _matches(op(a, b), op(ra, rb))


def test_reflected_division_and_numpy_protocol():
    z = QC(Q(1, 2), Q(-3, 4))
    assert 1 / z == QC(1) / z and Q(2, 3) / z == QC(Q(2, 3)) / z
    assert z.conjugate() == z.conj() and complex(z) == z.to_complex() == 0.5 - 0.75j
    a = np.array([z, QC(0, 1), QC(2)], dtype=object)
    assert np.conj(a).tolist() == [z.conj(), QC(0, -1), QC(2)]
    assert np.asarray(a, dtype=complex).tolist() == [0.5 - 0.75j, 1j, 2 + 0j]


# -- arrays: the dtype picks the arithmetic ------------------------------------------------

def test_to_field_picks_the_field():
    exact = to_field([QC(1, 2), 0, Q(1, 3)])
    assert exact.dtype == object and all(type(x) is QC for x in exact)
    assert to_field([QC(1, 2), 0, Q(1, 3)]).tolist() == [QC(1, 2), QC(0), QC(Q(1, 3))]
    assert to_field(np.eye(2, dtype=int), object).tolist() == [[QC(1), QC(0)], [QC(0), QC(1)]]
    assert type(to_field(1, object)[()]) is QC
    assert to_field(exact) is exact and to_field(exact, object) is exact      # converted once, then passed as it is
    mixed = np.array([QC(1, 2), 3], dtype=object)
    assert to_field(mixed) is not mixed and to_field(mixed).tolist() == [QC(1, 2), QC(3)] and type(mixed[1]) is int
    assert to_field([1.5, 2]).dtype == complex and to_field(exact, complex).tolist() == [1 + 2j, 0j, 1 / 3 + 0j]
    with pytest.raises(TypeError):
        to_field([0.5], object)


def _sparse(rng, shape):
    """An exact array of ``QC``, int and ``Fraction`` entries, about half of them zero, with zero last rows and columns."""
    kinds = [lambda: 0, lambda: QC(0), lambda: int(rng.integers(-3, 4)), lambda: Q(int(rng.integers(-4, 5)), 3),
             lambda: QC(Q(int(rng.integers(-4, 5)), 5), Q(int(rng.integers(-4, 5)), 7))]
    a = np.array([kinds[i]() for i in rng.integers(0, len(kinds), size=int(np.prod(shape)))], dtype=object)
    a = a.reshape(shape)
    a[..., -1, :] = 0
    a[..., :, -1] = QC(0)
    return a


@pytest.mark.parametrize("m_lead, v_lead, s_shape", [((), (), ()), ((2,), (), (2,)), ((), (3, 1), ()),
                                                    ((2,), (3, 1), (3, 2)), ((3, 1), (2,), ()), ((0,), (), ())])
def test_linear_map_is_the_matrix_product_in_either_field(m_lead, v_lead, s_shape):
    """Exact: ``s (M @ v)`` entry by entry, over leading axes; complex: ``s`` times ``np.matmul``, bit for bit."""
    rng = np.random.default_rng(len(m_lead) + 3 * len(v_lead))
    M, v = _sparse(rng, m_lead + (4, 5)), _sparse(rng, v_lead + (5, 2))
    s = to_field(_sparse(rng, s_shape + (2, 2))[..., 0, 0], object)
    want = s[..., None, None] * (M @ v)
    got = linear_map(M)(v, s)
    assert got.dtype == object and got.shape == want.shape and np.all(got == want)
    Mc, vc, sc = (np.asarray(a, dtype=complex) for a in (M, v, s))
    assert np.array_equal(linear_map(Mc)(vc, sc), sc[..., None, None] * np.matmul(Mc, vc))


def test_real_abs2_modulus_per_field():
    v = to_field([QC(Q(1, 2), 2), QC(0, -1), 3])
    assert real(v).tolist() == [Q(1, 2), Q(0), Q(3)] and abs2(v).tolist() == [Q(17, 4), Q(1), Q(9)]
    assert modulus(v).tolist() == abs2(v).tolist()                # exact: the squared modulus
    c = np.asarray(v, dtype=complex)
    assert np.array_equal(real(c), c.real) and np.array_equal(abs2(c), np.abs(c) ** 2)
    assert np.array_equal(modulus(c), np.hypot(c.real, c.imag))


def test_solve_is_field_generic():
    a = [[Q(2), Q(1)], [Q(1), Q(3)]]
    x = solve(a, [[Q(1), Q(0)], [Q(0), Q(1)]])
    assert x == [[Q(3, 5), Q(-1, 5)], [Q(-1, 5), Q(2, 5)]] and all(type(e) is Q for row in x for e in row)
    g = [[QC(2), QC(0, 1)], [QC(0, -1), QC(3)]]
    inv = solve(g, [[QC(1), QC(0)], [QC(0), QC(1)]])
    assert all(type(e) is QC for row in inv for e in row)
    assert (np.array(g, dtype=object) @ np.array(inv, dtype=object)).tolist() == [[1, 0], [0, 1]]
    with pytest.raises(ValueError):
        solve([[Q(1), Q(2)], [Q(2), Q(4)]], [[Q(1)], [Q(0)]])


def _hermitian_batch(rng, shape, r):
    """Random Hermitian positive definite matrices (*shape, r, r)."""
    X = rng.normal(size=shape + (r, r)) + 1j * rng.normal(size=shape + (r, r))
    return X @ np.conj(np.swapaxes(X, -1, -2)) + r * np.eye(r)


@pytest.mark.parametrize("r", range(1, 6))
@pytest.mark.parametrize("shape", [(), (7,), (3, 4)])
def test_hermitian_elimination_inverts_and_gives_log_det(shape, r):
    """On entry arrays the inverse matches np.linalg.inv and the pivots' log det np.linalg.slogdet."""
    G = _hermitian_batch(np.random.default_rng(10 * r + len(shape)), shape, r)
    entries = np.moveaxis(G, (-2, -1), (0, 1))
    pivots, L = hermitian_elimination(entries)
    assert len(pivots) == r and [len(row) for row in L] == list(range(r))
    inv = np.moveaxis(np.array(hermitian_inverse(pivots, L), dtype=complex), (0, 1), (-2, -1))
    np.testing.assert_allclose(inv, np.linalg.inv(G), rtol=1e-12, atol=0)
    np.testing.assert_allclose(_log_det(G), np.linalg.slogdet(G)[1], rtol=0, atol=1e-12)


def test_hermitian_elimination_is_field_generic():
    """Over QC the pivots are the exact ratios of leading minors 2, 4, 9 and the inverse is exact."""
    g = [[QC(2), QC(1, 1), QC(0, -1)], [QC(1, -1), QC(3), QC(1)], [QC(0, 1), QC(1), QC(4)]]
    pivots, L = hermitian_elimination(g)
    assert pivots == [Q(2), Q(4, 2), Q(9, 4)] and all(type(p) is Q for p in pivots)
    inv = hermitian_inverse(pivots, L)
    assert (np.array(g, dtype=object) @ np.array(inv, dtype=object)).tolist() == np.eye(3, dtype=int).tolist()
