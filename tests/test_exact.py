"""Gaussian-rational scalar: every operation against a two-Fraction reference."""
import operator
import sys
from fractions import Fraction as Q
from math import gcd

import pytest
import numpy as np
from hypothesis import assume, given, settings, strategies as st

from flagcones.diffgeo import _log_det
from flagcones.charts import DomainError, make_spec, nilpotent_log
from flagcones.exact import (QC, ZERO, abs2, hermitian_elimination, hermitian_inverse, modulus, nilpotent_series, real,
                             relation_residual, solve, squared_norms, to_field)
from flagcones.hvcone import _plucker_relations, plucker_residual, remmert
from flagcones.reps import ExactModeError, _exp_apply


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
    """One series step is the linear map ``s (M @ v)``: exact entry by entry over leading axes, complex bit for bit.

    ``nilpotent_series(M, v, [s])`` returns ``v + s (M @ v)`` and, unless that product is zero in every row, the product.
    """
    rng = np.random.default_rng(len(m_lead) + 3 * len(v_lead))
    M, v = _sparse(rng, m_lead + (5, 5)), _sparse(rng, v_lead + (5, 2))
    s = to_field(_sparse(rng, s_shape + (2, 2))[..., 0, 0], object)
    step = s[..., None, None] * (M @ v)
    acc, rest = nilpotent_series(M, v, [s])
    assert acc.dtype == object and acc.shape == step.shape and np.all(acc == v + step)
    assert rest is None if not np.count_nonzero(step) else rest.shape == step.shape and np.all(rest == step)
    Mc, vc, sc = (np.asarray(a, dtype=complex) for a in (M, v, s))
    step = sc[..., None, None] * np.matmul(Mc, vc)
    acc, rest = nilpotent_series(Mc, vc, [sc])
    assert np.array_equal(acc, vc + step) and (rest is None if not np.count_nonzero(step) else np.array_equal(rest, step))


def _series_reference(M, v, scales):
    """``v + sum_k term_k``, ``term_k = s_k (M @ term_(k-1))``, term by term until a term is zero in every row."""
    acc = term = v
    for s in scales:
        term = np.asarray(s)[..., None, None] * np.matmul(M, term)
        if not np.count_nonzero(term):
            return acc + term, None
        acc = acc + term
    return acc, term


# Leading axes of (M, t, v) that broadcast: none, on one of them, on all three.
SERIES_LEADS = [((), (), ()), ((2,), (), ()), ((), (3,), ()), ((), (), (2, 1)), ((2, 1), (3,), ()),
                ((3,), (2, 3), (3,)), ((0,), (), ())]


def _series_case(seed, lead, d, c):
    """Strictly lower triangular exact ``M``, exact ``t`` and ``v`` with the leading axes ``lead``."""
    rng = np.random.default_rng(seed)
    M = _sparse(rng, lead[0] + (d + 1, d + 1))[..., 1:, :-1]        # zero last column: room for a zero diagonal
    M = np.where(np.tri(d, k=-1, dtype=bool), M, 0)
    t = to_field(_sparse(rng, lead[1] + (2, 2))[..., 0, 0], object)
    v = _sparse(rng, lead[2] + (d + 1, c))[..., :-1, :]
    return M, t, v


@settings(deadline=None, derandomize=True, max_examples=60)
@given(st.integers(0, 10 ** 6), st.sampled_from(SERIES_LEADS), st.integers(1, 5), st.integers(1, 3))
def test_nilpotent_series_is_the_term_by_term_sum_in_either_field(seed, lead, d, c):
    """Exact: the ``QC`` term-by-term sum, entry by entry, shaped as its leading axes broadcast; complex: bit for bit."""
    M, t, v = _series_case(seed, lead, d, c)
    scales = [t / k for k in range(1, d + 2)]
    want, want_rest = _series_reference(M, v, scales)
    got, rest = nilpotent_series(M, v, iter(scales))
    assert rest is None is want_rest                        # strictly triangular: a zero term within d + 1
    assert got.dtype == object and got.shape == want.shape and all(type(x) is QC for x in got.flat)
    assert np.all(got == want)
    Mc, tc, vc = (np.asarray(a, dtype=complex) for a in (M, t, v))
    cscales = [tc / k for k in range(1, d + 2)]
    want, _ = _series_reference(Mc, vc, cscales)
    got, rest = nilpotent_series(Mc, vc, iter(cscales))
    assert rest is None and got.shape == want.shape and got.tobytes() == want.tobytes()


def test_nilpotent_series_hands_back_the_last_term_when_the_scales_run_out():
    M = to_field([[0, 1], [1, 0]], object)                    # M^2 = 1: no term vanishes
    acc, rest = nilpotent_series(M, to_field([[1], [QC(0, 1)]], object), [1, Q(1, 2), Q(1, 3)])
    assert acc[:, 0].tolist() == [QC(Q(3, 2), Q(7, 6)), QC(Q(7, 6), Q(3, 2))]      # (1, i) + (i, 1) + (1, i)/2 + (i, 1)/6
    assert rest[:, 0].tolist() == [QC(0, Q(1, 6)), Q(1, 6)]
    acc, rest = nilpotent_series(np.asarray(M, dtype=complex), np.array([[1], [1j]]), [1.0, 0.5, 1 / 3])
    assert np.allclose(rest[:, 0], [1j / 6, 1 / 6]) and np.allclose(acc[:, 0], [1.5 + 7j / 6, 7 / 6 + 1.5j])


def test_nonterminating_series_raise_their_callers_errors():
    """A non-nilpotent exact step raises ``ExactModeError``, a non-unipotent exact log ``DomainError``."""
    with pytest.raises(ExactModeError):
        _exp_apply(to_field([[0, 1], [1, 0]], object), to_field(1, object), to_field([1, 0], object))
    with pytest.raises(DomainError, match="not unipotent"):
        nilpotent_log(to_field([[1, 1], [1, 1]], object), 2)
    M = to_field([[1, 0, 0], [QC(1, 1), 1, 0], [Q(1, 2), 3, 1]], object)
    X = M - np.eye(3, dtype=int)
    assert nilpotent_log(M, 3).tolist() == (X - X @ X / 2).tolist()


def _relation_reference(i, j, v):
    """``max_r |sum_l w[i[l, r]] v[j[l, r]]|^2``, ``w = [v, -v, 0]``, in ``QC`` arithmetic, per row."""
    out = []
    for row in v.reshape(-1, v.shape[-1]):
        w = np.concatenate([row, -row, [QC(0)]])
        totals = [sum((w[a] * row[b] for a, b in zip(i[:, r], j[:, r])), QC(0)) for r in range(i.shape[1])]
        out.append(max(z.abs2() for z in totals))
    return out


@settings(deadline=None, derandomize=True, max_examples=40)
@given(st.integers(0, 10 ** 6), st.sampled_from(["zero", "int", "gaussian"]), st.sampled_from([(), (3,), (2, 2)]))
def test_relation_residual_is_the_qc_sum_of_each_relation(seed, kind, lead):
    """Exact: one ``Fraction`` per row equal to the ``QC`` reference; a lone vector gives a ``Fraction``."""
    rng = np.random.default_rng(seed)
    d, terms, relations = int(rng.integers(2, 7)), int(rng.integers(1, 4)), int(rng.integers(1, 6))
    i, j = rng.integers(0, 2 * d + 1, (terms, relations)), rng.integers(0, d, (terms, relations))
    if kind == "zero":
        v = np.full(lead + (d,), QC(0), dtype=object)
    elif kind == "int":
        v = rng.integers(-4, 5, lead + (d,)).astype(object)
    else:
        v = _sparse(rng, lead + (d + 1, d + 1))[..., 0, :-1]
    got = relation_residual(i, j)(to_field(v, object))
    want = _relation_reference(i, j, to_field(v, object))
    if not lead:
        assert type(got) is Q and got == want[0]
    else:
        assert got.shape == lead and got.ravel().tolist() == want and all(type(x) is Q for x in got.flat)


def test_plucker_rule_in_either_field():
    """gr(2, 5): zero on a decomposable vector, a ``Fraction`` per row, each row's value alone, the float modulus squared.

    ``test_hvcone`` checks the exact values against the coordinate formula in ``QC``.
    """
    rule = _plucker_relations(4, 2)
    rng = np.random.default_rng(4)
    spec = make_spec("grassmann:4:2")
    u, _ = remmert(spec, _sparse(rng, (spec.n_z + 1, 2))[:-1, 0], QC(2, 1), exact=True)
    assert rule(u) == 0 and type(rule(u)) is Q
    v = to_field(_sparse(rng, (3, 11, 11))[:, 0, :-1], object)
    got = rule(v)
    assert got.shape == (3,) and got.tolist() == [rule(row) for row in v] == [plucker_residual(4, 2, row) for row in v]
    assert max(got) > 0
    assert np.allclose(rule(np.asarray(v, dtype=complex)) ** 2, np.asarray(got, dtype=float), rtol=1e-12)


@pytest.mark.parametrize("lead", [(), (4,), (2, 3)])
def test_squared_norms_per_field(lead):
    """Exact: ``Fraction`` column norms of every row; complex: bit for bit the other rows' ``abs2`` summed onto the leading 1."""
    rng = np.random.default_rng(len(lead))
    F = to_field(_sparse(rng, lead + (5, 3)), object)
    F[..., 0, :] = QC(1)
    got = squared_norms(F)
    assert got.shape == lead + (3,) and all(type(x) is Q for x in got.flat)
    assert got.tolist() == sum((abs2(F[..., i, :]) for i in range(5)), Q(0)).tolist()
    Fc = np.asarray(F, dtype=complex)
    assert squared_norms(Fc).tobytes() == sum((abs2(Fc[..., i, :]) for i in range(1, 5)), 1).tobytes()


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
