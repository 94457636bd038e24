"""Exact root-system layer: counts, pairings, parabolic data, Casimir values."""
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from flagcones.exact import solve
from flagcones.roots import (ConfigurationError, build_root_system,
                             casimir_eigenvalue, flag, killing_dual_pairing,
                             mu_of_bundle, simple_root_expansion)


# -- independent oracles ------------------------------------------------------

def oracle_positive_roots(series, rank):
    """Literal epsilon-coordinate enumeration, independent of the library path."""
    dim = rank + 1 if series == "A" else rank
    e = lambda i: tuple(Q(1 if k == i else 0) for k in range(dim))
    sub = lambda u, v: tuple(a - b for a, b in zip(u, v))
    add = lambda u, v: tuple(a + b for a, b in zip(u, v))
    out = []
    if series == "A":
        out = [sub(e(i), e(j)) for i in range(dim) for j in range(dim) if i < j]
    else:
        for i in range(rank):
            for j in range(i + 1, rank):
                out.append(sub(e(i), e(j)))
                out.append(add(e(i), e(j)))
        if series == "B":
            out += [e(i) for i in range(rank)]
        if series == "C":
            out += [tuple(2 * x for x in e(i)) for i in range(rank)]
    return out


def oracle_gauss_solve(A, b):
    """Tiny Fraction Gaussian elimination, written here to stay independent."""
    n = len(A)
    M = [row[:] + [b[i]] for i, row in enumerate(A)]
    for c in range(n):
        p = next(r for r in range(c, n) if M[r][c] != 0)
        M[c], M[p] = M[p], M[c]
        M[c] = [x / M[c][c] for x in M[c]]
        for r in range(n):
            if r != c and M[r][c] != 0:
                f = M[r][c]
                M[r] = [x - f * y for x, y in zip(M[r], M[c])]
    return [M[r][n] for r in range(n)]


def oracle_fano(series, rank, theta):
    """gcd of anticanonical pairings by direct enumeration of the radical."""
    rs = build_root_system(series, rank)
    simple = rs.simple_roots
    dot = lambda u, v: sum(a * b for a, b in zip(u, v))
    gram = [[dot(a, b) for b in simple] for a in simple]
    radical_sum = tuple(Q(0) for _ in range(rs.ambient_dim))
    for root in oracle_positive_roots(series, rank):
        coeffs = oracle_gauss_solve([row[:] for row in gram], [dot(root, a) for a in simple])
        support = {i + 1 for i, c in enumerate(coeffs) if c != 0}
        if not support <= set(theta):
            radical_sum = tuple(a + b for a, b in zip(radical_sum, root))
    from math import gcd

    g = 0
    for j in sorted(set(range(1, rank + 1)) - set(theta)):
        a = simple[j - 1]
        val = 2 * dot(radical_sum, a) / dot(a, a)
        assert val.denominator == 1
        g = gcd(g, int(val))
    return g


# -- construction -------------------------------------------------------------

def test_rank_one_root_system():
    rs = build_root_system("A", 1)
    assert len(rs.positive_roots) == 1
    assert rs.cartan_matrix == ((2,),)


@pytest.mark.parametrize("series,rank,count", [
    ("A", 2, 3), ("A", 5, 15), ("B", 2, 4), ("B", 3, 9),
    ("C", 3, 9), ("D", 3, 6), ("D", 4, 12),
])
def test_positive_root_counts(series, rank, count):
    rs = build_root_system(series, rank)
    assert len(rs.positive_roots) == count
    assert sorted(rs.positive_roots) == sorted(oracle_positive_roots(series, rank))


@pytest.mark.parametrize("series,rank", [("A", 3), ("B", 3), ("C", 2), ("D", 4)])
def test_cartan_matrix_shape(series, rank):
    rs = build_root_system(series, rank)
    for i in range(rank):
        assert rs.cartan_matrix[i][i] == 2
        for j in range(rank):
            if i != j:
                assert rs.cartan_matrix[i][j] <= 0


@pytest.mark.parametrize("series,rank", [("A", 4), ("B", 2), ("C", 3), ("D", 4)])
def test_fundamental_weight_duality_and_rho(series, rank):
    rs = build_root_system(series, rank)
    for i in range(1, rank + 1):
        w = rs.fundamental_weight(i)
        for j in range(1, rank + 1):
            assert rs.coroot_pairing(w.eps(), j) == (1 if i == j else 0)
    two_rho = (2 * rs.rho).eps()
    total = tuple(sum(col) for col in zip(*rs.positive_roots))
    assert two_rho == rs.project(total)


def test_unsupported_series_rejected():
    with pytest.raises(ConfigurationError):
        build_root_system("E", 6)
    with pytest.raises(ConfigurationError):
        build_root_system("D", 2)
    with pytest.raises(ConfigurationError):
        build_root_system("B", 1)


# -- pairings and parabolic data ----------------------------------------------

def test_pairing_kronecker():
    rs = build_root_system("A", 3)
    for i in range(1, 4):
        for j in range(1, 4):
            assert rs.fundamental_weight(i).pairing(j) == (1 if i == j else 0)


def test_two_rho_pairing_a2():
    rs = build_root_system("A", 2)
    assert (2 * rs.rho).pairing(1) == 2


def test_delta_full_flag_is_two_rho():
    for series, rank in [("A", 1), ("A", 3), ("B", 2), ("C", 3), ("D", 4)]:
        rs = build_root_system(series, rank)
        fd = flag(rs, set())
        assert fd.delta_p.coeffs == (2 * rs.rho).coeffs


def test_delta_pairing_grassmannian():
    for n in range(1, 9):
        rs = build_root_system("A", n)
        for k in range(1, n + 1):
            fd = flag(rs, set(range(1, n + 1)) - {k})
            assert fd.delta_p.pairing(k) == n + 1
            assert fd.fano_index == n + 1


def test_gr24_fano_is_four():
    fd = flag(build_root_system("A", 3), {1, 3})
    assert fd.fano_index == 4
    assert fd.dim_complex == 4


def test_d4_fano_oracle():
    fd = flag(build_root_system("D", 4), {2, 3, 4})
    assert fd.fano_index == 6
    assert oracle_fano("D", 4, (2, 3, 4)) == 6


@pytest.mark.parametrize("series,rank,theta", [
    ("A", 3, (1, 3)), ("A", 4, (2, 3, 4)), ("B", 2, (2,)), ("B", 3, (2, 3)),
    ("D", 4, (2, 3, 4)), ("C", 3, (1, 2)), ("A", 2, ()),
])
def test_fano_matches_independent_oracle(series, rank, theta):
    fd = flag(build_root_system(series, rank), set(theta))
    assert fd.fano_index == oracle_fano(series, rank, theta)


def test_bundle_weight():
    rs = build_root_system("A", 3)
    fd = flag(rs, {1, 3})
    assert mu_of_bundle(fd, {2: 1}).coeffs == rs.fundamental_weight(2).coeffs
    assert mu_of_bundle(fd, {2: 3}).coeffs == (3 * rs.fundamental_weight(2)).coeffs
    # canonical exponents recover the anticanonical weight
    full = flag(rs, set())
    exps = {j: int(full.delta_p.pairing(j)) for j in full.complement}
    assert mu_of_bundle(full, exps).coeffs == full.delta_p.coeffs
    with pytest.raises(ConfigurationError):
        mu_of_bundle(fd, {2: 0})
    with pytest.raises(ConfigurationError):
        mu_of_bundle(fd, {1: 1, 2: 1})


# -- Killing form and Casimir ---------------------------------------------------

def test_killing_a1_alpha():
    rs = build_root_system("A", 1)
    alpha = rs.weight_from_eps(rs.simple_roots[0])
    assert killing_dual_pairing(alpha, alpha) == Q(1, 2)


def test_killing_a2_cross():
    rs = build_root_system("A", 2)
    a1 = rs.weight_from_eps(rs.simple_roots[0])
    a2 = rs.weight_from_eps(rs.simple_roots[1])
    assert killing_dual_pairing(a1, a2) == Q(-1, 6)


def test_killing_symmetry():
    rs = build_root_system("B", 3)
    w1 = rs.weight([1, 2, 0])
    w2 = rs.weight([0, 1, 3])
    assert killing_dual_pairing(w1, w2) == killing_dual_pairing(w2, w1)


def test_casimir_sl2():
    rs = build_root_system("A", 1)
    assert casimir_eigenvalue(rs.fundamental_weight(1)) == Q(3, 8)
    assert casimir_eigenvalue(rs.weight([2])) == 1
    assert casimir_eigenvalue(rs.weight([0])) == 0


@pytest.mark.parametrize("series,rank", [("A", 4), ("B", 3), ("C", 3), ("D", 4)])
def test_simple_root_expansion_matches_one_solve_per_root(series, rank):
    """The shared solve gives each positive root the coefficients of its own Gram solve."""
    rs = build_root_system(series, rank)
    gram = [[sum(x * y for x, y in zip(a, b)) for b in rs.simple_roots] for a in rs.simple_roots]
    for root in rs.positive_roots:
        rhs = [[sum(x * y for x, y in zip(root, a))] for a in rs.simple_roots]
        assert simple_root_expansion(rs, root) == tuple(row[0] for row in solve(gram, rhs))
    with pytest.raises(ConfigurationError):
        simple_root_expansion(rs, tuple(-x for x in rs.positive_roots[0]))


@pytest.mark.parametrize("series,rank", [("A", 2), ("A", 4), ("B", 2), ("B", 3), ("C", 3), ("D", 4)])
def test_adjoint_casimir_is_one(series, rank):
    """Normalisation-free self-test: the adjoint module has Casimir 1."""
    rs = build_root_system(series, rank)
    highest = max(rs.positive_roots, key=lambda v: sum(simple_root_expansion(rs, v)))
    assert casimir_eigenvalue(rs.weight_from_eps(highest)) == 1


@settings(deadline=None, derandomize=True)
@given(st.lists(st.integers(min_value=0, max_value=4), min_size=3, max_size=3))
def test_casimir_positive_on_dominant(coeffs):
    rs = build_root_system("A", 3)
    w = rs.weight(coeffs)
    c = casimir_eigenvalue(w)
    assert (c > 0) == (not w.is_zero())
    assert c >= 0


@settings(deadline=None, derandomize=True)
@given(st.lists(st.integers(min_value=-3, max_value=3), min_size=2, max_size=2),
       st.lists(st.integers(min_value=-3, max_value=3), min_size=2, max_size=2))
def test_killing_bilinear(c1, c2):
    rs = build_root_system("B", 2)
    w1, w2 = rs.weight(c1), rs.weight(c2)
    s = rs.weight([a + b for a, b in zip(c1, c2)])
    probe = rs.weight([1, 1])
    assert killing_dual_pairing(s, probe) == killing_dual_pairing(w1, probe) + killing_dual_pairing(w2, probe)


@pytest.mark.parametrize("call, fragment", [
    (lambda: build_root_system("A", 2).weight_from_eps((1, 0)), "weight lattice span"),
    (lambda: build_root_system("A", 2).fundamental_weight(1).pairing(3), "out of range"),
    (lambda: build_root_system("A", 1).rho + build_root_system("A", 2).rho, "different root systems"),
    (lambda: flag(build_root_system("A", 2), {1, 2}), "proper subset"),
    (lambda: killing_dual_pairing(build_root_system("A", 1).rho, build_root_system("B", 2).rho),
     "different root systems"),
], ids=["weight_span", "pairing_index", "weight_sum", "theta_proper", "killing_systems"])
def test_input_checks_raise_configuration_errors(call, fragment):
    with pytest.raises(ConfigurationError, match=fragment):
        call()
