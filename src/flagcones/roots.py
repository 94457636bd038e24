"""Root systems, weights and parabolic data for the classical series A-D.

Everything in this module is exact rational arithmetic.  Roots and weights
are realised in the usual epsilon coordinates:

* ``A_n``   in R^(n+1):  alpha_l = eps_l - eps_(l+1); weights are taken in
  the trace-zero hyperplane.
* ``B_n``   in R^n:      alpha_i = eps_i - eps_(i+1), alpha_n = eps_n.
* ``C_n``   in R^n:      alpha_i = eps_i - eps_(i+1), alpha_n = 2 eps_n.
* ``D_n``   in R^n:      alpha_i = eps_i - eps_(i+1), alpha_n = eps_(n-1) + eps_n.

The Cartan-Killing form is the genuine ad-trace form.  In epsilon
coordinates it restricts to ``c * (Euclidean dot)`` on the (traceless, for
type A) weight space, with ``c = 2(n+1), 2(2n-1), 4(n+1), 4(n-1)`` for
A, B, C, D.  With this normalisation the Casimir constant of the adjoint
module equals 1 for every series, which the test-suite uses as a
normalisation-free self-check.

Simple-root indices are 1-based throughout the public interface.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterable, Tuple

from .exact import solve

Eps = Tuple[Fraction, ...]


class ConfigurationError(ValueError):
    """Unsupported or inconsistent Lie-theoretic configuration."""


def integer_setting(name: str, value, minimum: int) -> int:
    """``value`` as a plain ``int`` of at least ``minimum``; numpy integers pass, a bool or a non-integer is refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ConfigurationError(f"{name} must be an integer of at least {minimum}, got {value!r}")
    return int(value)


def _fvec(entries) -> Eps:
    return tuple(Fraction(x) for x in entries)


def _dot(u: Eps, v: Eps) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def _add(u: Eps, v: Eps) -> Eps:
    return tuple(a + b for a, b in zip(u, v))


def _scale(c, v: Eps) -> Eps:
    c = Fraction(c)
    return tuple(c * a for a in v)


@dataclass(frozen=True)
class RootSystem:
    series: str
    rank: int
    ambient_dim: int
    simple_roots: Tuple[Eps, ...]
    positive_roots: Tuple[Eps, ...]
    cartan_matrix: Tuple[Tuple[int, ...], ...]   # entry [i][j] = <alpha_i, coroot_j>
    fundamental_weights: Tuple[Eps, ...]
    killing_eps_scale: Fraction                  # kappa* = (dot of traceless reps) / scale
    # simple-root coefficients of each positive root, in positive_roots order
    positive_coefficients: Tuple[Tuple[Fraction, ...], ...] = field(compare=False, repr=False)

    def coroot_pairing(self, v: Eps, j: int) -> Fraction:
        """<v, h_{alpha_j}^vee> = 2 (v, alpha_j) / (alpha_j, alpha_j), j 1-based."""
        a = self.simple_roots[j - 1]
        return 2 * _dot(v, a) / _dot(a, a)

    def project(self, v: Eps) -> Eps:
        """Representative in the weight space (traceless part for type A)."""
        if self.series == "A":
            mean = sum(v, Fraction(0)) / len(v)
            return tuple(a - mean for a in v)
        return tuple(Fraction(a) for a in v)

    @property
    def rho(self) -> "Weight":
        return Weight(self, (Fraction(1),) * self.rank)

    def weight(self, coeffs) -> "Weight":
        return Weight(self, _fvec(coeffs))

    def fundamental_weight(self, i: int) -> "Weight":
        c = [Fraction(0)] * self.rank
        c[i - 1] = Fraction(1)
        return Weight(self, tuple(c))

    def weight_from_eps(self, v) -> "Weight":
        v = _fvec(v)
        coeffs = tuple(self.coroot_pairing(v, j) for j in range(1, self.rank + 1))
        w = Weight(self, coeffs)
        if w.eps() != self.project(v):
            raise ConfigurationError(f"{v} is not in the weight lattice span of {self.series}{self.rank}")
        return w


@dataclass(frozen=True)
class Weight:
    """A weight stored by its coefficients in the fundamental-weight basis."""

    root_system: RootSystem
    coeffs: Tuple[Fraction, ...]

    def eps(self) -> Eps:
        rs = self.root_system
        out = (Fraction(0),) * rs.ambient_dim
        for c, om in zip(self.coeffs, rs.fundamental_weights):
            if c:
                out = _add(out, _scale(c, om))
        return out

    def pairing(self, alpha_index: int) -> Fraction:
        """<w, h_alpha^vee> for a simple root index (1-based)."""
        if not 1 <= alpha_index <= self.root_system.rank:
            raise ConfigurationError(f"simple-root index {alpha_index} out of range")
        return self.coeffs[alpha_index - 1]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __add__(self, other: "Weight") -> "Weight":
        if other.root_system is not self.root_system:
            raise ConfigurationError("weights live in different root systems")
        return Weight(self.root_system, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __rmul__(self, c) -> "Weight":
        c = Fraction(c)
        return Weight(self.root_system, tuple(c * a for a in self.coeffs))


def _positive_roots(series: str, rank: int, dim: int) -> list:
    e = [tuple(Fraction(1 if k == i else 0) for k in range(dim)) for i in range(dim)]
    pos = []
    if series == "A":
        for i in range(dim):
            for j in range(i + 1, dim):
                pos.append(tuple(a - b for a, b in zip(e[i], e[j])))
    else:
        for i in range(rank):
            for j in range(i + 1, rank):
                pos.append(tuple(a - b for a, b in zip(e[i], e[j])))
                pos.append(tuple(a + b for a, b in zip(e[i], e[j])))
        if series == "B":
            pos.extend(e[:rank])
        elif series == "C":
            pos.extend(tuple(2 * x for x in v) for v in e[:rank])
    return pos


@lru_cache(maxsize=None)
def build_root_system(series: str, rank: int) -> RootSystem:
    """Construct the root system of a classical simple Lie algebra.

    Supported: A (rank >= 1), B and C (rank >= 2), D (rank >= 3).
    Exceptional series are rejected.
    """
    series = series.upper()
    minimum = {"A": 1, "B": 2, "C": 2, "D": 3}
    if series not in minimum:
        raise ConfigurationError(f"unsupported series {series!r}; expected one of A, B, C, D")
    if rank < minimum[series]:
        raise ConfigurationError(f"series {series} requires rank >= {minimum[series]}, got {rank}")

    dim = rank + 1 if series == "A" else rank
    e = [tuple(Fraction(1 if k == i else 0) for k in range(dim)) for i in range(dim)]

    simple = []
    for i in range(rank - 1):
        simple.append(tuple(a - b for a, b in zip(e[i], e[i + 1])))
    if series == "A":
        simple.append(tuple(a - b for a, b in zip(e[rank - 1], e[rank])))
    elif series == "B":
        simple.append(e[rank - 1])
    elif series == "C":
        simple.append(tuple(2 * x for x in e[rank - 1]))
    else:  # D
        simple.append(tuple(a + b for a, b in zip(e[rank - 2], e[rank - 1])))

    positive = _positive_roots(series, rank, dim)

    cartan = []
    for ai in simple:
        row = []
        for aj in simple:
            val = 2 * _dot(ai, aj) / _dot(aj, aj)
            assert val.denominator == 1
            row.append(int(val))
        cartan.append(tuple(row))
    cartan = tuple(cartan)

    # omega_i = sum_k (cartan^-1)[i][k] alpha_k solves <omega_i, coroot_j> = delta_ij.
    inv = solve([[Fraction(x) for x in row] for row in cartan],
                     [[Fraction(1 if i == j else 0) for j in range(rank)] for i in range(rank)])
    fundamental = []
    for i in range(rank):
        w = (Fraction(0),) * dim
        for k in range(rank):
            if inv[i][k]:
                w = _add(w, _scale(inv[i][k], simple[k]))
        fundamental.append(w)

    scale = {
        "A": Fraction(2 * (rank + 1)),
        "B": Fraction(2 * (2 * rank - 1)),
        "C": Fraction(4 * (rank + 1)),
        "D": Fraction(4 * (rank - 1)),
    }[series]

    # Gram system: sum_k c_k (alpha_k, alpha_j) = (root, alpha_j), every positive root at once
    gram = [[_dot(a, b) for b in simple] for a in simple]
    coeffs = solve(gram, [[_dot(root, a) for root in positive] for a in simple])

    return RootSystem(
        series=series,
        rank=rank,
        ambient_dim=dim,
        simple_roots=tuple(simple),
        positive_roots=tuple(positive),
        cartan_matrix=cartan,
        fundamental_weights=tuple(fundamental),
        killing_eps_scale=scale,
        positive_coefficients=tuple(zip(*coeffs)),
    )


def simple_root_expansion(rs: RootSystem, root: Eps) -> Tuple[Fraction, ...]:
    """Coefficients of a positive root in the simple-root basis."""
    try:
        return rs.positive_coefficients[rs.positive_roots.index(tuple(root))]
    except ValueError:
        raise ConfigurationError(f"{root} is not a positive root of {rs.series}{rs.rank}") from None


@dataclass(frozen=True)
class FlagDescriptor:
    """A flag manifold G/P_Theta together with its anticanonical data.

    ``theta`` is the set of simple-root indices generating the parabolic;
    ``complement`` indexes the Picard lattice.  ``radical_roots`` is the
    set of positive roots outside the span of theta, whose sum is the
    anticanonical weight ``delta_p``.
    """

    root_system: RootSystem
    theta: frozenset
    complement: Tuple[int, ...]
    radical_roots: Tuple[Eps, ...]
    dim_complex: int
    delta_p: Weight
    fano_index: int

    @property
    def delta_pairings(self) -> Tuple[Fraction, ...]:
        return tuple(self.delta_p.pairing(j) for j in self.complement)


def flag(rs: RootSystem, theta: Iterable[int]) -> FlagDescriptor:
    theta = frozenset(int(t) for t in theta)
    for t in theta:
        if not 1 <= t <= rs.rank:
            raise ConfigurationError(f"theta index {t} out of range for rank {rs.rank}")
    complement = tuple(sorted(set(range(1, rs.rank + 1)) - theta))
    if not complement:
        raise ConfigurationError("theta must be a proper subset of the simple roots")

    radical = []
    for root, coeffs in zip(rs.positive_roots, rs.positive_coefficients):
        support = {k + 1 for k, c in enumerate(coeffs) if c != 0}
        if not support <= theta:
            radical.append(root)

    total = (Fraction(0),) * rs.ambient_dim
    for r in radical:
        total = _add(total, r)
    delta = rs.weight_from_eps(total)

    pair_values = [delta.pairing(j) for j in complement]
    assert all(v.denominator == 1 and v > 0 for v in pair_values)
    fano = 0
    for v in pair_values:
        fano = gcd(fano, int(v))

    return FlagDescriptor(
        root_system=rs,
        theta=theta,
        complement=complement,
        radical_roots=tuple(radical),
        dim_complex=len(radical),
        delta_p=delta,
        fano_index=fano,
    )


def mu_of_bundle(fd: FlagDescriptor, exponents: dict) -> Weight:
    """Weight of the module attached to the bundle with the given twisting.

    ``exponents`` maps a complement index alpha to the positive integer
    l_alpha; all of them must be positive for the bundle to be negative.
    """
    if set(exponents) != set(fd.complement):
        raise ConfigurationError(f"exponent keys {sorted(exponents)} must equal the complement {fd.complement}")
    coeffs = [Fraction(0)] * fd.root_system.rank
    for j, l in exponents.items():
        if l <= 0:
            raise ConfigurationError(f"exponent for alpha_{j} must be positive, got {l}")
        coeffs[j - 1] = Fraction(l)
    return Weight(fd.root_system, tuple(coeffs))


def killing_dual_pairing(w1: Weight, w2: Weight) -> Fraction:
    """Cartan-Killing form transported to the dual of the Cartan subalgebra."""
    rs = w1.root_system
    if w2.root_system is not rs:
        raise ConfigurationError("weights live in different root systems")
    return _dot(rs.project(w1.eps()), rs.project(w2.eps())) / rs.killing_eps_scale


def casimir_eigenvalue(w: Weight) -> Fraction:
    """Casimir constant c(lambda) = kappa*(lambda, lambda + 2 rho)."""
    rs = w.root_system
    two_rho = 2 * rs.rho
    return killing_dual_pairing(w, w + two_rho)
