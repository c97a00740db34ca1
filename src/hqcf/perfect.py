"""Perfect hyperquadratic continued fractions and the polynomial families
that drive them.

The central objects, for an odd prime p, 1 <= k < p/2 and a in F_p^*:

  P_{k,a} = (T^2 + a)^k       Q_{k,a} = integral_0^T P_{k-1,a},

with P_k, Q_k the normalized a = -1 pair, and the building blocks

  A_{0,k} = T,   A_{i+1,k} = [A_{i,k}^p / P_k]   (polynomial part).

A continued fraction is "of type (p, l, k)" when its first l quotients are
prescribed multiples lambda_j * A_{i(j),k} and its tail satisfies

  alpha^p = eps1 * P_k * alpha_{l+1} + eps2 * Q_k.

When the scalar continued fractions delta_n all exist in F_p^* and the
last one equals 2k*eps1/eps2 (the existence and anchor conditions on the
prefix data), every partial quotient
is lambda_n * A_{i(n),k} and the lambda/delta sequences extend by explicit
recurrences; generate_perfect_expansion implements that generator, in
plain int arithmetic mod p, filling a level of adjacent blocks at a time,
one strided slice per column.  Its result keeps the quotients symbolic: a
ContinuedFraction holding the tower A_{0,k} .. A_{max i,k} and the lambda
and i sequences, whose length and degrees are read from the tower
and whose polynomials are built on first use, one per distinct
(i, lambda) pair.

a_sequence builds the tower by exact division: A_{i,k}^p = A_{i,k}(T^p) is
divided by P_k = (T^2 - 1)^k as k divisions by T^2 - 1, each the recurrence
q_j = c_{j+2} + q_{j+2} run as two stride-2 reversed cumulative sums.  The
remainder is a certificate: at every level built it must equal
-2k theta_k^{i+1} Q_k, the identity A_{i,k}^p = A_{i+1,k} P_k -
2k theta_k^{i+1} Q_k of Prop. 1, or ArithmeticError is raised.
verify_prop1 and verify_prop2 certify the exact continued fraction
identities satisfied by the P/Q pairs by multiplication alone: the
predicted quotients' continuant matrix is checked against the pair, which
proves what a Euclidean expansion would find, and the reversed expansion
is read off the same matrix.  verify_prop1 also re-checks the first tower
levels, each by one product.
"""

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .cf import (
    ContinuedFraction,
    ScalarCFUndefined,
    matrix_product,
    running_scalar_cf,
)
from .fields import PrimeField
from .laurent import Laurent, rational_series
from .polynomials import Polynomial, formal_integral


class DeltaUndefinedError(ValueError):
    """Some delta_n of the prefix data does not exist in F_p^*."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


class DeltaMismatchError(ValueError):
    """The anchor condition fails: delta_l != 2k*eps1/eps2."""


def _check_k(p: int, k: int, name: str = "k"):
    """Raise ValueError unless 1 <= k < p/2, the range of every family
    parameter."""
    if not 1 <= k or not 2 * k < p:
        raise ValueError(f"need 1 <= {name} < p/2, got {name}={k}, p={p}")


def pq_polynomials(field: PrimeField, k: int, a: Optional[int] = None):
    """The pair (P_{k,a}, Q_{k,a}); a defaults to -1 (the normalized family).

    Q requires 2k < p so that every monomial of (T^2+a)^(k-1) integrates.
    """
    _check_k(field.p, k)
    return power_p_family(field, k, a), formal_integral(power_p_family(field, k - 1, a))


def power_p_family(field: PrimeField, k: int, a: Optional[int] = None) -> Polynomial:
    """(T^2+a)^k by plain exponentiation, with no 2k < p restriction.

    It gives P and the integrand of Q in pq_polynomials, and the left side
    P_{kp-i} of the product-family expansion, whose exponent kp-i exceeds
    p/2 by design; only Q needs the integration bound.
    """
    a = (-1 if a is None else a) % field.p
    if a == 0:
        raise ValueError("the family parameter a must be nonzero")
    return Polynomial(field, [a, 0, 1]) ** k


class FamilyConstants(NamedTuple):
    theta: int
    v: tuple  # v[i-1] is v_{i,k}, i = 1..2k


def family_constants(field: PrimeField, k: int) -> FamilyConstants:
    """theta_k = (-1)^k prod_{j<=k} (1 - 1/(2j)) and the v_{i,k} sequence
    (v_1 = 2k-1, v_{i+1} v_i = (2k-2i-1)(2k-2i+1) / (i(2k-i)))."""
    p = field.p
    _check_k(p, k)
    theta = 1
    for j in range(1, k + 1):
        theta = theta * (1 - field.inv(2 * j % p)) % p
    if k % 2 == 1:
        theta = -theta % p
    v = [(2 * k - 1) % p]
    for i in range(1, 2 * k):
        num = (2 * k - 2 * i - 1) * (2 * k - 2 * i + 1) % p
        den = i * (2 * k - i) % p
        v.append(num * field.inv(den) % p * field.inv(v[-1]) % p)
    return FamilyConstants(theta, tuple(v))


# Largest closed-form degree deg A_{i,k} = (p^i (p-1-2k) + 2k)/(p-1) the
# generator builds; a_sequence builds the whole tower A_0 .. A_i, about
# p/(p-1) times that many coefficients (A_6 at p = 13, k = 1: 4,022,341).
MAX_A_DEGREE = 10**7


def a_degree(p: int, k: int, i: int) -> int:
    """deg A_{i,k} = (p^i (p-1-2k) + 2k)/(p-1), the solution of deg A_{0,k} = 1,
    deg A_{i+1,k} = p deg A_{i,k} - 2k; every level has degree 1 at 2k = p - 1."""
    return (p**i * (p - 1 - 2 * k) + 2 * k) // (p - 1)


def _check_a_index(p: int, k: int, i: int):
    """Raise ValueError when A_{i,k} is past MAX_A_DEGREE, before any
    polynomial is built.  An index above log2(MAX_A_DEGREE) is refused
    without computing p^i: for 2k < p - 1 its degree is at least
    p^(i-1) > MAX_A_DEGREE, and for 2k = p - 1 (every A_{i,k} of degree 1)
    the tower would still take i steps."""
    if i > MAX_A_DEGREE.bit_length() or a_degree(p, k, i) > MAX_A_DEGREE:
        raise ValueError(f"index {i} asks for A_({i},k) past degree {MAX_A_DEGREE}")


def a_sequence(field: PrimeField, k: int, count: int) -> list:
    """A_{0,k} .. A_{count,k} over the normalized family P_k = (T^2 - 1)^k.

    A_{i+1,k} is the quotient of the exact division of A_{i,k}^p by P_k.
    Its remainder must be -2k theta_k^(i+1) Q_k, the identity
    A_{i,k}^p = A_{i+1,k} P_k - 2k theta_k^(i+1) Q_k of Prop. 1; it is
    checked at every level built, and a mismatch raises ArithmeticError.
    A k outside 1 <= k < p/2 or a count past MAX_A_DEGREE is a
    ValueError, raised before any work; Q_k and theta_k are built only
    when a level is.
    """
    p = field.p
    _check_k(p, k)
    _check_a_index(p, k, count)
    seq = [Polynomial.x(field)]
    if count:
        _, Q = pq_polynomials(field, k)
        theta, _ = family_constants(field, k)
    while len(seq) <= count:
        i = len(seq) - 1
        quo, rem = _frobenius_divmod_pk(seq[i], k)
        if rem != Q.scaled(-2 * k * pow(theta, i + 1, p)):
            raise ArithmeticError(
                f"A_({i},k)^p = A_({i + 1},k) P_k - 2k theta^{i + 1} Q_k fails"
                f" at k = {k}, p = {p}: remainder {rem.format()}"
            )
        seq.append(quo)
    return seq


def _frobenius_divmod_pk(a: Polynomial, k: int):
    """(q, r) with a^p = a(T^p) = (T^2 - 1)^k q + r and deg r < 2k.

    Dividing c by T^2 - 1 is the recurrence q_j = c_(j+2) + q_(j+2): with
    s_j = c_j + c_(j+2) + c_(j+4) + ..., two stride-2 reversed cumulative
    sums, the quotient is s_2, s_3, ... and the remainder s_0 + s_1 T.
    After k such divisions with remainders r_1 .. r_k the remainder by
    (T^2 - 1)^k is r_1 + (T^2 - 1) r_2 + ... + (T^2 - 1)^(k-1) r_k.  A
    partial sum of residues stays below (p - 1)(deg q + 2k + 1) <=
    (MAX_MODULUS - 1)(MAX_A_DEGREE + MAX_MODULUS) < 2^63, inside int64.
    The top coefficient never changes, so a monic a gives a monic q.
    """
    field = a.field
    p = field.p
    n = a.degree * p
    c = np.zeros(n + 1, dtype=np.int64)
    c[::p] = a.coeffs
    rems = []
    for _ in range(k):
        for start in (0, 1):
            c[start::2] = np.cumsum(c[start::2][::-1])[::-1]
        c %= p
        rems.append(Polynomial(field, c[:2].tolist()))
        c = c[2:]
    step = Polynomial(field, (p - 1, 0, 1), _trusted=True)  # T^2 - 1
    rem = rems.pop()
    while rems:
        rem = rem * step + rems.pop()
    cs = c.tolist()
    del c  # free the int64 array before the quotient's tuple is built
    return Polynomial._make(field, cs), rem


# -- the generator -------------------------------------------------------------


class FrobeniusRelation(NamedTuple):
    """alpha^r = eps1 * P * alpha_{l+1} + eps2 * Q, r a power of p."""

    l: int
    eps1: int
    eps2: int
    P: Polynomial
    Q: Polynomial
    r: int


@dataclass(frozen=True)
class ExpansionSpec:
    """Defining data of a type (p, l, k) expansion with prescribed prefix."""

    field: PrimeField
    l: int
    k: int
    eps1: int
    eps2: int
    lambdas: tuple
    indices: tuple = ()

    def __post_init__(self):
        p = self.field.p
        object.__setattr__(self, "lambdas", tuple(x % p for x in self.lambdas))
        idx = tuple(self.indices) if self.indices else (0,) * self.l
        object.__setattr__(self, "indices", idx)
        if len(self.lambdas) != self.l or len(idx) != self.l:
            raise ValueError("prefix data must have length l")
        if self.l < 1:
            raise ValueError(f"need l >= 1, got l={self.l}")
        _check_k(p, self.k)
        if any(i < 0 for i in idx):
            raise ValueError(f"prefix indices must be >= 0, got {idx}")
        for i in idx:
            _check_a_index(self.field.p, self.k, i)
        if 0 in self.lambdas or self.eps1 % p == 0 or self.eps2 % p == 0:
            raise ValueError("lambdas and epsilons must be nonzero")

    def validate(self) -> list:
        """Check the existence and anchor conditions; return
        [delta_1..delta_l] on success.

        delta_n = [theta^i(n) lambda_n, ..., theta^i(1) lambda_1, 2k theta/eps2]
        must exist in F_p^* for every n <= l, and delta_l must equal
        2k*eps1/eps2.
        """
        f = self.field
        p = f.p
        theta, _ = family_constants(f, self.k)
        eps2_inv = f.inv(self.eps2)
        # delta_n is the running value after the anchor 2k theta / eps2
        heads = [2 * self.k * theta * eps2_inv]
        heads += [pow(theta, i, p) * x for i, x in zip(self.indices, self.lambdas)]
        try:
            deltas = running_scalar_cf(f, heads)[1:]
        except ScalarCFUndefined as exc:
            n = exc.index - 1  # delta_n = 0: the anchor is a unit, as theta and eps2 are
            raise DeltaUndefinedError(n, f"delta undefined at n={n}: delta_{n} = 0")
        if deltas[-1] == 0:
            raise DeltaUndefinedError(self.l, f"delta_{self.l} = 0, not in F_p^*")
        target = 2 * self.k * self.eps1 * eps2_inv % p
        if deltas[-1] != target:
            raise DeltaMismatchError(
                f"not a perfect-expansion spec: delta_l = {deltas[-1]} != 2k*eps1/eps2 = {target}"
            )
        return deltas

    def relation(self) -> FrobeniusRelation:
        P, Q = pq_polynomials(self.field, self.k)
        p = self.field.p
        return FrobeniusRelation(self.l, self.eps1 % p, self.eps2 % p, P, Q, p)


class GenerationResult(NamedTuple):
    cf: ContinuedFraction
    lambdas: list  # lambdas[n] for n = 1..N ([0] unused)
    deltas: list
    indices: list


# Sources per pass of generate_perfect_expansion; it bounds the pass's lists.
_CHUNK = 4096


def generate_perfect_expansion(spec: ExpansionSpec, n: int) -> GenerationResult:
    """First n partial quotients a_m = lambda_m * A_{i(m),k} of the perfect
    expansion determined by the spec, together with the extended lambda and
    delta sequences.

    Recurrences, for f(m) = (2k+1)m + l - 2k and 1 <= i <= 2k:
      lambda_{f(m)}   = eps1^((-1)^m) lambda_m
      lambda_{f(m)+i} = -v_i eps1^((-1)^(m+i)) (2k theta delta_m)^((-1)^i)
      delta_{f(m)}    = eps1^((-1)^m) delta_m theta
      delta_{f(m)+i}  = eps1^((-1)^(m+i)) (i v_i / (2k-2i+1)) (2k theta delta_m)^((-1)^i)
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    f = spec.field
    p = f.p
    base_deltas = spec.validate()
    theta, v = family_constants(f, spec.k)
    k, l = spec.k, spec.l
    K = 2 * k + 1  # block length; f(m) = K m + l - 2k
    # the prefix and the last block may run past n; the tail is cut off below
    lam, dl, idx = [0] * (n + K), [0] * (n + K), [0] * (n + K)
    lam[1 : l + 1], dl[1 : l + 1], idx[1 : l + 1] = spec.lambdas, base_deltas, spec.indices
    eps1 = spec.eps1 % p
    eps1_inv = f.inv(eps1)
    col0 = ((eps1, eps1 * theta % p), (eps1_inv, eps1_inv * theta % p))  # m even, m odd
    # -v_i and i v_i / (2k - 2i + 1) for i = 1..2k; |2k - 2i + 1| < p is odd, so a unit
    consts = [(-x % p, i * x * f.inv(2 * k - 2 * i + 1) % p) for i, x in enumerate(v, 1)]
    inverse = {}
    m_lo, m_last = 1, (n - l + 2 * k) // K  # f(m_last) <= n < f(m_last + 1)
    while m_lo <= m_last:
        start = K * m_lo + l - 2 * k  # f(m_lo): every position before it is known
        m_end = min(m_lo + _CHUNK, start, m_last + 1)  # the sources m_lo .. m_end - 1
        broken = 0 in lam[m_lo:m_end]  # a zero source: fill the blocks before it, then raise
        m_end = lam.index(0, m_lo) if broken else m_end
        stop = K * m_end + l - 2 * k  # f(m_end)
        for j in (0, 1):  # column 0, the sources m of one parity at a time
            e, e_theta = col0[(m_lo + j) % 2]
            src, dst = slice(m_lo + j, m_end, 2), slice(start + j * K, stop, 2 * K)
            lam[dst] = [e * x % p for x in lam[src]]
            dl[dst] = [e_theta * x % p for x in dl[src]]
        idx[start:stop:K] = [i + 1 for i in idx[m_lo:m_end]]
        # column i is -v_i (and i v_i / (2k - 2i + 1)) times u_m^((-1)^i), where
        # u_m = eps1^((-1)^m) 2k theta delta_m = 2k delta_f(m)
        u = [2 * k * x % p for x in dl[start:stop:K]]
        inverse.update((x, f.inv(x)) for x in set(u).difference(inverse))
        u_inv = list(map(inverse.__getitem__, u))
        for i, (a, b) in enumerate(consts, 1):
            w = u_inv if i % 2 else u
            lam[start + i : stop : K] = [a * x % p for x in w]
            dl[start + i : stop : K] = [b * x % p for x in w]
        del u, u_inv
        end = min(stop, n + 1)
        if not (all(lam[start:end]) and all(dl[start:end])):
            pos = next(j for j in range(start, end) if not lam[j] * dl[j])
            raise ArithmeticError(f"internal contradiction: zero lambda/delta generated at index {pos}")
        if broken:
            raise ArithmeticError(f"generation order broken at block f({m_end})")
        m_lo = m_end
    del lam[n + 1 :], dl[n + 1 :], idx[n + 1 :]
    cf = ContinuedFraction.symbolic(
        f, a_sequence(f, k, max(idx[1:], default=0)), lam[1:], idx[1:],
        perfect_type=(p, l, k, tuple(spec.indices)),
    )
    return GenerationResult(cf, lam, dl, idx)


def generate_perfect_p11(
    field: PrimeField, i1: int, eps1: int, eps2: int, n: int
) -> GenerationResult:
    """Type (p, 1, 1) perfect expansion via its specialized recurrences.

    Needs eps2^2 + 2*eps1 != 0; then lambda_1 = (eps2^2 + 2 eps1)(-2)^i1 / eps2
    and, writing the blocks as (3m-1, 3m, 3m+1):
      lambda_{3m-1} = eps1^((-1)^m) lambda_m      delta_{3m-1} = -eps1^((-1)^m) delta_m / 2
      lambda_{3m}   = -eps1^((-1)^(m+1)) / delta_m    delta_{3m} = -eps1^((-1)^(m+1)) / delta_m
      lambda_{3m+1} = -1 / lambda_{3m}            delta_{3m+1} = 2 / delta_{3m}
    with delta_1 = -2*eps1/eps2.  Agrees with generate_perfect_expansion on the same
    data (its delta convention differs by sign).
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    f = field
    p = f.p
    eps1, eps2 = eps1 % p, eps2 % p
    disc = (eps2 * eps2 + 2 * eps1) % p
    if disc == 0:
        raise ValueError("excluded by hypothesis: eps2^2 + 2*eps1 = 0")
    if i1 < 0:
        raise ValueError(f"the first tower index must be >= 0, got i1 = {i1}")
    eps2_inv = f.inv(eps2)
    lam = [0] * (n + 1)
    dl = [0] * (n + 1)
    idx = [0] * (n + 1)
    if n >= 1:
        lam[1] = disc * pow(-2, i1, p) * eps2_inv % p
        dl[1] = -2 * eps1 * eps2_inv % p
        idx[1] = i1
    eps1_inv = f.inv(eps1)
    half = f.inv(2)
    m = 1
    while 3 * m - 1 <= n:
        e = eps1 if m % 2 == 0 else eps1_inv
        b = 3 * m - 1
        lam[b] = e * lam[m] % p
        dl[b] = -e * dl[m] * half % p
        idx[b] = idx[m] + 1
        if b + 1 <= n:
            e2 = eps1_inv if m % 2 == 0 else eps1
            val = -e2 * f.inv(dl[m]) % p
            lam[b + 1] = val
            dl[b + 1] = val
            idx[b + 1] = 0
        if b + 2 <= n:
            lam[b + 2] = -f.inv(lam[b + 1]) % p
            dl[b + 2] = 2 * f.inv(dl[b + 1]) % p
            idx[b + 2] = 0
        m += 1
    cf = ContinuedFraction.symbolic(
        f, a_sequence(f, 1, max(idx[1 : n + 1], default=0)), lam[1:], idx[1:],
        perfect_type=(p, 1, 1, (i1,)),
    )
    return GenerationResult(cf, lam, dl, idx)


# -- identity verification -------------------------------------------------------


@dataclass
class Prop1Report:
    p: int
    k: int
    theta: int
    v: tuple
    cf_matches: bool
    reversal_holds: bool
    power_identity: list  # booleans for i = 0, 1, 2

    @property
    def passed(self) -> bool:
        return self.cf_matches and self.reversal_holds and all(self.power_identity)


def _certify(num: Polynomial, den: Polynomial, predicted: list, k: int, theta: int):
    """(cf_matches, reversal_holds) for num/den and the predicted [b_1..b_n],
    both read from one continuant matrix (x_n, x_{n-1}, y_n, y_{n-1}).

    A continued fraction whose quotients after the first all have degree
    >= 1 is the unique one of its value, and x_n, y_n are coprime, so the
    Euclidean expansion of num/den is [b_1..b_n] exactly when those degrees
    hold and num y_n = den x_n.  The continuant is symmetric under
    reversal, so [b_n..b_1] = x_n / x_{n-1}, and the reversal identity
    num/den = -4 k^2 theta^2 [b_n..b_1] is num x_{n-1} = -4 k^2 theta^2 den x_n.
    """
    x, xp, y, _ = ContinuedFraction(num.field, predicted).matrix()
    den_x = den * x
    cf_matches = all(b.degree >= 1 for b in predicted[1:]) and num * y == den_x
    return cf_matches, num * xp == den_x.scaled(-4 * k * k * theta * theta)


def verify_prop1(field: PrimeField, k: int) -> Prop1Report:
    """Check the three exact identities of the normalized pair (P_k, Q_k):

      P_k/Q_k = [v_1 T, ..., v_{2k} T],
      P_k/Q_k = -4 k^2 theta_k^2 [v_{2k} T, ..., v_1 T],
      A_{i,k}^p = A_{i+1,k} P_k - 2k theta_k^{i+1} Q_k   (i = 0, 1, 2).

    The first two are certified from the continuant matrix of the
    predicted quotients (_certify).  The third is one product per level:
    deg Q_k < deg P_k, so it holds exactly when A_{i+1,k} is the quotient
    and -2k theta_k^{i+1} Q_k the remainder of A_{i,k}^p by P_k.
    """
    p = field.p
    theta, v = family_constants(field, k)
    P, Q = pq_polynomials(field, k)
    T = Polynomial.x(field)
    cf_matches, reversal_holds = _certify(P, Q, [T.scaled(c) for c in v], k, theta)

    A = a_sequence(field, k, 3)
    power_identity = [
        A[i + 1] * P - Q.scaled(2 * k * pow(theta, i + 1, p)) == A[i].pow_frobenius()
        for i in range(3)
    ]
    return Prop1Report(p, k, theta, v, cf_matches, reversal_holds, power_identity)


@dataclass
class Prop2Report:
    p: int
    k: int
    i: int
    defined: bool
    reason: str
    cf_matches: bool = False
    reversal_holds: bool = False
    predicted_length: int = 0

    @property
    def passed(self) -> bool:
        return self.defined and self.cf_matches and self.reversal_holds


def prop2_predicted_quotients(field: PrimeField, k: int, i: int):
    """Predicted expansion of P_{kp-i} / Q_k^p: 2k-1 blocks, block j led by
    v_{j,k} A_{1,i} followed by 2i entries -delta_j^(-(-1)^m) v_{m,i} T
    (m = 1..2i), closed by v_{2k,k} A_{1,i}; here
    delta_j = 2i theta_i [v_{j,k}, ..., v_{1,k}].

    Raises ScalarCFUndefined if some delta_j is zero.
    """
    p = field.p
    _, v_k = family_constants(field, k)
    theta_i, v_i = family_constants(field, i)
    A1 = a_sequence(field, i, 1)[1]
    T = Polynomial.x(field)
    # delta_j / (2i theta_i) is the running value r_j over v_1, v_2, ...; a
    # trailing head makes r_(2k-1) a tail too, so every zero one raises
    try:
        brackets = running_scalar_cf(field, [*v_k[: 2 * k - 1], 0])
    except ScalarCFUndefined as exc:
        j = exc.index
        raise ScalarCFUndefined(j, f"delta_{j} = 0 in the block construction")
    quotients = []
    for j in range(1, 2 * k):
        delta_j = 2 * i * theta_i * brackets[j - 1] % p
        dj_inv = field.inv(delta_j)
        quotients.append(A1.scaled(v_k[j - 1]))
        for m in range(1, 2 * i + 1):
            scal = dj_inv if m % 2 == 1 else delta_j
            quotients.append(T.scaled(-scal * v_i[m - 1]))
    quotients.append(A1.scaled(v_k[2 * k - 1]))
    return quotients


def verify_prop2(field: PrimeField, k: int, i: int) -> Prop2Report:
    """Certify that the predicted block expansion [b_1..b_n] is the
    continued fraction of P_{kp-i} / Q_k^p, and the reversal identity
    [b_1..b_n] = -4 k^2 theta_k^2 [b_n..b_1], from the continuant matrix of
    the predicted quotients (_certify)."""
    p = field.p
    _check_k(p, k)
    _check_k(p, i, "i")
    try:
        predicted = prop2_predicted_quotients(field, k, i)
    except ScalarCFUndefined as exc:
        return Prop2Report(p, k, i, False, f"construction undefined: {exc}")
    theta_k, _ = family_constants(field, k)
    Pk = power_p_family(field, k * p - i)
    _, Qk = pq_polynomials(field, k)
    cf_matches, reversal_holds = _certify(Pk, Qk.pow_frobenius(), predicted, k, theta_k)
    return Prop2Report(p, k, i, True, "", cf_matches, reversal_holds, len(predicted))


# -- relation residual ------------------------------------------------------------


def relation_residual(cf: ContinuedFraction, rel: FrobeniusRelation, precision: int):
    """Series check of alpha^r = eps1 * P * alpha_{l+1} + eps2 * Q.

    Both sides are expanded down to T^(-precision) from the continued
    fraction's convergents; the return value is the exponent of the first
    differing coefficient, or -inf when the sides agree on the whole range.
    Raises ValueError when the expansion is too short to certify the
    requested precision.
    """
    if precision < 1:
        raise ValueError("precision must be positive")
    field = cf.field
    p = field.p
    l = rel.l
    frobenius_steps, e = 0, 1
    while e < rel.r:
        frobenius_steps, e = frobenius_steps + 1, e * p
    if e != rel.r:
        raise ValueError(f"the relation's exponent r = {rel.r} is not a power of p = {p}")
    if len(cf) <= l:
        raise ValueError(
            f"insufficient expansion: need more than l = {l} partial quotients"
        )
    # the whole is the head [a_1..a_l] times the tail [a_(l+1)..a_n]
    head, tail = cf.matrix(0, l), cf.matrix(l)
    x, _, y, _ = matrix_product(head, tail, 0, len(cf))
    floor_cmp = -precision - 1
    # alpha^r needs alpha down to roughly -precision/r
    floor_alpha = -(precision // rel.r + 2)
    if 2 * y.degree < -floor_alpha:
        raise ValueError("insufficient expansion for the requested precision")
    lhs = rational_series(x, y, floor_alpha)
    for _ in range(frobenius_steps):  # alpha^r = alpha(T^r)
        lhs = lhs.frobenius()
    lhs = lhs.truncate(floor_cmp)

    xt, _, yt, _ = tail
    floor_tail = floor_cmp - rel.P.degree
    if 2 * yt.degree < -floor_tail:
        raise ValueError("insufficient expansion for the requested precision")
    tail_series = rational_series(xt, yt, floor_tail)
    Pser = Laurent.from_polynomial(rel.P)
    Qser = Laurent.from_polynomial(rel.Q)
    rhs = ((Pser * tail_series).scaled(rel.eps1) + Qser.scaled(rel.eps2)).truncate(
        floor_cmp
    )
    return lhs.first_difference(rhs)
