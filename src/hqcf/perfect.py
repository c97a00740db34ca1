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
prefix data), every partial quotient is lambda_n * A_{i(n),k} and the
lambda/delta sequences extend by explicit recurrences;
generate_perfect_expansion implements that generator on int64 arrays of
residues mod p, filling a level of adjacent blocks at a time, one
vectorized multiply-mod per column.  Its result keeps the quotients
symbolic: a ContinuedFraction holding the tower A_{0,k} .. A_{max i,k}
and the lambda and i sequences, whose length and degrees are read from
the tower and whose polynomials are built on first use, one per distinct
(i, lambda) pair.

a_sequence builds the tower by exact division: A_{i,k}^p = A_{i,k}(T^p) is
divided by P_k = (T^2 - 1)^k as k divisions by T^2 - 1, each the recurrence
q_j = c_{j+2} + q_{j+2} run as two stride-2 reversed cumulative sums on an
int64 array, which is carried to the next level as it is.  The
remainder is a certificate: at every level built it must equal
-2k theta_k^{i+1} Q_k, the identity A_{i,k}^p = A_{i+1,k} P_k -
2k theta_k^{i+1} Q_k of Prop. 1, or ArithmeticError is raised.
verify_prop1 and verify_prop2 certify the exact continued fraction
identities of the P/Q pairs by multiplication alone: a continuant matrix
of the predicted quotients is checked against the pair, which proves what
a Euclidean expansion would find, and the reversed expansion is read off
the same matrix.  Both predictions are symbolic, like the generator's.
Prop. 1 (P_k/Q_k, 2k quotients) builds that matrix as the continuant
product tree (_certify).  Prop. 2 (P_{kp-i}/Q_k^p, (2k-1)(2i+1)+1 quotients)
follows the paper's proof instead: one matrix identity per block, which
four relations checked once per i make two equations in F_p, proves that
the matrix is a closed form in Prop. 1's matrices at i and at k (under
T -> T^p), so its two verdicts are Prop. 1's at k, and no quotient, no tree
of degree 2kp and no P_{kp-i} is built (_certify_blocks; the tree is its
test oracle); what one k or one i shares is built once per grid (_AtK,
_AtI).  verify_prop1 also re-checks the tower up to A_3.
expand_from_relation expands any alpha from a_1 .. a_l and its relation
alpha^r = eps1 P alpha_{l+1} + eps2 Q alone, by Gosper's homographic algorithm;
relation_residual checks such a relation on an expansion as one polynomial
identity between convergents of alpha and of alpha_{l+1}, with no series.
"""

from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple, Optional

import numpy as np

from .cf import ContinuedFraction, ScalarCFUndefined, running_scalar_cf
from .fields import PrimeField
from .polynomials import Polynomial, formal_integral


class DeltaUndefinedError(ValueError):
    """Some delta_n of the prefix data does not exist in F_p^*."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


class DeltaMismatchError(ValueError):
    """The anchor condition fails: delta_l != 2k*eps1/eps2."""


class InsufficientExpansion(ValueError):
    """relation_residual's continued fraction is too short for the precision asked."""


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

    It gives P and the integrand of Q in pq_polynomials; only Q needs the
    integration bound.
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
# expand_from_relation reads no input a_j(T^r) of higher degree.
MAX_A_DEGREE = 10**7

# Largest deg P_{kp-i} = 2(kp - i) of a case verify_prop2 certifies (97,654
# at p = 313, k = 156, i = 1); no P_{kp-i} is built, but it bounds the
# sweep's size: (p - 1)^2 / 4 cases of (2k - 1)(2i + 1) + 1 quotients.
MAX_PROP2_DEGREE = 10**5


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
    level = np.array(seq[0].coeffs, dtype=np.int64)  # A_i's coefficients, carried to the next level
    while len(seq) <= count:
        i = len(seq) - 1
        level, rem = _frobenius_divmod_pk(field, level, k)
        if rem != Q.scaled(-2 * k * pow(theta, i + 1, p)):
            raise ArithmeticError(
                f"A_({i},k)^p = A_({i + 1},k) P_k - 2k theta^{i + 1} Q_k fails"
                f" at k = {k}, p = {p}: remainder {rem.format()}"
            )
        # the tuple of ints straight from the array, with no list between them;
        # the level is monic, so there is no zero to strip
        seq.append(Polynomial(field, tuple(memoryview(level)), _trusted=True))
    return seq


def _frobenius_divmod_pk(field: PrimeField, a: np.ndarray, k: int):
    """(q, r) with a(T)^p = a(T^p) = (T^2 - 1)^k q + r and deg r < 2k, for a
    the reduced int64 coefficients of a polynomial over field; q comes back
    as reduced int64 coefficients too, and r as a Polynomial.

    Dividing c by T^2 - 1 is the recurrence q_j = c_(j+2) + q_(j+2): with
    s_j = c_j + c_(j+2) + c_(j+4) + ..., two stride-2 reversed cumulative
    sums, the quotient is s_2, s_3, ... and the remainder s_0 + s_1 T.
    After k such divisions with remainders r_1 .. r_k the remainder by
    (T^2 - 1)^k is r_1 + (T^2 - 1) r_2 + ... + (T^2 - 1)^(k-1) r_k.  A
    partial sum of residues stays below (p - 1)(deg q + 2k + 1), where
    deg q, a tower level's, is at most MAX_A_DEGREE: below
    10^6 (10^7 + 10^6) < 2^63, inside int64.
    The top coefficient never changes, so a monic a gives a monic q.
    """
    p = field.p
    c = np.zeros((len(a) - 1) * p + 1, dtype=np.int64)
    c[::p] = a
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
    return c, rem


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


def generate_perfect_expansion(spec: ExpansionSpec, n: int) -> ContinuedFraction:
    """First n partial quotients a_m = lambda_m * A_{i(m),k} of the perfect
    expansion determined by the spec, symbolic over the tower; the delta
    sequence the recurrences extend alongside lambda stays internal.

    Recurrences, for f(m) = (2k+1)m + l - 2k and 1 <= i <= 2k:
      lambda_{f(m)}   = eps1^((-1)^m) lambda_m
      lambda_{f(m)+i} = -v_i eps1^((-1)^(m+i)) (2k theta delta_m)^((-1)^i)
      delta_{f(m)}    = eps1^((-1)^m) delta_m theta
      delta_{f(m)+i}  = eps1^((-1)^(m+i)) (i v_i / (2k-2i+1)) (2k theta delta_m)^((-1)^i)

    lambda, delta and i are int64 arrays.  Every product the fill takes is
    of two residues, below p^2 <= 10^12 < 2^63 for p <= MAX_MODULUS, so it
    is exact in int64; the distinct u_m of a pass are inverted in Python
    ints.  The arrays become tuples of ints once, at the end.  As f(m) > m
    takes i(m) + 1 and the rest of its block 0, the top index is the largest
    i_j plus the steps m -> f(m) from a prefix j <= n that stay <= n: one
    whose A_(i,k) is past MAX_A_DEGREE is refused before any array is made.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    f = spec.field
    p = f.p
    base_deltas = spec.validate()
    theta, v = family_constants(f, spec.k)
    k, l = spec.k, spec.l
    K = 2 * k + 1  # block length; f(m) = K m + l - 2k
    top = 0
    for j, i in enumerate(spec.indices[:n], 1):
        while K * j + l - 2 * k <= n:
            j, i = K * j + l - 2 * k, i + 1
        top = max(top, i)
    _check_a_index(p, k, top)
    # the prefix and the last block may run past n; the tail is cut off below
    lam, dl, idx = (np.zeros(max(n, l) + K, dtype=np.int64) for _ in range(3))
    lam[1 : l + 1], dl[1 : l + 1], idx[1 : l + 1] = spec.lambdas, base_deltas, spec.indices
    eps1 = spec.eps1 % p
    eps1_inv = f.inv(eps1)
    col0 = ((eps1, eps1 * theta % p), (eps1_inv, eps1_inv * theta % p))  # m even, m odd
    # -v_i and i v_i / (2k - 2i + 1) for i = 1..2k; |2k - 2i + 1| < p is odd, so a unit
    consts = [(-x % p, i * x * f.inv(2 * k - 2 * i + 1) % p) for i, x in enumerate(v, 1)]
    m_lo, m_last = 1, (n - l + 2 * k) // K  # f(m_last) <= n < f(m_last + 1)
    while m_lo <= m_last:
        start = K * m_lo + l - 2 * k  # f(m_lo): every position before it is known
        m_end = min(start, m_last + 1)  # the sources m_lo .. m_end - 1
        zeros = np.flatnonzero(lam[m_lo:m_end] == 0)  # a zero source: fill the blocks before it, then raise
        broken = zeros.size > 0
        m_end = m_lo + int(zeros[0]) if broken else m_end
        stop = K * m_end + l - 2 * k  # f(m_end)
        for j in (0, 1):  # column 0, the sources m of one parity at a time
            e, e_theta = col0[(m_lo + j) % 2]
            src, dst = slice(m_lo + j, m_end, 2), slice(start + j * K, stop, 2 * K)
            lam[dst] = lam[src] * e % p
            dl[dst] = dl[src] * e_theta % p
        idx[start:stop:K] = idx[m_lo:m_end] + 1
        # column i is -v_i (and i v_i / (2k - 2i + 1)) times u_m^((-1)^i), where
        # u_m = eps1^((-1)^m) 2k theta delta_m = 2k delta_f(m)
        u = dl[start:stop:K] * (2 * k) % p
        values = sorted(set(u.tolist()))  # the distinct u_m, at most p - 1
        u_inv = np.array([f.inv(x) for x in values], dtype=np.int64)[np.searchsorted(values, u)]
        for i, (a, b) in enumerate(consts, 1):
            w = u_inv if i % 2 else u
            lam[start + i : stop : K] = w * a % p
            dl[start + i : stop : K] = w * b % p
        del u, u_inv
        end = min(stop, n + 1)
        zeros = np.flatnonzero(lam[start:end] * dl[start:end] == 0)
        if zeros.size:
            raise ArithmeticError(f"internal contradiction: zero lambda/delta generated at index {start + zeros[0]}")
        if broken:
            raise ArithmeticError(f"generation order broken at block f({m_end})")
        m_lo = m_end
    # the arrays become tuples of ints with no list between them
    del dl
    lam, idx = tuple(memoryview(lam[1 : n + 1])), tuple(memoryview(idx[1 : n + 1]))
    return ContinuedFraction.symbolic(
        f, a_sequence(f, k, top), lam, idx, perfect_type=(p, l, k, tuple(spec.indices)),
    )


def generate_perfect_p11(
    field: PrimeField, i1: int, eps1: int, eps2: int, n: int
) -> ContinuedFraction:
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
    lam, dl, idx = [0] * (n + 1), [0] * (n + 1), [0] * (n + 1)
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
    return ContinuedFraction.symbolic(
        f, a_sequence(f, 1, max(idx[1:], default=0)), lam[1:], idx[1:],
        perfect_type=(p, 1, 1, (i1,)),
    )


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


def _certify(num: Polynomial, den: Polynomial, predicted: ContinuedFraction, k: int, theta: int,
             matrix: tuple):
    """(cf_matches, reversal_holds) for num/den and the predicted expansion
    [b_1..b_n], both read from its continuant matrix (x_n, x_{n-1}, y_n,
    y_{n-1}): Prop. 1's certificate, and the tests' oracle for _certify_blocks.

    A continued fraction whose quotients after the first all have degree
    >= 1 is the unique one of its value, and x_n, y_n are coprime, so the
    Euclidean expansion of num/den is [b_1..b_n] exactly when those degrees
    hold and num y_n = den x_n.  The continuant is symmetric under
    reversal, so [b_n..b_1] = x_n / x_{n-1}, and the reversal identity
    num/den = -4 k^2 theta^2 [b_n..b_1] is num x_{n-1} = -4 k^2 theta^2 den x_n.
    """
    x, xp, y, _ = matrix
    den_x = den * x
    cf_matches = all(d >= 1 for d in predicted.degrees()[1:]) and num * y == den_x
    return cf_matches, num * xp == den_x.scaled(-4 * k * k * theta * theta)


def _prop1_predicted(field: PrimeField, v: tuple) -> ContinuedFraction:
    """Prop. 1's expansion [v_1 T, ..., v_2k T] of P_k/Q_k, symbolic over [T]."""
    return ContinuedFraction.symbolic(field, [Polynomial.x(field)], v, (0,) * len(v))


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
    predicted = _prop1_predicted(field, v)
    cf_matches, reversal_holds = _certify(P, Q, predicted, k, theta, predicted.matrix())

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


class _AtK:
    """What the Prop. 2 cases at one k share, from theta_k, the v_{j,k} and
    Prop. 1's matrix at k: the rows (1/r_j, r_j) of r_j = [v_{j,k}, ..., v_{1,k}],
    j < 2k (ScalarCFUndefined if one is 0), and Prop. 1's verdicts
    cf_matches and reversal_holds on P_k / Q_k (_certify)."""

    def __init__(self, field: PrimeField, family: FamilyConstants, matrix: tuple):
        self.family, (theta, v_k) = family, family
        self.k = k = len(v_k) // 2
        # a trailing head makes r_(2k-1) a tail too, so every zero one raises
        brackets = running_scalar_cf(field, [*v_k[: 2 * k - 1], 0])[:-1]
        self.brackets = np.array([(field.inv(r), r) for r in brackets], dtype=np.int64)
        P, Q = pq_polynomials(field, k)
        self.cf_matches, self.reversal_holds = _certify(P, Q, _prop1_predicted(field, v_k), k, theta, matrix)


class _AtI:
    """What the Prop. 2 cases at one i share, from theta_i, the v_{m,i} and
    Prop. 1's matrix M_i = [[x, x'], [y, y']] at i: the tower [T, A = A_{1,i}],
    t = 2i theta_i, 1/t, 1/v_{1,i}, and whether, for sigma = lc(P_i)/lc(x),
      (R1) sigma x = P_i,  (R2) x' = -t^2 y,  (R3) T^p = sigma (A x - t y),  (R4) sigma^2 = 1.
    R3 is the tower's level-0 identity T^p = A P_i - t Q_i, R2 Prop. 1's
    reversal at i.  As T^(2p) = 1 mod P_i, R1 and R3 give t^2 y^2 = 1/sigma^2
    mod x, and det M_i = 1 gives x' y = -1 mod x, so R2 follows from R1, R3,
    R4 (deg x' < deg x) and R4 from R1, R2, R3: no fault of theta_i or v_i
    breaks either alone."""

    def __init__(self, field: PrimeField, family: FamilyConstants, matrix: tuple):
        p, self.i = field.p, len(family.v) // 2
        self.family, self.tower = family, a_sequence(field, self.i, 1)
        self.t = t = 2 * self.i * family.theta % p
        self.t_inv, self.v1_inv = field.inv(t), field.inv(family.v[0])
        x, xp, y, _ = matrix
        P, A = power_p_family(field, self.i), self.tower[1]
        sigma = P.leading_coefficient() * field.inv(x.leading_coefficient()) % p
        self.holds = (x.scaled(sigma) == P and xp == y.scaled(-t * t)
                      and (A * x - y.scaled(t)).scaled(sigma) == Polynomial.monomial(field, 1, p)
                      and sigma * sigma % p == 1)


def prop2_predicted_quotients(field: PrimeField, at_k: _AtK, at_i: _AtI) -> ContinuedFraction:
    """Predicted expansion of P_{kp-i} / Q_k^p, symbolic over the tower
    [T, A_{1,i}]: 2k-1 blocks, block j led by v_{j,k} A_{1,i} followed by 2i
    entries -delta_j^(-(-1)^m) v_{m,i} T (m = 1..2i), closed by
    v_{2k,k} A_{1,i}; here delta_j = t r_j with t = 2i theta_i and r_j =
    [v_{j,k}, ..., v_{1,k}], and 1/delta_j = (1/t)(1/r_j) is read off at_i and at_k."""
    p = field.p
    v_k, v_i, k, i = at_k.family.v, at_i.family.v, at_k.k, at_i.i
    # row j: v_{j,k}, then -v_{m,i} times 1/delta_j at odd m and delta_j at even m
    scales = np.tile(at_k.brackets * (at_i.t_inv, at_i.t) % p, i)
    blocks = np.column_stack([v_k[: 2 * k - 1], -scales * np.array(v_i, dtype=np.int64) % p])
    lambdas = blocks.ravel().tolist() + [v_k[2 * k - 1]]
    indices = ((1,) + (0,) * (2 * i)) * (2 * k - 1) + (1,)
    return ContinuedFraction.symbolic(field, at_i.tower, lambdas, indices)


def _certify_blocks(predicted: ContinuedFraction, at_k: _AtK, at_i: _AtI):
    """(cf_matches, reversal_holds) of _certify for num/den = P_{kp-i} / Q_k^p
    and the symbolic [b_1..b_n] of prop2_predicted_quotients, proved block by
    block from its lambdas and indices: no quotient, no tree and neither
    num nor den is built, and no F_p inverse is taken.

    Let M_i = [[x, x'], [y, y']], sigma, t and A be _AtI's.  The indices must
    be (1, 0 x 2i) x (2k-1) and 1 over at_i's tower [T, A]: block j is a lead
    b_j = lam_j A and 2i inner quotients c_j v_{m,i} T (m odd) and v_{m,i} T / c_j
    (m even), c_j read off the first and all compared by multiplication; its
    matrix is B_j = [[b_j x + y/c_j, c_j b_j x' + y'], [x, c_j x']].  With
    S_j = [[1, G_j], [0, P_i]], G_0 = 0 and G_j = -c_j sigma x', the four
    entries of S_{j-1} [[v_{j,k} T^p, 1], [1, 0]] = sigma B_j S_j are
      sigma B11 = v_{j,k} T^p + G_{j-1},   sigma (B11 G_j + B12 P_i) = 1,
      sigma x = P_i,   x G_j + c_j x' P_i = 0,
    and the closing step is v_{2k,k} T^p + G_{2k-1} = P_i b_n.  Under R1-R4
    the third is R1, the fourth follows, the second is sigma^2 det M_i = 1
    (the tree asserts det M_i = 1), i.e. R4, and by R2 and R3 the first is
      sigma ((lam_j - v_{j,k}) A x + (1/c_j - t^2 c_{j-1} + t v_{j,k}) y) = 0
    (c_0 = 0), the closing step the same without 1/c_j.  A x and y are
    independent (y != 0, deg y = 2i - 1 < p = deg A x), so all hold exactly
    when lam_j = v_{j,k} and c_j (t^2 c_{j-1} - t v_{j,k}) = 1 for j < 2k and
    lam_n = v_{2k,k} = t c_{2k-1}: two equations in F_p per block, checked
    over all blocks at once.  The identities telescope: the predicted
    matrix is sigma^(2k-1) [[X/P_i, X'], [Y, P_i Y']], [[X, X'], [Y, Y']]
    being Prop. 1's matrix at k under T -> T^p.  So, as in _certify, the
    expansion is num/den's when the degree guard holds and num P_i Y = den X,
    and the reversal identity is num P_i X' = -4 k^2 theta^2 den X.  Here
    num P_i = P_k(T^p) and den = Q_k(T^p), and T -> T^p is an injective ring
    map fixing F_p, so these are P_k y = Q_k x and P_k x' = -4 k^2 theta^2 Q_k x
    at k: Prop. 1's two verdicts, which at_k holds.  An explicit list (its
    indices 0..n-1 never have the shape), a zero lambda, another tower, a
    broken shape, a failed R1-R4 or a failed equation certifies neither
    verdict.
    """
    p, t = predicted.field.p, at_i.t
    v_k, v_i = at_k.family.v, np.array(at_i.family.v, dtype=np.int64)
    width = len(v_i) + 1  # a lead and its 2i inner quotients; 2k - 1 = len(v_k) - 1 blocks
    lambdas, shape = predicted.lambdas, ((1,) + (0,) * (width - 1)) * (len(v_k) - 1) + (1,)
    if (not at_i.holds or predicted.indices != shape or 0 in lambdas
            or predicted.tower != at_i.tower):
        return False, False
    blocks = np.array(lambdas[:-1], dtype=np.int64).reshape(-1, width)  # per block: lead, inner
    leads, inner, v_lead = blocks[:, 0], blocks[:, 1:], np.array(v_k[:-1], dtype=np.int64)
    c = inner[:, 0] * at_i.v1_inv % p  # c_j from c_j v_{1,i}
    c_prev = np.concatenate(([0], c[:-1]))  # c_(j-1), c_0 = 0
    odd, even = inner[:, ::2], inner[:, 1::2]  # c_j v_{m,i} at odd m, v_{m,i} / c_j at even m
    if ((odd != c[:, None] * v_i[::2] % p).any() or (even * c[:, None] % p != v_i[1::2]).any()
            or (leads != v_lead).any()
            or (c * ((t * t % p * c_prev - t * v_lead) % p) % p != 1).any()
            or not lambdas[-1] == v_k[-1] == t * c[-1] % p):
        return False, False
    # _certify's degree guard on b_2..b_n: the inner quotients have degree 1, the leads deg A
    return at_i.tower[1].degree >= 1 and at_k.cf_matches, at_k.reversal_holds


def verify_prop2(field: PrimeField, ks, iis) -> list:
    """For every k in ks and i in iis, in (k, i) order, certify that the predicted
    block expansion [b_1..b_n] is the continued fraction of P_{kp-i} / Q_k^p, and
    the reversal identity [b_1..b_n] = -4 k^2 theta_k^2 [b_n..b_1], block by block
    from Prop. 1's matrices at i and k and its verdicts at k (_certify_blocks, fed by
    _AtK and _AtI, built once per index); no P_{kp-i} is built.  A P_{kp-i} past
    MAX_PROP2_DEGREE at max(ks) and min(iis) is a ValueError, raised before any
    polynomial is built."""
    p = field.p
    ks, iis = sorted(set(ks)), sorted(set(iis))
    for k in ks:
        _check_k(p, k)
    for i in iis:
        _check_k(p, i, "i")
    if ks and iis and 2 * (ks[-1] * p - iis[0]) > MAX_PROP2_DEGREE:
        k, i = ks[-1], iis[0]
        raise ValueError(f"deg P_(kp-i) = {2 * (k * p - i)} at k = {k}, i = {i} is past {MAX_PROP2_DEGREE}")
    prop1 = {j: family_constants(field, j) for j in {*ks, *iis}}
    prop1 = {j: (f, _prop1_predicted(field, f.v).matrix()) for j, f in prop1.items()}
    sides_i = [_AtI(field, *prop1[i]) for i in iis]
    reports = []
    for k in ks:
        try:
            at_k = _AtK(field, *prop1[k])
        except ScalarCFUndefined as exc:  # r_j = 0: delta_j = 2i theta_i r_j is 0 for every i
            reason = f"construction undefined: delta_{exc.index} = 0 in the block construction"
            reports += [Prop2Report(p, k, i, False, reason) for i in iis]
            continue
        for at_i in sides_i:
            predicted = prop2_predicted_quotients(field, at_k, at_i)
            verdicts = _certify_blocks(predicted, at_k, at_i)
            reports.append(Prop2Report(p, at_k.k, at_i.i, True, "", *verdicts, len(predicted)))
    return reports


# -- the relation: its residual identity and the expansion it drives ---------------


def _emission_is_exact(C: Polynomial, D: Polynomial, r: int, deg_det: int) -> bool:
    """Whether [M(x)] = A div C for M = [[A, B], [C, D]], deg det M = deg_det and every x
    of degree >= r: then M(x) - A/C = -det M / (C (C x + D)) has negative degree."""
    return bool(C) and D.degree < C.degree + r and deg_det < 2 * C.degree + r


def expand_from_relation(prefix: ContinuedFraction, rel: FrobeniusRelation, n: int) -> ContinuedFraction:
    """First n partial quotients of the alpha with prefix a_1 .. a_l and
    alpha^r = eps1 P alpha_{l+1} + eps2 Q, by Gosper's homographic algorithm:
    alpha_{l+1} = M(alpha^r) for M(x) = (A x + B)/(C x + D), first
    [[1, -eps2 Q], [0, eps1 P]], and alpha^r = [a_1(T^r), a_2(T^r), ...] is
    read from the output, which runs ahead; its unread tail has degree >= r.
    M emits q = A div C when that is exact (M <- [[C, D], [A - qC, B - qD]]),
    else ingests b = a_j(T^r), one pow_frobenius(r) of a_j
    (M <- [[Ab + B, A], [Cb + D, C]]).  Both negate det M = +-eps1 P, checked
    at every step; a broken determinant, an emitted quotient of degree < 1
    and an input read before it is produced raise ArithmeticError; an input
    a_j(T^r) past MAX_A_DEGREE, and an r that is not a power of p (at the
    first input), raise ValueError."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    l, field = rel.l, prefix.field
    if len(prefix) < l or any(q.degree < 1 for q in prefix.quotients[1:l]):
        raise ValueError(f"need l = {l} prefix quotients, of degree >= 1 after a_1")
    quotients, read = list(prefix.quotients[:l]), 0  # read: the a_j(T^r) ingested
    det = rel.P.scaled(rel.eps1)
    A, B, C, D = Polynomial.one(field), -rel.Q.scaled(rel.eps2), Polynomial.zero(field), det
    while len(quotients) < n:
        if _emission_is_exact(C, D, rel.r, rel.P.degree):
            q, rem = divmod(A, C)
            if q.degree < 1:
                raise ArithmeticError(f"a_{len(quotients) + 1} = {q.format()} has degree < 1")
            quotients.append(q)
            A, B, C, D = C, D, rem, B - q * D
        else:
            if read == len(quotients):
                raise ArithmeticError(f"a_{read + 1} is needed as input before it is produced")
            b = quotients[read]
            if b.degree * rel.r > MAX_A_DEGREE:
                raise ValueError(f"a_{read + 1}(T^{rel.r}) has degree {b.degree * rel.r}, past {MAX_A_DEGREE}")
            b = b.pow_frobenius(rel.r)
            read += 1
            A, B, C, D = A * b + B, A, C * b + D, C
        det = -det
        if A * D - B * C != det:
            raise ArithmeticError(f"AD - BC != +-eps1 P after {read} inputs, {len(quotients) - l} outputs")
    return ContinuedFraction(field, quotients[:n])


def _certifying_prefix(cf: ContinuedFraction, start: int, floor: int) -> int:
    """The smallest m > start at which y of a_(start+2) .. a_m, the denominator
    of [a_(start+1), ..., a_m], has 2 deg y >= -floor, which certifies that
    convergent to T^floor; len(cf) if none does, or if a quotient after
    a_(start+1) has degree < 1 (a sum of degrees then overstates deg y)."""
    degrees = cf.degrees()[start + 1 :]
    if min(degrees, default=1) < 1:
        return len(cf)
    totals = accumulate(degrees, initial=0)  # deg y at m = start + 1, start + 2, ...
    return next((m for m, d in enumerate(totals, start + 1) if 2 * d >= -floor), len(cf))


def relation_residual(cf: ContinuedFraction, rel: FrobeniusRelation, precision: int):
    """Check of alpha^r = eps1 * P * alpha_{l+1} + eps2 * Q to T^(-precision) as one
    polynomial identity: for convergents x/y of alpha and xt/yt of alpha_{l+1} the
    sides differ by N/D, N = x(T^r) yt - y(T^r) (eps1 P xt + eps2 Q yt), D = y(T^r) yt.
    Each is read off the shortest prefix that certifies it (_certifying_prefix): x/y
    from a_1 to T^-(precision // r + 2), xt/yt from a_(l+1) to T^-(precision + 1 +
    deg P).  N/D is then the whole expansion's difference up to terms below
    T^(-precision), so the result is that of all n quotients: deg N - deg D, the
    exponent of the first differing coefficient, or -inf if N = 0 or that is < -precision.
    Raises InsufficientExpansion when the expansion is too short to certify the
    requested precision."""
    if precision < 1:
        raise ValueError("precision must be positive")
    l = rel.l
    if len(cf) <= l:
        raise InsufficientExpansion(f"insufficient expansion: need more than l = {l} partial quotients")
    floor_cmp = -precision - 1
    # alpha^r needs alpha down to roughly -precision/r; the twist refuses an r < 1
    floor_alpha = -(precision // max(rel.r, 1) + 2)
    floor_tail = floor_cmp - rel.P.degree
    x, _, y, _ = cf.matrix(0, _certifying_prefix(cf, 0, floor_alpha))
    xt, _, yt, _ = cf.matrix(l, _certifying_prefix(cf, l, floor_tail))
    if 2 * y.degree < -floor_alpha or 2 * yt.degree < -floor_tail:
        raise InsufficientExpansion("insufficient expansion for the requested precision")
    x, y = x.pow_frobenius(rel.r), y.pow_frobenius(rel.r)  # alpha^r = alpha(T^r)
    N = x * yt - y * (rel.P.scaled(rel.eps1) * xt + rel.Q.scaled(rel.eps2) * yt)
    d = N.degree - y.degree - yt.degree
    return d if N and d > floor_cmp else float("-inf")
