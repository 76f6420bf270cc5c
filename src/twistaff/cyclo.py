"""Exact arithmetic in cyclotomic fields Q(zeta_L).

Scalars are represented in the power basis 1, z, ..., z^(phi(L)-1) of the
primitive L-th root of unity z, with integer coefficient vectors over a
common positive denominator.  All operations are exact; the conductor L is
fixed per computation, must be divisible by 4 so that i = z^(L/4) is
available, and stays at most ``MAX_CONDUCTOR``.  This module chooses every
working field: ``working_conductor`` holds given roots of unity and refuses a
field above ``MAX_CONDUCTOR`` (a ``DomainError``), and ``sqrt_conductor``
names the least field that holds a rational's square root.

The scalar kernel is all integers and touches only nonzero coefficients, as
entries read off eigenspaces are nearly monomials: each nonzero term c z^k of
a Galois conjugate, lift or root of unity (``_reduce``), and each nonzero high
power of a product (``_fold``), goes through its row of the table of z^k mod
Phi_L (k < L) as sparse rows.  The inverse of num / den is
den * P / N, where P is the product of the distinct Galois conjugates of num
other than num itself and N = num * P is its rational norm.

All matrix arithmetic is on one type, ``ModeMatrix``: one denominator in
lowest terms and, per row, the integer coefficients of each nonzero entry by
column, so ``==`` compares structure.  A vector is an n x 1 ``ModeMatrix``
(``columns``, ``from_columns``).  Rows of ``Cyc`` (``Matrix``, a tuple of row
tuples) are only the edge that the benchmark's micro timings read: the
operands and results of ``mat_inverse`` and ``mat_mul``, converted by
``from_rows`` and ``to_rows``; no subcommand builds one.
The one product kernel, ``mat_product_sum``, sums s * A B over signed
products by schoolbook: each nonzero coefficient of A multiply-adds the
nonzero coefficients of the rows of B that A names into 2 phi(L) - 1 integers
per output entry it meets, reduced once, with the content taken in the same
pass, so the result is built canonical.  At conductor 4, where
``loopalg.bracket_sum`` also adds derivation terms, it multiplies its
Gaussian entries inline instead, with one product per commutator on the
orthogonal and symplectic models (``loopalg``'s sigma path).  The one
elimination is the Gauss-Jordan kernel ``row_reduce`` behind ``mat_inverse``;
no model basis needs it (see ``models``).  ``cyc_sqrt`` builds the square
root of a rational by stripping the primes of ``SQRT_PRIMES`` and from cached
Gauss sums, and other roots by quadratic steps down the Galois 2-tower to a
rational root, all in integers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress
from math import gcd, isqrt, lcm, prod
from operator import add

from . import DomainError


#: every working field, read, chosen (``working_conductor``) or enlarged to
#: (``sqrt_conductor``), stays desk-sized; only the one-parameter check of a
#: certificate reads a field of up to twice this
MAX_CONDUCTOR = 480
#: the primes p <= MAX_CONDUCTOR // 4: sqrt(p) lies in Q(zeta_L) exactly when lcm(L, 4p) = L
SQRT_PRIMES = tuple(
    p for p in range(2, MAX_CONDUCTOR // 4 + 1) if all(p % d for d in range(2, isqrt(p) + 1))
)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, low degree first.

    It is x^n - 1 divided by the (monic) Phi_d of every proper divisor d of n.
    """
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            div = cyclotomic_polynomial(d)
            dd = len(div) - 1
            quot = [0] * (len(poly) - dd)
            for i in range(len(poly) - 1, dd - 1, -1):
                q = quot[i - dd] = poly[i]
                if q:
                    for j, c in enumerate(div):
                        poly[i - dd + j] -= q * c
            poly = quot
    return tuple(poly)


@lru_cache(maxsize=None)
def _power_table(L: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """z^k mod Phi_L for k = 0..L-1, each as its nonzero (index, coefficient) pairs."""
    phi_poly = cyclotomic_polynomial(L)
    cur = [1] + [0] * (len(phi_poly) - 2)
    rows = []
    for _ in range(L):
        rows.append(tuple((j, c) for j, c in enumerate(cur) if c))
        carry = cur[-1]  # multiply by z and reduce
        cur = [0] + cur[:-1]
        if carry:
            cur = [c - carry * p for c, p in zip(cur, phi_poly)]
    return tuple(rows)


def _reduce(L: int, terms) -> tuple[int, ...]:
    """The power-basis coefficients of sum c z^k over the pairs (k, c), k < L, modulo Phi_L:
    each nonzero c multiply-adds the power table's row of z^k (z^k itself for k < phi(L))."""
    table, out = _power_table(L), [0] * conductor_degree(L)
    for k, c in terms:
        if c:
            for j, r in table[k]:
                out[j] += c * r
    return tuple(out)


def _galois(L: int, num: tuple, a: int) -> tuple[int, ...]:
    """The coefficients of the image of num under zeta -> zeta**a (a coprime to L)."""
    return _reduce(L, [(a * k % L, c) for k, c in enumerate(num) if c])


def _lift(L: int, num: tuple, L2: int) -> tuple[int, ...]:
    """The coefficients of num, at conductor L, embedded at the multiple L2 of L."""
    return _reduce(L2, [(k * (L2 // L), c) for k, c in enumerate(num) if c])


@lru_cache(maxsize=None)
def _unit_generators(L: int) -> tuple[int, ...]:
    """Units that generate (Z/L)^x, each outside the group the earlier ones generate."""
    gens, group = [], {1}
    for a in range(3, L, 2):
        if gcd(a, L) == 1 and a not in group:
            gens.append(a)
            frontier = group
            while frontier:
                frontier = {a * g % L for g in frontier} - group
                group = group | frontier
    return tuple(gens)


@lru_cache(maxsize=None)
def conductor_degree(L: int) -> int:
    return len(cyclotomic_polynomial(L)) - 1


class Cyc:
    """An element of Q(zeta_L), stored as integer coefficients over a common denominator."""

    __slots__ = ("L", "num", "den")

    def __init__(self, L: int, num: tuple[int, ...], den: int, _normalize: bool = True):
        if L % 4 != 0:
            raise ValueError("conductor must be divisible by 4")
        if _normalize and den != 1:
            if den < 0:
                den, num = -den, tuple(-c for c in num)
            g = gcd(den, *num)  # den itself when num is zero
            if g > 1:
                den //= g
                num = tuple(c // g for c in num)
        self.L, self.num, self.den = L, num, den

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(L: int) -> "Cyc":
        return Cyc(L, (0,) * conductor_degree(L), 1, _normalize=False)

    @staticmethod
    def one(L: int) -> "Cyc":
        return Cyc.rational(L, 1)

    @staticmethod
    def rational(L: int, q) -> "Cyc":
        q = Fraction(q)
        phi = conductor_degree(L)
        num = [0] * phi
        num[0] = q.numerator
        return Cyc(L, tuple(num), q.denominator)

    @staticmethod
    def zeta(L: int, k: int = 1) -> "Cyc":
        """The root of unity zeta_L ** k."""
        return Cyc(L, _reduce(L, ((k % L, 1),)), 1)

    @staticmethod
    def i(L: int) -> "Cyc":
        return Cyc.zeta(L, L // 4)

    @staticmethod
    def sqrt2(L: int) -> "Cyc":
        if L % 8 != 0:
            raise ValueError("sqrt(2) needs conductor divisible by 8")
        e = L // 8
        return Cyc.zeta(L, e) + Cyc.zeta(L, -e)

    # -- ring structure ----------------------------------------------------

    def _coerce(self, other) -> "Cyc":
        if isinstance(other, Cyc):
            if other.L != self.L:
                raise ValueError(f"conductor mismatch: {self.L} vs {other.L}")
            return other
        if isinstance(other, (int, Fraction)):
            return Cyc.rational(self.L, other)
        return NotImplemented

    def __add__(self, other) -> "Cyc":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a, b = self, o
        if a.den == b.den:
            return Cyc(a.L, tuple(x + y for x, y in zip(a.num, b.num)), a.den)
        return Cyc(
            a.L,
            tuple(x * b.den + y * a.den for x, y in zip(a.num, b.num)),
            a.den * b.den,
        )

    __radd__ = __add__

    def __neg__(self) -> "Cyc":
        return Cyc(self.L, tuple(-c for c in self.num), self.den, _normalize=False)

    def __sub__(self, other) -> "Cyc":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.__add__(-o)

    def __rsub__(self, other) -> "Cyc":
        return (-self).__add__(other)

    def __mul__(self, other) -> "Cyc":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Cyc(self.L, cyc_product(self.L, self.num, o.num), self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Cyc":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other) -> "Cyc":
        return self._coerce(other) * self.inverse()

    def inverse(self) -> "Cyc":
        """den * P / N for self = num / den, all in integers.

        P is the product of the distinct Galois conjugates of num other than
        num itself, so N = num * P is the norm of num over Q(num), a rational.
        The conjugates are the orbit of num, grown one generator a of (Z/L)^x
        at a time: the group is abelian, so a maps the orbit so far to a block
        that is either new or already seen, as its first element shows.  That
        takes one conjugation per conjugate plus at most one per generator, and
        the walk stops once all phi(L) conjugates are found.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic scalar")
        L = self.L
        num = Cyc(L, self.num, 1, _normalize=False)
        orbit, seen = [num], {self.num}
        for a in _unit_generators(L):
            block = orbit
            while len(orbit) < len(self.num) and (head := block[0].galois(a)).num not in seen:
                block = [head] + [y.galois(a) for y in block[1:]]
                orbit = orbit + block
                seen.update(y.num for y in block)
        p = Cyc.one(L)
        for y in orbit[1:]:
            p = p * y
        return Cyc(L, tuple(self.den * c for c in p.num), (num * p).num[0])

    def __pow__(self, k: int) -> "Cyc":
        if k < 0:
            return self.inverse() ** (-k)
        out = Cyc.one(self.L)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- predicates and maps -----------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Cyc.rational(self.L, other)
        if not isinstance(other, Cyc):
            return NotImplemented
        return self.L == other.L and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.L, self.num, self.den))

    def galois(self, a: int) -> "Cyc":
        """Apply the Galois automorphism zeta -> zeta**a (a coprime to L)."""
        if gcd(a, self.L) != 1:
            raise ValueError("galois exponent must be coprime to the conductor")
        return Cyc(self.L, _galois(self.L, self.num, a), self.den)

    def conj(self) -> "Cyc":
        """Complex conjugation zeta -> zeta**-1."""
        return self.galois(self.L - 1)

    def is_real(self) -> bool:
        return self == self.conj()

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def lift(self, L2: int) -> "Cyc":
        """Embed into Q(zeta_L2) for a conductor multiple L2."""
        if L2 == self.L:
            return self
        if L2 % self.L != 0:
            raise ValueError("target conductor must be a multiple")
        return Cyc(L2, _lift(self.L, self.num, L2), self.den)

    def __repr__(self):
        terms = []
        for k, c in enumerate(self.num):
            if c == 0:
                continue
            q = Fraction(c, self.den)
            terms.append(f"{q}*z^{k}" if k else f"{q}")
        return " + ".join(terms) if terms else "0"


def _sqrt_split(x: Cyc) -> tuple[int, list[int], int] | None:
    """(s, odd, c) for a rational x, with |x| = s**2 * prod(odd) / den**2, or None.

    odd holds the primes of SQRT_PRIMES of odd exponent in x, and
    c = lcm(L, 4 prod(odd)) is the least multiple of L whose field holds
    sqrt(x): a Gauss sum puts sqrt(p) in Q(zeta_4p), and i is in every field.
    Each prime is stripped from |x| den and what is left must be a perfect
    square, else a prime past SQRT_PRIMES has odd exponent and no field within
    MAX_CONDUCTOR holds the root.  There is no trial division beyond
    SQRT_PRIMES, so the cost is independent of the other factors of x.
    """
    m, s, odd = abs(x.num[0]) * x.den, 1, []
    for p in SQRT_PRIMES:
        e = 0
        while m and m % p == 0:
            m //= p
            e += 1
        s *= p ** (e // 2)
        if e % 2:
            odd.append(p)
    r = _isqrt_exact(m)
    return None if r is None else (s * r, odd, lcm(x.L, 4 * prod(odd)))


def sqrt_conductor(x: Cyc) -> int | None:
    """The least multiple of x.L whose field holds the square root of a rational x,
    or None when that conductor is above MAX_CONDUCTOR."""
    split = _sqrt_split(x)
    return split[2] if split is not None and split[2] <= MAX_CONDUCTOR else None


@lru_cache(maxsize=None)
def _sqrt_prime(L: int, p: int) -> Cyc:
    """The positive square root of a prime p of SQRT_PRIMES with lcm(L, 4p) = L, in Q(zeta_L).

    For odd p the quadratic Gauss sum over the p-th roots of unity is sqrt(p)
    when p = 1 mod 4 and i*sqrt(p) when p = 3 mod 4 (Gauss's sign theorem).
    """
    if p == 2:
        return Cyc.sqrt2(L)
    step = L // p
    g = Cyc.zero(L)
    for k in range(1, p):
        g = g + (1 if pow(k, (p - 1) // 2, p) == 1 else -1) * Cyc.zeta(L, step * k)
    return g if p % 4 == 1 else g * -Cyc.i(L)


@lru_cache(maxsize=None)
def _sympy_field(L: int):
    """sympy's Q(zeta_L).  No package code calls it: perfbench/tracer.py counts calls
    to it by name, and the tests' sympy square-root reference reads it."""
    import sympy

    z = sympy.exp(2 * sympy.I * sympy.pi / L)
    field = sympy.QQ.algebraic_field(z)
    # sanity: the primitive element must be zeta_L itself in the power basis
    mod = [int(c) for c in reversed(cyclotomic_polynomial(L))]
    if [int(c) for c in field.mod.to_list()] != mod:
        raise RuntimeError("unexpected primitive element for the cyclotomic field")
    return field


def cyc_sqrt(x: Cyc):
    """An exact square root of x inside its own field, or None if there is none.

    A rational x has one exactly when lcm(L, 4 prod(odd)) = L (``_sqrt_split``),
    which within MAX_CONDUCTOR reads ``sqrt_conductor(x) == x.L``: the positive
    real root for x > 0 and i times it for x < 0, from cached Gauss sums.  Other
    roots are found down the Galois 2-tower (``_tower_sqrt``); of the two, the
    one whose highest-power nonzero coefficient is positive is returned.
    """
    y = _tower_sqrt(x, ())
    if y is None or x.is_rational():
        return y
    return y if next(c for c in reversed(y.num) if c) > 0 else -y


def _tower_sqrt(x: Cyc, sigmas: tuple[int, ...]):
    """A square root of x in the field F fixed by the units ``sigmas``, which fix x, or None.

    Each sigma has order 2 modulo the group H of the earlier ones; one more
    fixes F' below F.  If y**2 = x, then n = y sigma(y) and t = y + sigma(y) lie
    in F', n**2 = x sigma(x) and t**2 = x + sigma(x) + 2n.  Any such n and t != 0
    in F' give the root (x + n) / t of x, and t lies in F' for one sign of n.  When
    sigma(x) = x, y lies in F' or in delta F', with delta a trace over H of a
    power of zeta minus its sigma-image.  The descent ends at a rational x, or
    at a non-rational x in a field of odd degree (a ``DomainError``), which lies
    below Q(zeta_L) when phi(L) is not a power of two.
    """
    L = x.L
    if x.is_rational():
        split = _sqrt_split(x)
        if split is None or split[2] != L:
            return None
        y = Cyc.rational(L, Fraction(split[0], x.den))
        for p in split[1]:
            y = y * _sqrt_prime(L, p)
        y = y * Cyc.i(L) if x.num[0] < 0 else y
        return y if all(y.galois(a) == y for a in sigmas) else None
    fixing = {1}
    for a in sigmas:
        fixing |= {a * h % L for h in fixing}
    sigma = next((a for a in range(3, L, 2) if gcd(a, L) == 1 and a not in fixing and a * a % L in fixing), None)
    if sigma is None:
        raise DomainError(f"no exact square root of a non-rational scalar at conductor {L}: the quadratic subfields "
                          f"of Q(zeta_{L}) end at a field of odd degree {conductor_degree(L) // len(fixing)}")
    below, xs = sigmas + (sigma,), x.galois(sigma)
    if xs == x:
        y = _tower_sqrt(x, below)
        if y is not None:
            return y
        traces = (sum(Cyc.zeta(L, k * h) for h in fixing) for k in range(1, L))
        delta = next(d for d in (w - w.galois(sigma) for w in traces) if d)
        f = _tower_sqrt(x / (delta * delta), below)
        return None if f is None else f * delta
    n = _tower_sqrt(x * xs, below)
    for r in () if n is None else (n, -n):
        t = _tower_sqrt(x + xs + 2 * r, below)
        if t:
            return (x + r) / t
    return None


def _isqrt_exact(n: int):
    """The integer square root of n when n is a perfect square, else None."""
    if n < 0:
        return None
    r = isqrt(n)
    return r if r * r == n else None


def working_conductor(L: int, *orders: int) -> int:
    """lcm(L, *orders): the least multiple of the conductor L holding the n-th roots
    of unity for each n.  A working field above MAX_CONDUCTOR is refused."""
    conductor = lcm(L, *orders)
    if conductor > MAX_CONDUCTOR:
        raise DomainError(
            f"the working field needs conductor {conductor}, above MAX_CONDUCTOR = {MAX_CONDUCTOR}"
        )
    return conductor


# -- matrices over a cyclotomic field ---------------------------------------

Matrix = tuple  # tuple of row tuples of Cyc: the rows of mat_inverse and mat_mul


class ModeMatrix:
    """A matrix over Q(zeta_L) in integers, immutable and canonical: ``rows / den``.

    ``rows[i]`` maps the column of each nonzero entry of row i to its reduced
    power-basis coefficients times ``den``.  den > 0 is coprime to the
    coefficients taken together (1 for zero), so ``==`` compares fields and
    zero has no entries.
    """

    __slots__ = ("L", "ncols", "den", "rows")

    def __init__(self, L: int, ncols: int, den: int, rows, canonical: bool = False):
        if not canonical:
            rows = [r if all(map(any, r.values())) else {j: v for j, v in r.items() if any(v)} for r in rows]
            g = den
            for num in chain.from_iterable(row.values() for row in rows):
                if g == 1:
                    break
                g = gcd(g, *num)
            if g > 1:
                den //= g
                rows = [{j: tuple(c // g for c in num) for j, num in row.items()} for row in rows]
        self.L, self.ncols, self.den, self.rows = L, ncols, den, tuple(rows)

    # -- constructors and the Cyc edge ------------------------------------------

    @staticmethod
    def from_rows(L: int, rows) -> "ModeMatrix":
        """The matrix of rows of scalars, each a Cyc at L or a rational.

        The lcm D of the entry denominators is in lowest terms: a prime power exactly
        dividing D exactly divides some entry's denominator, which its numerator avoids.
        """
        rows = [[x if isinstance(x, Cyc) else Cyc.rational(L, x) for x in row] for row in rows]
        if any(x.L != L for row in rows for x in row):
            raise ValueError(f"conductor mismatch: a matrix at {L} with an entry at another conductor")
        den = lcm(*(x.den for row in rows for x in row))
        nums = [
            {j: x.num if x.den == den else tuple(c * (den // x.den) for c in x.num) for j, x in enumerate(r) if any(x.num)}
            for r in rows
        ]
        return ModeMatrix(L, len(rows[0]) if rows else 0, den, nums, canonical=True)

    @staticmethod
    def from_entries(L: int, shape: tuple[int, int], entries: dict) -> "ModeMatrix":
        """The matrix of shape (rows, columns) with entries[(i, j)], a Cyc at L or a rational,
        at (i, j) and zero elsewhere; a zero entry writes nothing.

        The denominator is the lcm of the nonzero entries' denominators, so it is in
        lowest terms: a prime power exactly dividing it exactly divides some entry's
        denominator, which that entry's numerator avoids.
        """
        values = {k: x if isinstance(x, Cyc) else Cyc.rational(L, x) for k, x in entries.items()}
        values = {k: x for k, x in values.items() if any(x.num)}
        if any(x.L != L for x in values.values()):
            raise ValueError(f"conductor mismatch: a matrix at {L} with an entry at another conductor")
        den = lcm(*(x.den for x in values.values()))
        rows = [{} for _ in range(shape[0])]
        for (i, j), x in sorted(values.items()):
            rows[i][j] = x.num if x.den == den else tuple(c * (den // x.den) for c in x.num)
        return ModeMatrix(L, shape[1], den, rows, canonical=True)

    @staticmethod
    def from_columns(columns) -> "ModeMatrix":
        """The matrix whose columns are the given n x 1 matrices, at least one, in order.

        The denominator is the lcm of the column denominators, so it is in lowest
        terms: a prime power exactly dividing it exactly divides some column's
        denominator, which that column's coefficients avoid.
        """
        den = lcm(*(c.den for c in columns))
        rows = [{} for _ in columns[0].rows]
        for j, c in enumerate(columns):
            f = den // c.den
            for row, entry in zip(rows, c.rows):
                if entry:
                    row[j] = entry[0] if f == 1 else tuple(x * f for x in entry[0])
        return ModeMatrix(columns[0].L, len(columns), den, rows, canonical=True)

    @staticmethod
    def diagonal(L: int, diag) -> "ModeMatrix":
        return ModeMatrix.from_entries(L, (len(diag), len(diag)), {(i, i): x for i, x in enumerate(diag)})

    @staticmethod
    def identity(L: int, n: int) -> "ModeMatrix":
        one = Cyc.one(L).num
        return ModeMatrix(L, n, 1, [{i: one} for i in range(n)], canonical=True)

    def to_rows(self) -> Matrix:
        L, zero, d = self.L, Cyc.zero(self.L), range(self.ncols)
        return tuple(tuple(Cyc(L, r[j], self.den) if j in r else zero for j in d) for r in self.rows)

    def columns(self) -> list["ModeMatrix"]:
        """The columns as n x 1 matrices, each over its own lowest denominator."""
        cols = [[{} for _ in self.rows] for _ in range(self.ncols)]
        for i, row in enumerate(self.rows):
            for j, num in row.items():
                cols[j][i] = {0: num}
        return [ModeMatrix(self.L, 1, self.den, c) for c in cols]

    # -- arithmetic and structure -----------------------------------------------

    @property
    def shape(self) -> str:
        """"rows x columns", as the shape-mismatch errors name it."""
        return f"{len(self.rows)}x{self.ncols}"

    def __bool__(self) -> bool:
        return any(self.rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModeMatrix):
            return NotImplemented
        return (self.L, self.ncols, self.den, self.rows) == (other.L, other.ncols, other.den, other.rows)

    def __hash__(self):
        return hash((self.L, self.den, tuple(frozenset(row.items()) for row in self.rows)))

    def __neg__(self) -> "ModeMatrix":
        rows = [{j: tuple(-c for c in num) for j, num in row.items()} for row in self.rows]
        return ModeMatrix(self.L, self.ncols, self.den, rows, canonical=True)

    def __add__(self, other: "ModeMatrix") -> "ModeMatrix":
        if other.L != self.L:
            raise ValueError(f"conductor mismatch: {self.L} vs {other.L}")
        if (len(self.rows), self.ncols) != (len(other.rows), other.ncols):
            raise ValueError(f"matrix shape mismatch: {self.shape} plus {other.shape}")
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        rows = []
        for ra, rb in zip(self.rows, other.rows):
            row = dict(ra) if fa == 1 else {j: tuple(c * fa for c in num) for j, num in ra.items()}
            for j, num in rb.items():
                if fb != 1:
                    num = tuple(c * fb for c in num)
                row[j] = tuple(map(add, row[j], num)) if j in row else num
            rows.append(row)
        return ModeMatrix(self.L, self.ncols, den, rows)

    def __sub__(self, other: "ModeMatrix") -> "ModeMatrix":
        return self + -other

    def __matmul__(self, other: "ModeMatrix") -> "ModeMatrix":
        return mat_product_sum(((1, self, other),))

    def scale(self, c) -> "ModeMatrix":
        """c times the matrix, for a Cyc or a rational c."""
        c = c if isinstance(c, Cyc) else Cyc.rational(self.L, c)
        if c.is_rational():
            rows = [{j: tuple(c.num[0] * x for x in num) for j, num in r.items()} for r in self.rows]
        else:
            rows = [{j: cyc_product(self.L, num, c.num) for j, num in r.items()} for r in self.rows]
        return ModeMatrix(self.L, self.ncols, self.den * c.den, rows)

    # conjugation and lifting map the integral power basis onto an integral basis
    # of the same ring, so they keep every entry nonzero and the content of the
    # coefficients: the results stay canonical

    def conj(self) -> "ModeMatrix":
        """The entrywise complex conjugate."""
        L = self.L
        rows = [{j: _galois(L, num, L - 1) for j, num in row.items()} for row in self.rows]
        return ModeMatrix(L, self.ncols, self.den, rows, canonical=True)

    def conj_transpose(self) -> "ModeMatrix":
        L = self.L
        rows = [{} for _ in range(self.ncols)]
        for i, row in enumerate(self.rows):
            for j, num in row.items():
                rows[j][i] = _galois(L, num, L - 1)
        return ModeMatrix(L, len(self.rows), self.den, rows, canonical=True)

    def lift(self, L2: int) -> "ModeMatrix":
        """The matrix at conductor L2, a multiple of L; the matrix itself when it is already there."""
        if L2 == self.L:
            return self
        rows = [{j: _lift(self.L, num, L2) for j, num in row.items()} for row in self.rows]
        return ModeMatrix(L2, self.ncols, self.den, rows, canonical=True)

    def permuted(self, table) -> "ModeMatrix":
        """The matrix with entry (a, b) moved to (i, j) and times s, where table[a][b] = (i, j, s)."""
        rows = [{} for _ in self.rows]
        for a, row in enumerate(self.rows):
            for b, num in row.items():
                i, j, s = table[a][b]
                rows[i][j] = num if s == 1 else tuple(-c for c in num)
        return ModeMatrix(self.L, self.ncols, self.den, rows, canonical=True)

    def trace_product(self, other: "ModeMatrix") -> Cyc:
        """tr(self other), one reduced product per pair of entries (i, j) and (j, i)."""
        acc = (0,) * conductor_degree(self.L)
        for i, row in enumerate(self.rows):
            for j, num in row.items():
                if i in other.rows[j]:
                    acc = tuple(map(add, acc, cyc_product(self.L, num, other.rows[j][i])))
        return Cyc(self.L, acc, self.den * other.den)


def _fold(table, phi: int, conv: list) -> tuple[int, ...]:
    """The powers conv[k] z^k (k < 2 phi - 1) modulo Phi_L: the nonzero high powers through the power table."""
    out = conv[:phi]
    for k in compress(range(phi, len(conv)), conv[phi:]):
        for j, r in table[k]:
            out[j] += conv[k] * r
    return tuple(out)


def cyc_product(L: int, a: tuple, b: tuple) -> tuple[int, ...]:
    """The power-basis coefficients of the product of two power-basis vectors."""
    if len(a) == 2:  # conductor 4: Gaussian integers, Phi_4 = x^2 + 1
        a0, a1 = a
        b0, b1 = b
        return (a0 * b0 - a1 * b1, a0 * b1 + a1 * b0)
    conv = [0] * (2 * len(a) - 1)
    for ia, ca in enumerate(a):
        if ca:
            for ib, cb in enumerate(b):
                if cb:
                    conv[ia + ib] += ca * cb
    return _fold(_power_table(L), len(a), conv)


def mat_product_sum(products) -> ModeMatrix:
    """The sum of sign * A B over the triples (sign, A, B) of ModeMatrix operands.

    Every A B must have the shape of the first; a mismatch raises ValueError
    naming both shapes.  Over the lcm D of the denominator products, triple
    (sign, A, B) adds sign D / (den A den B) * A B: each nonzero coefficient of
    an entry (i, j) of A, times that factor, multiply-adds the nonzero
    coefficients of row j of B (read once per product, only for the j that A
    names) into the 2 phi(L) - 1 powers of each output entry (i, k) it meets.
    Each met entry is folded once (``_fold``), and the content of the nonzero
    entries is taken in the same pass, so the result is built canonical.
    """
    products = list(products)
    L, n, m = products[0][1].L, len(products[0][1].rows), products[0][2].ncols
    for _, a, b in products:
        if a.L != L or b.L != L:
            raise ValueError("conductor mismatch in a matrix product")
        if a.ncols != len(b.rows) or len(a.rows) != n or b.ncols != m:
            raise ValueError(f"matrix shape mismatch: {a.shape} times {b.shape} in a sum of {n}x{m} products")
    den = lcm(*(a.den * b.den for _, a, b in products))
    table, phi = _power_table(L), conductor_degree(L)
    width = 2 * phi - 1
    acc = [{} for _ in range(n)]  # output row i: column k -> the unreduced powers of entry (i, k)
    for sign, a, b in products:
        f, brows = sign * (den // (a.den * b.den)), {}  # row j of B as its terms (k, q, coefficient)
        for arow, out in zip(a.rows, acc):
            for j, num in arow.items():
                terms = brows.get(j)
                if terms is None:
                    terms = brows[j] = [(k, q, d) for k, v in b.rows[j].items() for q, d in enumerate(v) if d]
                for p, c in enumerate(num):
                    if c:
                        c *= f
                        for k, q, d in terms:
                            conv = out.get(k) or out.setdefault(k, [0] * width)
                            conv[p + q] += c * d
    rows, g = [{} for _ in acc], den
    for out, row in zip(acc, rows):
        for k in sorted(out):  # the nonzero entries in column order, as every other constructor writes a row
            if any(num := _fold(table, phi, out[k])):
                row[k] = num
                g = gcd(g, *num) if g > 1 else 1  # their content, in the same pass
    if g > 1:
        den //= g
        rows = [{k: tuple(c // g for c in num) for k, num in row.items()} for row in rows]
    return ModeMatrix(L, m, den, rows, canonical=True)


def mat_products_equal(a: ModeMatrix, b: ModeMatrix, c: ModeMatrix, d: ModeMatrix) -> bool:
    """Whether a b == c d, by one kernel call whose sum a b - c d is zero exactly then."""
    return not mat_product_sum(((1, a, b), (-1, c, d)))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """The product of two matrices given as rows of Cyc, as rows: the kernel behind a row edge."""
    return (ModeMatrix.from_rows(a[0][0].L, a) @ ModeMatrix.from_rows(b[0][0].L, b)).to_rows()


def row_reduce(rows, ncols: int | None = None):
    """Gauss-Jordan elimination over the cyclotomic field: the kernel of ``mat_inverse``.

    Brings the first ``ncols`` columns (all by default) of a copy of ``rows``
    to reduced row echelon form and carries the remaining columns along.
    Returns ``(reduced, pivots, det)``: the reduced rows (the first
    ``len(pivots)`` are the nonzero ones), the pivot column of each, and the
    product of the pivots with the sign of the row swaps, which is the
    determinant when the matrix is square and the rank is full.
    """
    work = [list(r) for r in rows]
    n = len(work)
    ncols = len(work[0]) if ncols is None else ncols
    one = Cyc.one(work[0][0].L)
    det = one
    pivots: list[int] = []
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, n) if work[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            work[r], work[piv] = work[piv], work[r]
            det = -det
        p = work[r][col]
        det = det * p
        if any(work[r][col + 1 :]):
            inv = p.inverse()
            work[r] = [inv * x if x else x for x in work[r]]
        else:  # a lone pivot needs no inverse (earlier entries of the row are zero)
            work[r][col] = one
        prow = work[r]
        for i in range(n):
            f = work[i][col]
            if i != r and f:
                work[i] = [x - f * y if y else x for x, y in zip(work[i], prow)]
        pivots.append(col)
        if len(pivots) == n:
            break
    return work, pivots, det


def mat_inverse(a: Matrix) -> Matrix:
    """Inverse of a square matrix; raises ValueError when it is singular."""
    n = len(a)
    one, zero = Cyc.one(a[0][0].L), Cyc.zero(a[0][0].L)
    augmented = [[*row, *(one if i == j else zero for j in range(n))] for i, row in enumerate(a)]
    red, pivots, _ = row_reduce(augmented, n)
    if len(pivots) != n:
        raise ValueError("singular matrix")
    return tuple(tuple(row[n:]) for row in red)
