"""sympy's square root in Q(zeta_L), kept as a test reference for ``cyclo.cyc_sqrt``.

``sympy_sqrt`` factors y**2 - x over sympy's algebraic field Q(zeta_L) and
returns the root of its first linear factor, as the package once did for every
non-rational x.  It reads sympy's field from ``cyclo._sympy_field``, which no
code of the package calls.  sympy comes with the ``test`` extra.
"""

from math import lcm

import sympy

from twistaff.cyclo import Cyc, _sympy_field, conductor_degree


def sympy_sqrt(x: Cyc):
    """A square root of x from sympy's factorisation of y**2 - x over Q(zeta_L), or None."""
    field = _sympy_field(x.L)
    phi = conductor_degree(x.L)
    # field elements are polynomials in the generator, coefficients high to low
    xel = field([sympy.Rational(x.num[k], x.den) for k in reversed(range(phi))])
    poly = sympy.Poly([field.one, field.zero, -xel], sympy.Dummy("y"), domain=field)
    for factor, _ in poly.factor_list()[1]:
        if factor.degree() == 1:
            rep = list(reversed(factor.rep.to_list()[-1].to_list()))  # y + const, const low to high
            rep += [0] * (phi - len(rep))
            den = lcm(*(int(sympy.Rational(c).q) for c in rep))
            out = -Cyc(x.L, tuple(int(sympy.Rational(c) * den) for c in rep), den)
            if out * out == x:
                return out
    return None
