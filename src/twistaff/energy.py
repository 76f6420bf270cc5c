"""Integral weights and the positive-energy decision with exact minimal level.

The energy of a Weyl-orbit point is a quadratic polynomial in the translation
part whose coefficients depend on the finite Weyl element w only through the
image w.chi0_sharp of the character, so the infimum over the orbit reduces,
for each distinct image, to a closest-vector problem in the translation
lattice.  The images are enumerated directly, as the arrangements of the
numerators of chi0_sharp under the signs the kind admits, each with the first
finite Weyl element that produces it; the group itself is never scanned.  All
seven kinds have classical lattices (integer, checkerboard, sum-zero, and
half-scalings), so the closed form is an exact per-family CVP, run in
integers over one denominator per request.  An independent oracle computes
the exact least orbit value over a bounded coefficient box and every
distinct orbit image, in integers and without CVP.  It evaluates only the
box points that can still be the minimum: the vertices when the quadratic is
concave or affine, and otherwise, per image, the points inside the bounding
box of the ellipsoid below the least value found so far, skipping every
image whose real minimum already lies above that value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product, repeat
from math import isqrt
from operator import mul, sub

from .affine import (
    KINDS,
    AffineRoot,
    AffinisationSpec,
    ExtCartanVector,
    Weight,
    admissible_mode_step,
    affine_coroot,
    lars_finite_parts,
    slant_shift,
    standard_spec,
)
from . import DomainError
from .jsonio import json_field, rational_from_json
from .rootdata import CartanVector, Functional, common_rows, inner, int_vector
from .weyl import (
    AffWeylElement,
    FiniteWeylElement,
    Translation,
    act,
    translation_lattice,
)


class Character(ExtCartanVector):
    """A linear functional on affine roots: the extended Cartan vector (chi_c, chi0_sharp, chi_d).

    chi evaluates on (a, n) as p(a sharp, chi0_sharp + chi_d * slant sharp)
    + chi_d * n / N; for the characters of the energy condition chi_d = 1.
    `slant_shift` (from `affine`) shifts a weight and a character.
    """

    chi_c = property(lambda self: self.z)
    chi0_sharp = property(lambda self: self.h)
    chi_d = property(lambda self: self.t)

    def to_json(self):
        return {"chi_c": str(self.z), "chi0_sharp": self.h.to_json(), "chi_d": str(self.t)}

    @staticmethod
    def from_json(obj, rank: int | None = None) -> "Character":
        where = "malformed character"
        chi_c, chi_d = (rational_from_json(json_field(obj, key, where), where) for key in ("chi_c", "chi_d"))
        return Character(chi_c, CartanVector.from_json(json_field(obj, "chi0_sharp", where, dict), rank), chi_d)


def character_of(spec: AffinisationSpec, nu: Functional, nu_prime: Functional, chi_c=0) -> Character:
    """The character with value (nu')(a sharp) + n/N on the nu-slanted algebra."""
    return Character(chi_c, nu_prime - nu, 1)


def is_integral(spec: AffinisationSpec, lam: Weight, residues=None) -> bool:
    """Whether the weight takes integer values on every compact affine coroot.

    Along each residue class of admissible modes the values form an arithmetic
    progression, so integrality holds iff the value at one representative is an
    integer and the step is an integer.  Pass `residues(root)` to override the
    admissible classes (pre-standardization twists).
    """
    for a in lars_finite_parts(spec.lars, spec.base):
        norm = inner(a, a)
        step = 2 * lam.lc / (norm * spec.twist_order)
        if residues is None:
            res, mstep = admissible_mode_step(spec.lars, a)
            classes = [res]
            class_step = mstep
        else:
            classes = list(residues(a))
            class_step = spec.twist_order
        if (step * class_step).denominator != 1:
            return False
        for r in classes:
            if lam(affine_coroot(spec, AffineRoot(a, r))).denominator != 1:
                return False
    return True


@dataclass(frozen=True)
class EnergyReport:
    positive_energy: bool
    minimum: Fraction | None  # None encodes minus infinity
    witness: AffWeylElement | None
    method_agreement: bool | None
    bounds: dict = field(default_factory=dict)

    def to_json(self):
        return {
            "schema": "v1",
            "positive_energy": self.positive_energy,
            "minimum": str(self.minimum) if self.minimum is not None else "-inf",
            "witness": self.witness.to_json() if self.witness is not None else None,
            "method_agreement": self.method_agreement,
            "bounds": dict(self.bounds),
        }


# -- closest vector problems for the seven translation lattices -----------------


def _cvp(shape: str, target: list[int], den: int) -> list[int]:
    """A nearest point of Z^n ("Z"), D_n ("D") or the sum-zero A_(n-1) ("A") to target / den.

    The target is integer numerators over one den > 0, and every step runs in
    integers (decoders after Conway & Sloane, 1982).  Each coordinate rounds
    to the nearest integer, ties toward minus infinity.  D_n: when the sum is
    odd, the coordinate with the largest rounding error (the first on ties)
    moves one step toward its target.  A_(n-1): the target is first projected
    to the sum-zero hyperplane; a nonzero sum then moves the coordinates that
    rounded furthest in its direction (by error, then index) one step back.
    """
    if shape == "A":
        n, total = len(target), sum(target)
        target, den = [n * t - total for t in target], n * den
    r = [(2 * t + den - 1) // (2 * den) for t in target]
    excess = sum(r)
    if shape == "D" and excess % 2:
        err = [x * den - t for x, t in zip(r, target)]
        i = max(range(len(r)), key=lambda i: abs(err[i]))
        r[i] += 1 if err[i] <= 0 else -1
    elif shape == "A" and excess:
        order = sorted(range(len(r)), key=lambda i: (r[i] * den - target[i], i))
        step = 1 if excess > 0 else -1
        for i in order[-excess:] if excess > 0 else order[:-excess]:
            r[i] -= step
    return r


def lattice_cvp(kind: str, rank: int, target: CartanVector) -> CartanVector:
    """An exact nearest lattice vector to the target, deterministic under ties."""
    shape, scale = KINDS[kind].lattice
    num = _padded(target.num, rank)
    r = _cvp(shape, [x * scale.denominator for x in num], target.den * scale.numerator)
    return int_vector([x * scale.numerator for x in r], scale.denominator)


def _padded(num: tuple, rank: int) -> tuple:
    """The numerators of coordinates 1..rank."""
    return tuple(num[:rank]) + (0,) * (rank - len(num))


# -- the orbit of the character --------------------------------------------------


def _distinct_images(kind: str, rank: int, chi0_sharp: CartanVector) -> list[tuple[tuple, tuple, tuple]]:
    """(perm, signs, u) for every distinct image u of chi0_sharp under the finite Weyl group.

    u holds the image's numerators over chi0_sharp.den, one per coordinate
    1..rank.  The images are the distinct arrangements of the numerators x of
    chi0_sharp under the kind's sign rule (`sign_flips`): any signs, an even
    number of flips, or none.  (perm, signs) is the first element of
    `weyl.finite_weyl_group` that sends x to u (see `_first_element`), and
    the list runs in the order of those elements: it is the group scan's list,
    found without the group.  The orbit value depends on the finite element
    only through its image, so one element per image covers the group.
    """
    rule = KINDS[kind].sign_flips
    x = _padded(chi0_sharp.num, rank)
    # with no zero in x, an even number of flips keeps the parity of the negative entries
    parity = sum(v < 0 for v in x) % 2 if rule == "even" and all(x) else None
    images = []
    for arranged in _arrangements(x if rule == "none" else [abs(v) for v in x]):
        free = [p for p, v in enumerate(arranged) if v] if rule != "none" else []
        for signs in product((1, -1), repeat=len(free)):
            if parity is not None and signs.count(-1) % 2 != parity:
                continue
            u = list(arranged)
            for p, s in zip(free, signs):
                u[p] *= s
            images.append((*_first_element(x, u, rule), tuple(u)))
    # group order: permutations lexicographically, then signs in product((1, -1)) order
    images.sort(key=lambda image: (image[0], [-s for s in image[1]]))
    return images


def _arrangements(values) -> list[tuple]:
    """Every distinct ordering of the multiset of values, once each (next-permutation order)."""
    a = sorted(values)
    n = len(a)
    out = [tuple(a)]
    while True:
        i = n - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return out
        j = n - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1 :] = reversed(a[i + 1 :])
        out.append(tuple(a))


def _first_element(x: tuple, u: list, rule: str) -> tuple[tuple, tuple]:
    """(perm, signs) of the first finite Weyl element, in group order, that sends x to u.

    Greedy: perm[j] is the least unused p with |u_p| = |x_j| (u_p = x_j when
    no sign flips), and signs[j] = u_p / x_j, or +1 where x_j = 0.  Under the
    even rule, when those flips are odd, the sign of the last j with x_j = 0
    becomes -1 (u is in the orbit, so such a j exists).
    """
    size = (lambda v: v) if rule == "none" else abs
    slots = {}
    for p in range(len(u), 0, -1):
        slots.setdefault(size(u[p - 1]), []).append(p)
    perm = tuple(slots[size(v)].pop() for v in x)
    signs = [1 if u[p - 1] == v else -1 for p, v in zip(perm, x)]
    if rule == "even" and signs.count(-1) % 2:
        signs[max(j for j, v in enumerate(x) if not v)] = -1
    return perm, tuple(signs)


#: the closed form enumerates the orbit of chi0_sharp, of up to 2^n n! images,
#: and the oracle checks it over (2 bound + 1)^n box points; min_energy refuses
#: higher ranks
EXHAUSTIVE_RANK = 5


def min_energy(
    spec: AffinisationSpec,
    lam: Weight,
    chi: Character,
    oracle_bound: int = 10,
    with_oracle: bool = True,
    jobs: int = 1,
) -> EnergyReport:
    """Infimum of lam over the unslanted Weyl orbit displacement of the character.

    Closed form: per distinct image u of chi0_sharp under the finite Weyl
    group (`_distinct_images`, which enumerates the orbit, not the group) the
    translation part is a positive definite quadratic, minimized exactly by
    an integer lattice CVP; ties go to the first image.  The oracle's exact
    minimum over a coefficient box must agree.  The orbit and the oracle box
    grow with the rank, so ranks above EXHAUSTIVE_RANK raise DomainError.
    """
    if lam.lc == 0:
        raise DomainError("the central value of the weight must be nonzero")
    if not spec.is_standard():
        raise DomainError("energy minimization runs on the standard (untwisted) side")
    rank = spec.base.rank
    kind = spec.lars
    if rank > EXHAUSTIVE_RANK:
        raise DomainError(
            f"rank {rank} is above exhaustive_rank = {EXHAUSTIVE_RANK}: "
            "the orbit images and the oracle box grow with the rank"
        )
    bounds = {"lattice": oracle_bound, "finite_search": "exhaustive"}

    coeff = lam.lc * chi.chi_d / 2
    if coeff < 0:
        agree = _oracle_detects_divergence(spec, lam, chi, oracle_bound) if with_oracle else None
        return EnergyReport(False, None, None, agree, bounds)
    images = _distinct_images(kind, rank, chi.chi0_sharp)
    if coeff == 0:
        return _linear_case(spec, lam, chi, images, bounds, with_oracle, oracle_bound)

    minimum, perm, signs, y = _closed_form(kind, rank, lam, chi, images)
    witness = AffWeylElement(Translation(y), FiniteWeylElement(perm, signs))

    # the witness reproduces the minimum through the actual action
    if lam(act(spec, witness, chi) - chi) != minimum:
        raise AssertionError("witness does not reproduce the reported minimum")

    agreement = None
    if with_oracle:
        oracle_min = _oracle_minimum(spec, lam, chi, oracle_bound, jobs, images)
        agreement = oracle_min == minimum
    return EnergyReport(True, minimum, witness, agreement, bounds)


def _closed_form(kind, rank, lam, chi, images) -> tuple[Fraction, tuple, tuple, CartanVector]:
    """(minimum, perm, signs, y) of the least orbit value over the images, for lc chi_d > 0.

    With lc = p/q, chi_d = pd/qd, l0 = L/ld, chi0_sharp = X/xd and the
    lattice scale sn/sd, the value at the image u = U/xd and y = (sn/sd) r is
    lc chi_d |y|^2 / 2 - <lc u + chi_d l0, y> + <l0, u - chi0_sharp>.  Its
    minimizer over r is the CVP of T/D, with the integers
    T = sd (p qd ld U + pd q xd L) and D = p pd xd ld sn > 0 (p pd > 0), and
    E = 2 q qd sd^2 xd ld > 0 times the value is
    sn (D |r|^2 - 2 T.r) + 2 q qd sd^2 (L.U - L.X).  Every image shares D
    and E, so the images compare in integers; the first least one wins, and
    one Fraction is built.
    """
    shape, scale = KINDS[kind].lattice
    sn, sd = scale.numerator, scale.denominator
    p, q, pd, qd = lam.lc.numerator, lam.lc.denominator, chi.chi_d.numerator, chi.chi_d.denominator
    L, ld, xd = _padded(lam.l0.num, rank), lam.l0.den, chi.chi0_sharp.den
    a = sd * p * qd * ld
    base = [sd * pd * q * xd * x for x in L]
    den = p * pd * xd * ld * sn
    c = 2 * q * qd * sd * sd
    best = None
    for perm, signs, u in images:
        t = [a * x + b for x, b in zip(u, base)]
        r = _cvp(shape, t, den)
        val = sn * (den * _dot(r, r) - 2 * _dot(t, r)) + c * _dot(L, u)
        if best is None or val < best[0]:
            best = (val, perm, signs, r)
    val, perm, signs, r = best
    minimum = Fraction(val - c * _dot(L, chi.chi0_sharp.num), c * xd * ld)
    return minimum, perm, signs, int_vector([sn * x for x in r], sd)


def _linear_case(spec, lam, chi, images, bounds, with_oracle, oracle_bound):
    # chi_d = 0: the orbit value lc <u, y> + <l0, u - chi0_sharp> is affine in
    # the translation part, and bounded below only if u is orthogonal to the lattice
    rank = spec.base.rank
    rows, _ = common_rows(translation_lattice(spec), rank)
    L = _padded(lam.l0.num, rank)
    best = None
    for perm, signs, u in images:
        if any(_dot(u, row) for row in rows):
            agree = _oracle_detects_divergence(spec, lam, chi, oracle_bound, images) if with_oracle else None
            return EnergyReport(False, None, None, agree, bounds)
        val = _dot(L, u)
        if best is None or val < best[0]:
            best = (val, perm, signs)
    val, perm, signs = best
    chi0 = chi.chi0_sharp
    minimum = Fraction(val - _dot(L, chi0.num), lam.l0.den * chi0.den)
    witness = AffWeylElement(Translation(CartanVector()), FiniteWeylElement(perm, signs))
    agreement = None
    if with_oracle:
        agreement = _oracle_minimum(spec, lam, chi, oracle_bound, 1, images) == minimum
    return EnergyReport(True, minimum, witness, agreement, bounds)


def _oracle_minimum(spec, lam, chi, bound, jobs=1, images=None) -> Fraction:
    """Exact least orbit value over the coefficient box and every distinct orbit image.

    The box holds the lattice vectors y = sum m_i b_i with |m_i| <= bound.
    After one common integer scaling, twice the orbit value at the image
    u = w.chi0_sharp is F_u(m) = a m.G.m - beta_u.m + kappa_u, with G the
    Gram matrix of the integer lattice rows; only beta and kappa depend on u.
    Pass the (perm, signs, u) triples of `_distinct_images` as images when
    they are at hand.  No CVP: a point is skipped only when its value
    provably cannot be below one already evaluated (see `_least_value`), so
    the result is the exact box minimum and checks the closed form.
    """
    rank = spec.base.rank
    rows, den = common_rows(translation_lattice(spec), rank)  # y = sum m_i rows_i / den
    if images is None:
        images = _distinct_images(spec.lars, rank, chi.chi0_sharp)
    # F_u = 2 * scale * orbit value: with y = rows.m / den, the terms lc chi_d |y|^2,
    # -2 <lc u + chi_d l0, y> and 2 <l0, u - chi0_sharp> scale to a m.G.m, -beta_u.m
    # and kappa_u in integers; every image shares the denominator of chi0_sharp
    lc, chi_d, l0, chi0 = lam.lc, chi.chi_d, lam.l0, chi.chi0_sharp
    scale = den * den * lc.denominator * chi_d.denominator * chi0.den * l0.den
    a = lc.numerator * chi_d.numerator * chi0.den * l0.den
    grad_u = 2 * lc.numerator * chi_d.denominator * den * l0.den
    grad_l0 = 2 * chi_d.numerator * lc.denominator * den * chi0.den
    const = 2 * den * den * lc.denominator * chi_d.denominator
    beta_l0 = [grad_l0 * _dot(l0.num, r) for r in rows]
    kappa_chi0 = _dot(l0.num, chi0.num)
    tasks = [
        ([grad_u * _dot(u, r) + b for r, b in zip(rows, beta_l0)], const * (_dot(l0.num, u) - kappa_chi0))
        for *_, u in images
    ]
    if jobs > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        step = (len(tasks) + jobs - 1) // jobs
        chunks = [tasks[i : i + step] for i in range(0, len(tasks), step)]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            best = min(pool.map(_least_value, chunks, repeat(a), repeat(rows), repeat(bound)))
    else:
        best = _least_value(tasks, a, rows, bound)
    return Fraction(best, 2 * scale)


def _least_value(tasks, a, rows, bound) -> int:
    """Least F(m) = a m.G.m - beta.m + kappa over the box |m_i| <= bound and the (beta, kappa) tasks.

    G is the Gram matrix of the integer lattice rows.  Only points that can
    still be the minimum are evaluated:

    - a <= 0: F is concave or affine, so its box minimum lies at a vertex.
    - a > 0: F(m) = a (m - c).G.(m - c) + F(c) with c = G^-1 beta / 2a, so
      F(c) bounds F from below.  The box point nearest c for the task with
      the least F(c) gives a first value U.  Tasks are scanned by increasing
      F(c), and the scan stops at the first with F(c) >= U.  Each scanned
      task evaluates only the box points in the bounding box of its ellipsoid
      F(m) <= U, whose half-width in coordinate i is
      sqrt((U - F(c)) adj(G)_ii / (a det G)).  Every skipped point has
      F(m) >= U, so the result is the box minimum.  (On the standard kinds
      F(c) is the same for every image, because the finite Weyl group keeps
      the form and the sum of coordinates in type A; the scan then stops
      only once U reaches it.  The order keeps the argument free of that.)
    """
    if a <= 0:
        corners = [(-bound, bound)] * len(rows)
        quad = _quadratic(a, rows, corners)
        return min(min(map(sub, quad, _point_sums(corners, beta))) + kappa for beta, kappa in tasks)
    adj, det = _adjugate([[_dot(r, s) for s in rows] for r in rows])
    q = 2 * a * det  # c = adj.beta / q and 4 a det F(c) = 2 q kappa - beta.adj.beta
    scanned = []
    for beta, kappa in tasks:
        hb = [_dot(row, beta) for row in adj]
        scanned.append((2 * q * kappa - _dot(beta, hb), hb, beta, kappa))
    scanned.sort()
    _, hb, beta, kappa = scanned[0]
    best = _least_at(a, rows, [[min(bound, max(-bound, (2 * x + q) // (2 * q)))] for x in hb], beta, kappa)
    for phi, hb, beta, kappa in scanned:
        room = 2 * q * best - phi  # 4 a det (U - F(c)) = (q * half-width_i)^2 / adj_ii
        if room <= 0:
            break
        box = []
        for i, x in enumerate(hb):
            s = isqrt(room * adj[i][i])  # floor(q * half-width_i), so lo and hi are exact
            lo, hi = max(-bound, -((s - x) // q)), min(bound, (x + s) // q)
            if lo > hi:
                break
            box.append(range(lo, hi + 1))
        else:
            best = min(best, _least_at(a, rows, box, beta, kappa))
    return best


def _least_at(a, rows, box, beta, kappa) -> int:
    """Least F(m) over the product of the coordinate ranges in box."""
    return min(map(sub, _quadratic(a, rows, box), _point_sums(box, beta))) + kappa


def _point_sums(ranges, weights) -> list[int]:
    """sum_i m_i * weights[i] for every m in the product of the ranges, last index fastest."""
    out = [0]
    for r, wt in zip(ranges, weights):
        steps = [m * wt for m in r]
        out = [v + s for v in out for s in steps]
    return out


def _quadratic(a, rows, ranges) -> list[int]:
    """a |sum_i m_i rows_i|^2 for every m in the product of the ranges, in `_point_sums` order."""
    norms = None
    for col in zip(*rows):
        x = _point_sums(ranges, col)
        norms = [v * v for v in x] if norms is None else [n + v * v for n, v in zip(norms, x)]
    return [a * n for n in norms]


def _dot(x, y) -> int:
    return sum(map(mul, x, y))


def _adjugate(gram) -> tuple[list, int]:
    """adj(G) and det(G) of a positive definite integer matrix, by fraction-free Gauss-Jordan.

    Bareiss elimination on [G | I] without pivoting (the leading minors of a
    positive definite matrix are positive); every division is exact, and it
    ends at [det I | adj].
    """
    k = len(gram)
    work = [list(row) + [int(i == j) for j in range(k)] for i, row in enumerate(gram)]
    prev = 1
    for p in range(k):
        pivot, top = work[p][p], work[p]
        for i in range(k):
            if i != p:
                f = work[i][p]
                work[i] = [(pivot * x - f * y) // prev for x, y in zip(work[i], top)]
        prev = pivot
    return [row[k:] for row in work], prev


def _oracle_detects_divergence(spec, lam, chi, bound, images=None) -> bool | None:
    """For minus-infinity reports: the box minimum strictly decreases from box bound // 2 to box bound.

    At bound 0 there is only one box, so the check cannot run: None.
    """
    if bound < 1:
        return None
    if images is None:
        images = _distinct_images(spec.lars, spec.base.rank, chi.chi0_sharp)
    small = _oracle_minimum(spec, lam, chi, bound // 2, 1, images)
    large = _oracle_minimum(spec, lam, chi, bound, 1, images)
    return large < small


def theorem_b_pipeline(
    cert: "StandardizationCertificate",
    lam: Weight,
    nu: Functional,
    nu_prime: Functional,
    oracle_bound: int = 10,
    require_integral: bool = True,
) -> EnergyReport:
    """Shift the weight by a standardization certificate's slant, and minimize.

    The certificate normalizes the operator's conjugation automorphism to a
    standard twist with slant mu; the minimal energy of the (nu, nu')-pair on
    the twisted side equals the orbit infimum of the weight shifted by mu + nu
    against the character built from mu + nu', over the unslanted standard
    Weyl group.
    """
    from .autnorm import mode_class

    src = cert.source_spec(nu)
    if lam.lc == 0:
        raise DomainError("the central value of the weight must be nonzero")
    if require_integral and not is_integral(src, lam, residues=lambda a: mode_class(cert, a)):
        raise DomainError("the weight is not integral on the twisted side")
    dst = standard_spec(cert.lars, cert.rank)
    lam_shifted, chi = slant_shift(lam, character_of(dst, nu, nu_prime), cert.mu + nu)
    return min_energy(dst, lam_shifted, chi, oracle_bound=oracle_bound)
