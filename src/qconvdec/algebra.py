"""Exact arithmetic over GF(2) and GF(4): polynomials, Laurent polynomials,
rational functions in the delay variable D, linear algebra over the
rational-function field (elimination, left inverses, null spaces), and the
numpy GF(q) core shared by every constant-matrix computation: one
reduced-row-echelon elimination and one block-domain convolution.

Field elements are plain ints. GF(4) uses 0, 1, 2, 3 with 2 = w (the
primitive element), 3 = w^2 = 1 + w; addition is XOR in both fields.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

import numpy as np

W = 2       # primitive element of GF(4)
WBAR = 3    # w^2 = 1 + w


class AlgebraError(ValueError):
    pass


class FieldMismatchError(AlgebraError):
    pass


class ZeroDenominatorError(AlgebraError):
    pass


class RankDeficientError(AlgebraError):
    pass


class DegreeCapError(AlgebraError):
    """An intermediate polynomial exceeded the degree cap."""


class GramSingularError(AlgebraError):
    """Moore-Penrose left inverse is unavailable: m^T m is singular."""


_DEGREE_CAP = 512


class Field:
    """GF(2) or GF(4). Addition is XOR; multiplication by small table."""

    def __init__(self, order: int):
        if order not in (2, 4):
            raise ValueError("only GF(2) and GF(4) are supported")
        self.order = order
        if order == 2:
            self._mul = ((0, 0), (0, 1))
            self._inv = (0, 1)
        else:
            # (a0 + a1*w)(b0 + b1*w) with w^2 = 1 + w
            tbl = [[0] * 4 for _ in range(4)]
            for a in range(4):
                for b in range(4):
                    a0, a1 = a & 1, a >> 1
                    b0, b1 = b & 1, b >> 1
                    c0 = (a0 & b0) ^ (a1 & b1)
                    c1 = (a0 & b1) ^ (a1 & b0) ^ (a1 & b1)
                    tbl[a][b] = c0 | (c1 << 1)
            self._mul = tuple(tuple(r) for r in tbl)
            inv = [0] * 4
            for a in range(1, 4):
                inv[a] = next(b for b in range(1, 4) if self._mul[a][b] == 1)
            self._inv = tuple(inv)
        # numpy copies of the tables for vectorized elimination/convolution
        self.mul_table = np.array(self._mul, dtype=np.uint8)
        self.inv_table = np.array(self._inv, dtype=np.uint8)

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        return self._inv[a]

    def conj(self, a: int) -> int:
        """Field conjugation: identity on GF(2), w <-> w^2 on GF(4)."""
        if self.order == 2 or a < 2:
            return a
        return 5 - a  # swaps 2 and 3

    def elements(self) -> range:
        return range(self.order)

    def __repr__(self) -> str:
        return f"GF({self.order})"


GF2 = Field(2)
GF4 = Field(4)


def _check_same_field(a: "Poly | RationalFn", b: "Poly | RationalFn") -> None:
    if a.field is not b.field:
        raise FieldMismatchError(f"mixed fields: {a.field} and {b.field}")


class Poly:
    """Polynomial in D with coefficients in GF(2) or GF(4).

    Canonical form: no trailing zero coefficients. The zero polynomial has an
    empty coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs", "field")

    def __init__(self, coeffs: Iterable[int], field: Field = GF2):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        if any(x < 0 or x >= field.order for x in c):
            raise ValueError("coefficient out of field range")
        if len(c) > _DEGREE_CAP + 1:
            raise DegreeCapError(f"degree {len(c)-1} exceeds cap {_DEGREE_CAP}")
        object.__setattr__(self, "coeffs", tuple(c))
        object.__setattr__(self, "field", field)

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    @classmethod
    def zero(cls, field: Field = GF2) -> "Poly":
        return cls((), field)

    @classmethod
    def one(cls, field: Field = GF2) -> "Poly":
        return cls((1,), field)

    @classmethod
    def D(cls, field: Field = GF2) -> "Poly":
        return cls((0, 1), field)

    @classmethod
    def monomial(cls, power: int, coeff: int = 1, field: Field = GF2) -> "Poly":
        return cls((0,) * power + (coeff,), field)

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.coeffs == (1,)

    def __getitem__(self, power: int) -> int:
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return 0

    def constant_term(self) -> int:
        return self[0]

    def leading_coeff(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def __add__(self, other: "Poly") -> "Poly":
        _check_same_field(self, other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, x in enumerate(b):
            out[i] ^= x
        return Poly(out, self.field)

    __sub__ = __add__  # characteristic 2

    def __mul__(self, other: "Poly") -> "Poly":
        _check_same_field(self, other)
        if self.is_zero() or other.is_zero():
            return Poly.zero(self.field)
        deg = self.degree + other.degree
        if deg > _DEGREE_CAP:
            raise DegreeCapError(f"product degree {deg} exceeds cap {_DEGREE_CAP}")
        mul = self.field.mul
        out = [0] * (deg + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] ^= mul(a, b)
        return Poly(out, self.field)

    def scale(self, c: int) -> "Poly":
        mul = self.field.mul
        return Poly((mul(c, x) for x in self.coeffs), self.field)

    def shift(self, k: int) -> "Poly":
        """Multiply by D^k (k >= 0)."""
        if self.is_zero():
            return self
        return Poly((0,) * k + self.coeffs, self.field)

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        _check_same_field(self, other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        field = self.field
        rem = list(self.coeffs)
        dq = self.degree - other.degree
        if dq < 0:
            return Poly.zero(field), self
        quo = [0] * (dq + 1)
        inv_lead = field.inv(other.leading_coeff())
        for i in range(dq, -1, -1):
            top = rem[i + other.degree]
            if top == 0:
                continue
            q = field.mul(top, inv_lead)
            quo[i] = q
            for j, b in enumerate(other.coeffs):
                rem[i + j] ^= field.mul(q, b)
        return Poly(quo, field), Poly(rem, field)

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[1]

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self.scale(self.field.inv(self.leading_coeff()))

    def valuation(self) -> int:
        """Largest a with D^a dividing self; 0 for the zero polynomial."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return 0

    def substitute_square(self) -> "Poly":
        """D -> D^2."""
        if self.is_zero():
            return self
        out = [0] * (2 * self.degree + 1)
        for i, c in enumerate(self.coeffs):
            out[2 * i] = c
        return Poly(out, self.field)

    def reversed(self) -> "Poly":
        """Coefficient reversal: D^deg * p(1/D)."""
        return Poly(tuple(reversed(self.coeffs)), self.field)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.field is other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((id(self.field), self.coeffs))

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Poly({self})"


_F4_COEFF_STR = {1: "", W: "w*", WBAR: "w2*"}


def format_poly(p: Poly) -> str:
    """Canonical text form, e.g. ``1+D^2`` or ``1+w*D`` over GF(4)."""
    if p.is_zero():
        return "0"
    terms = []
    for i, c in enumerate(p.coeffs):
        if c == 0:
            continue
        if i == 0:
            terms.append("1" if c == 1 else _F4_COEFF_STR[c].rstrip("*"))
        elif i == 1:
            terms.append(f"{_F4_COEFF_STR[c]}D")
        else:
            terms.append(f"{_F4_COEFF_STR[c]}D^{i}")
    return "+".join(terms)


def parse_poly(text: str, field: Field = GF2) -> Poly:
    """Inverse of :func:`format_poly` (whitespace tolerated)."""
    text = text.replace(" ", "")
    if text in ("0", ""):
        return Poly.zero(field)
    coeffs: dict[int, int] = {}
    for term in text.split("+"):
        c = 1
        if term.startswith("w2*") or term == "w2":
            c, term = WBAR, term[2:].lstrip("*")
        elif term.startswith("w*") or term == "w":
            c, term = W, term[1:].lstrip("*")
        if term in ("", "1"):
            power = 0
        elif term == "D":
            power = 1
        elif term.startswith("D^"):
            power = int(term[2:])
        else:
            raise ValueError(f"bad polynomial term: {term!r}")
        coeffs[power] = coeffs.get(power, 0) ^ c
    out = [0] * (max(coeffs) + 1)
    for k, v in coeffs.items():
        out[k] = v
    return Poly(out, field)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd; gcd(a, 0) = monic(a)."""
    _check_same_field(a, b)
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def poly_lcm(a: Poly, b: Poly) -> Poly:
    if a.is_zero() or b.is_zero():
        return Poly.zero(a.field)
    g = poly_gcd(a, b)
    return (a * b).divmod(g)[0].monic()


def poly_xgcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """Extended Euclid: returns (g, s, t) with s*a + t*b = g, g monic."""
    field = a.field
    r0, r1 = a, b
    s0, s1 = Poly.one(field), Poly.zero(field)
    t0, t1 = Poly.zero(field), Poly.one(field)
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 + q * s1
        t0, t1 = t1, t0 + q * t1
    if r0.is_zero():
        return r0, s0, t0
    lead_inv = field.inv(r0.leading_coeff())
    scale = Poly((lead_inv,), field)
    return r0.monic(), s0 * scale, t0 * scale


class LaurentPoly:
    """Laurent polynomial: finite map power -> coefficient, powers may be negative."""

    __slots__ = ("coeffs", "field")

    def __init__(self, coeffs: dict[int, int], field: Field = GF2):
        c = {k: v for k, v in coeffs.items() if v}
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "field", field)

    def __setattr__(self, *a):
        raise AttributeError("LaurentPoly is immutable")

    @classmethod
    def from_poly(cls, p: Poly) -> "LaurentPoly":
        return cls({i: c for i, c in enumerate(p.coeffs)}, p.field)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        _check_same_field(self, other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) ^ v
        return LaurentPoly(out, self.field)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        _check_same_field(self, other)
        mul = self.field.mul
        out: dict[int, int] = {}
        for i, a in self.coeffs.items():
            for j, b in other.coeffs.items():
                k = i + j
                out[k] = out.get(k, 0) ^ mul(a, b)
        return LaurentPoly(out, self.field)

    def invert_variable(self) -> "LaurentPoly":
        """Substitution D -> 1/D (an involution)."""
        return LaurentPoly({-k: v for k, v in self.coeffs.items()}, self.field)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentPoly)
            and self.field is other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((id(self.field), tuple(sorted(self.coeffs.items()))))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in sorted(self.coeffs):
            c = self.coeffs[k]
            cs = "" if c == 1 else _F4_COEFF_STR[c]
            if k == 0:
                parts.append("1" if c == 1 else cs.rstrip("*"))
            else:
                parts.append(f"{cs}D^{k}" if k != 1 else f"{cs}D")
        return "+".join(parts)

    __repr__ = __str__


class RationalFn:
    """Quotient of polynomials, kept coprime with a monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None):
        if den is None:
            den = Poly.one(num.field)
        _check_same_field(num, den)
        if den.is_zero():
            raise ZeroDenominatorError("zero denominator")
        if not num.is_zero():
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = num.divmod(g)[0]
                den = den.divmod(g)[0]
        else:
            den = Poly.one(num.field)
        lead = den.leading_coeff()
        if lead != 1:
            inv = num.field.inv(lead)
            num = num.scale(inv)
            den = den.scale(inv)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("RationalFn is immutable")

    @property
    def field(self) -> Field:
        return self.num.field

    @classmethod
    def zero(cls, field: Field = GF2) -> "RationalFn":
        return cls(Poly.zero(field))

    @classmethod
    def one(cls, field: Field = GF2) -> "RationalFn":
        return cls(Poly.one(field))

    @classmethod
    def from_const(cls, c: int, field: Field = GF2) -> "RationalFn":
        return cls(Poly((c,), field))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.is_one()

    def is_causal(self) -> bool:
        """True iff realizable without lookahead: no D factor in the denominator."""
        return self.den.constant_term() != 0

    def pole_order_at_zero(self) -> int:
        """Order of the pole at D = 0 (0 if causal)."""
        if self.is_zero():
            return 0
        return max(0, self.den.valuation() - self.num.valuation())

    def __add__(self, other: "RationalFn") -> "RationalFn":
        return RationalFn(self.num * other.den + other.num * self.den,
                          self.den * other.den)

    __sub__ = __add__

    def __mul__(self, other: "RationalFn") -> "RationalFn":
        return RationalFn(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RationalFn") -> "RationalFn":
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFn(self.num * other.den, self.den * other.num)

    def inverse(self) -> "RationalFn":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return RationalFn(self.den, self.num)

    def substitute_square(self) -> "RationalFn":
        return RationalFn(self.num.substitute_square(), self.den.substitute_square())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalFn)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __str__(self) -> str:
        if self.is_polynomial():
            return str(self.num)
        num = str(self.num)
        if "+" in num:
            num = f"({num})"
        return f"{num}/({self.den})"

    def __repr__(self) -> str:
        return f"RationalFn({self})"


def ratio(num: Poly, den: Poly) -> RationalFn:
    """Canonical rational function num/den (coprime, monic denominator)."""
    return RationalFn(num, den)


class RatMatrix:
    """Dense matrix of rational functions over one field."""

    __slots__ = ("rows", "cols", "entries", "field")

    def __init__(self, entries: Sequence[Sequence[RationalFn]], field: Field | None = None):
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        for r in entries:
            if len(r) != cols:
                raise ValueError("ragged matrix")
        if field is None:
            field = entries[0][0].field if rows and cols else GF2
        for r in entries:
            for e in r:
                if e.field is not field:
                    raise FieldMismatchError("matrix entries from mixed fields")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", tuple(tuple(r) for r in entries))
        object.__setattr__(self, "field", field)

    def __setattr__(self, *a):
        raise AttributeError("RatMatrix is immutable")

    @classmethod
    def from_polys(cls, rows: Sequence[Sequence[Poly]]) -> "RatMatrix":
        return cls([[RationalFn(p) for p in r] for r in rows])

    @classmethod
    def identity(cls, k: int, field: Field = GF2) -> "RatMatrix":
        return cls([[RationalFn.one(field) if i == j else RationalFn.zero(field)
                     for j in range(k)] for i in range(k)], field)

    @classmethod
    def zeros(cls, rows: int, cols: int, field: Field = GF2) -> "RatMatrix":
        z = RationalFn.zero(field)
        return cls([[z] * cols for _ in range(rows)], field)

    def __getitem__(self, rc: tuple[int, int]) -> RationalFn:
        return self.entries[rc[0]][rc[1]]

    def row(self, i: int) -> tuple[RationalFn, ...]:
        return self.entries[i]

    def transpose(self) -> "RatMatrix":
        return RatMatrix([[self.entries[r][c] for r in range(self.rows)]
                          for c in range(self.cols)], self.field)

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        z = RationalFn.zero(self.field)
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = z
                for k in range(self.cols):
                    a = self.entries[i][k]
                    b = other.entries[k][j]
                    if a.is_zero() or b.is_zero():
                        continue
                    acc = acc + a * b
                row.append(acc)
            out.append(row)
        return RatMatrix(out, self.field)

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch")
        return RatMatrix([[self.entries[i][j] + other.entries[i][j]
                           for j in range(self.cols)] for i in range(self.rows)],
                         self.field)

    def is_zero(self) -> bool:
        return all(e.is_zero() for r in self.entries for e in r)

    def is_identity(self) -> bool:
        if self.rows != self.cols:
            return False
        one = RationalFn.one(self.field)
        return all(self.entries[i][j] == (one if i == j else RationalFn.zero(self.field))
                   for i in range(self.rows) for j in range(self.cols))

    def is_polynomial(self) -> bool:
        return all(e.is_polynomial() for r in self.entries for e in r)

    def poly_entries(self) -> list[list[Poly]]:
        if not self.is_polynomial():
            raise ValueError("matrix has non-polynomial entries")
        return [[e.num for e in r] for r in self.entries]

    @classmethod
    def from_coeff_tensor(cls, taps: np.ndarray,
                          field: Field = GF2) -> "RatMatrix":
        """Polynomial matrix whose D^d coefficients are ``taps[d]``; the
        inverse of :meth:`coeff_tensor`."""
        _, rows, cols = taps.shape
        return cls.from_polys([[Poly(taps[:, i, c].tolist(), field)
                                for c in range(cols)] for i in range(rows)])

    def coeff_tensor(self) -> np.ndarray:
        """Polynomial entries as a (max degree + 1, rows, cols) array whose
        slice d holds the D^d coefficients."""
        polys = self.poly_entries()
        deg = max((p.degree for row in polys for p in row), default=0)
        out = np.zeros((max(deg, 0) + 1, self.rows, self.cols), dtype=np.uint8)
        for i, row in enumerate(polys):
            for c, p in enumerate(row):
                out[:len(p.coeffs), i, c] = p.coeffs
        return out

    def substitute_square(self) -> "RatMatrix":
        """Entry-wise D -> D^2."""
        return RatMatrix([[e.substitute_square() for e in r] for r in self.entries],
                         self.field)

    def substitute_inverse(self) -> list[list[LaurentPoly]]:
        """Entry-wise D -> 1/D on a polynomial matrix (Laurent-valued)."""
        out = []
        for r in self.poly_entries():
            out.append([LaurentPoly.from_poly(p).invert_variable() for p in r])
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatMatrix)
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash(self.entries)

    def __str__(self) -> str:
        return "\n".join(" | ".join(str(e) for e in r) for r in self.entries)

    def __repr__(self) -> str:
        return f"RatMatrix {self.rows}x{self.cols} over {self.field}:\n{self}"


def _rref_with_transform(m: RatMatrix) -> tuple[RatMatrix, RatMatrix, list[int]]:
    """Row-reduced echelon form R = T @ m; returns (R, T, pivot columns)."""
    field = m.field
    rows = [list(r) for r in m.entries]
    nrows, ncols = m.rows, m.cols
    trans = [[RationalFn.one(field) if i == j else RationalFn.zero(field)
              for j in range(nrows)] for i in range(nrows)]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        sel = next((i for i in range(r, nrows) if not rows[i][c].is_zero()), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        trans[r], trans[sel] = trans[sel], trans[r]
        inv = rows[r][c].inverse()
        rows[r] = [e * inv for e in rows[r]]
        trans[r] = [e * inv for e in trans[r]]
        for i in range(nrows):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [a + f * b for a, b in zip(rows[i], rows[r])]
                trans[i] = [a + f * b for a, b in zip(trans[i], trans[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return RatMatrix(rows, field), RatMatrix(trans, field), pivots


def rank(m: RatMatrix) -> int:
    return len(_rref_with_transform(m)[2])


def left_inverse(m: RatMatrix) -> RatMatrix:
    """L with L @ m = I, for an n x r matrix of full column rank r.

    Gaussian elimination over the rational-function field; always succeeds at
    full rank (the field has no characteristic-2 Gram pathology).
    """
    r = m.cols
    rref_m, trans, pivots = _rref_with_transform(m)
    if len(pivots) < r:
        raise RankDeficientError(f"rank {len(pivots)} < {r} columns")
    # rref_m = trans @ m = [I_r; 0] up to pivot placement; since column rank is
    # full, pivots are exactly columns 0..r-1 and the first r rows of trans
    # give the left inverse.
    L = RatMatrix(trans.entries[:r], m.field)
    if not (L @ m).is_identity():  # internal guard
        raise AlgebraError("left inverse verification failed")
    return L


def left_inverse_moore_penrose(m: RatMatrix) -> RatMatrix:
    """(m^T m)^-1 m^T. Raises GramSingularError when m^T m is singular,
    which can happen in characteristic 2 even for full-rank m."""
    mt = m.transpose()
    gram = mt @ m
    r = gram.rows
    _, trans, pivots = _rref_with_transform(gram)
    if len(pivots) < r:
        raise GramSingularError("m^T m is singular")
    L = trans @ mt
    if not (L @ m).is_identity():
        raise AlgebraError("Moore-Penrose verification failed")
    return L


def null_space_basis(m: RatMatrix) -> RatMatrix:
    """Basis G ((n-r) x n, polynomial rows) of {g : g @ m = 0} for an n x r
    matrix of full column rank r.

    Rows are cleared to polynomial form (times the lcm of denominators) and
    divided by their gcd, then normalized monic in the leading entry.
    """
    n, r = m.rows, m.cols
    rref_m, _, pivots = _rref_with_transform(m.transpose())
    if len(pivots) < r:
        raise RankDeficientError(f"rank {len(pivots)} < {r} columns")
    field = m.field
    free = [c for c in range(n) if c not in pivots]
    rows = []
    for fc in free:
        vec = [RationalFn.zero(field)] * n
        vec[fc] = RationalFn.one(field)
        for i, pc in enumerate(pivots):
            vec[pc] = rref_m.entries[i][fc]  # char 2: -x = x
        rows.append(_clear_row(vec))
    return RatMatrix.from_polys(rows)


def _clear_row(vec: list[RationalFn]) -> list[Poly]:
    field = vec[0].field
    lcm = Poly.one(field)
    for e in vec:
        lcm = poly_lcm(lcm, e.den) if not e.is_zero() else lcm
    polys = []
    for e in vec:
        q = lcm.divmod(e.den)[0] if not e.is_zero() else Poly.zero(field)
        polys.append(e.num * q)
    g = Poly.zero(field)
    for p in polys:
        g = poly_gcd(g, p)
    if not g.is_zero() and not g.is_one():
        polys = [p.divmod(g)[0] for p in polys]
    lead = next((p.leading_coeff() for p in polys if not p.is_zero()), 1)
    if lead not in (0, 1):
        inv = field.inv(lead)
        polys = [p.scale(inv) for p in polys]
    return polys


def poly_det(rows: Sequence[Sequence[Poly]]) -> Poly:
    """Determinant of a small square polynomial matrix (Laplace expansion)."""
    k = len(rows)
    field = rows[0][0].field
    if k == 1:
        return rows[0][0]
    acc = Poly.zero(field)
    for j in range(k):
        if rows[0][j].is_zero():
            continue
        minor = [[rows[i][jj] for jj in range(k) if jj != j] for i in range(1, k)]
        acc = acc + rows[0][j] * poly_det(minor)  # char 2: signs vanish
    return acc


def minors_gcd(g: RatMatrix) -> Poly:
    """Gcd of all k x k minors of a k x n polynomial matrix.

    A convolutional generator is non-catastrophic iff this gcd is a power of
    D (including 1)."""
    rows = g.poly_entries()
    k, n = g.rows, g.cols
    if k > n:
        raise ValueError("wide matrix expected (k <= n)")
    acc = Poly.zero(g.field)
    for cols in itertools.combinations(range(n), k):
        det = poly_det([[rows[i][c] for c in cols] for i in range(k)])
        if not det.is_zero():
            acc = poly_gcd(acc, det) if not acc.is_zero() else det.monic()
            if acc.is_one():
                return acc
    return acc.monic() if not acc.is_zero() else acc


def is_power_of_d(p: Poly) -> bool:
    return not p.is_zero() and all(c == 0 for c in p.coeffs[:-1]) and p.leading_coeff() == 1


def poly_row_degree(row: Sequence[Poly]) -> int:
    return max((p.degree for p in row), default=-1)


def row_reduce_poly_matrix(rows: Sequence[Sequence[Poly]]) -> list[list[Poly]]:
    """Reduce polynomial rows to a row-reduced basis of the same module.

    Repeatedly cancels dependencies among the leading (highest-degree)
    coefficient vectors, lowering row degrees until the leading coefficient
    matrix has full rank. Zero rows are dropped. The result has minimal total
    row degree (Forney), which gives minimal trellis state complexity.
    """
    field = rows[0][0].field
    work = [list(r) for r in rows if poly_row_degree(r) >= 0]
    ncols = len(work[0])
    while True:
        work.sort(key=poly_row_degree)
        degs = [poly_row_degree(r) for r in work]
        lead = np.array([[r[c][d] for c in range(ncols)]
                         for r, d in zip(work, degs)], dtype=np.uint8)
        # RREF of the leading vectors as columns: the first non-pivot column
        # is the first row depending on those before it, and its entries are
        # the unique combination of them that equals it
        combo, pivots = gf_rref(lead.T, field)
        ri = next((i for i, c in enumerate(pivots) if c != i), len(pivots))
        if ri == len(work):
            return work
        newrow = list(work[ri])
        for rj in range(ri):
            cf = int(combo[rj, ri])
            if not cf:
                continue
            shift = degs[ri] - degs[rj]
            for c in range(ncols):
                newrow[c] = newrow[c] + work[rj][c].scale(cf).shift(shift)
        if poly_row_degree(newrow) >= degs[ri]:
            raise AlgebraError("row reduction failed to lower degree")
        if poly_row_degree(newrow) < 0:
            work.pop(ri)
        else:
            work[ri] = newrow


# ---------------------------------------------------------------------------
# numpy GF(q) core: constant matrices as uint8 arrays of field elements
# ---------------------------------------------------------------------------

def gf_rref(a: np.ndarray, field: Field,
            ncols: int | None = None) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of a GF(q) matrix and its pivot columns.

    Pivots are sought in the first ``ncols`` columns only (all by default),
    so an augmented block on the right is carried along but never pivoted.
    """
    a = np.array(a, dtype=np.uint8)
    mul, inv = field.mul_table, field.inv_table
    pivots: list[int] = []
    for c in range(a.shape[1] if ncols is None else ncols):
        r = len(pivots)
        if r == a.shape[0]:
            break
        nz = np.flatnonzero(a[r:, c])
        if not nz.size:
            continue
        sel = r + nz[0]
        if sel != r:
            a[[r, sel]] = a[[sel, r]]
        a[r] = mul[inv[a[r, c]], a[r]]
        f = a[:, c].copy()
        f[r] = 0
        hit = np.flatnonzero(f)
        a[hit] ^= mul[f[hit, None], a[r]]
        pivots.append(c)
    return a, pivots


def gf_rank(a: np.ndarray, field: Field) -> int:
    return len(gf_rref(a, field)[1])


def gf_kernel(a: np.ndarray, field: Field) -> np.ndarray:
    """Basis of {x : a @ x = 0}, one row per free column of the RREF (the
    free variable set to 1, the others to 0)."""
    red, pivots = gf_rref(a, field)
    cols = red.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    out = np.zeros((len(free), cols), dtype=np.uint8)
    out[np.arange(len(free)), free] = 1
    out[:, pivots] = red[:len(pivots)][:, free].T  # char 2: -x = x
    return out


def gf_solve(a: np.ndarray, b: np.ndarray, field: Field) -> np.ndarray | None:
    """The solution of a @ x = b with every free variable zero, or None when
    b is outside the column span of a."""
    cols = a.shape[1]
    red, pivots = gf_rref(np.column_stack([a, b]), field, cols)
    if red[len(pivots):, cols].any():
        return None
    x = np.zeros(cols, dtype=np.uint8)
    x[pivots] = red[:len(pivots), cols]
    return x


def gf_inv(a: np.ndarray, field: Field) -> np.ndarray | None:
    """Inverse of a square GF(q) matrix, or None when it is singular."""
    n = a.shape[0]
    red, pivots = gf_rref(
        np.concatenate([a, np.eye(n, dtype=np.uint8)], axis=1), field, n)
    return red[:, n:] if len(pivots) == n else None


def gf_convolve(taps: np.ndarray, x: np.ndarray, field: Field,
                window: int | None = None) -> np.ndarray:
    """Block-domain convolution out[t] = sum_d taps[d] @ x[t - d] over GF(q).

    ``taps`` is (degree + 1, r, lanes) and ``x`` is (blocks, lanes). The
    output keeps ``window`` blocks (default: the frame's), so a window of
    blocks + degree covers the full support."""
    x = np.asarray(x, dtype=np.uint8)
    nb = x.shape[0]
    if x.shape[1] != taps.shape[2]:
        raise ValueError("frame lane count mismatch")
    if window is None:
        window = nb
    # GF(q) = GF(2)^bits and a tap acts GF(2)-linearly on the bit planes of
    # x, so each tap works through its binary image in one integer matmul
    # (uint8 sums wrap mod 256, which keeps their parity)
    planes = range(field.order.bit_length() - 1)
    xb = np.concatenate([(x >> k) & 1 for k in planes], axis=1)
    image = np.concatenate(
        [np.concatenate([(field.mul_table[taps, 1 << k] >> j) & 1
                         for k in planes], axis=2) for j in planes], axis=1)
    r = taps.shape[1]
    out = np.zeros((window, len(planes) * r), dtype=np.uint8)
    for d, tap in enumerate(image):
        hi = min(window, nb + d)
        if hi > d:
            out[d:hi] ^= (xb[:hi - d] @ tap.T) & 1
    weights = np.arange(len(planes), dtype=np.uint8)[:, None]
    return (out.reshape(window, len(planes), r) << weights).sum(
        axis=1, dtype=np.uint8)


def convolution_matrix(taps: np.ndarray, blocks: int,
                       window: int) -> np.ndarray:
    """The (window * r, blocks * lanes) matrix A of :func:`gf_convolve`:
    A @ x.reshape(-1) == gf_convolve(taps, x, field, window).reshape(-1) for
    every (blocks, lanes) frame x (block-major flattening)."""
    _, r, lanes = taps.shape
    a = np.zeros((window, r, blocks, lanes), dtype=np.uint8)
    for d, tap in enumerate(taps):
        b = np.arange(max(0, min(blocks, window - d)))
        a[b + d, :, b, :] = tap
    return a.reshape(window * r, blocks * lanes)
