"""Exact arithmetic over GF(2) and GF(4): polynomials and rational functions
in the delay variable D, polynomial determinants and minors, and the numpy
GF(q) core shared by every constant-matrix computation: one
reduced-row-echelon elimination and one block-domain convolution.

Field elements are plain ints. GF(4) uses 0, 1, 2, 3 with 2 = w (the
primitive element), 3 = w^2 = 1 + w; addition is XOR in both fields.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
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


class DegreeCapError(AlgebraError):
    """An intermediate polynomial exceeded the degree cap."""


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


class RationalFn:
    """Quotient of polynomials, kept coprime with a monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None):
        if den is None:
            den = Poly.one(num.field)
        _check_same_field(num, den)
        if den.is_zero():
            raise ZeroDenominatorError("zero denominator")
        if num.is_zero():
            den = Poly.one(num.field)
        elif den.degree > 0:
            # a constant denominator is coprime with every numerator
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = num.divmod(g)[0]
                den = den.divmod(g)[0]
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

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.is_one()

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

    def inverse(self) -> "RationalFn":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return RationalFn(self.den, self.num)

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

    def __getitem__(self, rc: tuple[int, int]) -> RationalFn:
        return self.entries[rc[0]][rc[1]]

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


# a packed word holds at most this many bits of field symbols, so that it
# stays a nonnegative int64
WORD_BITS = 63


def symbol_bits(field: Field) -> int:
    """Bits per packed field symbol: 1 on GF(2), 2 on GF(4)."""
    return field.order.bit_length() - 1


# symbol c of every byte value v, (256, 8 / bps) per symbol width bps
_BYTE_SYMBOLS = {bps: ((np.arange(256)[:, None] >> (bps * np.arange(8 // bps)))
                       & ((1 << bps) - 1)).astype(np.uint8) for bps in (1, 2)}


@lru_cache(maxsize=64)
def _slice_weights(lanes: int, bps: int) -> np.ndarray:
    """(lanes, slices) float32 weights that pack symbols into bytes: lane
    c adds 2^(bps (c mod per)) to byte c // per, per = 8 / bps."""
    per = 8 // bps
    c = np.arange(lanes)
    weights = np.zeros((lanes, -(-lanes // per)), dtype=np.float32)
    weights[c, c // per] = 1 << (bps * (c % per))
    return weights


def pack_slices(x: np.ndarray, bps: int) -> np.ndarray:
    """(rows, slices) bytes of a (rows, lanes) symbol array packed at bps
    bits per symbol: byte g holds symbols [8 g / bps, 8 (g + 1) / bps)."""
    x = np.asarray(x)
    # byte sums of distinct powers of two are exact in float32, and the
    # product runs as one BLAS call
    return (x.astype(np.float32) @ _slice_weights(x.shape[1], bps)).astype(
        np.uint8)


def pack_symbols(x: np.ndarray, bps: int) -> np.ndarray:
    """One int64 word per row of a (rows, count) symbol array: symbol c at
    bits [bps c, bps (c + 1)). The row must fit ``WORD_BITS``."""
    x = np.asarray(x)
    if bps * x.shape[1] > WORD_BITS:
        raise ValueError(f"{x.shape[1]} symbols do not fit a packed word")
    # one integer product: on a frame's few hundred rows, or run cold, it
    # costs less than the BLAS call of ``pack_slices`` and its byte copy
    return x.astype(np.int64) @ _word_weights(x.shape[1], bps)


@lru_cache(maxsize=64)
def _word_weights(count: int, bps: int) -> np.ndarray:
    """(count,) int64 weights 2^(bps c) that pack symbols into a word."""
    return 1 << (bps * np.arange(count, dtype=np.int64))


def unpack_symbols(words, count: int, bps: int) -> np.ndarray:
    """(rows, count) symbols of packed words, contiguous: one row gather per
    word byte from the symbols of every byte value."""
    slices = word_slices(words, -(-count * bps // 8))
    symbols = _BYTE_SYMBOLS[bps].take(slices, axis=0)
    return np.ascontiguousarray(symbols.reshape(
        len(slices), slices.shape[1] * (8 // bps))[:, :count])


def word_slices(words, slices: int) -> np.ndarray:
    """(rows, slices) low bytes of packed words (rows,): the input slices of
    a :class:`ConvolutionKernel` whose inputs are those words. Words (rows,
    B) of B frames give (rows, slices, B)."""
    words = np.ascontiguousarray(words, dtype="<i8")
    # a view whose slice axis steps one byte within each word
    return np.ndarray((len(words), slices, *words.shape[1:]), np.uint8,
                      words, 0, (words.strides[0], 1, *words.strides[1:]))


class ConvolutionKernel:
    """Block-domain convolution out[t] = sum_d taps[d] @ x[t - d] over GF(q)
    on packed blocks, as table gathers.

    ``taps`` is (degree + 1, r, lanes). An input block is read as slices of
    8 bits (8 / bps symbols each; ``slices`` of them), held as the columns
    of a (blocks, slices) uint8 array, and an output block is one int64 word
    (symbol i at bits [bps i, bps (i + 1)), at most ``WORD_BITS``). For
    each tap d and slice g, ``tables[g][d]`` maps every slice value to the
    packed output of taps[d] on it, so that out[t] is the XOR over d and g
    of ``tables[g][d][x[t - d, g]]``. Each table is built once."""

    def __init__(self, taps: np.ndarray, field: Field):
        taps = np.asarray(taps, dtype=np.uint8)
        ntaps, r, lanes = taps.shape
        bps = symbol_bits(field)
        if bps * r > WORD_BITS:
            raise ValueError(f"{r} output symbols do not fit a packed word")
        per = 8 // bps
        self.taps, self.field, self.slices = taps, field, -(-lanes // per)
        weights = 1 << (bps * np.arange(r, dtype=np.int64))
        self.tables = []
        for lo in range(0, lanes, per):
            count = min(per, lanes - lo)
            # digits[v, c]: symbol c of slice value v
            digits = _BYTE_SYMBOLS[bps][:1 << (bps * count), :count]
            prod = np.bitwise_xor.reduce(
                field.mul_table[taps[:, None, :, lo:lo + count],
                                digits[None, :, None, :]], axis=3)
            self.tables.append(prod.astype(np.int64) @ weights)

    def __call__(self, x: np.ndarray, window: int) -> np.ndarray:
        """(window,) packed output words of (blocks, slices) input slices.
        Trailing axes are frames, each convolved alone: (blocks, slices, B)
        gives (window, B), and every frame is sliced as one frame is."""
        out = np.zeros((window, *x.shape[2:]), dtype=np.int64)
        nb = len(x)
        for g, tables in enumerate(self.tables):
            # index once as intp: each tap's gather would convert the bytes
            xg = x[:, g].astype(np.intp)
            for d, table in enumerate(tables):
                hi = min(window, nb + d)
                if hi > d:
                    out[d:hi] ^= table.take(xg[:hi - d])
        return out


@lru_cache(maxsize=64)
def _kernel(taps: bytes, shape: tuple[int, ...], order: int,
            ) -> ConvolutionKernel:
    return ConvolutionKernel(np.frombuffer(taps, np.uint8).reshape(shape),
                             GF2 if order == 2 else GF4)


def gf_convolve(taps: np.ndarray, x: np.ndarray, field: Field,
                window: int | None = None) -> np.ndarray:
    """Block-domain convolution out[t] = sum_d taps[d] @ x[t - d] over GF(q).

    ``taps`` is (degree + 1, r, lanes) and ``x`` is (blocks, lanes). The
    output keeps ``window`` blocks (default: the frame's), so a window of
    blocks + degree covers the full support. The frame is packed into
    slices and run through the :class:`ConvolutionKernel` of each column
    slice of ``taps`` (as many outputs as fit a packed word), and the
    outputs are unpacked."""
    taps = np.ascontiguousarray(taps, dtype=np.uint8)
    x = np.asarray(x, dtype=np.uint8)
    if x.shape[1] != taps.shape[2]:
        raise ValueError("frame lane count mismatch")
    window = x.shape[0] if window is None else window
    bps = symbol_bits(field)
    xs = pack_slices(x, bps)
    rows = WORD_BITS // bps
    out = []
    for lo in range(0, taps.shape[1], rows):
        part = np.ascontiguousarray(taps[:, lo:lo + rows])
        kernel = _kernel(part.tobytes(), part.shape, field.order)
        out.append(unpack_symbols(kernel(xs, window), part.shape[1], bps))
    return np.concatenate(out, axis=1)


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
