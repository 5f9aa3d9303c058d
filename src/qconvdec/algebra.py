"""Exact arithmetic over GF(2) and GF(4) in the delay variable D: polynomial
tensors (numpy arrays of field elements, one slice per power of D) with
their products, long division, gcds and determinants; the numpy GF(q) core
shared by every constant-matrix computation (one reduced-row-echelon
elimination and one block-domain convolution); and the ``Poly``,
``RationalFn`` and ``RatMatrix`` values that are parsed and printed.

Field elements are plain ints. GF(4) uses 0, 1, 2, 3 with 2 = w (the
primitive element), 3 = w^2 = 1 + w; addition is XOR in both fields.
"""

from __future__ import annotations

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
        # (a0 + a1 w)(b0 + b1 w) with w^2 = 1 + w; on GF(2) a1 = b1 = 0
        a, b = np.indices((order, order), dtype=np.uint8)
        low = (a & b & 1) ^ (a & b) >> 1
        high = (a & b >> 1 ^ a >> 1 & b ^ a >> 1 & b >> 1) & 1
        self.mul_table = low | high << 1
        self.inv_table = (self.mul_table == 1).argmax(axis=1).astype(np.uint8)
        # plain copies for scalar products
        self._mul, self._inv = self.mul_table.tolist(), self.inv_table.tolist()

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

    def _array(self) -> np.ndarray:
        """The coefficients as a polynomial tensor (1-D)."""
        return np.array(self.coeffs or (0,), dtype=np.uint8)

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


class RationalFn:
    """Quotient of polynomials, kept coprime with a monic denominator: the
    printed and parsed form of a rational entry; builds work on polynomial
    tensors over a common denominator instead."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None):
        if den is None:
            den = Poly.one(num.field)
        _check_same_field(num, den)
        if den.is_zero():
            raise ZeroDenominatorError("zero denominator")
        if num.is_zero():
            den = Poly.one(num.field)
        else:
            # both over their gcd times lead(den): coprime, den monic
            f, n, d = num.field, num._array(), den._array()
            g = f.mul_table[d[-1], gf_poly_gcd(d, n, f)]
            num = Poly(gf_poly_divmod(n, g, f)[0].tolist(), f)
            den = Poly(gf_poly_divmod(d, g, f)[0].tolist(), f)
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
    """Dense matrix of rational functions over one field: what ``derive``
    prints and a caller may hand a decoder as its ISF. :meth:`fraction` and
    :meth:`from_coeff_tensor` convert to and from the polynomial tensors
    that builds work on."""

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

    def __getitem__(self, rc: tuple[int, int]) -> RationalFn:
        return self.entries[rc[0]][rc[1]]

    @classmethod
    def from_coeff_tensor(cls, taps: np.ndarray, field: Field = GF2,
                          den: np.ndarray | None = None) -> "RatMatrix":
        """The matrix whose entry (i, c) is the polynomial ``taps[:, i, c]``
        (its D^d coefficient at d) over the polynomial ``den`` (default 1),
        reduced; the inverse of :meth:`fraction`."""
        _, rows, cols = taps.shape
        d = Poly(den.tolist(), field) if den is not None else None
        return cls([[RationalFn(Poly(taps[:, i, c].tolist(), field), d)
                     for c in range(cols)] for i in range(rows)], field)

    def fraction(self) -> tuple[np.ndarray, np.ndarray]:
        """(num, den): the entries over the lcm den of their denominators,
        num as a (max degree + 1, rows, cols) tensor whose slice d holds the
        D^d coefficients, and den as a monic polynomial (1-D)."""
        f, den = self.field, np.ones(1, dtype=np.uint8)
        for row in self.entries:
            for e in row:
                d = e.den._array()
                den = gf_poly_divmod(gf_poly_mul(den, d, f),
                                     gf_poly_gcd(d, den, f), f)[0]
        return gf_stack([[gf_poly_mul(e.num._array(), gf_poly_divmod(
            den, e.den._array(), f)[0], f) for e in row]
            for row in self.entries]), den

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


# ---------------------------------------------------------------------------
# polynomial tensors: (deg + 1, ...) uint8 arrays over GF(q), slice d the D^d
# coefficient of a polynomial (1-D) or of each entry of a polynomial matrix
# ((deg + 1, rows, cols)); trimmed, where a function says so, to a nonzero
# top slice or the one slice of zero
# ---------------------------------------------------------------------------

def gf_trim(a: np.ndarray) -> np.ndarray:
    """A polynomial tensor without its zero top slices, keeping one."""
    nz = a.reshape(len(a), -1).any(axis=1).nonzero()[0]
    return a[:nz[-1] + 1 if nz.size else 1]


def row_degrees(taps: np.ndarray) -> tuple[int, ...]:
    """Each row's degree in a (deg + 1, rows, cols) tensor: its last nonzero
    tap, 0 for a zero row."""
    return tuple(int(d) for d in (np.arange(len(taps))[:, None]
                                  * taps.any(axis=2)).max(axis=0))


def gf_stack(rows: Sequence[Sequence[np.ndarray]]) -> np.ndarray:
    """The trimmed (deg + 1, rows, cols) tensor of polynomials (1-D)."""
    out = np.zeros((max(len(p) for row in rows for p in row), len(rows),
                    len(rows[0])), dtype=np.uint8)
    for i, row in enumerate(rows):
        for c, p in enumerate(row):
            out[:len(p), i, c] = p
    return gf_trim(out)


def gf_poly_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Trimmed sum of two polynomial tensors of one shape per slice."""
    if len(a) < len(b):
        a, b = b, a
    out = a.copy()
    out[:len(b)] ^= b
    return gf_trim(out)


def gf_poly_mul(a: np.ndarray, b: np.ndarray, field: Field) -> np.ndarray:
    """The polynomial a (1-D) times the polynomial tensor b, entrywise:
    (len(a) + len(b) - 1, ...), trimmed where a and b are."""
    out = np.zeros((len(a) + len(b) - 1, *b.shape[1:]), dtype=np.uint8)
    for i in np.flatnonzero(a):
        out[i:i + len(b)] ^= field.mul_table[a[i], b]
    return out


def gf_poly_divmod(a: np.ndarray, d: np.ndarray,
                   field: Field) -> tuple[np.ndarray, np.ndarray]:
    """(quotient, remainder) of the polynomial tensor a by the nonzero
    polynomial d (1-D), entrywise, by one long division."""
    d = gf_trim(d)
    top = len(d) - 1
    mul = field.mul_table
    scale = mul[field.inv_table[d[-1]]]  # x -> x / lead(d)
    if not top:
        return scale[a], np.zeros((1, *a.shape[1:]), dtype=np.uint8)
    rem = np.array(a, dtype=np.uint8)
    if len(rem) <= top:
        return np.zeros((1, *rem.shape[1:]), dtype=np.uint8), rem
    quo = np.empty((len(rem) - top, *rem.shape[1:]), dtype=np.uint8)
    col = d.reshape(-1, *(1,) * (rem.ndim - 1))
    for i in range(len(quo) - 1, -1, -1):
        q = quo[i] = scale[rem[i + top]]
        rem[i:i + top + 1] ^= mul[col, q]
    return quo, rem[:top]


def gf_poly_gcd(a: np.ndarray, b: np.ndarray, field: Field) -> np.ndarray:
    """Monic gcd of the nonzero polynomial a (1-D) and every entry of the
    polynomial tensor b.

    Modulo a, of degree d, the multiples of the gcd g are the g y of degree
    below d, a space of dimension d - deg g spanned by the remainders of b
    and their shifts by D^i, i < d. Eliminated from the top degree down, its
    last row is g."""
    a = gf_trim(a)
    a = field.mul_table[field.inv_table[a[-1]], a]
    d = len(a) - 1
    if not d:
        return a
    rem = np.zeros((d, b[0].size), dtype=np.uint8)
    part = gf_poly_divmod(b.reshape(len(b), -1), a, field)[1][:d]
    rem[:len(part)] = part
    shifts = []
    for _ in range(d):
        shifts.append(rem.T)
        # D rem modulo a: D^d = a[:d] (a monic, char 2)
        rem = np.concatenate([np.zeros_like(rem[:1]), rem[:-1]]) \
            ^ field.mul_table[rem[-1], a[:-1, None]]
    red, pivots = gf_rref(np.concatenate(shifts)[:, ::-1], field)
    return gf_trim(red[len(pivots) - 1, ::-1]) if pivots else a


def gf_poly_xgcd(a: np.ndarray, b: np.ndarray, field: Field,
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Extended Euclid on polynomials (1-D): (g, s, t) with s a + t b = g,
    g monic (zero when a and b are)."""
    one, zero = np.ones(1, dtype=np.uint8), np.zeros(1, dtype=np.uint8)
    r0, r1 = gf_trim(a), gf_trim(b)
    s0, s1, t0, t1 = one, zero, zero, one
    while r1.any():
        q, r = gf_poly_divmod(r0, r1, field)
        r0, r1 = r1, gf_trim(r)
        s0, s1 = s1, gf_poly_add(s0, gf_poly_mul(q, s1, field))
        t0, t1 = t1, gf_poly_add(t0, gf_poly_mul(q, t1, field))
    if not r0[-1]:
        return r0, s0, t0
    scale = field.mul_table[field.inv_table[r0[-1]]]
    return scale[r0], scale[s0], scale[t0]


def gf_eliminate(a: np.ndarray, cols: int, field: Field,
                 ) -> tuple[np.ndarray, np.ndarray] | None:
    """Fraction-free Gauss-Jordan elimination (Bareiss) of the polynomial
    tensor a (deg + 1, rows, width) on its first ``cols`` columns: (the
    trimmed tensor, the last pivot p), whose first ``cols`` rows are then p
    times the identity there; or None when a column has no pivot.

    Per column c, the first row from c on that is nonzero there is swapped
    into row c, and every other row i becomes (p a_i - a_ic a_c) / p', p
    the pivot a_cc and p' the last one (1 at first), an exact division. By
    Sylvester's identity a_ic is then the minor on the pivot rows and row i
    and on columns 0..c, so the pivot rows are the first with nonzero
    leading minors, and p is the leading minor on them."""
    mul = field.mul_table
    prev = np.ones(1, dtype=np.uint8)
    for c in range(cols):
        nz = a[:, c:, c].any(axis=0).nonzero()[0]
        if not nz.size:
            return None
        if nz[0]:
            a = a.copy()
            a[:, [c, c + nz[0]]] = a[:, [c + nz[0], c]]
        others = np.arange(a.shape[1]) != c
        pivot, row, col = a[:, c, c], a[:, c], a[:, others, c]
        # p a_i - a_ic a_c (char 2: a sum), then the exact division
        prod = gf_poly_mul(pivot, a[:, others], field)
        for j in np.flatnonzero(col.any(axis=1)):
            prod[j:j + len(a)] ^= mul[col[j][None, :, None], row[:, None]]
        quo = gf_poly_divmod(prod, prev, field)[0]
        out = np.zeros((max(len(a), len(quo)), *a.shape[1:]), dtype=np.uint8)
        out[:len(a), c] = row
        out[:len(quo), others] = quo
        a, prev = gf_trim(out), gf_trim(pivot)
    return a, prev


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
        # ndarray.nonzero: np.flatnonzero's ravel costs more on these
        nz = a[r:, c].nonzero()[0]
        if not nz.size:
            continue
        sel = r + nz[0]
        if sel != r:
            a[[r, sel]] = a[[sel, r]]
        if a[r, c] != 1:
            a[r] = mul[inv[a[r, c]], a[r]]
        f = a[:, c].copy()
        f[r] = 0
        hit = f.nonzero()[0]
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
