"""Hand-checked reference matrices shared across the test suite.

All of these were verified by hand with polynomial arithmetic over GF(2) or
GF(4); the tests assert that the library reproduces them or that they pass
the defining identities (left inverse, kernel) symbolically.
"""

from qconvdec.algebra import GF2, GF4, RatMatrix, RationalFn, parse_poly, ratio
from qconvdec.stabilizer import StabilizerSpec, example_311


def _p(text, field=GF2):
    return parse_poly(text, field)


# --- the [3,1,1] code ("XXXXZY" / "ZZZZYX") ---------------------------------

# binary transfer polynomial obtained by the generator read-off
REF_TRANSFER_311 = RatMatrix.from_polys([
    [_p("1+D^2"), _p("1+D^3"), _p("1+D^2+D^3")],
    [_p("D+D^3"), _p("D+D^2+D^3"), _p("D+D^2")],
])

# a known rational inverse syndrome former (third column zero); its entries
# have denominators divisible by D, i.e. it needs input lookahead
REF_RATIONAL_ISF_311 = RatMatrix([
    [ratio(_p("1"), _p("D+D^3")), ratio(_p("1"), _p("D+D^2+D^3")),
     RationalFn.zero(GF2)],
    [ratio(_p("1"), _p("D^2+D^3")), ratio(_p("1"), _p("D^2+D^3+D^4")),
     RationalFn.zero(GF2)],
])

# minimal single-row generator of the equivalent rate-1/3 code
REF_GENERATOR_311 = RatMatrix.from_polys([[_p("D^2"), _p("1+D^2"), _p("1+D^2")]])

# GF(4) equivalents: transfer row, all-ones ISF, and a two-row generator
REF_TRANSFER_311_F4 = RatMatrix.from_polys(
    [[_p("1+D", GF4), _p("1+w*D", GF4), _p("1+w2*D", GF4)]])
REF_ALLONES_ISF_F4 = RatMatrix.from_polys([[_p("1", GF4)] * 3])
REF_GENERATOR_F4 = RatMatrix.from_polys([
    [_p("0", GF4), _p("1+w2*D", GF4), _p("1+w*D", GF4)],
    [_p("1+w*D", GF4), _p("1+D", GF4), _p("0", GF4)],
])


# --- a classical rate-1/2 recursive code ------------------------------------

# transfer polynomial whose transpose is the syndrome-former column
REF_TRANSFER_21 = RatMatrix.from_polys([[_p("1+D^2"), _p("1+D+D^2")]])

# a known FIR inverse syndrome former for it
REF_FIR_ISF_21 = RatMatrix.from_polys([[_p("1+D"), _p("D")]])

# two generator choices spanning the same row space
REF_RATIONAL_GP_21 = RatMatrix([
    [RationalFn.one(GF2), ratio(_p("1+D^2"), _p("1+D+D^2"))]])
REF_POLY_GP_21 = RatMatrix.from_polys([[_p("1+D+D^2"), _p("1+D^2")]])


# --- the five codes of the test suite ----------------------------------------

CODES = {
    "311": example_311(),
    "211": StabilizerSpec(n=2, k=1, m=1, generators=("IXXI",)),
    "421": StabilizerSpec(n=4, k=2, m=1, generators=("YZIYYXYZ", "YXIIXZXZ")),
    "312": StabilizerSpec(n=3, k=1, m=2,
                          generators=("IIZXXIZYZ", "IIZZZXZIZ")),
    "511": StabilizerSpec(n=5, k=1, m=1, generators=(
        "IIIIIYXIYZ", "IIIIIXZIXY", "YYZYXYIXIZ", "XXYXZXIZIY")),
}

def spec_text(spec: StabilizerSpec) -> str:
    """The text of ``spec`` as ``parse_stabilizer`` reads it."""
    return f"qcc n={spec.n} k={spec.k} m={spec.m}\n" + \
        "\n".join(spec.generators) + "\n"


# a [4,3,2] code whose anticausal block ISF reaches 4 blocks past the last
# nonzero syndrome block: it needs m + 4 = 6 padding blocks, not m + 1
LONG_REACH_TEXT = "qcc n=4 k=3 m=2\nZZZXIXXYYIZY\n"

# (code, path): the GF(4) path exists where the code is GF(4)-linear
PATHS = [("311", "bin"), ("311", "f4"), ("211", "bin"), ("421", "bin"),
         ("312", "bin"), ("511", "bin"), ("511", "f4")]
PATH_IDS = [f"{name}-{path}" for name, path in PATHS]
