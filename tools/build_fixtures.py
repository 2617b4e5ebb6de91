"""Regenerate the packaged homology fixture JSON files.

Each fixture below is transcribed row by row in a paper-shaped expression
syntax and serialized through the canonical polynomial JSON encoding.  The
two ``T3_4:S2`` tables are transcribed in the tilde gradings, with ``Q`` in
place of ``q``, and stored in the standard ones through ``from_tilde``.  Run
from the repository root:

    python3 tools/build_fixtures.py
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from knothom.fixtures import from_tilde, rectangle  # noqa: E402
from knothom.laurent import LaurentPoly, parse_poly  # noqa: E402
from knothom.partitions import Partition  # noqa: E402

OUT = pathlib.Path(__file__).resolve().parents[1] / "src" / "knothom" / "fixtures"

TREFOIL_FUND = (
    "a^2*q^-2 + a^2*q^2*tr^2*tc^2 + a^4*tr^3*tc^3"
)
TREFOIL_FUND_HOMFLY = "a^2*q^-2 + a^2*q^2 - a^4"

FIG8_FUND = (
    "a^2*tr^2*tc^2 + q^-2*tr^-1*tc^-1 + 1 + q^2*tr*tc + a^-2*tr^-2*tc^-2"
)
FIG8_FUND_HOMFLY = "a^2 + a^-2 + 1 - q^2 - q^-2"

T34_FUND = (
    "a^6*q^-6 + a^8*q^-4*tr^3*tc^3 + a^6*q^-2*tr^2*tc^2 + a^8*tr^5*tc^5"
    " + a^6*q^2*tr^4*tc^4 + a^8*q^4*tr^7*tc^7 + a^6*q^6*tr^6*tc^6"
    " + a^10*tr^8*tc^8 + a^8*q^-2*tr^5*tc^5 + a^8*q^2*tr^7*tc^7 + a^6*tr^4*tc^4"
)

T34_FUND_D11 = (
    "a^6*q^-6 + a^8*q^-4*tr^3*tc^3 + a^6*tr^4*tc^4 + a^8*q^4*tr^7*tc^7"
    " + a^6*q^6*tr^6*tc^6"
)

TREFOIL_S2 = (
    "a^4*(q^-4 + q^2*tr^2*tc^4 + q^4*tr^2*tc^6 + q^8*tr^4*tc^8)"
    " + a^6*(tr^3*tc^5 + q^2*tr^3*tc^7 + q^6*tr^5*tc^9 + q^8*tr^5*tc^11)"
    " + a^8*q^6*tr^6*tc^12"
)
TREFOIL_S2_HOMFLY = (
    "a^4*q^-4 + a^4*q^2 + a^4*q^4 + a^4*q^8"
    " - a^6 - a^6*q^2 - a^6*q^6 - a^6*q^8 + a^8*q^6"
)

TREFOIL_L2 = (
    "a^4*(q^-8 + q^-4*tr^6*tc^2 + q^-2*tr^4*tc^2 + q^4*tr^8*tc^4)"
    " + a^6*(q^-8*tr^7*tc^3 + q^-6*tr^5*tc^3 + q^-2*tr^11*tc^5 + tr^9*tc^5)"
    " + a^8*q^-6*tr^12*tc^6"
)
TREFOIL_L2_HOMFLY = (
    "a^4*(q^-8 + q^-4 + q^-2 + q^4) - a^6*(q^-8 + q^-6 + q^-2 + 1) + a^8*q^-6"
)

FIG8_S2 = (
    "a^4*q^4*tr^4*tc^8"
    " + a^2*(q^-2*tr*tc + tr*tc^3 + tr^2*tc^2 + q^2*tr^2*tc^4"
    "        + q^4*tr^3*tc^5 + q^6*tr^3*tc^7)"
    " + (q^-6*tr^-2*tc^-4 + q^-4*tr^-1*tc^-3 + q^-2*tr^-1*tc^-1 + q^-2*tc^-2"
    "    + 3 + q^2*tc^2 + q^2*tr*tc + q^4*tr*tc^3 + q^6*tr^2*tc^4)"
    " + a^-2*(q^-6*tr^-3*tc^-7 + q^-4*tr^-3*tc^-5 + q^-2*tr^-2*tc^-4"
    "         + tr^-2*tc^-2 + tr^-1*tc^-3 + q^2*tr^-1*tc^-1)"
    " + a^-4*q^-4*tr^-4*tc^-8"
)
FIG8_S2_HOMFLY = (
    "a^4*q^4 + a^2*(-q^-2 + q^2 - q^4 - q^6)"
    " + (q^-6 - q^-4 + 3 - q^4 + q^6)"
    " + a^-2*(-q^-6 - q^-4 + q^-2 - q^2) + a^-4*q^-4"
)

TREFOIL_22 = (
    "a^16*tr^24*tc^24"
    " + a^14*(q^-6*tr^19*tc^17 + q^-4*(tr^17*tc^17 + tr^19*tc^19)"
    "         + q^-2*tr^17*tc^19 + q^2*tr^23*tc^21"
    "         + q^4*(tr^21*tc^21 + tr^23*tc^23) + q^6*tr^21*tc^23)"
    # the q^-2 group is printed with t_r^14 twice, which breaks the
    # self-symmetry, the mirror symmetry and both refined growth squares;
    # t_r^18 is the unique repair consistent with all four
    " + a^12*(q^-10*(tr^12*tc^10 + tr^14*tc^12) + 2*q^-8*tr^12*tc^12"
    "         + q^-6*(tr^10*tc^12 + tr^12*tc^14) + q^-4*tr^18*tc^14"
    "         + q^-2*(tr^16*tc^14 + 2*tr^18*tc^16)"
    "         + 3*tr^16*tc^16 + tr^18*tc^18"
    "         + q^2*(tr^14*tc^16 + 2*tr^16*tc^18) + q^4*tr^14*tc^18"
    "         + q^6*(tr^20*tc^18 + tr^22*tc^20) + 2*q^8*tr^20*tc^20"
    "         + q^10*(tr^18*tc^20 + tr^20*tc^22))"
    " + a^10*(q^-14*tr^7*tc^5 + q^-12*(tr^5*tc^5 + tr^7*tc^7) + q^-10*tr^5*tc^7"
    "         + q^-8*tr^13*tc^9 + q^-6*(2*tr^11*tc^9 + tr^13*tc^11)"
    "         + q^-4*(tr^9*tc^9 + 3*tr^11*tc^11)"
    "         + q^-2*(2*tr^9*tc^11 + tr^11*tc^13)"
    "         + tr^9*tc^13 + tr^17*tc^13"
    "         + q^2*(2*tr^15*tc^13 + tr^17*tc^15)"
    "         + q^4*(tr^13*tc^13 + 3*tr^15*tc^15)"
    "         + q^6*(2*tr^13*tc^15 + tr^15*tc^17) + q^8*tr^13*tc^17"
    "         + q^10*tr^19*tc^17 + q^12*(tr^17*tc^17 + tr^19*tc^19)"
    "         + q^14*tr^17*tc^19)"
    " + a^8*(q^-16 + q^-10*tr^6*tc^4 + q^-8*(tr^4*tc^4 + tr^6*tc^6)"
    "        + q^-6*tr^4*tc^6 + q^-4*tr^12*tc^8 + q^-2*tr^10*tc^8"
    "        + tr^8*tc^8 + tr^10*tc^10 + q^2*tr^8*tc^10 + q^4*tr^8*tc^12"
    "        + q^6*tr^14*tc^12 + q^8*(tr^12*tc^12 + tr^14*tc^14)"
    "        + q^10*tr^12*tc^14 + q^16*tr^16*tc^16)"
)
TREFOIL_22_HOMFLY = (
    "a^16"
    " + a^14*(-q^-6 - 2*q^-4 - q^-2 - q^2 - 2*q^4 - q^6)"
    " + a^12*(4 + 2*q^-10 + 2*q^-8 + 2*q^-6 + q^-4 + 3*q^-2 + 3*q^2 + q^4"
    "         + 2*q^6 + 2*q^8 + 2*q^10)"
    " + a^10*(-2 - q^-14 - 2*q^-12 - q^-10 - q^-8 - 3*q^-6 - 4*q^-4 - 3*q^-2"
    "         - 3*q^2 - 4*q^4 - 3*q^6 - q^8 - q^10 - 2*q^12 - q^14)"
    " + a^8*(2 + q^-16 + q^-10 + 2*q^-8 + q^-6 + q^-4 + q^-2 + q^2 + q^4"
    "        + q^6 + 2*q^8 + q^10 + q^16)"
)

T34_S2_TILDE = (
    "a^12*(Q^-12 + Q^-8*tr^2*(tc^4 + tc^6) + Q^-6*tr^4*(tc^8 + tc^10)"
    "      + Q^-4*tr^4*(tc^8 + tc^10 + tc^12) + Q^-2*tr^6*(tc^12 + tc^14)"
    "      + tr^6*(tc^12 + tc^14 + tc^16 + tc^18) + tr^8*tc^16"
    "      + Q^2*tr^8*(tc^16 + tc^18) + Q^4*tr^8*(tc^16 + tc^18 + tc^20)"
    "      + Q^6*tr^10*(tc^20 + tc^22) + Q^8*tr^10*(tc^20 + tc^22)"
    "      + Q^12*tr^12*tc^24)"
    " + a^14*(Q^-10*tr^3*(tc^5 + tc^7) + Q^-8*tr^5*(tc^9 + tc^11)"
    "         + Q^-6*tr^5*(tc^9 + 2*tc^11 + tc^13)"
    "         + Q^-4*tr^7*(2*tc^13 + 3*tc^15 + tc^17)"
    "         + Q^-2*tr^7*(tc^13 + 2*tc^15 + 2*tc^17 + tc^19)"
    "         + Q^-2*tr^9*(tc^17 + tc^19)"
    "         + tr^9*(2*tc^17 + 3*tc^19 + tc^21)"
    "         + Q^2*tr^9*(tc^17 + 2*tc^19 + 2*tc^21 + tc^23)"
    "         + Q^2*tr^11*(tc^21 + tc^23)"
    "         + Q^4*tr^11*(2*tc^21 + 3*tc^23 + tc^25)"
    "         + Q^6*tr^11*(tc^21 + 2*tc^23 + tc^25)"
    "         + Q^8*tr^13*(tc^25 + tc^27) + Q^10*tr^13*(tc^25 + tc^27))"
    " + a^16*(Q^-8*tr^6*tc^12 + Q^-6*tr^8*(tc^14 + 2*tc^16 + tc^18)"
    "         + Q^-4*tr^8*(tc^16 + tc^18) + Q^-4*tr^10*tc^20"
    "         + Q^-2*tr^10*(tc^18 + 3*tc^20 + 2*tc^22)"
    "         + tr^10*(tc^20 + tc^22 + tc^24)"
    "         + tr^12*(tc^22 + 2*tc^24 + tc^26)"
    "         + Q^2*tr^12*(tc^22 + 3*tc^24 + 2*tc^26)"
    "         + Q^4*tr^12*(tc^24 + tc^26) + Q^4*tr^14*tc^28"
    "         + Q^6*tr^14*(tc^26 + 2*tc^28 + tc^30) + Q^8*tr^14*tc^28)"
    " + a^18*(Q^-4*tr^11*(tc^21 + tc^23) + Q^-2*tr^13*(tc^25 + tc^27)"
    "         + tr^13*(tc^25 + tc^27) + Q^2*tr^15*(tc^29 + tc^31)"
    "         + Q^4*tr^15*(tc^29 + tc^31))"
    " + a^20*tr^16*tc^32"
)

T34_S2_D12_TILDE = (
    "a^12*(Q^-12 + Q^-6*tr^4*(tc^8 + tc^10) + tr^6*(tc^16 + tc^18)"
    "      + tr^8*tc^16 + Q^6*tr^10*(tc^20 + tc^22) + Q^12*tr^12*tc^24)"
    " + a^14*(Q^-10*tr^3*(tc^5 + tc^7) + Q^-4*tr^7*(tc^13 + tc^15)"
    "         + Q^-2*tr^7*(tc^17 + tc^19) + Q^2*tr^9*(tc^21 + tc^23)"
    "         + Q^4*tr^11*(tc^21 + tc^23) + Q^10*tr^13*(tc^25 + tc^27))"
    " + a^16*(Q^-8*tr^6*tc^12 + tr^10*(tc^22 + tc^24) + Q^8*tr^14*tc^28)"
)

TREFOIL_222_TC = (
    "a^12*(q^-36 + q^-30*t^4 + q^-28*(t^4+t^6) + q^-26*(t^4+t^6)"
    "      + q^-24*(t^6+t^8) + q^-22*t^8 + q^-20*(2*t^8+t^10)"
    "      + q^-18*(t^8+2*t^10) + q^-16*(t^8+2*t^10+t^12)"
    "      + q^-14*(t^10+2*t^12) + q^-12*(3*t^12+t^14)"
    "      + q^-10*(2*t^12+2*t^14) + q^-8*(t^12+3*t^14)"
    "      + q^-6*(t^12+2*t^14+t^16) + q^-4*(t^14+2*t^16) + 2*q^-2*t^16"
    "      + 2*t^16+2*t^18 + q^2*(t^16+2*t^18) + q^4*(t^16+2*t^18+t^20)"
    "      + q^6*(t^18+t^20) + q^8*t^20 + q^10*t^20 + q^12*(t^20+t^22)"
    "      + q^14*(t^20+t^22) + q^16*t^22 + q^24*t^24)"
    " + a^14*(q^-36*t^5 + q^-34*(t^5+t^7) + q^-32*(t^5+t^7) + q^-30*(t^7+t^9)"
    "         + q^-28*(2*t^9+t^11) + q^-26*(3*t^9+3*t^11)"
    "         + q^-24*(2*t^9+5*t^11+t^13) + q^-22*(t^9+4*t^11+3*t^13)"
    "         + q^-20*(2*t^11+5*t^13+t^15) + q^-18*(5*t^13+4*t^15)"
    "         + q^-16*(4*t^13+7*t^15+t^17) + q^-14*(2*t^13+8*t^15+3*t^17)"
    "         + q^-12*(t^13+5*t^15+6*t^17) + q^-10*(2*t^15+7*t^17+2*t^19)"
    "         + q^-8*(6*t^17+5*t^19) + q^-6*(4*t^17+8*t^19+t^21)"
    "         + q^-4*(2*t^17+8*t^19+3*t^21) + q^-2*(t^17+5*t^19+5*t^21)"
    "         + 2*t^19+5*t^21+t^23 + q^2*(4*t^21+2*t^23) + q^4*(3*t^21+4*t^23)"
    "         + q^6*(2*t^21+5*t^23+t^25) + q^8*(t^21+4*t^23+2*t^25)"
    "         + q^10*(2*t^23+2*t^25) + q^12*t^25 + q^14*t^25"
    "         + q^16*(t^25+t^27) + q^18*(t^25+t^27) + q^20*t^27)"
    " + a^16*(q^-34*(t^10+t^12) + q^-32*(t^10+2*t^12) + q^-30*(t^10+3*t^12+t^14)"
    "         + q^-28*(2*t^12+2*t^14) + q^-26*(t^12+3*t^14+2*t^16)"
    "         + q^-24*(3*t^14+5*t^16+t^18) + q^-22*(2*t^14+8*t^16+3*t^18)"
    "         + q^-20*(t^14+7*t^16+6*t^18) + q^-18*(4*t^16+8*t^18+2*t^20)"
    "         + q^-16*(t^16+7*t^18+5*t^20) + q^-14*(5*t^18+10*t^20+2*t^22)"
    "         + q^-12*(2*t^18+11*t^20+5*t^22) + q^-10*(t^18+9*t^20+9*t^22+t^24)"
    "         + q^-8*(4*t^20+9*t^22+2*t^24) + q^-6*(t^20+7*t^22+5*t^24)"
    "         + q^-4*(4*t^22+7*t^24+t^26) + q^-2*(2*t^22+9*t^24+3*t^26)"
    "         + t^22+7*t^24+6*t^26 + q^2*(4*t^24+6*t^26+t^28)"
    "         + q^4*(t^24+4*t^26+t^28) + q^6*(2*t^26+2*t^28)"
    "         + q^8*(t^26+2*t^28) + q^10*(t^26+3*t^28+t^30)"
    "         + q^12*(2*t^28+t^30) + q^14*(t^28+t^30))"
    " + a^18*(q^-32*t^17 + q^-30*(t^15+2*t^17+t^19) + q^-28*(3*t^17+2*t^19)"
    "         + q^-26*(2*t^17+3*t^19) + q^-24*(t^17+3*t^19+2*t^21)"
    "         + q^-22*(2*t^19+4*t^21+t^23) + q^-20*(t^19+6*t^21+4*t^23)"
    "         + q^-18*(6*t^21+7*t^23+t^25) + q^-16*(3*t^21+8*t^23+2*t^25)"
    "         + q^-14*(t^21+6*t^23+4*t^25) + q^-12*(3*t^23+6*t^25+t^27)"
    "         + q^-10*(t^23+7*t^25+4*t^27) + q^-8*(6*t^25+7*t^27+t^29)"
    "         + q^-6*(3*t^25+8*t^27+2*t^29) + q^-4*(t^25+5*t^27+3*t^29)"
    "         + q^-2*(2*t^27+3*t^29) + t^27+3*t^29+t^31 + q^2*(3*t^29+2*t^31)"
    "         + q^4*(2*t^29+3*t^31) + q^6*(t^29+2*t^31+t^33) + q^8*t^31)"
    " + a^20*(q^-28*(t^22+t^24) + q^-26*(t^22+2*t^24) + q^-24*(t^22+3*t^24+t^26)"
    "         + q^-22*(2*t^24+t^26) + q^-20*(t^24+2*t^26) + q^-18*(2*t^26+2*t^28)"
    "         + q^-16*(2*t^26+4*t^28+t^30) + q^-14*(t^26+5*t^28+2*t^30)"
    "         + q^-12*(3*t^28+3*t^30) + q^-10*(t^28+2*t^30) + q^-8*(2*t^30+t^32)"
    "         + q^-6*(t^30+2*t^32) + q^-4*(t^30+3*t^32+t^34) + q^-2*(2*t^32+t^34)"
    "         + t^32+t^34)"
    " + a^22*(q^-24*t^29 + q^-22*(t^29+t^31) + q^-20*(t^29+t^31) + q^-18*t^31"
    "         + q^-14*t^33 + q^-12*(t^33+t^35) + q^-10*(t^33+t^35) + q^-8*t^35)"
    " + a^24*q^-18*t^36"
)

TREFOIL_21 = (
    "a^12*t^13"
    " + a^10*(q^-6*t^8 + q^-4*t^8 + q^-2*t^10 + t^10 + t^11 + q^2*t^12"
    "         + q^4*t^12 + q^6*t^14)"
    " + a^8*(q^-10*t^3 + 2*q^-6*t^5 + q^-4*t^5 + q^-4*t^6 + 3*q^-2*t^7 + t^7"
    "        + t^8 + 3*q^2*t^9 + q^4*t^9 + q^4*t^10 + 2*q^6*t^11 + q^10*t^13)"
    " + a^6*(q^-10 + 2*q^-6*t^2 + q^-4*t^3 + 2*q^-2*t^4 + t^4 + t^5"
    "        + 2*q^2*t^6 + q^4*t^7 + 2*q^6*t^8 + q^10*t^10)"
)
TREFOIL_21_HOMFLY = (
    "-a^12 + a^10*(q^-6 + q^-4 + q^-2 + q^2 + q^4 + q^6)"
    " + a^8*(-q^-10 - 2*q^-6 - 3*q^-2 - 3*q^2 - 2*q^6 - q^10)"
    " + a^6*(q^-10 + 2*q^-6 - q^-4 + 2*q^-2 + 2*q^2 - q^4 + 2*q^6 + q^10)"
)


def _rename(p, old, new):
    return p.substitute(old, LaurentPoly.var(new))


FIXTURES = {
    "3_1:1": dict(knot="3_1", color=[1], sigma=2, dimension=3,
                  gradings=["a", "q", "tr", "tc"],
                  poly=TREFOIL_FUND, homfly=TREFOIL_FUND_HOMFLY),
    "3_1:S2": dict(knot="3_1", color=[2], sigma=2, dimension=9,
                   gradings=["a", "q", "tr", "tc"],
                   poly=TREFOIL_S2, homfly=TREFOIL_S2_HOMFLY),
    "3_1:L2": dict(knot="3_1", color=[1, 1], sigma=2, dimension=9,
                   gradings=["a", "q", "tr", "tc"],
                   poly=TREFOIL_L2, homfly=TREFOIL_L2_HOMFLY),
    "3_1:2x2": dict(knot="3_1", color=[2, 2], sigma=2, dimension=81,
                    gradings=["a", "q", "tr", "tc"],
                    poly=TREFOIL_22, homfly=TREFOIL_22_HOMFLY),
    "3_1:3x2": dict(knot="3_1", color=[2, 2, 2], sigma=2,
                    dimension=729, gradings=["a", "q", "tc"],
                    poly=TREFOIL_222_TC, rename=("t", "tc")),
    "3_1:2_1": dict(knot="3_1", color=[2, 1], sigma=2, dimension=41,
                    gradings=["a", "q", "t"],
                    poly=TREFOIL_21, homfly=TREFOIL_21_HOMFLY),
    "4_1:1": dict(knot="4_1", color=[1], sigma=0, dimension=5,
                  gradings=["a", "q", "tr", "tc"],
                  poly=FIG8_FUND, homfly=FIG8_FUND_HOMFLY),
    "4_1:S2": dict(knot="4_1", color=[2], sigma=0, dimension=25,
                   gradings=["a", "q", "tr", "tc"],
                   poly=FIG8_S2, homfly=FIG8_S2_HOMFLY),
    "T3_4:1": dict(knot="T3_4", color=[1], sigma=6, dimension=11,
                   gradings=["a", "q", "tr", "tc"],
                   poly=T34_FUND),
    "T3_4:1:d1|1": dict(knot="T3_4", color=[1], sigma=6, dimension=5,
                        gradings=["a", "q", "tr", "tc"],
                        poly=T34_FUND_D11),
    "T3_4:S2": dict(knot="T3_4", color=[2], sigma=6, dimension=121,
                    gradings=["a", "q", "tr", "tc"], poly=T34_S2_TILDE),
    "T3_4:S2:d1|2": dict(knot="T3_4", color=[2], sigma=6,
                         dimension=25, gradings=["a", "q", "tr", "tc"],
                         poly=T34_S2_D12_TILDE),
}


def render():
    """``{filename: JSON text}`` for every fixture, validated, without writing."""
    out = {}
    for fid, spec in sorted(FIXTURES.items()):
        p = parse_poly(spec["poly"])
        if "rename" in spec:
            p = _rename(p, *spec["rename"])
        if "Q" in p.variables():  # a tilde transcription, stored standard
            p = from_tilde(p, rectangle(Partition(spec["color"]))[0])
        dim = p.dimension()
        if dim != spec["dimension"]:
            raise SystemExit(
                f"{fid}: transcription has {dim} generators, "
                f"expected {spec['dimension']}")
        obj = {
            "knot": spec["knot"],
            "color": spec["color"],
            "sigma": spec["sigma"],
            "gradings": spec["gradings"],
            "dimension": spec["dimension"],
            "poincare": p.to_json(spec["gradings"]),
        }
        if "homfly" in spec:
            obj["homfly"] = parse_poly(spec["homfly"]).to_json(["a", "q"])
        name = fid.replace(":", "-").replace("|", "") + ".json"
        out[name] = json.dumps(obj, indent=1) + "\n"
    return out


def build():
    OUT.mkdir(parents=True, exist_ok=True)
    for name, text in render().items():
        (OUT / name).write_text(text)
        print(f"wrote {name}")


if __name__ == "__main__":
    build()
