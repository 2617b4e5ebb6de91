"""The signed-slot integer codec of Kronecker substitution.

A polynomial whose terms are numbered by distinct indices becomes one
Python ``int``: each coefficient sits in a signed slot of ``bits`` bits at
its index (Kronecker 1882; Harvey, J. Symbolic Comput. 2009).  Exact
division in :mod:`knothom.laurent` packs its two operands this way and
divides them with one ``divmod``; the plethysm sum of
:mod:`knothom.invariants` is built packed, one shift and subtraction per
factor.  Both unpack their result with :func:`_unpack`.  Slots are written
and read as the bytes of one buffer, in place through a ``memoryview``
where the machine is little-endian.
"""

import sys
from collections import deque
from itertools import compress, count


def _slot_bits(bound: int) -> int:
    """The least multiple of 8 with ``bound < 2^(bits-1)``: a signed slot of
    that many bits holds every integer of absolute value at most ``bound``."""
    return -(-(bound.bit_length() + 1) // 8) * 8


#: the ``memoryview`` format of an unsigned slot of each byte width that has
#: one; it reads slots in place only where the machine is little-endian, as
#: the byte order of a packed integer is
_UNSIGNED = {memoryview(bytes(8)).cast(code).itemsize: code
             for code in "BHIQ"} if sys.byteorder == "little" else {}


def _pack(indices, values, bits: int, slots: int) -> int:
    """``sum c * 2^(bits*index)`` over ``zip(indices, values)``, with distinct
    indices in ``range(slots)`` and ``|c| < 2^(bits-1)``.

    Each slot is written as the unsigned digit ``c + 2^(bits-1)`` of base
    ``2^bits``, which never borrows from its neighbour, into one byte buffer;
    one ``from_bytes`` call reads the buffer, and subtracting the digit
    ``2^(bits-1)`` from every slot restores the signs.
    """
    width = bits // 8
    half = 1 << (bits - 1)
    zero = half.to_bytes(width, "little")
    raw = bytearray(zero * slots)
    code = _UNSIGNED.get(width)
    if code:
        view = memoryview(raw).cast(code)
        # an empty deque drains the map: one store per term, in C
        deque(map(view.__setitem__, indices, map(half.__add__, values)), 0)
        view.release()
    else:
        for index, c in zip(indices, values):
            at = index * width
            raw[at:at + width] = (c + half).to_bytes(width, "little")
    return int.from_bytes(raw, "little") - int.from_bytes(zero * slots, "little")


def _unpack(packed: int, bits: int) -> tuple:
    """``(indices, values)``: the indices, ascending, of the nonzero signed
    digits of ``packed`` in base ``2^bits``, each in ``[-2^(bits-1),
    2^(bits-1))``, and those digits, as two lists.

    Every integer has exactly one such expansion, and it fits in the slots
    counted below; when ``packed`` came from :func:`_pack` it gives back the
    packed indices and values.  Adding ``2^(bits-1)`` to every slot makes
    each digit unsigned, so one ``to_bytes`` call splits the whole integer.
    """
    width = bits // 8
    # |packed| < 2^(bits*slots - 2), inside the range of signed digits
    slots = (abs(packed).bit_length() + 1) // bits + 1
    half = 1 << (bits - 1)
    raw = (packed + int.from_bytes(half.to_bytes(width, "little") * slots,
                                   "little")).to_bytes(slots * width, "little")
    code = _UNSIGNED.get(width)
    if code:
        digits = memoryview(raw).cast(code)
    else:
        digits = [int.from_bytes(raw[at:at + width], "little")
                  for at in range(0, slots * width, width)]
    signed = [*map(half.__rsub__, digits)]
    return [*compress(count(), signed)], [*compress(signed, signed)]
