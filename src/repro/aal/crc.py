"""CRC algorithms used by the adaptation layers.

Both AAL CRCs are MSB-first (non-reflected) polynomial divisions:

- **CRC-32** for the AAL5-class trailer: generator 0x04C11DB7, initial
  register all-ones, final complement (I.363).
- **CRC-10** for the AAL3/4 SAR-PDU trailer: generator
  x^10+x^9+x^5+x^4+x+1 (0x633), zero initial value, no final XOR.

The CRC-32 has an incremental API so a receiver can accumulate it cell
by cell, exactly as streaming SAR hardware does.  Its register runs on
:func:`zlib.crc32`: CRC-32/BZIP2 (this one) is the bit-reflected twin
of zlib's CRC-32/ISO-HDLC -- same polynomial, initial value and final
XOR -- so feeding zlib bit-reversed bytes, with the register
bit-reversed on the way in and out, gives the MSB-first result exactly.
A bit-serial reference implementation is kept as the test oracle.
"""

from __future__ import annotations

import zlib

#: Each byte value with its bit order reversed (a ``bytes.translate`` table).
_REVERSED_BITS = bytes(int(f"{byte:08b}"[::-1], 2) for byte in range(256))
_REGISTER_MASK = 0xFFFFFFFF
#: The CRC-32 generator, the only polynomial ``zlib`` computes.
_CRC32_POLYNOMIAL = 0x04C11DB7


class CrcAlgorithm:
    """An MSB-first CRC-32 (generator 0x04C11DB7) with incremental update.

    *initial* and *final_xor* are free; the width must be 32 and the
    polynomial the CRC-32 generator, the one ``zlib`` computes.
    """

    def __init__(
        self,
        name: str,
        width: int,
        polynomial: int,
        initial: int,
        final_xor: int,
    ) -> None:
        if width != 32 or polynomial != _CRC32_POLYNOMIAL:
            raise ValueError(
                "only the 32-bit generator 0x04C11DB7 is supported"
            )
        self.name = name
        self.width = width
        self.polynomial = polynomial
        self.initial = initial
        self.final_xor = final_xor

    # -- incremental interface ----------------------------------------------

    def start(self) -> int:
        """Fresh accumulator state."""
        return self.initial

    def update(self, state: int, data: bytes) -> int:
        """Fold *data* into the accumulator; returns the new state.

        zlib keeps its register complemented and bit-reflected; the
        state here is the plain MSB-first register.  Both reflections
        run in this frame: :meth:`compute` calls this once per PDU.
        """
        register = state.to_bytes(4, "big").translate(_REVERSED_BITS)
        reflected = zlib.crc32(
            data.translate(_REVERSED_BITS),
            int.from_bytes(register, "little") ^ _REGISTER_MASK,
        )
        register = (reflected ^ _REGISTER_MASK).to_bytes(4, "big")
        return int.from_bytes(register.translate(_REVERSED_BITS), "little")

    def finish(self, state: int) -> int:
        """Final CRC value from accumulator state."""
        return state ^ self.final_xor

    # -- one-shot interface ---------------------------------------------------

    def compute(self, data: bytes) -> int:
        """CRC of *data* in one call (``finish(update(start(), data))``)."""
        return self.update(self.initial, data) ^ self.final_xor

    def residue_ok(self, data_with_crc: bytes) -> bool:
        """Verify a message whose CRC field was appended MSB-first.

        For these non-reflected CRCs, running the register over message
        plus transmitted CRC yields a constant residue: 0 for zero
        final-XOR, or the algorithm's known residue for complemented
        CRCs.  We verify by direct recompute, which is equivalent and
        clearer.
        """
        nbytes = self.width // 8
        if len(data_with_crc) < nbytes:
            return False
        body, field = data_with_crc[:-nbytes], data_with_crc[-nbytes:]
        return self.compute(body) == int.from_bytes(field, "big")

    def append(self, data: bytes) -> bytes:
        """Return *data* with its CRC appended MSB-first."""
        nbytes = self.width // 8
        return data + self.compute(data).to_bytes(nbytes, "big")

    def bitwise_reference(self, data: bytes) -> int:
        """Slow bit-serial implementation for cross-validation in tests."""
        register = self.initial
        for byte in data:
            for bit in range(8):
                incoming = (byte >> (7 - bit)) & 1
                msb = (register >> (self.width - 1)) & 1
                register = (register << 1) & _REGISTER_MASK
                if msb ^ incoming:
                    register ^= self.polynomial
        return register ^ self.final_xor

    def __repr__(self) -> str:
        return (
            f"CrcAlgorithm({self.name}, width={self.width}, "
            f"poly=0x{self.polynomial:X})"
        )


CRC32_AAL5 = CrcAlgorithm(
    name="crc32-aal5",
    width=32,
    polynomial=0x04C11DB7,
    initial=0xFFFFFFFF,
    final_xor=0xFFFFFFFF,
)


def _crc10_table() -> tuple[int, ...]:
    """``T[v] = (v * x^10) mod G`` for every byte value *v*, bit-serially."""
    table = []
    for value in range(256):
        register = value << 10
        for bit in range(17, 9, -1):
            if register & (1 << bit):
                register ^= 0x633 << (bit - 10)
        table.append(register)
    return tuple(table)


#: The CRC-10 fold of one byte shifted out of the register's top.
_CRC10_TABLE = _crc10_table()


def crc10(data: bytes) -> int:
    """Residue of *data* (as a polynomial) modulo the AAL3/4 generator.

    The generator is x^10 + x^9 + x^5 + x^4 + x + 1 (0x633 including the
    leading term).  Usage follows the SAR-PDU convention: the transmitter
    computes the residue of the PDU *with the 10-bit CRC field zeroed*
    (which is the message times x^10) and stores it in the field; the
    receiver checks that the residue of the full PDU is zero.

    One step per byte (zlib computes only the 32-bit generator): the
    register times x^8 plus the byte is ``(r >> 2) * x^10``, folded by
    the table, plus ``(r & 3) * x^8`` and the byte, both already below
    x^10.
    """
    table = _CRC10_TABLE
    register = 0
    for byte in data:
        register = table[register >> 2] ^ ((register & 3) << 8) ^ byte
    return register
