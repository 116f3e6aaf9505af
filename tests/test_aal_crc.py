"""CRC engines against their bit-serial oracles, residues, known vectors."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.aal.aal5 import AAL5_MAX_SDU, build_cpcs_pdu
from repro.aal.crc import CRC32_AAL5, CrcAlgorithm, crc10

#: The CRC-covered part of the CPCS-PDU of a 65,535-byte SDU (the
#: largest AAL5 PDU, less its 4-byte CRC field).
LARGEST_CRC_INPUT = len(build_cpcs_pdu(bytes(AAL5_MAX_SDU))) - 4


class TestCrc32:
    def test_known_vector_123456789(self):
        # The check value of the CRC-32/BZIP2 parameterisation (MSB-first,
        # init all-ones, final complement) for "123456789".
        assert CRC32_AAL5.compute(b"123456789") == 0xFC891918

    def test_table_matches_bit_serial(self):
        data = b"the quick brown fox jumps over the lazy dog"
        assert CRC32_AAL5.compute(data) == CRC32_AAL5.bitwise_reference(data)

    @given(st.binary(max_size=200))
    def test_table_matches_bit_serial_property(self, data):
        assert CRC32_AAL5.compute(data) == CRC32_AAL5.bitwise_reference(data)

    @given(st.binary(max_size=200))
    def test_append_then_verify(self, data):
        assert CRC32_AAL5.residue_ok(CRC32_AAL5.append(data))

    @given(st.binary(min_size=1, max_size=100), st.integers(0, 7))
    def test_single_bit_flip_detected(self, data, bit):
        message = CRC32_AAL5.append(data)
        corrupted = bytearray(message)
        corrupted[0] ^= 0x80 >> bit
        assert not CRC32_AAL5.residue_ok(bytes(corrupted))

    def test_incremental_equals_one_shot(self):
        data = b"abcdefghij" * 20
        state = CRC32_AAL5.start()
        for i in range(0, len(data), 7):
            state = CRC32_AAL5.update(state, data[i : i + 7])
        assert CRC32_AAL5.finish(state) == CRC32_AAL5.compute(data)

    def test_short_message_residue_fails(self):
        assert not CRC32_AAL5.residue_ok(b"ab")

    def test_width_validation(self):
        with pytest.raises(ValueError):
            CrcAlgorithm("bad", 4, 0x3, 0, 0)

    def test_only_the_crc32_generator_is_supported(self):
        with pytest.raises(ValueError):
            CrcAlgorithm("crc32c", 32, 0x1EDC6F41, 0xFFFFFFFF, 0xFFFFFFFF)

    def test_free_initial_and_final_xor(self):
        plain = CrcAlgorithm("crc32-mpeg2", 32, 0x04C11DB7, 0xFFFFFFFF, 0)
        assert plain.compute(b"123456789") == 0x0376E6E7
        assert plain.compute(b"123456789") == plain.bitwise_reference(
            b"123456789"
        )
        # A zero initial register: the one-shot path's start register is
        # derived from *initial*, not fixed at all-ones.
        posix = CrcAlgorithm("crc32-posix", 32, 0x04C11DB7, 0, 0xFFFFFFFF)
        assert posix.compute(b"123456789") == 0x765E7680
        assert posix.compute(b"123456789") == posix.bitwise_reference(
            b"123456789"
        )


class TestCrc32AgainstBitSerial:
    """zlib with bit reversal must equal the MSB-first bit-serial CRC."""

    @settings(max_examples=10, deadline=None)
    @given(
        size=st.integers(0, LARGEST_CRC_INPUT),
        seed=st.integers(0, 2**32 - 1),
        cuts=st.lists(st.floats(0.0, 1.0), max_size=4),
    )
    @example(size=0, seed=0, cuts=[])
    @example(size=9212, seed=1, cuts=[0.5])  # a 9,180-byte SDU's PDU
    @example(size=LARGEST_CRC_INPUT, seed=2, cuts=[0.001, 0.25, 0.999])
    def test_compute_and_split_update(self, size, seed, cuts):
        data = random.Random(seed).randbytes(size)
        expected = CRC32_AAL5.bitwise_reference(data)
        assert CRC32_AAL5.compute(data) == expected
        bounds = [0] + sorted(int(cut * size) for cut in cuts) + [size]
        state = CRC32_AAL5.start()
        for low, high in zip(bounds, bounds[1:]):
            state = CRC32_AAL5.update(state, data[low:high])
        assert CRC32_AAL5.finish(state) == expected

    def test_cell_by_cell_accumulation(self):
        # As streaming SAR hardware folds a 9,180-byte SDU's PDU: one
        # 48-byte payload at a time; the CRC field ends the last cell.
        pdu = build_cpcs_pdu(random.Random(3).randbytes(9180))
        body, field = pdu[:-4], int.from_bytes(pdu[-4:], "big")
        state = CRC32_AAL5.start()
        for offset in range(0, len(body), 48):
            state = CRC32_AAL5.update(state, body[offset : offset + 48])
        assert CRC32_AAL5.finish(state) == field
        assert CRC32_AAL5.bitwise_reference(body) == field


def crc10_bit_serial(data: bytes) -> int:
    """The CRC-10 residue one bit at a time: the oracle for the table."""
    register = 0
    for byte in data:
        for bit in range(8):
            register = (register << 1) | ((byte >> (7 - bit)) & 1)
            if register & 0x400:
                register ^= 0x633
    return register & 0x3FF


class TestCrc10AgainstBitSerial:
    """The byte-at-a-time table must equal the bit-serial division."""

    def test_random_inputs_up_to_100_bytes(self):
        rng = random.Random(10)
        for _ in range(2000):
            data = rng.randbytes(rng.randint(0, 100))
            assert crc10(data) == crc10_bit_serial(data)

    def test_random_1000_byte_inputs(self):
        rng = random.Random(11)
        for _ in range(20):
            data = rng.randbytes(1000)
            assert crc10(data) == crc10_bit_serial(data)

    def test_sar_pdu_residue_is_zero(self):
        # The SAR-PDU convention: the sender stores the residue of the
        # PDU with its CRC field zeroed; the receiver's residue over the
        # whole PDU is then 0, with either implementation.
        rng = random.Random(12)
        for _ in range(200):
            pdu = bytearray(rng.randbytes(48))
            pdu[-2] &= 0xFC
            pdu[-1] = 0
            remainder = crc10(bytes(pdu))
            assert remainder == crc10_bit_serial(bytes(pdu))
            trailer = int.from_bytes(pdu[-2:], "big") | remainder
            pdu[-2:] = trailer.to_bytes(2, "big")
            assert crc10(bytes(pdu)) == 0
            assert crc10_bit_serial(bytes(pdu)) == 0


class TestCrc10:
    def test_zero_message_zero_residue(self):
        assert crc10(bytes(10)) == 0

    def test_residue_zero_after_embedding(self):
        # Emulate the SAR convention: body with zeroed 10-bit CRC field,
        # compute, OR in, verify residue 0.
        body = bytearray(b"\x12\x34" + bytes(44) + b"\x00\x00")
        body[-2] |= 0xB0 >> 4 << 4  # some LI bits in the top of the field
        remainder = crc10(bytes(body))
        trailer = int.from_bytes(body[-2:], "big") | remainder
        full = bytes(body[:-2]) + trailer.to_bytes(2, "big")
        assert crc10(full) == 0

    def test_detects_corruption(self):
        body = b"\x10\x05" + bytes(44) + b"\x00\x00"
        remainder = crc10(body)
        full = body[:-2] + remainder.to_bytes(2, "big")
        corrupted = bytearray(full)
        corrupted[10] ^= 0x40
        assert crc10(bytes(corrupted)) != 0

    @given(st.binary(min_size=2, max_size=64))
    def test_embedding_property(self, body):
        # Zero the last 10 bits, embed the residue, check residue 0.
        data = bytearray(body)
        trailer = int.from_bytes(data[-2:], "big") & 0xFC00
        data[-2:] = trailer.to_bytes(2, "big")
        remainder = crc10(bytes(data))
        data[-2:] = (trailer | remainder).to_bytes(2, "big")
        assert crc10(bytes(data)) == 0

    def test_result_is_ten_bits(self):
        for payload in (b"", b"\xff" * 48, b"\x00\x01\x02"):
            assert 0 <= crc10(payload) <= 0x3FF
