"""ATM cell format: encode/decode, field ranges, PTI semantics."""

import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.atm import AtmCell, CELL_SIZE, CellFormatError, PAYLOAD_SIZE
from repro.atm.addressing import VcAddress
from repro.atm.cell import (
    PTI_OAM_SEGMENT,
    PTI_USER_SDU0,
    PTI_USER_SDU1,
    pad_payload,
)

PAYLOAD = bytes(range(48))


class TestConstruction:
    def test_valid_cell(self):
        cell = AtmCell(vpi=1, vci=42, payload=PAYLOAD)
        assert cell.vpi == 1 and cell.vci == 42

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"vpi": -1, "vci": 0},
            {"vpi": 0x1000, "vci": 0},
            {"vpi": 0, "vci": -1},
            {"vpi": 0, "vci": 0x10000},
        ],
    )
    def test_address_range_enforced(self, kwargs):
        with pytest.raises(CellFormatError):
            AtmCell(payload=PAYLOAD, **kwargs)

    def test_payload_must_be_48_bytes(self):
        with pytest.raises(CellFormatError):
            AtmCell(vpi=0, vci=32, payload=b"short")

    def test_pti_range(self):
        with pytest.raises(CellFormatError):
            AtmCell(vpi=0, vci=32, payload=PAYLOAD, pti=8)

    def test_clp_binary(self):
        with pytest.raises(CellFormatError):
            AtmCell(vpi=0, vci=32, payload=PAYLOAD, clp=2)

    def test_gfc_range(self):
        with pytest.raises(CellFormatError):
            AtmCell(vpi=0, vci=32, payload=PAYLOAD, gfc=16)


class TestWireFormat:
    def test_encoding_is_53_bytes(self):
        assert len(AtmCell(vpi=0, vci=32, payload=PAYLOAD).to_bytes()) == CELL_SIZE

    def test_roundtrip_preserves_fields(self):
        cell = AtmCell(vpi=17, vci=4097, payload=PAYLOAD, pti=3, clp=1, gfc=5)
        decoded = AtmCell.from_bytes(cell.to_bytes())
        assert decoded == cell

    def test_known_header_layout(self):
        # GFC=0, VPI=0x12, VCI=0x3456, PTI=1, CLP=1
        cell = AtmCell(vpi=0x12, vci=0x3456, payload=PAYLOAD, pti=1, clp=1)
        header = cell.header_bytes()
        assert header == bytes((0x01, 0x23, 0x45, 0x63))

    def test_nni_roundtrip_with_wide_vpi(self):
        cell = AtmCell(vpi=0xABC, vci=99, payload=PAYLOAD)
        decoded = AtmCell.from_bytes(cell.to_bytes(nni=True), nni=True)
        assert decoded.vpi == 0xABC and decoded.vci == 99

    def test_uni_rejects_wide_vpi(self):
        cell = AtmCell(vpi=0x100, vci=0, payload=PAYLOAD)
        with pytest.raises(CellFormatError):
            cell.to_bytes(nni=False)

    def test_nni_rejects_gfc(self):
        cell = AtmCell(vpi=1, vci=1, payload=PAYLOAD, gfc=3)
        with pytest.raises(CellFormatError):
            cell.to_bytes(nni=True)

    def test_wrong_length_rejected(self):
        with pytest.raises(CellFormatError):
            AtmCell.from_bytes(b"\x00" * 52)

    def test_corrupted_header_detected(self):
        data = bytearray(AtmCell(vpi=3, vci=77, payload=PAYLOAD).to_bytes())
        data[2] ^= 0xFF
        with pytest.raises(CellFormatError):
            AtmCell.from_bytes(bytes(data))

    def test_corrupted_payload_not_heced(self):
        # The HEC covers only the header; payload corruption is the
        # adaptation layer's problem.
        data = bytearray(AtmCell(vpi=3, vci=77, payload=PAYLOAD).to_bytes())
        data[20] ^= 0xFF
        decoded = AtmCell.from_bytes(bytes(data))
        assert decoded.payload != PAYLOAD

    @given(
        vpi=st.integers(0, 0xFF),
        vci=st.integers(0, 0xFFFF),
        pti=st.integers(0, 7),
        clp=st.integers(0, 1),
        gfc=st.integers(0, 15),
        payload=st.binary(min_size=PAYLOAD_SIZE, max_size=PAYLOAD_SIZE),
    )
    def test_roundtrip_property(self, vpi, vci, pti, clp, gfc, payload):
        cell = AtmCell(
            vpi=vpi, vci=vci, payload=payload, pti=pti, clp=clp, gfc=gfc
        )
        assert AtmCell.from_bytes(cell.to_bytes()) == cell


class TestSemantics:
    def test_end_of_frame_flag(self):
        assert AtmCell(vpi=0, vci=32, payload=PAYLOAD, pti=PTI_USER_SDU1).end_of_frame
        assert not AtmCell(
            vpi=0, vci=32, payload=PAYLOAD, pti=PTI_USER_SDU0
        ).end_of_frame

    def test_oam_cell_is_not_user_or_eof(self):
        cell = AtmCell(vpi=0, vci=32, payload=PAYLOAD, pti=PTI_OAM_SEGMENT)
        assert not cell.is_user_cell
        assert not cell.end_of_frame

    def test_congestion_bit(self):
        cell = AtmCell(vpi=0, vci=32, payload=PAYLOAD, pti=0b010)
        assert cell.congestion_experienced

    def test_with_header_translates_labels_only(self):
        cell = AtmCell(vpi=1, vci=2, payload=PAYLOAD, pti=1)
        out = cell.with_header(vpi=9, vci=900)
        assert (out.vpi, out.vci) == (9, 900)
        assert out.payload == cell.payload
        assert out.pti == cell.pti

    def test_meta_does_not_affect_equality(self):
        a = AtmCell(vpi=0, vci=32, payload=PAYLOAD)
        b = AtmCell(vpi=0, vci=32, payload=PAYLOAD)
        a.meta["timestamp"] = 1.0
        assert a == b
        assert not a != b


class TestRecord:
    """The decoded fields, immutability and identity of the cell record."""

    @pytest.mark.parametrize("pti", range(8))
    def test_decoded_fields_agree_with_the_header(self, pti):
        cell = AtmCell(vpi=7, vci=4097, payload=PAYLOAD, pti=pti)
        user = pti & 0b100 == 0
        assert cell.vc == VcAddress(7, 4097)
        assert type(cell.vc) is VcAddress
        assert cell.is_user_cell is user
        assert cell.end_of_frame is (user and pti & 0b001 == 1)
        assert cell.congestion_experienced is (user and pti & 0b010 == 2)

    def test_relabelled_cell_decodes_its_new_header(self):
        cell = AtmCell(vpi=1, vci=2, payload=PAYLOAD, pti=PTI_USER_SDU1)
        out = cell.with_header(vpi=3, vci=40, pti=PTI_OAM_SEGMENT)
        assert out.vc == VcAddress(3, 40)
        assert not out.is_user_cell and not out.end_of_frame

    @pytest.mark.parametrize(
        "field", ["vpi", "vci", "payload", "pti", "clp", "gfc", "meta", "vc"]
    )
    def test_fields_cannot_be_assigned(self, field):
        cell = AtmCell(vpi=0, vci=32, payload=PAYLOAD)
        with pytest.raises(AttributeError):
            setattr(cell, field, 1)

    def test_no_new_attributes(self):
        cell = AtmCell(vpi=0, vci=32, payload=PAYLOAD)
        with pytest.raises(AttributeError):
            cell.note = "x"
        assert not hasattr(cell, "__dict__")

    def test_hash_ignores_meta(self):
        a = AtmCell(vpi=0, vci=32, payload=PAYLOAD, pti=1, clp=1, gfc=2)
        b = AtmCell(vpi=0, vci=32, payload=PAYLOAD, pti=1, clp=1, gfc=2)
        a.meta["cell_id"] = 5
        assert hash(a) == hash(b)
        assert hash(a) == hash((0, 32, PAYLOAD, 1, 1, 2))
        assert len({a, b}) == 1

    def test_with_header_shares_meta(self):
        cell = AtmCell(vpi=0, vci=32, payload=PAYLOAD)
        cell.meta["cell_id"] = 9
        out = cell.with_header(vpi=3)
        assert out.meta is cell.meta

    @pytest.mark.parametrize(
        "duplicate",
        [
            copy.copy,
            copy.deepcopy,
            lambda cell: pickle.loads(pickle.dumps(cell)),
        ],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_round_trip(self, duplicate):
        cell = AtmCell(
            vpi=5, vci=600, payload=PAYLOAD, pti=PTI_USER_SDU1, clp=1, gfc=3
        )
        cell.meta.update(cell_id=4, pdu_id=2)
        twin = duplicate(cell)
        assert type(twin) is AtmCell
        assert twin == cell
        assert tuple(twin) == tuple(cell)
        assert twin.meta == {"cell_id": 4, "pdu_id": 2}

    def test_one_construction_validates_once(self, monkeypatch):
        calls = []
        validate = AtmCell.__post_init__

        def counted(cell):
            calls.append(cell)
            validate(cell)

        monkeypatch.setattr(AtmCell, "__post_init__", counted)
        cell = AtmCell(vpi=0, vci=32, payload=PAYLOAD)
        assert calls == [cell]
        cell.with_header(vci=33)
        assert len(calls) == 2


class TestPadPayload:
    def test_pads_to_exactly_one_payload(self):
        assert len(pad_payload(b"abc")) == PAYLOAD_SIZE
        assert pad_payload(b"abc")[:3] == b"abc"

    def test_oversize_rejected(self):
        with pytest.raises(CellFormatError):
            pad_payload(bytes(49))

    def test_exact_size_unchanged(self):
        assert pad_payload(PAYLOAD) == PAYLOAD
