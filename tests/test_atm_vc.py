"""Addressing and the VC table."""

import pytest

from repro.atm import RESERVED_VCI_LIMIT, VcAddress, VcTable
from repro.atm.addressing import MAX_VCI, first_user_vci
from repro.atm.vc import AalType, ServiceClass, VcState


class TestAddressing:
    def test_reserved_detection(self):
        assert VcAddress(0, 5).is_reserved
        assert not VcAddress(0, 32).is_reserved
        assert not VcAddress(1, 5).is_reserved  # reserved range is VPI 0 only

    def test_signalling_channel(self):
        assert VcAddress(0, 5).is_signalling
        assert not VcAddress(0, 16).is_signalling

    def test_validated_ranges(self):
        with pytest.raises(ValueError):
            VcAddress.validated(256, 0)  # UNI VPI is 8 bits
        VcAddress.validated(256, 0, nni=True)  # NNI VPI is 12 bits
        with pytest.raises(ValueError):
            VcAddress.validated(0, 0x10000)

    def test_str(self):
        assert str(VcAddress(1, 42)) == "1/42"

    def test_first_user_vci_respects_reserved(self):
        assert first_user_vci(0) == RESERVED_VCI_LIMIT
        assert first_user_vci(100) == 100


class TestVcTable:
    def test_auto_allocation_skips_reserved(self):
        table = VcTable()
        vc = table.open()
        assert vc.address.vci >= RESERVED_VCI_LIMIT
        assert not vc.address.is_reserved

    def test_auto_allocation_is_unique(self):
        table = VcTable()
        addresses = {table.open().address for _ in range(50)}
        assert len(addresses) == 50

    def test_explicit_address(self):
        table = VcTable()
        vc = table.open(address=VcAddress(1, 100))
        assert table.lookup(VcAddress(1, 100)) is vc

    def test_allocation_cursor_wraps_without_immediate_reuse(self):
        # Churn: the cursor keeps moving forward past closed VCIs (so
        # in-flight stragglers cannot misdeliver into a fresh call)...
        table = VcTable()
        first = table.open()
        table.close(first.address)
        second = table.open()
        assert second.address != first.address
        # ...and wraps at MAX_VCI instead of exhausting: park the
        # cursor at the top of the space, then allocate across the seam.
        table._next_vci = MAX_VCI
        top = table.open()
        assert top.address.vci == MAX_VCI
        wrapped = table.open()
        assert RESERVED_VCI_LIMIT <= wrapped.address.vci < MAX_VCI

    def test_wraparound_skips_still_open_vcis(self):
        table = VcTable()
        held = [table.open() for _ in range(3)]
        table._next_vci = MAX_VCI + 1  # force an immediate wrap
        table._next_vci = RESERVED_VCI_LIMIT
        fresh = table.open()
        assert fresh.address not in {vc.address for vc in held}

    def test_full_table_raises_exhausted(self):
        table = VcTable()
        span = MAX_VCI - RESERVED_VCI_LIMIT + 1
        for _ in range(span):
            table.open()
        with pytest.raises(RuntimeError, match="exhausted"):
            table.open()

    def test_duplicate_open_rejected(self):
        table = VcTable()
        table.open(address=VcAddress(0, 100))
        with pytest.raises(ValueError):
            table.open(address=VcAddress(0, 100))

    def test_reserved_address_rejected(self):
        with pytest.raises(ValueError):
            VcTable().open(address=VcAddress(0, 5))

    def test_close_removes(self):
        table = VcTable()
        vc = table.open()
        closed = table.close(vc.address)
        assert closed.state is VcState.CLOSED
        assert table.lookup(vc.address) is None

    def test_close_unknown_raises(self):
        with pytest.raises(KeyError):
            VcTable().close(VcAddress(0, 999))

    def test_lookup_miss_is_none(self):
        assert VcTable().lookup(VcAddress(0, 77)) is None

    def test_len_contains_iter(self):
        table = VcTable()
        a = table.open()
        b = table.open()
        assert len(table) == 2
        assert a.address in table
        assert {vc.address for vc in table} == {a.address, b.address}

    def test_contract_recorded(self):
        table = VcTable()
        vc = table.open(
            service_class=ServiceClass.CBR, peak_rate_bps=1e6, name="video"
        )
        assert vc.service_class is ServiceClass.CBR
        assert vc.peak_rate_bps == 1e6
        assert vc.name == "video"
        assert vc.aal is AalType.AAL5

    def test_invalid_peak_rate(self):
        with pytest.raises(ValueError):
            VcTable().open(peak_rate_bps=0)

    def test_reopen_after_close(self):
        table = VcTable()
        vc = table.open(address=VcAddress(0, 200))
        table.close(vc.address)
        again = table.open(address=VcAddress(0, 200))
        assert again.is_open
