"""Network models and traffic records."""

import pytest

from repro.parallel.comm import CommRecord, INFINIBAND_FDR, INTRA_NODE, NetworkModel, PCIE_GEN2


class TestNetworkModel:
    def test_message_time_alpha_beta(self):
        net = NetworkModel("t", latency_s=1e-6, bandwidth_Bps=1e9)
        assert net.message_time(0) == pytest.approx(1e-6)
        assert net.message_time(1e9) == pytest.approx(1.0 + 1e-6)

    def test_rejects_negative_size(self):
        with pytest.raises(ValueError):
            INTRA_NODE.message_time(-1)

    def test_allreduce_log_rounds(self):
        net = NetworkModel("t", latency_s=1e-6, bandwidth_Bps=1e12)
        assert net.allreduce_time(8, 1) == 0.0
        t2 = net.allreduce_time(8, 2)
        t16 = net.allreduce_time(8, 16)
        assert t16 == pytest.approx(4 * t2, rel=1e-6)

    def test_fabric_ordering(self):
        """Shared memory has the highest bandwidth; PCIe the worst latency."""
        assert INTRA_NODE.bandwidth_Bps >= INFINIBAND_FDR.bandwidth_Bps
        assert PCIE_GEN2.latency_s > INFINIBAND_FDR.latency_s
        assert PCIE_GEN2.latency_s > INTRA_NODE.latency_s


class TestCommRecord:
    def test_add_accumulates(self):
        r = CommRecord()
        r.add(1000, INTRA_NODE.message_time(1000), stage="forward")
        r.add(2000, 0.25, stage="reverse")
        assert r.messages == 2
        assert r.bytes == 3000
        assert r.time_s == INTRA_NODE.message_time(1000) + 0.25
        assert r.by_stage["reverse"] == [1, 2000, 0.25]
        assert set(r.by_stage) == {"forward", "reverse"}
