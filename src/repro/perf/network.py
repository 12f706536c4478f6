"""Fabric models (alpha-beta latency/bandwidth) shared by the
communication and offload layers.

Lives in :mod:`repro.perf` so both :mod:`repro.parallel` (halo traffic)
and :mod:`repro.perf.offload` (PCIe) can use it without an import
cycle; :mod:`repro.parallel.comm` re-exports the public names.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class NetworkModel:
    """Alpha-beta message timing."""

    name: str
    latency_s: float
    bandwidth_Bps: float

    def message_time(self, nbytes: float) -> float:
        """Seconds to move one message of `nbytes`."""
        if nbytes < 0:
            raise ValueError("message size must be non-negative")
        return self.latency_s + nbytes / self.bandwidth_Bps

    def allreduce_time(self, nbytes: float, n_ranks: int) -> float:
        """Tree allreduce: log2(P) rounds of one message each."""
        if n_ranks <= 1:
            return 0.0
        rounds = max(1, (n_ranks - 1).bit_length())
        return rounds * self.message_time(nbytes)


#: Shared-memory MPI inside one node.  Effective bandwidth includes the
#: pack/unpack passes of the halo buffers (~3 memory touches), so it is
#: well below raw DRAM bandwidth; latency includes MPI software
#: overhead per message.
INTRA_NODE = NetworkModel("intra-node", latency_s=2.0e-6, bandwidth_Bps=6.0e9)

#: FDR InfiniBand (SuperMIC, the Fig. 9 cluster).
INFINIBAND_FDR = NetworkModel("infiniband-fdr", latency_s=1.5e-6, bandwidth_Bps=6.0e9)

#: PCIe 2.0 x16 (KNC 5110P and Kepler offload traffic).
PCIE_GEN2 = NetworkModel("pcie-gen2", latency_s=10.0e-6, bandwidth_Bps=6.0e9)


@dataclass
class AlphaBetaFit:
    """Running least-squares fit of ``t = alpha + n * beta``.

    Holds the fit's sufficient statistics, not the samples, so a source
    that adds one sample per MD step retains O(1) state.  Message sizes
    are summed relative to the first one seen: a long run of near-equal
    sizes (halo traffic between redecompositions) then does not cancel
    in the normal equations.
    """

    count: int = 0
    _n0: float = 0.0
    _sd: float = 0.0
    _sdd: float = 0.0
    _st: float = 0.0
    _sdt: float = 0.0

    def add(self, nbytes: float, seconds: float) -> None:
        """Add one observed exchange; non-positive times carry no information."""
        seconds = float(seconds)
        if seconds <= 0.0:
            return
        if self.count == 0:
            self._n0 = float(nbytes)
        d = float(nbytes) - self._n0
        self.count += 1
        self._sd += d
        self._sdd += d * d
        self._st += seconds
        self._sdt += d * seconds

    def model(self, name: str = "measured") -> NetworkModel:
        """The fitted model, ``alpha`` clamped non-negative.  With fewer
        than two distinct message sizes the system is rank-deficient;
        the fit then degrades gracefully to zero latency and the
        aggregate observed throughput."""
        if not self.count:
            raise ValueError("need at least one sample with positive time")
        k = self.count
        spread = k * self._sdd - self._sd * self._sd
        if spread > 0.0:
            beta = (k * self._sdt - self._sd * self._st) / spread
            alpha = max((self._st - beta * self._sd) / k - beta * self._n0, 0.0)
            beta = max(beta, 1e-15)  # seconds per byte; noise can fit <= 0
        else:
            alpha = 0.0
            total = self._sd + k * self._n0
            beta = self._st / total if total > 0.0 else 1e-15
        return NetworkModel(name, latency_s=alpha, bandwidth_Bps=1.0 / beta)


def fit_network_model(
    samples: "list[tuple[float, float]]", *, name: str = "measured"
) -> NetworkModel:
    """Alpha-beta fit from observed ``(nbytes, seconds)`` samples.

    The calibration path that turns the analytic fabric constants above
    into *measured* ones: samples come from real exchanges (the cluster
    executor's ping round-trips); the engine's per-step halo traffic
    feeds the same :class:`AlphaBetaFit` one step at a time.
    """
    fit = AlphaBetaFit()
    for nbytes, seconds in samples:
        fit.add(nbytes, seconds)
    return fit.model(name)
