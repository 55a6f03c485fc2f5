"""Communication and storage overhead formulas (§7.3, §7.4, Table 1).

Communication overhead is expressed as extra packet-size units per data
packet sent by the source, where one unit is an O(1)-size control packet
(ack or plain probe) and onion reports cost ``d`` units. Storage overhead
is expressed in packets buffered at an intermediate node, as a function of
the source rate ``nu`` and the worst-case source round trip ``r_0``.
"""

from __future__ import annotations

import math
from typing import Dict

from repro.core.params import ProtocolParams
from repro.exceptions import ConfigurationError


def communication_overhead(
    name: str,
    params: ProtocolParams,
    psi: float = 0.0,
    fl_sampling: float = 0.01,
) -> float:
    """Per-data-packet communication overhead in O(1)-packet units.

    ``psi`` is the end-to-end loss rate (full-ack and Combination 1 incur
    the O(d) onion cost only for lost packets).
    """
    if not 0.0 <= psi <= 1.0:
        raise ConfigurationError("psi must be in [0, 1]")
    d = params.path_length
    p = params.probe_frequency
    probe_units = d if params.authenticated_probes else 1
    if name == "full-ack":
        # One e2e ack per packet; probe + onion report per lost packet.
        return 1.0 + psi * (probe_units + d)
    if name == "paai1":
        # Probe + onion report for every sampled packet, loss or not.
        return p * (probe_units + d)
    if name == "paai2":
        # One e2e ack per packet; constant-size probe + constant-size
        # oblivious report per lost packet.
        return 1.0 + psi * 2.0
    if name == "statfl":
        # One O(1) request plus an O(d) counter report per interval; the
        # translated Table 1 expression in per-packet units.
        return fl_sampling * params.epsilon ** 2  # effectively ~0
    if name == "combo1":
        # e2e ack per sampled packet; probe + onion only for lost ones.
        return p * (1.0 + psi * (probe_units + d))
    if name == "combo2":
        # e2e ack per sampled packet; O(1) probe + report for lost ones.
        return p * (1.0 + psi * 2.0)
    raise ConfigurationError(f"no communication formula for {name!r}")


def storage_bound_packets(
    name: str,
    params: ProtocolParams,
    sending_rate: float,
    case: str = "worst",
) -> float:
    """Per-node storage bound in packets (Table 1's storage columns).

    ``case`` is ``"worst"`` or ``"ideal"`` (no packet drops). The bounds
    use the worst-case source round trip ``r_0``; Table 2's numeric values
    (12 and 3.2 packets at nu=100/s) follow with the paper's 0-5 ms
    per-link latency.
    """
    if not 0 < sending_rate < math.inf:
        raise ConfigurationError("sending rate must be positive and finite")
    if case not in ("worst", "ideal"):
        raise ConfigurationError(f"case must be 'worst' or 'ideal', got {case!r}")
    r0 = params.r0
    nu = sending_rate
    p = params.probe_frequency
    worst = case == "worst"
    if name == "full-ack":
        return (2.0 if worst else 1.0) * r0 * nu
    if name == "paai1":
        # The paper's (0.5 + p) r0 nu assumes an immediate probe; a
        # withholding-hardened deployment adds the probe delay to every
        # node's hold time (DESIGN.md §2).
        return (0.5 + p + params.probe_delay / r0) * r0 * nu
    if name == "paai2":
        return (2.0 if worst else 1.0) * r0 * nu
    if name == "statfl":
        # One counter plus a transient request entry: effectively O(1);
        # the translated Table 1 expression scales with the sampling rate.
        return p * r0 * nu
    if name == "combo1":
        return (0.5 + 2.0 * p) * r0 * nu
    if name == "combo2":
        return ((1.0 + p) if worst else 1.0) * r0 * nu
    raise ConfigurationError(f"no storage formula for {name!r}")


def practicality_summary(params: ProtocolParams, sending_rate: float) -> Dict[str, Dict]:
    """§9's practicality numbers for each protocol at one sending rate."""
    from repro.analysis.detection import detection_packets

    if not 0 < sending_rate < math.inf:
        raise ConfigurationError("sending rate must be positive and finite")

    summary: Dict[str, Dict] = {}
    for name in ("full-ack", "paai1", "paai2", "statfl", "combo1", "combo2"):
        summary[name] = {
            "detection_packets": detection_packets(name, params),
            "detection_minutes": detection_packets(name, params)
            / sending_rate
            / 60.0,
            "comm_overhead_units": communication_overhead(
                name, params, psi=1.0 - (1.0 - params.natural_loss) ** params.path_length
            ),
            "storage_worst_packets": storage_bound_packets(
                name, params, sending_rate, "worst"
            ),
            "storage_ideal_packets": storage_bound_packets(
                name, params, sending_rate, "ideal"
            ),
        }
    return summary
