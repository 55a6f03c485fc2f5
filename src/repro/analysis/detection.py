"""Theorem 2: detection rates.

The detection rate of a protocol is the number of data packets the source
must transmit before the converged condition holds (false positives and
negatives below ``sigma``). The paper's closed forms, reproduced here:

* full-ack:  ``tau_1 = ln(2/sigma) / (8 eps^2 (1-rho)^(2+d))``
* PAAI-1:    ``tau_2 = tau_1 / p``
* PAAI-2:    ``tau_3 = 2^d ln(2/sigma) / (18 eps^2) * d * log2(d)``
* statistical FL [Barak et al.], translated:
  ``d^2 ln(d/sigma) / (p eps^2)``

With the running example (sigma=0.03, eps=0.02, rho=0.01, d=6, p=1/36)
these evaluate to ~1.5e3, ~5.4e4, ~6e5 and ~2e7 — the §7.2 example and
the bound column of Table 2.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.core.params import ProtocolParams
from repro.exceptions import ConfigurationError


def tau1_fullack(params: ProtocolParams) -> float:
    """Theorem 2(a): packets to converge for the full-ack scheme."""
    eps = params.epsilon
    rho = params.natural_loss
    d = params.path_length
    return math.log(2.0 / params.sigma) / (
        8.0 * eps ** 2 * (1.0 - rho) ** (2 + d)
    )


def tau2_paai1(params: ProtocolParams) -> float:
    """Theorem 2(b): packets to converge for PAAI-1 (``tau_1 / p``)."""
    return tau1_fullack(params) / params.probe_frequency


def tau3_paai2(params: ProtocolParams) -> float:
    """Theorem 2(c): packets to converge for PAAI-2."""
    d = params.path_length
    eps = params.epsilon
    return (
        (2.0 ** d)
        * math.log(2.0 / params.sigma)
        / (18.0 * eps ** 2)
        * d
        * math.log2(max(d, 2))
    )


def statfl_detection_packets(
    params: ProtocolParams, fl_sampling: Optional[float] = None
) -> float:
    """Detection rate of the statistical FL protocol [7], translated to the
    paper's notation: ``d^2 ln(d/sigma) / (p eps^2)``."""
    p = fl_sampling if fl_sampling is not None else params.probe_frequency
    if not 0.0 < p <= 1.0:
        raise ConfigurationError("sampling probability must be in (0, 1]")
    d = params.path_length
    return d ** 2 * math.log(d / params.sigma) / (p * params.epsilon ** 2)


def combo1_detection_packets(params: ProtocolParams) -> float:
    """Combination 1 keeps PAAI-1's detection rate (Table 1)."""
    return tau2_paai1(params)


def combo2_detection_packets(params: ProtocolParams) -> float:
    """Combination 2: PAAI-2's rate degraded by ``1/p`` (Table 1)."""
    return tau3_paai2(params) / params.probe_frequency


_DETECTION = {
    "full-ack": tau1_fullack,
    "paai1": tau2_paai1,
    "paai2": tau3_paai2,
    "statfl": statfl_detection_packets,
    "combo1": combo1_detection_packets,
    "combo2": combo2_detection_packets,
    # The footnote-1 asymmetric variant shares full-ack's observation
    # process; only its overhead differs (measured on the wire).
    "sig-ack": tau1_fullack,
}


def detection_packets(name: str, params: ProtocolParams) -> float:
    """Theoretical detection rate (packets) for a registry-named protocol."""
    try:
        formula = _DETECTION[name]
    except KeyError:
        raise ConfigurationError(f"no detection formula for {name!r}") from None
    return formula(params)


def detection_time_minutes(
    name: str, params: ProtocolParams, sending_rate: float
) -> float:
    """Detection *time* at a given source rate — Table 2's unit.

    ``detection time = detection rate / sending rate`` (§3.1).
    """
    if not 0 < sending_rate < math.inf:
        raise ConfigurationError("sending rate must be positive and finite")
    return detection_packets(name, params) / sending_rate / 60.0
