"""802.11b DCF timing and the packet-size / alpha correspondence.

With RTS/CTS handshaking, a sender occupies the channel for
T_s = rts + plcp + 8s/d microseconds and then waits
T_w = backoff + 3 sifs + cts + ack before its next occupancy, so the
long-run fraction of time it holds the medium is alpha = T_s/(T_s + T_w).
Inverting that map turns a fairness-optimal alpha into a frame size.
"""

from dataclasses import dataclass

import math

from .errors import DomainError
from .model import check_count

_RATES = (1.0, 2.0, 5.5, 11.0)
_S_MIN = 14
_S_MAX = 2346


@dataclass(frozen=True)
class MacTiming:
    """DSSS PHY timing constants in microseconds (cw_min in slots).

    Defaults follow the standard 802.11b values. cw_min = 0 is allowed for
    what-if studies that drop the backoff term.
    """

    difs: float = 50.0
    eifs: float = 364.0
    sifs: float = 10.0
    slot: float = 20.0
    cw_min: float = 31.0
    rts: float = 304.0
    cts: float = 352.0
    ack: float = 304.0
    plcp: float = 192.0

    def __post_init__(self):
        for name in ("difs", "eifs", "sifs", "slot", "rts", "cts", "ack", "plcp"):
            if not getattr(self, name) > 0.0:
                raise DomainError(f"{name} must be positive")
        if not self.cw_min >= 0.0:
            raise DomainError("cw_min must be >= 0")
        if not self.eifs > self.difs:
            raise DomainError("eifs must exceed difs")


@dataclass(frozen=True)
class FrameSpec:
    """MAC frame size in bytes and data rate in Mbit/s."""

    s: int
    d: float

    def __post_init__(self):
        check_count("frame size s", self.s, least=_S_MIN)
        if self.s > _S_MAX:
            raise DomainError(f"frame size must lie in [{_S_MIN}, {_S_MAX}], got {self.s!r}")
        # bool is refused although True == 1.0
        if isinstance(self.d, bool) or self.d not in _RATES:
            raise DomainError(f"rate must be one of {_RATES}, got {self.d!r}")


def t_send(frame: FrameSpec, timing: MacTiming = MacTiming()) -> float:
    """Channel occupancy of one transmission: rts + plcp + 8s/d microseconds."""
    return timing.rts + timing.plcp + 8.0 * frame.s / frame.d


def t_wait(timing: MacTiming = MacTiming()) -> float:
    """Mean inter-transmission wait: slot*cw_min/2 + 3 sifs + cts + ack.

    The DIFS/EIFS deference is deliberately not counted: a neighbor is
    normally occupying the channel during it.
    """
    backoff = timing.slot * timing.cw_min / 2.0
    return backoff + 3.0 * timing.sifs + timing.cts + timing.ack


def alpha_of_packet(frame: FrameSpec, timing: MacTiming = MacTiming()) -> float:
    """Occupancy fraction alpha = T_s / (T_s + T_w), increasing in s."""
    ts = t_send(frame, timing)
    return ts / (ts + t_wait(timing))


def packet_for_alpha(alpha: float, d: float, timing: MacTiming = MacTiming()) -> int:
    """Frame size in bytes whose occupancy fraction is alpha, at rate d.

    Inverts alpha = (c + 8s/d)/(c + T_w + 8s/d) with c = rts + plcp:
    s = d (alpha (T_w + c) - c) / (8 (1 - alpha)). Fractional bytes round
    to nearest with ties up. Raises DomainError when alpha is outside what
    the legal frame sizes [14, 2346] can realize, reporting that interval,
    and FrameSpec's DomainError when d is not one of the four rates.
    """
    a_min = alpha_of_packet(FrameSpec(_S_MIN, d), timing)
    a_max = alpha_of_packet(FrameSpec(_S_MAX, d), timing)
    if not a_min <= alpha <= a_max:
        raise DomainError(
            f"alpha={alpha!r} is not achievable at rate {d}; "
            f"achievable interval is [{a_min:.6f}, {a_max:.6f}]"
        )
    c = timing.rts + timing.plcp
    s = d * (alpha * (t_wait(timing) + c) - c) / (8.0 * (1.0 - alpha))
    # nudge keeps exact .5 ties rounding up despite float noise in s
    return int(math.floor(s + 0.5 + 1e-9))
