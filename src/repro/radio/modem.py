"""Radiometrix-RPC-style packet modem.

Paper Section 6.1: "off-the-shelf, 418 MHz, packet-based radios that
provide about 13kb/s throughput", with messages "broken into several
27-byte fragments".  The modem owns the physical-layer timing (preamble
plus payload at the bit rate) and the half-duplex transmitting flag the
channel consults for collisions and carrier sensing.

The modem transmits one fragment at a time; queueing, carrier sensing
and backoff belong to the MAC (:mod:`repro.mac`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Optional

from repro.sim import Simulator

BROADCAST_ADDRESS: Optional[int] = None

#: rx->tx switch time, seconds (the RPC's datasheet figure).
TURNAROUND_S = 0.001


@dataclass(frozen=True)
class RadioParams:
    """Physical-layer constants (class constants: no run varies them)."""

    bitrate_bps: ClassVar[float] = 13_000.0   # ~13 kb/s RPC throughput
    fragment_payload: ClassVar[int] = 27      # bytes of payload per fragment
    fragment_overhead: ClassVar[int] = 5      # preamble/sync/len/crc per fragment

    def fragment_airtime(self, payload_bytes: int) -> float:
        """Seconds on air for one fragment carrying ``payload_bytes``."""
        # A negative size is a valid tuple index: refuse it first.
        if payload_bytes < 0:
            raise _size_refused(payload_bytes)
        try:
            return AIRTIME_BY_SIZE[payload_bytes]
        except IndexError:
            raise _size_refused(payload_bytes) from None


#: seconds on air of a fragment, indexed by its payload size: one table
#: for every radio, since no run varies the physical layer.
AIRTIME_BY_SIZE = tuple(
    (size + RadioParams.fragment_overhead) * 8 / RadioParams.bitrate_bps
    for size in range(RadioParams.fragment_payload + 1)
)


def _size_refused(payload_bytes: int) -> ValueError:
    return ValueError(
        f"fragment payload {payload_bytes} is outside the radio's range "
        f"0..{RadioParams.fragment_payload}"
    )


class Modem:
    """One node's radio.  Half duplex; one fragment in flight at a time."""

    def __init__(self, sim: Simulator, channel, node_id: int) -> None:
        self.sim = sim
        self.channel = channel
        self.node_id = node_id
        self.transmitting = False
        self.sleeping = False  # duty-cycled MACs park the radio here
        self.receive_callback: Optional[Callable[[Any, int, int, Optional[int]], None]] = None
        self._tx_done_callback: Optional[Callable[[], None]] = None
        self.bytes_sent = 0
        self.fragments_sent = 0
        self.bytes_received = 0
        self.fragments_received = 0
        # Seconds on air sending and receiving intact fragments: the
        # radio time the energy model prices (repro.energy.radio_energy).
        self.airtime_sent = 0.0
        self.airtime_received = 0.0
        channel.attach(self)

    # -- transmit -------------------------------------------------------------

    def transmit_fragment(
        self,
        payload: Any,
        payload_bytes: int,
        link_dst: Optional[int] = BROADCAST_ADDRESS,
        on_done: Optional[Callable[[], None]] = None,
    ) -> float:
        """Put one fragment on the air; returns its airtime in seconds.

        Raises RuntimeError if already transmitting — the MAC must
        serialize its own fragments.
        """
        if self.transmitting:
            raise RuntimeError(f"modem {self.node_id} is already transmitting")
        if self.sleeping:
            raise RuntimeError(f"modem {self.node_id} is asleep")
        if payload_bytes < 0:
            raise _size_refused(payload_bytes)
        try:
            airtime = AIRTIME_BY_SIZE[payload_bytes]
        except IndexError:
            raise _size_refused(payload_bytes) from None
        self.transmitting = True
        self._tx_done_callback = on_done
        self.bytes_sent += payload_bytes + RadioParams.fragment_overhead
        self.fragments_sent += 1
        self.airtime_sent += airtime
        # The channel ends the airtime in its "channel.rx" event, after
        # the verdict of the fragment's last reception (or in a
        # "modem.txdone" of its own when no one can hear it).
        self.channel.start_transmission(
            self.node_id, payload, payload_bytes, airtime, link_dst,
            self._transmit_done,
        )
        return airtime

    def _transmit_done(self) -> None:
        self.transmitting = False
        # Retire this node from the channel's active-transmitter
        # registry in step with the flag (carrier sense consults both).
        self.channel.transmission_ended(self.node_id)
        callback = self._tx_done_callback
        self._tx_done_callback = None
        if callback is not None:
            callback()

    # -- receive ----------------------------------------------------------------

    def deliver(self, payload: Any, src: int, nbytes: int, link_dst: Optional[int]) -> None:
        """Called by the channel when a fragment arrives intact."""
        self.fragments_received += 1
        self.bytes_received += nbytes
        self.airtime_received += AIRTIME_BY_SIZE[nbytes]
        # Link-layer address filter: accept broadcast or our own address.
        if link_dst is not None and link_dst != self.node_id:
            return
        if self.receive_callback is not None:
            self.receive_callback(payload, src, nbytes, link_dst)
