"""The O(N) per-link channel scan: the oracle the fast path is held to.

:class:`ReferenceChannel` finds receivers and carrier the way the
original channel did — probe every attached modem per fragment and per
carrier-sense query, one finalization event per reception and one more
for the sender's end of airtime — and needs
nothing from the propagation model beyond ``link_prr``.  Every verdict
(half-duplex, collision, capture, loss draw) is inherited from
:class:`~repro.radio.channel.Channel`: each reception event runs the
fast path's one verdict loop over a single lane, so the two can differ
only in *which* links they examine, which is exactly what
tests/test_channel_equivalence.py compares.  That suite is its one
caller: every propagation model answers the whole contract, so every
run builds :class:`~repro.radio.channel.Channel`.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.radio.channel import Channel, Transmission


class ReferenceChannel(Channel):
    """A :class:`Channel` without the neighborhood index."""

    def set_propagation(self, propagation) -> None:
        self.propagation = propagation

    def _member_added(self, node_id: int) -> None:
        pass

    def _member_removed(self, node_id: int) -> None:
        pass

    def carrier_busy(self, node_id: int) -> bool:
        self.carrier_queries += 1
        now = self.sim.now
        link_prr = self.propagation.link_prr
        for modem in self._modems.values():
            if modem.node_id == node_id:
                continue
            self.carrier_checks += 1
            if not modem.transmitting:
                continue
            if link_prr(modem.node_id, node_id, now) >= self.CARRIER_SENSE_THRESHOLD:
                return True
        for src, tx in list(self._remote_active.items()):
            if tx.end <= now:
                del self._remote_active[src]
                continue
            self.carrier_checks += 1
            if link_prr(src, node_id, now) >= self.CARRIER_SENSE_THRESHOLD:
                return True
        return False

    def _deliver_to(
        self,
        tx: Transmission,
        duration: float,
        on_end: Optional[Callable[[], None]] = None,
    ) -> None:
        now = self.sim.now
        src = tx.src
        link_prr = self.propagation.link_prr
        for node_id, modem in self._modems.items():
            if node_id == src:
                continue
            prr = link_prr(src, node_id, now)
            if prr <= 0.0:
                continue
            reception = self._admit_reception(
                tx, modem, self._receiving[node_id], prr
            )
            self.sim.schedule(
                duration, self._finish_reception, node_id, reception,
                name="channel.rx",
            )
        if on_end is not None:
            # The sender's end of airtime, after its receptions.
            self.sim.schedule(duration, on_end, name="modem.txdone")

    def _finish_reception(self, node_id: int, reception: list) -> None:
        prr, reason, tx = reception
        if reason == "detached":
            return
        self._finish_transmission((self._lane(tx.src, node_id, prr),), tx, None)
