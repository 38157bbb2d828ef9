"""The Figure 9 nested-query application (paper Section 5.2 / 6.2).

A user wants acoustic data correlated with light changes.

*Nested* mode (Figure 6b): the user queries only the audio sensor; the
audio node, on seeing that query, sub-tasks the light sensors itself.
Light traffic travels one hop (lights → audio); audio data travels two
hops (audio → user): three best-effort hops end to end.

*Flat* (one-level) mode (Figure 6a): the user queries the light sensors
directly; "when something is detected he requests the status of the
triggered sensor".  Light reports travel three hops to the user, the
request travels back to the audio node, and the audio data returns to
the user — every leg best-effort, and all light traffic crosses the
congested middle of the network.

Success for a light change is audio data for that (light, epoch)
delivered to the user.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.apps.sensors import (
    AUDIO_TYPE,
    LIGHT_TYPE,
    TOGGLE_INTERVAL,
    AudioEmitter,
    LightSensor,
)
from repro.core.api import DiffusionRouting
from repro.naming import AttributeVector
from repro.naming.keys import ClassValue, Key
from repro.testbed.network import SensorNetwork

AUDIO_REQUEST_TYPE = "audio-request"
#: "Light sensors report their state every 2s" (Section 6.2).
REPORT_INTERVAL = 2.0

ChangeId = Tuple[str, int]  # (light instance, state epoch)


class AudioNodeApp:
    """The triggered sensor.

    In nested mode it watches for audio interests that request light
    triggering, sub-tasks the light sensors itself, and emits audio on
    each observed change.  In flat mode it answers explicit requests
    from the user.
    """

    def __init__(
        self,
        api: DiffusionRouting,
        nested: bool,
        light_ids: Sequence[int],
    ) -> None:
        self.api = api
        self.nested = nested
        self.light_ids = list(light_ids)
        self.emitter = AudioEmitter(api)
        self.changes_detected: List[ChangeId] = []
        self.requests_served: Set[ChangeId] = set()
        self._last_epoch: Dict[str, int] = {}
        self._sub_tasked = False
        if nested:
            # Watch for audio interests; sub-task lights when one arrives.
            watch = (
                AttributeVector.builder()
                .eq(Key.CLASS, int(ClassValue.INTEREST))
                .actual(Key.TYPE, AUDIO_TYPE)
                .build()
            )
            api.subscribe(watch, self._on_audio_interest)
        else:
            # Flat mode: serve explicit audio requests from the user.
            request_sub = (
                AttributeVector.builder().eq(Key.TYPE, AUDIO_REQUEST_TYPE).build()
            )
            api.subscribe(request_sub, self._on_audio_request)

    # -- nested mode ----------------------------------------------------------

    def _on_audio_interest(self, attrs: AttributeVector, message) -> None:
        if self._sub_tasked:
            return
        trigger = attrs.value_of(Key.TRIGGER_TYPE)
        if trigger != LIGHT_TYPE:
            return
        self._sub_tasked = True
        light_sub = (
            AttributeVector.builder()
            .eq(Key.TYPE, LIGHT_TYPE)
            .actual(Key.INTERVAL, 2000)
            .build()
        )
        self.api.subscribe(light_sub, self._on_light_report)

    def _on_light_report(self, attrs: AttributeVector, message) -> None:
        instance = attrs.value_of(Key.INSTANCE)
        epoch = attrs.value_of(Key.TIMESTAMP)
        if instance is None or epoch is None:
            return
        epoch = int(epoch)
        last = self._last_epoch.get(instance)
        self._last_epoch[instance] = epoch
        if last is not None and epoch != last:
            self.changes_detected.append((instance, epoch))
            self.emitter.emit(instance, epoch)

    # -- flat mode ---------------------------------------------------------------

    def _on_audio_request(self, attrs: AttributeVector, message) -> None:
        instance = attrs.value_of(Key.INSTANCE)
        epoch = attrs.value_of(Key.TIMESTAMP)
        if instance is None or epoch is None:
            return
        change: ChangeId = (instance, int(epoch))
        if change in self.requests_served:
            return
        self.requests_served.add(change)
        self.changes_detected.append(change)
        self.emitter.emit(instance, int(epoch))


class UserApp:
    """The distant user; counts successfully correlated audio events."""

    def __init__(self, api: DiffusionRouting, nested: bool) -> None:
        self.api = api
        self.nested = nested
        self.audio_received: Set[ChangeId] = set()
        #: change id -> arrival time of its audio data (first copy)
        self.audio_arrival_times: Dict[ChangeId, float] = {}
        self.light_changes_observed: Set[ChangeId] = set()
        self.requests_sent = 0
        self._last_epoch: Dict[str, int] = {}
        audio_sub = AttributeVector.builder().eq(Key.TYPE, AUDIO_TYPE)
        if nested:
            # The nested marker tells the audio node to sub-task lights.
            audio_sub = audio_sub.actual(Key.TRIGGER_TYPE, LIGHT_TYPE)
        api.subscribe(audio_sub.build(), self._on_audio)
        if not nested:
            light_sub = (
                AttributeVector.builder()
                .eq(Key.TYPE, LIGHT_TYPE)
                .actual(Key.INTERVAL, 2000)
                .build()
            )
            api.subscribe(light_sub, self._on_light_report)
            self._request_pub = api.publish(
                AttributeVector.builder().actual(Key.TYPE, AUDIO_REQUEST_TYPE).build()
            )

    def _on_audio(self, attrs: AttributeVector, message) -> None:
        instance = attrs.value_of(Key.INSTANCE)
        epoch = attrs.value_of(Key.TIMESTAMP)
        if instance is None or epoch is None:
            return
        change = (instance, int(epoch))
        if change not in self.audio_received:
            self.audio_arrival_times[change] = self.api.node.sim.now
        self.audio_received.add(change)

    def _on_light_report(self, attrs: AttributeVector, message) -> None:
        instance = attrs.value_of(Key.INSTANCE)
        epoch = attrs.value_of(Key.TIMESTAMP)
        if instance is None or epoch is None:
            return
        epoch = int(epoch)
        last = self._last_epoch.get(instance)
        self._last_epoch[instance] = epoch
        if last is not None and epoch != last:
            change = (instance, epoch)
            if change not in self.light_changes_observed:
                self.light_changes_observed.add(change)
                self._request_audio(instance, epoch)

    def _request_audio(self, instance: str, epoch: int) -> None:
        """Flat mode: interrogate the triggered sensor about a change."""
        attrs = (
            AttributeVector.builder()
            .actual(Key.INSTANCE, instance)
            .actual(Key.TIMESTAMP, epoch)
            .build()
        )
        self.requests_sent += 1
        self.api.send(self._request_pub, attrs, padding_bytes=0)

    def successes(self) -> Set[ChangeId]:
        """Changes for which the user got usable audio data."""
        return set(self.audio_received)


@dataclass
class NestedQueryResult:
    """One trial in Figure 9's units."""

    nested: bool
    num_lights: int
    duration: float
    possible_events: int
    successful_events: int
    diffusion_bytes_sent: int
    mean_latency: Optional[float] = None

    @property
    def delivery_percentage(self) -> float:
        """Figure 9's y-axis: % of light change events that result in
        audio data delivered to the user."""
        if self.possible_events == 0:
            return 0.0
        return 100.0 * self.successful_events / self.possible_events


class NestedQueryExperiment:
    """Wires user, audio node, and light sensors on a network."""

    def __init__(
        self,
        network: SensorNetwork,
        user_id: int,
        audio_id: int,
        light_ids: Sequence[int],
        nested: bool,
    ) -> None:
        self.network = network
        self.nested = nested
        self.light_ids = list(light_ids)
        self.user = UserApp(network.api(user_id), nested=nested)
        self.audio = AudioNodeApp(
            network.api(audio_id),
            nested=nested,
            light_ids=self.light_ids,
        )
        self.lights = [
            LightSensor(
                network.api(light_id),
                report_interval=REPORT_INTERVAL,
                phase=network.seeds.stream(f"light-phase:{light_id}").uniform(
                    0.0, REPORT_INTERVAL
                ),
            )
            for light_id in self.light_ids
        ]

    def possible_events(self, duration: float) -> int:
        """Number of state changes across all lights in the run.

        Changes happen at epoch boundaries; a receiver can only detect a
        change after seeing a report from the previous epoch, so epochs
        1..floor(duration/toggle) count, per light.
        """
        transitions = max(0, int(duration // TOGGLE_INTERVAL))
        return transitions * len(self.light_ids)

    def mean_latency(self) -> Optional[float]:
        """Mean delay from a light change (epoch boundary) to its audio
        data arriving at the user — the quantity behind the paper's
        "reduction in latency can be substantial" claim (§5.2)."""
        delays = [
            arrival - epoch * TOGGLE_INTERVAL
            for (instance, epoch), arrival in self.user.audio_arrival_times.items()
        ]
        if not delays:
            return None
        return sum(delays) / len(delays)

    def run(self, duration: float) -> NestedQueryResult:
        self.network.run(until=duration)
        return self.result(duration)

    def result(self, duration: float) -> NestedQueryResult:
        """What a run of ``duration`` seconds has measured so far."""
        return NestedQueryResult(
            nested=self.nested,
            num_lights=len(self.light_ids),
            duration=duration,
            possible_events=self.possible_events(duration),
            successful_events=len(self.user.successes()),
            diffusion_bytes_sent=self.network.total_diffusion_bytes_sent(),
            mean_latency=self.mean_latency(),
        )
