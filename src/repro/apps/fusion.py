"""Collaborative signal processing: sensor fusion and target tracking.

Paper Section 5.3: "Researchers at BAE Systems and Pennsylvania State
University have used our system for collaborative signal processing ...
The combined system used our system to communicate data between sensors
using named data and diffusion.  At the time our filter architecture
was not in place; interesting future work is to evaluate how sensor
fusion would be done as a filter."

This module is that future work: a field of proximity sensors detects a
moving target; a :class:`FusionFilter` combines concurrent detections
in-network — fused confidence ``1 - prod(1 - c_i)`` under the usual
independence assumption, position estimated as the confidence-weighted
centroid of the reporting sensors — and forwards one fused detection
per observation epoch.  A :class:`TrackingSink` assembles the track and
scores it against ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.core.api import DiffusionRouting
from repro.core.filter_api import FilterHandle, GRADIENT_FILTER_PRIORITY
from repro.core.messages import Message, MessageType
from repro.core.node import DiffusionNode
from repro.naming import AttributeVector
from repro.naming.keys import Key
from repro.radio.topology import Topology

DETECTION_TYPE = "target-detection"
#: the detector's distance fall-off (m) and its confidence at zero range.
CONFIDENCE_SCALE = 10.0
MAX_CONFIDENCE = 0.95
#: seconds between detector samples: one observation epoch.
SAMPLE_INTERVAL = 2.0
#: fusion sees each detection before the gradient filter routes it.
FUSION_PRIORITY = GRADIENT_FILTER_PRIORITY + 20


class MovingTarget:
    """Ground truth: a target crossing the field on a straight path."""

    def __init__(
        self,
        start: Tuple[float, float],
        end: Tuple[float, float],
        speed: float,
        depart_at: float = 0.0,
    ) -> None:
        if speed <= 0:
            raise ValueError("speed must be positive")
        self.start = start
        self.end = end
        self.speed = speed
        self.depart_at = depart_at
        self._length = math.hypot(end[0] - start[0], end[1] - start[1])

    @property
    def arrival_time(self) -> float:
        return self.depart_at + self._length / self.speed

    def position_at(self, now: float) -> Tuple[float, float]:
        if now <= self.depart_at:
            return self.start
        progress = min(1.0, (now - self.depart_at) * self.speed / self._length)
        return (
            self.start[0] + progress * (self.end[0] - self.start[0]),
            self.start[1] + progress * (self.end[1] - self.start[1]),
        )


class ProximitySensor:
    """One node's detector: senses the target when it is close.

    Detection confidence falls off with distance:
    ``c = MAX_CONFIDENCE / (1 + (d / CONFIDENCE_SCALE)^2)``, cut off at
    ``sense_range`` — a standard acoustic-amplitude model.  Reports are
    tagged with the observation epoch so fusion can group them.
    """

    def __init__(
        self,
        api: DiffusionRouting,
        target: MovingTarget,
        topology: Topology,
        sense_range: float = 25.0,
    ) -> None:
        self.api = api
        self.target = target
        self.topology = topology
        self.sense_range = sense_range
        self.detections = 0
        position = topology.position(api.node_id)
        self._x, self._y = position.x, position.y
        self._publication = api.publish(
            AttributeVector.builder()
            .actual(Key.TYPE, DETECTION_TYPE)
            .actual(Key.X_COORD, self._x)
            .actual(Key.Y_COORD, self._y)
            .build()
        )
        self._timer = api.node.sim.schedule(
            (api.node_id % 10) * 0.01, self._sample, name="sensor.sample"
        )

    def epoch_at(self, now: float) -> int:
        return int(now // SAMPLE_INTERVAL)

    def confidence_for(self, distance: float) -> float:
        if distance > self.sense_range:
            return 0.0
        return MAX_CONFIDENCE / (1.0 + (distance / CONFIDENCE_SCALE) ** 2)

    def _sample(self) -> None:
        sim = self.api.node.sim
        tx, ty = self.target.position_at(sim.now)
        distance = math.hypot(tx - self._x, ty - self._y)
        confidence = self.confidence_for(distance)
        if confidence > 0.05:
            self.detections += 1
            attrs = (
                AttributeVector.builder()
                .actual(Key.CONFIDENCE, confidence)
                .actual(Key.INTENSITY, 1.0 / (1.0 + distance))
                .actual(Key.TIMESTAMP, self.epoch_at(sim.now))
                .actual(Key.SEQUENCE, self.detections)
                .build()
            )
            self.api.send(self._publication, attrs)
        self._timer = sim.schedule(
            SAMPLE_INTERVAL, self._sample, name="sensor.sample"
        )

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()


class FusionFilter:
    """Combines detections of the same epoch into one fused report."""

    def __init__(self, node: DiffusionNode, delay: float = 0.8) -> None:
        self.node = node
        self.delay = delay
        self.fusions = 0
        self.reports_fused = 0
        # epoch -> [first message, [(x, y, confidence)], timer]
        self._pending: Dict[int, list] = {}
        self._done: set = set()
        match = AttributeVector.builder().eq(Key.TYPE, DETECTION_TYPE).build()
        self.handle = node.add_filter(match, FUSION_PRIORITY, self._callback,
                                      name="fusion")

    @staticmethod
    def fuse_confidences(confidences: List[float]) -> float:
        """Independent-evidence fusion: 1 - prod(1 - c_i)."""
        miss = 1.0
        for c in confidences:
            miss *= 1.0 - min(1.0, max(0.0, c))
        return 1.0 - miss

    @staticmethod
    def weighted_centroid(
        observations: List[Tuple[float, float, float]]
    ) -> Tuple[float, float]:
        total = sum(weight for _, _, weight in observations)
        if total <= 0:
            xs = [x for x, _, _ in observations]
            ys = [y for _, y, _ in observations]
            return (sum(xs) / len(xs), sum(ys) / len(ys))
        x = sum(x * w for x, _, w in observations) / total
        y = sum(y * w for _, y, w in observations) / total
        return (x, y)

    def _callback(self, message: Message, handle: FilterHandle) -> None:
        if not message.msg_type.is_data:
            self.node.send_message(message, handle)
            return
        attrs = message.attrs
        epoch = attrs.value_of(Key.TIMESTAMP)
        confidence = attrs.value_of(Key.CONFIDENCE)
        x = attrs.value_of(Key.X_COORD)
        y = attrs.value_of(Key.Y_COORD)
        if None in (epoch, confidence, x, y):
            self.node.send_message(message, handle)
            return
        exploratory = message.msg_type is MessageType.EXPLORATORY_DATA
        epoch = int(epoch)
        observation = (float(x), float(y), float(confidence))
        if epoch in self._done:
            self.reports_fused += 1
            if exploratory:
                # Exploratory messages must keep flowing even after the
                # fused report went out: they are what establishes and
                # repairs each source's reinforced path.
                self.node.send_message(message, handle)
            return
        pending = self._pending.get(epoch)
        if pending is None:
            timer = self.node.sim.schedule(
                self.delay, self._flush, epoch, name="fusion.flush"
            )
            self._pending[epoch] = [message, [observation], timer]
        else:
            pending[1].append(observation)
            self.reports_fused += 1
        if exploratory:
            self.node.send_message(message, handle)

    def _flush(self, epoch: int) -> None:
        pending = self._pending.pop(epoch, None)
        if pending is None:
            return
        message, observations, _ = pending
        self._done.add(epoch)
        if len(self._done) > 512:
            self._done = set(sorted(self._done)[-256:])
        fused_confidence = self.fuse_confidences(
            [c for _, _, c in observations]
        )
        estimate_x, estimate_y = self.weighted_centroid(observations)
        fused_attrs = (
            message.attrs.replace_actual(Key.CONFIDENCE, fused_confidence)
            .replace_actual(Key.X_COORD, estimate_x)
            .replace_actual(Key.Y_COORD, estimate_y)
        )
        self.fusions += 1
        self.node.send_message(replace(message, attrs=fused_attrs), self.handle)

    def remove(self) -> None:
        for pending in self._pending.values():
            pending[2].cancel()
        self._pending.clear()
        self.node.remove_filter(self.handle)


@dataclass
class TrackPoint:
    """One fused observation at the sink."""

    time: float
    epoch: int
    x: float
    y: float
    confidence: float


class TrackingSink:
    """Collects fused detections and scores the track."""

    def __init__(
        self,
        api: DiffusionRouting,
        target: MovingTarget,
        min_confidence: float = 0.0,
    ) -> None:
        self.api = api
        self.target = target
        self.min_confidence = min_confidence
        self.track: List[TrackPoint] = []
        self._epochs_seen: Dict[int, TrackPoint] = {}
        sub = (
            AttributeVector.builder()
            .eq(Key.TYPE, DETECTION_TYPE)
            .actual(Key.INTERVAL, int(SAMPLE_INTERVAL * 1000))
            .build()
        )
        api.subscribe(sub, self._on_detection)

    def _on_detection(self, attrs: AttributeVector, message) -> None:
        epoch = attrs.value_of(Key.TIMESTAMP)
        confidence = attrs.value_of(Key.CONFIDENCE)
        x = attrs.value_of(Key.X_COORD)
        y = attrs.value_of(Key.Y_COORD)
        if None in (epoch, confidence, x, y):
            return
        if confidence < self.min_confidence:
            return
        epoch = int(epoch)
        point = TrackPoint(
            time=self.api.node.sim.now,
            epoch=epoch,
            x=float(x),
            y=float(y),
            confidence=float(confidence),
        )
        existing = self._epochs_seen.get(epoch)
        if existing is None:
            self._epochs_seen[epoch] = point
            self.track.append(point)
        elif point.confidence > existing.confidence:
            # A fused estimate supersedes a raw single-sensor report.
            self.track[self.track.index(existing)] = point
            self._epochs_seen[epoch] = point

    def mean_error(self) -> Optional[float]:
        """Mean distance between estimates and ground truth positions."""
        if not self.track:
            return None
        errors = []
        for point in self.track:
            # Ground truth at the middle of the observation epoch.
            truth_time = (point.epoch + 0.5) * SAMPLE_INTERVAL
            tx, ty = self.target.position_at(truth_time)
            errors.append(math.hypot(point.x - tx, point.y - ty))
        return sum(errors) / len(errors)
