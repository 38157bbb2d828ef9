"""Sensor-network applications built on the public diffusion API.

These are the workloads of the paper's evaluation: the Figure 8
surveillance application (sources reporting synchronized detections, a
sink counting distinct events) and the Figure 9 light/audio nested-query
application.
"""

from repro.apps.sensors import (
    AUDIO_TYPE,
    LIGHT_TYPE,
    SURVEILLANCE_TYPE,
    AudioEmitter,
    DetectionSource,
    LightSensor,
    SynchronizedEventClock,
)
from repro.apps.surveillance import SurveillanceExperiment, SurveillanceSink
from repro.apps.nestedquery import (
    AudioNodeApp,
    NestedQueryExperiment,
    UserApp,
)
from repro.apps.monitoring import (
    ENERGY_SCAN_TYPE,
    EnergyDigest,
    EnergyReporter,
    EnergyScanAggregator,
    EnergyScanSink,
)
from repro.apps.fusion import (
    DETECTION_TYPE,
    FusionFilter,
    MovingTarget,
    ProximitySensor,
    TrackingSink,
)
from repro.apps.rateadapt import AdaptiveSink, RateAdaptingSource
from repro.apps.timesync import SyncCoordinator, SyncParticipant, TimeBeacon

__all__ = [
    "AUDIO_TYPE",
    "LIGHT_TYPE",
    "SURVEILLANCE_TYPE",
    "AudioEmitter",
    "DetectionSource",
    "LightSensor",
    "SynchronizedEventClock",
    "SurveillanceExperiment",
    "SurveillanceSink",
    "AudioNodeApp",
    "NestedQueryExperiment",
    "UserApp",
    "ENERGY_SCAN_TYPE",
    "EnergyDigest",
    "EnergyReporter",
    "EnergyScanAggregator",
    "EnergyScanSink",
    "DETECTION_TYPE",
    "FusionFilter",
    "MovingTarget",
    "ProximitySensor",
    "TrackingSink",
    "AdaptiveSink",
    "RateAdaptingSource",
    "SyncCoordinator",
    "SyncParticipant",
    "TimeBeacon",
]
