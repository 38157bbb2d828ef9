"""Sensor-network applications built on the public diffusion API.

These are the workloads of the paper's evaluation: the Figure 8
surveillance application (sources reporting synchronized detections, a
sink counting distinct events) and the Figure 9 light/audio nested-query
application, plus Section 5.3's sensor fusion as a filter (the
``tracking`` preset) and Section 7's reference-broadcast time sync (the
``timesync`` preset).
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
from repro.apps.fusion import (
    DETECTION_TYPE,
    FusionFilter,
    MovingTarget,
    ProximitySensor,
    TrackingSink,
)
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
    "DETECTION_TYPE",
    "FusionFilter",
    "MovingTarget",
    "ProximitySensor",
    "TrackingSink",
    "SyncCoordinator",
    "SyncParticipant",
    "TimeBeacon",
]
