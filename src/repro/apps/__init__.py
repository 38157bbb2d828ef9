"""Sensor-network applications built on the public diffusion API.

These are the workloads of the paper's evaluation: the Figure 8
surveillance application (sources reporting synchronized detections, a
sink counting distinct events) and the Figure 9 light/audio nested-query
application, plus Section 5.3's sensor fusion as a filter (the
``tracking`` preset) and Section 7's reference-broadcast time sync (the
``timesync`` preset).

The nested-query, fusion and time-sync names are resolved on first
access (PEP 562), so a run that uses none of them does not import
their modules.
"""

import importlib

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

#: each lazily resolved name -> the module that defines it.
_LAZY = {
    "AudioNodeApp": "repro.apps.nestedquery",
    "NestedQueryExperiment": "repro.apps.nestedquery",
    "UserApp": "repro.apps.nestedquery",
    "DETECTION_TYPE": "repro.apps.fusion",
    "FusionFilter": "repro.apps.fusion",
    "MovingTarget": "repro.apps.fusion",
    "ProximitySensor": "repro.apps.fusion",
    "TrackingSink": "repro.apps.fusion",
    "SyncCoordinator": "repro.apps.timesync",
    "SyncParticipant": "repro.apps.timesync",
    "TimeBeacon": "repro.apps.timesync",
}


def __getattr__(name):
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


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
