// `ShardedLatencyRecorder` is the name the end-to-end benchmark's traced
// stepper (e2ebench/src/traced.h) uses for the per-worker latency recorder.
// LatencyRecorder takes the worker count itself, so the name is only an
// alias: it lets that harness build unchanged, keeping its numbers
// comparable across commits. Delete it together with the stepper (ROADMAP
// item 4(c)).
#pragma once

#include "metrics/latency_recorder.h"

namespace cameo {

using ShardedLatencyRecorder = LatencyRecorder;

}  // namespace cameo
