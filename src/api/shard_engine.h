// Former name of the multi-shard engine, kept because the end-to-end
// benchmark (e2ebench/) includes it: a SimEngine runs any number of shards
// (EngineOptions::shards).
#pragma once

#include "api/sim_engine.h"

namespace cameo {

using ShardEngine = SimEngine;

}  // namespace cameo
