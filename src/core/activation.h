// The per-message execution step both backends share: one operator
// invocation and Cameo's per-hop context exchange around it (paper §5.3,
// Fig. 5(a)).
//
// For each message of a claimed activation the step
//   1. invokes the operator, collecting what it emits;
//   2. records the invocation's cost (profiler, then the policy's OnInvoked);
//   3. routes every emitted batch, building each delivery's Priority Context
//      at the sender (BuildCxtAtOperator) and stamping its message id;
//   4. acknowledges the upstream sender with a Reply Context (PrepareReply);
//   5. at a sink, records the output's latency and tuples in the
//      LatencyRecorder, under the executing worker's index;
//   6. recycles the message's columns.
//
// The backends differ only in where results go, supplied as two StepHooks:
// a built message (the simulator schedules a network-delay event or ships a
// wire frame to another shard; the wall-clock runtime enqueues it) and a
// reply (an event or a frame; a direct ProcessCtxFromReply). The clock is
// data (StepClock): virtual time charges a cost sampled up front, the wall
// clock measures the invocation.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "core/context_converter.h"
#include "core/policies.h"
#include "core/profiler.h"
#include "dataflow/graph.h"
#include "metrics/latency_recorder.h"

namespace cameo {

/// Buffers the batches one invocation emits so the step can route them
/// after the invocation returns. Reused step to step (the vector keeps its
/// capacity, so the hot path does not allocate).
class CollectingEmitter final : public Emitter {
 public:
  struct Out {
    int port;
    EventBatch batch;
    SimTime event_time;
  };

  void Emit(int port, EventBatch batch, SimTime event_time) override {
    outs_.push_back({port, std::move(batch), event_time});
  }

  std::vector<Out>& outs() { return outs_; }

 private:
  std::vector<Out> outs_;
};

/// Where one step's results go: the two points at which the backends
/// differ.
class StepHooks {
 public:
  /// A routed message, its context and id already built.
  virtual void Send(Message m) = 0;
  /// The Reply Context `from` acknowledges its upstream `sender` with.
  virtual void Reply(OperatorId sender, OperatorId from,
                     const ReplyContext& rc) = 0;

 protected:
  ~StepHooks() = default;
};

/// The claimed operator of one activation and the tables its steps use.
struct Activation {
  DataflowGraph& graph;
  CostProfiler& profiler;
  SchedulingPolicy& policy;     // the operator's policy (its shard's)
  ContextConverter& converter;  // the operator's converter
  Operator& op;
  std::atomic<std::int64_t>& next_message_id;
  CollectingEmitter& emitter;
  Rng& rng;
  StepHooks& hooks;
  LatencyRecorder& latency;
  int worker;  // the executing worker's recorder index (0 in the simulator)
};

/// When one invocation runs and what it costs.
struct StepClock {
  /// The worker took the message: its Reply Context's queueing delay ends
  /// here.
  SimTime dispatched = 0;
  /// InvokeContext::now.
  SimTime start = 0;
  /// Cost charged before `start`: the sampled cost of a virtual-time busy
  /// period, which the virtual clock does not advance through.
  Duration charged = 0;
  /// Wall clock only: the runtime's epoch. The step then reads the steady
  /// clock after the invocation and charges the time elapsed since `start`
  /// as well; null in virtual time, where the invocation ends at `start`.
  const std::chrono::steady_clock::time_point* wall_epoch = nullptr;
};

/// Runs `m` (addressed to `a.op`) through the step above.
void ExecuteStep(const Activation& a, Message& m, const StepClock& clock);

}  // namespace cameo
