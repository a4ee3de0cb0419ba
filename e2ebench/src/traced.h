// Traced single-threaded stepper: pushes a slice of a workload's generated
// inputs through the modules' public entry points in the order the runtimes
// call them (ingest -> context conversion -> scheduler -> operator ->
// routing -> policy/profiler -> reply contexts -> latency recorder; plus wire
// codec, session layer and event queue for cross-shard edges), wrapping each
// call in a span. Spans stay in memory and are exported once, at the end, as
// Chrome trace-event JSON. The same stepper with spans off is the
// single-threaded baseline.
#pragma once

#include <cstdint>
#include <memory>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "bench.h"
#include "core/context_converter.h"
#include "core/policies.h"
#include "core/profiler.h"
#include "metrics/sharded_latency.h"
#include "sched/scheduler.h"
#include "shard/fault_transport.h"
#include "shard/inproc_transport.h"
#include "shard/placement.h"
#include "shard/session.h"
#include "sim/event_queue.h"
#include "workload/keyed.h"

namespace e2e {

struct Span {
  const char* name;
  SimTime start;
  SimTime end;
  std::int32_t parent;  // index into the span vector, -1 for roots
  std::int64_t msg;     // message id the span works on (-1: none)
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {
    if (on_) spans_.reserve(1 << 22);
  }

  int Begin(const char* name, std::int64_t msg) {
    if (!on_) return -1;
    const int idx = static_cast<int>(spans_.size());
    spans_.push_back({name, NowNs(), 0, stack_.empty() ? -1 : stack_.back(),
                      msg});
    stack_.push_back(idx);
    return idx;
  }
  void End(int idx) {
    if (idx < 0) return;
    spans_[static_cast<std::size_t>(idx)].end = NowNs();
    stack_.pop_back();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const char* name, std::int64_t msg = -1)
      : t_(t), idx_(t.Begin(name, msg)) {}
  ~ScopedSpan() { t_.End(idx_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& t_;
  int idx_;
};

/// Per-run counts the stepper takes at the module boundaries.
struct StepCounts {
  std::int64_t ingested_rows = 0;
  std::int64_t dispatched = 0;
  std::int64_t route_calls = 0;
  std::int64_t deliveries = 0;
  std::int64_t window_agg_rows = 0;
  std::int64_t keyed_counter_rows = 0;
  std::int64_t zipf_samples = 0;
  std::int64_t frames_encoded = 0;
  std::int64_t frames_decoded = 0;
  std::int64_t frame_bytes = 0;
  std::int64_t event_queue_ops = 0;
  std::vector<double> wait_ns;  // scheduler wait per dispatched message
};

/// Runs Cameo/LLF seeded with kEngineSeed. With `shards` > 1 operators are
/// placed on shards, and deliveries to another shard go through the wire
/// codec, the session layer over a fault-injecting in-process transport
/// (1 ms links), and the event queue.
class Stepper {
 public:
  Stepper(cameo::DataflowGraph graph, Tracer& tracer, int shards = 1,
          cameo::shard::FaultPlan faults = {});
  ~Stepper();

  /// One external message at `source` stamped with virtual time `now`;
  /// first runs every cross-shard event due by `now`, then runs the system
  /// to quiescence.
  void Ingest(cameo::OperatorId source, cameo::EventBatch batch, SimTime now);

  /// Samples `rows` keys with `sampler` into a fresh batch (timed as the
  /// workload layer) and ingests it.
  void IngestSampled(cameo::OperatorId source, cameo::KeySampler& sampler,
                     cameo::Rng& rng, std::int64_t rows, LogicalTime p,
                     SimTime now);

  /// Runs cross-shard events and session timers up to `until`.
  void AdvanceTo(SimTime until);

  cameo::DataflowGraph& graph() { return graph_; }
  StepCounts& counts() { return counts_; }
  const cameo::shard::TransportStats session_stats() const;

 private:
  void RunToQuiescence(SimTime now);
  bool Activation(int shard, SimTime now);
  void Deliver(cameo::Message m, int from_shard, SimTime now);
  void Poll(int shard);
  void ServiceTick();
  const char* InvokeSpanName(const cameo::Operator& op) const;
  int ShardOf(cameo::OperatorId op) const;

  cameo::DataflowGraph graph_;
  int shards_;
  Tracer& tracer_;
  std::unique_ptr<cameo::SchedulingPolicy> policy_;
  std::vector<std::unique_ptr<cameo::Scheduler>> scheds_;  // one per shard
  std::vector<std::unique_ptr<cameo::ContextConverter>> converters_;
  std::vector<int> shard_of_;  // by operator id
  cameo::CostProfiler profiler_;
  cameo::ShardedLatencyRecorder latency_;
  cameo::shard::ShardPlacement placement_;
  std::unique_ptr<cameo::shard::InprocTransport> link_;
  std::unique_ptr<cameo::shard::FaultInjectingTransport> faulty_;
  std::unique_ptr<cameo::shard::SessionLayer> session_;
  cameo::EventQueue events_;
  bool service_armed_ = false;
  SimTime last_activity_ = 0;
  std::int64_t next_id_ = 0;
  std::vector<SimTime> enqueued_at_;  // wall ns by message id
  cameo::Rng rng_;
  StepCounts counts_;
  std::vector<cameo::Message> batch_;
  std::vector<std::tuple<int, cameo::EventBatch, SimTime>> outs_;
};

/// Per-layer ledger derived from the spans: self time per span name and per
/// layer (the name's prefix before the first '.'), with `step.*` root time
/// not covered by any child reported as layer "other".
struct Ledger {
  std::map<std::string, double> self_ns_by_name;
  std::map<std::string, std::int64_t> calls_by_name;
  std::map<std::string, double> share_by_layer;  // includes "other"
  double root_ns = 0;
};
Ledger BuildLedger(const std::vector<Span>& spans);

/// Writes the spans as Chrome trace-event JSON (opens in Perfetto). At most
/// `max_spans` are written; returns false on I/O failure.
bool WriteChromeTrace(const std::vector<Span>& spans, const std::string& path,
                      std::size_t max_spans);

/// Adds every per-layer metric derived from a traced pass plus its no-span
/// twin to `r`. `real` carries the counts only the real (multi-threaded or
/// simulated) run can give; zero where a layer does not exist.
struct RealRunLayerStats {
  double ingest_p50_ns = 0;
  double ingest_p99_ns = 0;
  double ingest_rejected = 0;
  double swaps_per_dispatch = 0;
  double backlog_max = 0;
  double slate_rehashes = 0;
  double overflow_fold_ratio = 0;
  double keys_live = 0;
  double frames_sent = 0;
  double retransmit_ratio = 0;
  double dup_drops = 0;
  double gen_lag_p99_ms = 0;
  double ls_samples = 0;
  double p50_ms = 0;       // latency-sensitive outputs
  double p99_ms = 0;
  double bulk_p99_ms = 0;  // bulk tenants (all outputs when there are none)
};
void AddLayerMetrics(Result& r, const Ledger& ledger, const StepCounts& traced,
                     double plain_wall_s, double traced_wall_s, double plain_events,
                     double allocs_per_msg, const RealRunLayerStats& real);

}  // namespace e2e
