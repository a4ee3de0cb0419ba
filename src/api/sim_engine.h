// Engine facade over sim::Cluster (virtual time, bit-reproducible).
//
// Submissions made before the first RunFor are *staged*: definitions compile
// into a staging graph immediately (so handles are usable right away), and
// the cluster is constructed lazily -- with every staged query already in
// its topology -- when the run starts. This reproduces, call for call, the
// classic "build graph, construct cluster, attach ingestion, run" sequence
// the scenario builders used to hand-wire, which is what keeps fixed-seed
// replay goldens bit-identical across the API redesign.
//
// Scripted churn: Submit(at, until, def) schedules the query to join at
// virtual time `at` and (when until > at) leave at `until`; the definition
// compiles at its arrival time via the shared QueryBuilder callback. The
// handle's job id resolves once the run has passed `at` (ScheduledJob).
//
// With EngineOptions::shards > 1 the cluster spreads operators across
// simulated machines (src/shard/). The shard read side -- placement,
// per-shard scheduler stats, policy counters, wire counters -- is reached
// through cluster(); transport_stats() is the one shortcut.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "api/engine.h"
#include "sim/cluster.h"
#include "sim/driver.h"

namespace cameo {

class SimEngine final : public Engine {
 public:
  explicit SimEngine(EngineOptions options);

  /// Immediate submission: compiles now; ingestion (if any) starts pumping
  /// at its spec's `start`. After the run has started, joins at `now()`.
  QueryHandle Submit(const QueryDef& def) override;

  /// Scripted churn: joins at `at`, departs at `until` (0 or <= at: never
  /// departs inside the run).
  QueryHandle Submit(SimTime at, SimTime until, const QueryDef& def);

  /// Retires the query now: ingestion stops, backlog is purged with
  /// accounting. Materializes first, so a staged query can be removed
  /// before the run starts.
  void Remove(const QueryHandle& q) override;

  /// Advances virtual time by `d` (materializes the cluster on first call).
  void RunFor(Duration d) override;

  /// Virtual time is quiescent whenever RunFor returns; nothing to wait for.
  void Drain() override {}

  SampleStats Latency(const QueryHandle& q) const override;
  double SuccessRate(const QueryHandle& q) const override;
  DataflowGraph& graph() override;
  SchedulerStats sched_stats() const override;
  std::string backend() const override { return "sim"; }

  /// Job id of a scripted submission once the run has passed its arrival.
  std::optional<JobId> ScheduledJob(const QueryHandle& q) const;

  /// Condenses the run so far into the per-job rows the figures report.
  RunResult Summarize(SimTime span);

  /// Constructs the cluster without running (pre-run hooks: timeline
  /// filters, At() scripts). Idempotent.
  void Materialize();
  bool materialized() const { return cluster_ != nullptr; }

  /// Backend escape hatch for sim-only instruments (timeline, utilization,
  /// purge accounting, At() scripting, shard placement and per-shard
  /// stats). Materializes if needed.
  Cluster& cluster();

  /// Cross-shard transport counters (zero traffic at shards == 1).
  shard::TransportStats transport_stats();

  SimTime now() const { return horizon_; }

 private:
  struct PendingAction {
    explicit PendingAction(QueryDef d) : def(std::move(d)) {}

    // Exactly one of the two shapes:
    //  - staged immediate query: `handles` valid, ingestion attached at
    //    materialization when the def has a spec;
    //  - scripted query: whole def replayed through ScheduleQuery.
    bool scripted = false;
    QueryDef def;
    JobHandles handles;      // immediate only
    SimTime at = 0;          // scripted only
    SimTime until = 0;       // scripted only
    int engine_ticket = -1;  // scripted only: index into cluster_tickets_
  };

  JobId ResolveJob(const QueryHandle& q) const;

  DataflowGraph staging_;  // topology of staged queries, pre-materialization
  std::vector<PendingAction> pending_;
  /// engine ticket -> cluster ScheduleQuery ticket (filled at
  /// materialization).
  std::vector<int> cluster_tickets_;
  std::unique_ptr<Cluster> cluster_;
  SimTime horizon_ = 0;
};

}  // namespace cameo
