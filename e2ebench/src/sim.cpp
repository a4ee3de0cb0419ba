// sim_shards: the fig08 / fig_chaos keyed shape on the virtual-time
// simulator at 4 shards (500k Zipf users), with 1% drop + 1% duplicate
// transport faults and the session layer repairing them. Zipf sampling,
// the wire codec, the session layer, the transport and the event queue all
// run inside the program here, unlike on the wall-clock workloads.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>

#include "api/query_def.h"
#include "api/shard_engine.h"
#include "bench.h"
#include "ops/source.h"
#include "ops/window_agg.h"
#include "state/keyed_counter.h"
#include "traced.h"
#include "workload/keyed.h"

namespace e2e {
namespace {

using cameo::OperatorId;

constexpr int kShards = 4;
constexpr std::int64_t kUsers = 500'000;
constexpr double kZipfS = 0.9;
constexpr int kSources = 2 * kShards;
constexpr int kCounters = 4 * kShards;
constexpr int kMerges = 2;
constexpr int kSplits = 2;
/// Each source sends a message every kPeriod (+ seeded jitter below
/// kJitter) carrying kRowsPerMsg rows (+- seeded 10%).
constexpr Duration kPeriod = Millis(20);
constexpr Duration kJitter = Millis(2);
constexpr std::int64_t kRowsPerMsg = 800;
constexpr Duration kCounterPerRow = 400;
/// Just above the chaos runs' virtual p99 (81-95 ms across seeds; the
/// fault-free p99 is about 27 ms), so met_rate moves with any change to
/// scheduling or repair latency. All operators belong to one job, so the
/// constraint shifts every LLF deadline alike and leaves the order unchanged.
constexpr Duration kConstraint = Millis(90);
constexpr Duration kEventDelay = Millis(50);
constexpr LogicalTime kWindow = Millis(5);
/// Ingestion runs for kIngest; the horizon leaves kGrace for retransmit
/// chains to converge (the conservation check depends on it).
constexpr Duration kIngest = Seconds(6);
constexpr Duration kGrace = Seconds(2);
/// Ingestion is run, and timed, in slices of this much virtual time.
constexpr Duration kSlice = Millis(500);
/// Fault-free and chaos runs, alternating; a fixed number, so every run does
/// the same work and its peak RSS does not depend on the host's speed.
constexpr int kRunPairs = 4;

cameo::shard::FaultPlan Faults() {
  cameo::shard::FaultPlan f;
  f.drop_rate = 0.01;
  f.dup_rate = 0.01;
  return f;
}

cameo::EngineOptions EngineOpts(bool faults) {
  cameo::EngineOptions eo;
  eo.workers = 4;  // per shard
  eo.scheduler = cameo::SchedulerKind::kCameo;
  eo.policy = "LLF";
  eo.seed = kEngineSeed;
  eo.shards = kShards;
  eo.sim.shard_session.enabled = true;
  if (faults) eo.sim.shard_faults = Faults();
  return eo;
}

struct SimBuilt {
  cameo::JobHandles h;
  std::vector<const RecordingSink*> sinks;
};

SimBuilt BuildGraph(cameo::DataflowGraph& g) {
  SimBuilt b;
  cameo::JobSpec spec;
  spec.name = "KEYED";
  spec.latency_constraint = kConstraint;
  spec.time_domain = cameo::TimeDomain::kEventTime;
  spec.output_window = kWindow;
  spec.output_slide = kWindow;
  b.h.job = g.AddJob(spec);
  const cameo::WindowSpec win = cameo::WindowSpec::Tumbling(kWindow);
  const cameo::StageId src = g.AddStage(b.h.job, "KEYED/src", kSources, [](int) {
    return std::make_unique<cameo::SourceOp>(
        "KEYED/src", cameo::CostModel{cameo::Micros(100), 0, 0.05});
  });
  const cameo::StageId ctr = g.AddStage(b.h.job, "KEYED/counter", kCounters, [&](int) {
    return std::make_unique<cameo::KeyedCounterOp>(
        "KEYED/counter", win, cameo::CostModel{cameo::Micros(100), kCounterPerRow, 0.05});
  });
  const cameo::StageId merge = g.AddStage(b.h.job, "KEYED/merge", kMerges, [&](int) {
    return std::make_unique<cameo::WindowAggOp>(
        "KEYED/merge", win, cameo::CostModel{cameo::Micros(60), 40, 0.05},
        cameo::AggKind::kSum, /*per_key=*/true);
  });
  const cameo::StageId sink = g.AddStage(b.h.job, "KEYED/sink", 1, [&](int) {
    auto s = std::make_unique<RecordingSink>("KEYED/sink", /*wall_clock=*/false);
    b.sinks.push_back(s.get());
    return s;
  });
  g.Connect(src, ctr, cameo::Partition::kKeyHash, kSplits);
  g.Connect(ctr, merge, cameo::Partition::kKeyHash);
  g.Connect(merge, sink, cameo::Partition::kShard);
  cameo::FinalizeChannels(g, b.h.job);
  b.h.source = src;
  b.h.sink = sink;
  b.h.stages = {src, ctr, merge, sink};
  return b;
}

cameo::KeySamplerFactory Sampler() {
  return [](int) { return std::make_unique<cameo::ZipfKeys>(kUsers, kZipfS); };
}

/// The generated input: per source replica, its messages in time order
/// (event time = arrival - kEventDelay; the simulator samples the keys).
using Schedule = std::vector<std::vector<cameo::Arrival>>;

Schedule GenerateArrivals(std::uint64_t seed) {
  Schedule s(kSources);
  cameo::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 29);
  for (int r = 0; r < kSources; ++r) {
    // Event time trails arrival by kEventDelay and must stay positive.
    const Duration phase = kEventDelay + Millis(2) + r * Millis(9) % kPeriod;
    for (SimTime base = phase; base <= kIngest; base += kPeriod) {
      cameo::Arrival a;
      a.time = base + static_cast<Duration>(rng.Uniform01() * static_cast<double>(kJitter));
      if (a.time > kIngest) break;
      a.tuples = rng.UniformInt(kRowsPerMsg * 9 / 10, kRowsPerMsg * 11 / 10);
      s[static_cast<std::size_t>(r)].push_back(a);
    }
  }
  return s;
}

/// Replays one replica's generated arrivals to the simulator.
class Replay final : public cameo::ArrivalProcess {
 public:
  explicit Replay(const std::vector<cameo::Arrival>& a) : a_(a) {}
  std::optional<cameo::Arrival> Next(cameo::Rng&) override {
    if (i_ == a_.size()) return std::nullopt;
    return a_[i_++];
  }

 private:
  const std::vector<cameo::Arrival>& a_;
  std::size_t i_ = 0;
};

struct SimRun {
  /// Simulated source rows per wall second of each kSlice of ingestion
  /// after the first (see RunOnce).
  std::vector<double> slice_rates;
  double p50_ms = 0;
  double p99_ms = 0;
  std::size_t samples = 0;
  double success = 0;
  cameo::shard::TransportStats ts;
  cameo::SchedulerStats sched;
  Reference windows;  // what reached the sink
  double rehashes = 0;
  double keys_live = 0;
  double overflow_ratio = 0;
};

/// Source rows arriving in each kSlice of virtual time.
std::vector<std::int64_t> RowsPerSlice(const Schedule& input) {
  std::vector<std::int64_t> rows(static_cast<std::size_t>(kIngest / kSlice) + 1, 0);
  for (const std::vector<cameo::Arrival>& replica : input) {
    for (const cameo::Arrival& a : replica) {
      rows[static_cast<std::size_t>((a.time - 1) / kSlice)] += a.tuples;
    }
  }
  return rows;
}

SimRun RunOnce(const Schedule& input, bool faults, HostSpeed& host) {
  SimRun out;
  cameo::ShardEngine engine(EngineOpts(faults));
  SimBuilt b = BuildGraph(engine.graph());
  engine.cluster().AddIngestion(
      b.h.source,
      [&input](int r) {
        return std::make_unique<Replay>(input[static_cast<std::size_t>(r)]);
      },
      kEventDelay, Sampler());
  // Ingestion runs one kSlice at a time, each timed. The host's speed
  // drifts within seconds, so the run's rate is taken over many slices
  // rather than as one quotient; the first slice (empty slates) is warm-up.
  const std::vector<std::int64_t> rows = RowsPerSlice(input);
  for (std::size_t i = 0; i * kSlice < kIngest; ++i) {
    const SimTime t0 = NowNs();
    engine.RunFor(kSlice);
    const double wall = static_cast<double>(NowNs() - t0) / 1e9;
    if (i > 0) {
      out.slice_rates.push_back(static_cast<double>(rows[i]) / wall);
      host.Sample();
    }
  }
  engine.RunFor(kGrace);

  cameo::QueryHandle q;
  q.name = "KEYED";
  q.handles = b.h;
  const cameo::SampleStats lat = engine.Latency(q);
  out.p50_ms = lat.Percentile(50) / 1e6;
  out.p99_ms = lat.Percentile(99) / 1e6;
  out.samples = lat.count();
  out.success = engine.SuccessRate(q);
  out.ts = engine.transport_stats();
  out.sched = engine.sched_stats();
  out.windows = SumSinks(b.sinks);
  cameo::DataflowGraph& g = engine.graph();
  std::int64_t rows_seen = 0;
  std::int64_t overflow = 0;
  for (OperatorId op : g.stage(b.h.stages[1]).operators) {
    auto* kc = dynamic_cast<cameo::KeyedCounterOp*>(&g.Get(op));
    out.rehashes += static_cast<double>(kc->store().rehashes());
    out.keys_live += static_cast<double>(kc->live_keys());
    rows_seen += kc->rows_seen();
    overflow += kc->overflow_folds();
  }
  out.overflow_ratio = rows_seen > 0 ? static_cast<double>(overflow) /
                                           static_cast<double>(rows_seen)
                                     : 0.0;
  return out;
}

bool SameVirtualOutcome(const SimRun& a, const SimRun& b) {
  return a.p50_ms == b.p50_ms && a.p99_ms == b.p99_ms && a.success == b.success &&
         a.samples == b.samples && a.windows == b.windows &&
         a.ts.retransmits == b.ts.retransmits && a.ts.delivered == b.ts.delivered;
}

}  // namespace

Result RunSimShards(const Options& o) {
  Result r;
  const Schedule input = GenerateArrivals(o.seed);
  Reference rows_ref;  // per-window row totals (keys are sampled in-program)
  std::int64_t rows_total = 0;
  LogicalTime complete_until = cameo::kTimeMax;
  for (const std::vector<cameo::Arrival>& replica : input) {
    for (const cameo::Arrival& a : replica) {
      const LogicalTime p = a.time - kEventDelay;
      rows_ref[(p + kWindow - 1) / kWindow * kWindow].total += static_cast<double>(a.tuples);
      rows_total += a.tuples;
    }
    // Windows up to every source's last event time have closed.
    complete_until = std::min(complete_until, replica.back().time - kEventDelay);
  }

  // Set-up: engine construction, graph wiring, materialization and ingestion
  // attach (no virtual time elapses); the median of all set-ups is reported.
  // Five precede every run, so they sample the whole run (a fresh process
  // sets up more slowly than one whose heap has grown) rather than one spell
  // of a shared host.
  std::vector<double> setups;
  HostSpeed host;
  auto set_up = [&] {
    const SimTime t0 = NowNs();
    cameo::ShardEngine engine(EngineOpts(/*faults=*/true));
    const SimBuilt b = BuildGraph(engine.graph());
    engine.cluster().AddIngestion(
        b.h.source,
        [&input](int r) {
          return std::make_unique<Replay>(input[static_cast<std::size_t>(r)]);
        },
        kEventDelay, Sampler());
    setups.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  };

  // Fault-free reference runs: faults may cost latency, never data, so the
  // chaos runs must reproduce their per-window, per-key outputs exactly.
  // A fixed number of repeats of each, so every run does the same work (and
  // its peak RSS does not depend on how many repeats fit in the time).
  auto run_once = [&](bool faults) {
    for (int i = 0; i < (o.trace ? 0 : 5); ++i) set_up();
    return RunOnce(input, faults, host);
  };
  std::vector<SimRun> cleans;
  std::vector<SimRun> chaos;
  for (int rep = 0; rep < (o.trace ? 1 : kRunPairs); ++rep) {
    cleans.push_back(run_once(/*faults=*/false));
    chaos.push_back(run_once(/*faults=*/true));
  }
  const SimRun& clean = cleans.front();

  std::int64_t windows = 0;
  std::int64_t bad = 0;
  std::string problem;
  auto note = [&](const std::string& what) {
    ++bad;
    if (problem.empty()) problem = what;
  };
  // 1. Row totals per window against the generated arrival schedule.
  const Reference& clean_ref = clean.windows;
  for (const auto& [end, want] : rows_ref) {
    if (end > complete_until) continue;
    ++windows;
    auto it = clean.windows.find(end);
    if (it == clean.windows.end()) {
      note("fault-free run missing window " + std::to_string(end));
    } else if (it->second.total != want.total) {
      note("fault-free run window " + std::to_string(end) + " has " +
           std::to_string(it->second.total) + " rows, schedule says " +
           std::to_string(want.total));
    }
  }
  for (const auto& [end, got] : clean.windows) {
    if (rows_ref.count(end) == 0) note("unexpected window " + std::to_string(end));
  }
  // 2. Each chaos run: exactly-once delivery, outputs equal to the
  // fault-free run window by window (per-key checksum included).
  for (const SimRun& c : chaos) {
    if (c.ts.delivered != c.ts.sent_unique) {
      note("delivered " + std::to_string(c.ts.delivered) + " != sent_unique " +
           std::to_string(c.ts.sent_unique));
    }
    if (c.ts.shed_messages != 0) note("shed messages under chaos");
    const CheckOutcome chk = CheckOutputs(clean_ref, c.windows, complete_until);
    windows += chk.windows_checked;
    bad += chk.failures();
    if (chk.failures() > 0 && problem.empty()) problem = chk.first_problem;
  }
  const bool self_test = CheckerSelfTest(clean_ref, chaos.front().windows, complete_until);
  // 3. Fixed seed => bit-identical virtual outcome across repeats.
  bool deterministic = true;
  for (const SimRun& c : chaos) deterministic &= SameVirtualOutcome(c, chaos.front());
  for (const SimRun& c : cleans) deterministic &= SameVirtualOutcome(c, clean);
  if (!deterministic) note("repeats diverged");
  if (!problem.empty()) std::printf("OUTPUT CHECK FAILED: %s\n", problem.c_str());
  if (!self_test) std::printf("CHECKER SELF-TEST FAILED: a wrong window passed\n");
  std::printf("output check: %" PRId64 " windows, %" PRId64 " bad; self-test %s; "
              "%zu repeats of each %s\n",
              windows, bad, self_test ? "ok" : "FAILED", chaos.size(),
              deterministic ? "bit-identical" : "DIVERGED");

  const SimRun& c0 = chaos.front();
  r.attempted = windows + static_cast<std::int64_t>(c0.ts.sent_unique);
  r.failed = bad + static_cast<std::int64_t>(c0.ts.shed_messages);
  r.correct = bad == 0 && self_test;
  // Median over the timed slices of every run of the kind.
  auto rows_per_wall_s = [](const std::vector<SimRun>& runs) {
    std::vector<double> rates;
    for (const SimRun& c : runs) {
      rates.insert(rates.end(), c.slice_rates.begin(), c.slice_rates.end());
    }
    return Median(rates);
  };
  std::printf("sim_shards: %" PRId64 " rows, %zu latency samples, retransmits %" PRIu64
              ", delivered %" PRIu64 " == sent_unique %" PRIu64 "\n",
              rows_total, c0.samples, c0.ts.retransmits, c0.ts.delivered,
              c0.ts.sent_unique);
  // A missing or wrong output is a missed deadline.
  const double outputs = static_cast<double>(c0.samples);
  const double met_rate = outputs > 0 ? c0.success * outputs /
                                            (outputs + static_cast<double>(bad))
                                      : 0.0;

  if (!o.trace) {
    // The simulator is the system here. The contract asks every workload for
    // every end-to-end metric, so sustainable_events_per_s is the rate of the
    // fault-free runs, which skip fault repair, and sim_events_per_wall_s
    // that of the chaos runs: simulated source rows per second.
    AddTimingMetrics(r, host, Median(setups), rows_per_wall_s(cleans),
                     rows_per_wall_s(chaos));
    r.Add("met_rate", met_rate, "fraction");
    r.Add("peak_rss_mb", PeakRssMb(), "MB");
    r.PrintTable("sim_shards");
    std::printf("  %-44s %16.6f ms (%zu samples, virtual)\n", "p50_ms", c0.p50_ms,
                c0.samples);
    std::printf("  %-44s %16.6f ms (%zu samples, virtual)\n", "p99_ms", c0.p99_ms,
                c0.samples);
    return r;
  }

  // ---- traced run ----
  RealRunLayerStats real;
  real.swaps_per_dispatch = c0.sched.dispatched > 0
                                ? static_cast<double>(c0.sched.operator_swaps) /
                                      static_cast<double>(c0.sched.dispatched)
                                : 0.0;
  real.slate_rehashes = c0.rehashes;
  real.keys_live = c0.keys_live;
  real.overflow_fold_ratio = c0.overflow_ratio;
  real.frames_sent = static_cast<double>(c0.ts.frames_sent);
  real.retransmit_ratio = c0.ts.sent_unique > 0
                              ? static_cast<double>(c0.ts.retransmits) /
                                    static_cast<double>(c0.ts.sent_unique)
                              : 0.0;
  real.dup_drops = static_cast<double>(c0.ts.dup_drops);
  real.ls_samples = outputs;
  real.p50_ms = c0.p50_ms;
  real.p99_ms = c0.p99_ms;
  real.bulk_p99_ms = c0.p99_ms;  // one tenant class: all outputs

  // One second of the arrival schedule, through the traced stepper.
  auto run_slice = [&](Tracer& tracer, std::uint64_t* allocs_half,
                   std::int64_t* disp_half, StepCounts* counts) {
    cameo::DataflowGraph g;
    const SimBuilt b = BuildGraph(g);
    Stepper d(std::move(g), tracer, kShards, Faults());
    const std::vector<OperatorId>& srcs = d.graph().stage(b.h.source).operators;
    std::vector<std::unique_ptr<cameo::KeySampler>> samplers;
    std::vector<cameo::Rng> rngs;
    for (int i = 0; i < kSources; ++i) {
      samplers.push_back(Sampler()(i));
      rngs.emplace_back(kEngineSeed * 1315423911ULL + static_cast<std::uint64_t>(i));
    }
    struct Row {
      std::size_t replica;
      cameo::Arrival a;
    };
    std::vector<Row> slice;
    for (std::size_t r = 0; r < input.size(); ++r) {
      for (const cameo::Arrival& a : input[r]) {
        if (a.time <= Seconds(1)) slice.push_back({r, a});
      }
    }
    std::sort(slice.begin(), slice.end(),
              [](const Row& x, const Row& y) { return x.a.time < y.a.time; });
    const SimTime t0 = NowNs();
    std::uint64_t a_mid = 0;
    std::int64_t d_mid = 0;
    for (std::size_t i = 0; i < slice.size(); ++i) {
      if (i == slice.size() / 2) {
        a_mid = AllocCount();
        d_mid = d.counts().dispatched;
      }
      const Row& row = slice[i];
      d.IngestSampled(srcs[row.replica], *samplers[row.replica], rngs[row.replica],
                      row.a.tuples, row.a.time - kEventDelay, row.a.time);
    }
    d.AdvanceTo(Seconds(1) + kGrace);
    const double wall = static_cast<double>(NowNs() - t0) / 1e9;
    if (allocs_half != nullptr) *allocs_half = AllocCount() - a_mid;
    if (disp_half != nullptr) *disp_half = d.counts().dispatched - d_mid;
    const cameo::shard::TransportStats st = d.session_stats();
    if (st.delivered != st.sent_unique) {
      ++r.failed;
      r.correct = false;
      std::printf("TRACED STEPPER: delivered %" PRIu64 " != sent_unique %" PRIu64 "\n",
                  st.delivered, st.sent_unique);
    }
    *counts = d.counts();
    return wall;
  };
  Tracer on(true);
  StepCounts traced_counts;
  const double traced_wall = run_slice(on, nullptr, nullptr, &traced_counts);
  Tracer off(false);
  StepCounts plain_counts;
  std::uint64_t allocs = 0;
  std::int64_t disp = 0;
  const double plain_wall = run_slice(off, &allocs, &disp, &plain_counts);

  const Ledger ledger = BuildLedger(on.spans());
  const std::string path =
      o.out_dir + "/trace_sim_shards_seed" + std::to_string(o.seed) + ".json";
  if (!WriteChromeTrace(on.spans(), path, 100'000)) {
    std::printf("cannot write trace file %s\n", path.c_str());
    r.correct = false;
  } else {
    std::printf("trace: %zu spans, wrote %s\n", on.spans().size(), path.c_str());
  }
  AddLayerMetrics(r, ledger, traced_counts, plain_wall, traced_wall,
                  static_cast<double>(plain_counts.ingested_rows),
                  disp > 0 ? static_cast<double>(allocs) / static_cast<double>(disp) : 0.0,
                  real);
  r.PrintTable("sim_shards (traced)");
  return r;
}

}  // namespace e2e
