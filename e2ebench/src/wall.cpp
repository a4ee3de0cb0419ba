// Wall-clock workloads on ThreadEngine: fine_mt (1-row messages, two
// latency-sensitive + two bulk tenants) and coarse_keyed (1024-row Zipf
// batches through a keyed counter). One producer thread (this one) paces an
// open-loop schedule; three workers run the dataflow.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

#include "api/query_def.h"
#include "api/thread_engine.h"
#include "bench.h"
#include "ops/source.h"
#include "ops/window_agg.h"
#include "state/keyed_counter.h"
#include "traced.h"
#include "workload/keyed.h"

namespace e2e {
namespace {

using cameo::EventBatch;
using cameo::OperatorId;

constexpr int kWorkers = 3;
constexpr std::size_t kSetupReps = 15;
/// Saturated bursts per run; their median drain rate is reported.
constexpr int kBursts = 11;
constexpr int kSourcesPerTenant = 2;
/// Logical time of an event = its due wall time - origin, where the origin
/// sits this far before the engine's construction (keeps every p > 0).
constexpr Duration kOriginLead = cameo::kMillisecond;
/// Shortest producer sleep when ahead of schedule (see WallRun::Run).
constexpr Duration kProducerNap = Micros(50);
/// Rate ladder: rung i offers kLadderStep^i events/s. Adjacent rungs are 3%
/// apart, so a one-rung disagreement stays well inside the metric's bound.
constexpr double kLadderStep = 1.03;

struct TenantDef {
  std::string name;
  bool ls = false;
  Duration constraint = 0;
  LogicalTime window = 0;
  double share = 0;  // fraction of the offered event rate
};

struct WallConfig {
  std::string workload;
  bool keyed = false;
  std::int64_t rows_per_msg = 1;
  std::vector<TenantDef> tenants;
  Duration rung_len = 0;
  // The scheduler backlog is sampled every this many messages.
  std::int64_t backlog_every = 256;
  // Fixed-schedule phase (events/s): base rate, plus `burst_rate` for
  // `burst_len` at the start of every `burst_period` (0 = no bursts).
  double fixed_rate = 0;
  double burst_rate = 0;
  Duration burst_len = 0;
  Duration burst_period = 0;
  std::int64_t warm_msgs = 0;
  // Messages per saturated burst (see WallRun::Burst).
  std::int64_t burst_msgs = 0;
  // Keyed pipeline shape.
  std::int64_t num_keys = 0;
  double zipf_s = 0;
  int counters = 0;
  int merges = 0;
  int splits = 1;
  int templates = 0;
  // Single-threaded baseline slice (messages).
  std::int64_t st_msgs = 0;
};

WallConfig FineMtConfig() {
  WallConfig c;
  c.workload = "fine_mt";
  c.rows_per_msg = 1;
  c.tenants = {{"LS0", true, Millis(50), Millis(5), 0.15},
               {"LS1", true, Millis(50), Millis(5), 0.15},
               {"BA0", false, Seconds(1), Millis(5), 0.35},
               {"BA1", false, Seconds(1), Millis(5), 0.35}};
  c.rung_len = Millis(500);
  c.fixed_rate = 100'000;
  c.burst_rate = 400'000;
  c.burst_len = Millis(20);
  c.burst_period = Millis(250);
  c.warm_msgs = 20'000;
  c.burst_msgs = 150'000;
  c.st_msgs = 100'000;
  return c;
}

WallConfig CoarseKeyedConfig() {
  WallConfig c;
  c.workload = "coarse_keyed";
  c.keyed = true;
  c.rows_per_msg = 1024;
  c.tenants = {{"KEYED", true, Millis(50), Millis(5), 1.0}};
  c.rung_len = Millis(500);
  c.backlog_every = 16;
  c.fixed_rate = 2'000'000;
  c.warm_msgs = 1'500;
  c.burst_msgs = 3'000;
  c.num_keys = 1'000'000;
  c.zipf_s = 0.9;
  c.counters = 2;
  c.merges = 2;
  c.splits = 2;
  c.templates = 2048;
  c.st_msgs = 1'000;
  return c;
}

// ---------------------------------------------------------------------------
// Inputs, generated from the seed before anything is timed.

struct Inputs {
  // fine_mt: one entry per message, cycled.
  std::vector<std::uint8_t> tenant;
  std::vector<std::uint8_t> value;
  // coarse_keyed: template batches of rows_per_msg keys each, cycled.
  std::vector<std::int64_t> keys;
  std::vector<std::uint64_t> template_mix;
  std::size_t n = 0;  // entries (fine) or templates (keyed)
};

Inputs Generate(const WallConfig& c, std::uint64_t seed) {
  Inputs in;
  cameo::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 17);
  if (!c.keyed) {
    in.n = 1 << 20;
    in.tenant.resize(in.n);
    in.value.resize(in.n);
    std::vector<double> cdf;
    double acc = 0;
    for (const TenantDef& t : c.tenants) cdf.push_back(acc += t.share);
    for (std::size_t i = 0; i < in.n; ++i) {
      const double u = rng.Uniform01() * acc;
      std::size_t t = 0;
      while (t + 1 < cdf.size() && u >= cdf[t]) ++t;
      in.tenant[i] = static_cast<std::uint8_t>(t);
      in.value[i] = static_cast<std::uint8_t>(rng.UniformInt(1, 100));
    }
    return in;
  }
  in.n = static_cast<std::size_t>(c.templates);
  cameo::ZipfKeys zipf(c.num_keys, c.zipf_s);
  EventBatch scratch;
  in.keys.reserve(in.n * static_cast<std::size_t>(c.rows_per_msg));
  for (std::size_t t = 0; t < in.n; ++t) {
    scratch.keys.clear();
    scratch.values.clear();
    scratch.times.clear();
    zipf.Fill(scratch, c.rows_per_msg, 0, rng);
    std::uint64_t mix = 0;
    for (std::int64_t k : scratch.keys) {
      in.keys.push_back(k);
      mix += CheckMix(k);
    }
    in.template_mix.push_back(mix);
  }
  return in;
}

// ---------------------------------------------------------------------------
// Graph: hand-wired like QueryDef::Build, but ending in a RecordingSink.

struct Built {
  std::vector<std::vector<OperatorId>> sources;  // per tenant
  std::vector<std::vector<const RecordingSink*>> sinks;
};

Built BuildGraph(cameo::DataflowGraph& g, const WallConfig& c, bool wall_clock) {
  Built b;
  for (const TenantDef& t : c.tenants) {
    cameo::JobSpec spec;
    spec.name = t.name;
    spec.latency_constraint = t.constraint;
    spec.time_domain = cameo::TimeDomain::kEventTime;
    spec.output_window = t.window;
    spec.output_slide = t.window;
    const cameo::JobId job = g.AddJob(spec);
    const cameo::WindowSpec win = cameo::WindowSpec::Tumbling(t.window);
    const std::string n = t.name;
    const cameo::StageId src = g.AddStage(job, n + "/src", kSourcesPerTenant, [&](int) {
      return std::make_unique<cameo::SourceOp>(n + "/src",
                                               cameo::CostModel{cameo::Micros(100), 0, 0.05});
    });
    cameo::StageId last;
    if (!c.keyed) {
      const cameo::StageId agg = g.AddStage(job, n + "/agg", 2, [&](int) {
        return std::make_unique<cameo::WindowAggOp>(
            n + "/agg", win, cameo::CostModel{cameo::Micros(200), 0, 0.05},
            cameo::AggKind::kSum);
      });
      const cameo::StageId fin = g.AddStage(job, n + "/final", 1, [&](int) {
        return std::make_unique<cameo::WindowAggOp>(
            n + "/final", win, cameo::CostModel{cameo::Micros(100), 0, 0.05},
            cameo::AggKind::kSum);
      });
      g.Connect(src, agg, cameo::Partition::kShard);
      g.Connect(agg, fin, cameo::Partition::kShard);
      last = fin;
    } else {
      const cameo::StageId ctr = g.AddStage(job, n + "/counter", c.counters, [&](int) {
        return std::make_unique<cameo::KeyedCounterOp>(
            n + "/counter", win, cameo::CostModel{cameo::Micros(100), 400, 0.05});
      });
      const cameo::StageId merge = g.AddStage(job, n + "/merge", c.merges, [&](int) {
        return std::make_unique<cameo::WindowAggOp>(
            n + "/merge", win, cameo::CostModel{cameo::Micros(60), 40, 0.05},
            cameo::AggKind::kSum, /*per_key=*/true);
      });
      g.Connect(src, ctr, cameo::Partition::kKeyHash, c.splits);
      g.Connect(ctr, merge, cameo::Partition::kKeyHash);
      last = merge;
    }
    std::vector<const RecordingSink*> sinks;
    const cameo::StageId sink = g.AddStage(job, n + "/sink", 1, [&](int) {
      auto s = std::make_unique<RecordingSink>(n + "/sink", wall_clock);
      sinks.push_back(s.get());
      return s;
    });
    g.Connect(last, sink, cameo::Partition::kShard);
    cameo::FinalizeChannels(g, job);
    b.sources.push_back(g.stage(src).operators);
    b.sinks.push_back(sinks);
  }
  return b;
}

// ---------------------------------------------------------------------------
// Reference: per tenant, per window end, the sums the sink must see.

class RefBook {
 public:
  explicit RefBook(const WallConfig& c) : c_(c), refs_(c.tenants.size()) {}

  void AddRow(std::size_t tenant, std::int64_t key, double value, LogicalTime p) {
    const LogicalTime w = c_.tenants[tenant].window;
    const LogicalTime end = (p + w - 1) / w * w;
    WindowSums& s = refs_[tenant][end];
    if (c_.keyed) {
      s.total += 1;
      s.mix += CheckMix(key);
    } else {
      s.total += value;
      s.mix += CheckMix(0) * static_cast<std::uint64_t>(value);
    }
    s.last_p = std::max(s.last_p, p);
  }
  /// Keyed batch: one template's rows all at `p`.
  void AddTemplate(std::size_t tenant, std::int64_t rows, std::uint64_t mix,
                   LogicalTime p) {
    const LogicalTime w = c_.tenants[tenant].window;
    const LogicalTime end = (p + w - 1) / w * w;
    WindowSums& s = refs_[tenant][end];
    s.total += static_cast<double>(rows);
    s.mix += mix;
    s.last_p = std::max(s.last_p, p);
  }
  const Reference& ref(std::size_t tenant) const { return refs_[tenant]; }

 private:
  const WallConfig& c_;
  std::vector<Reference> refs_;
};

/// Two zero-valued events per source past every data window: the first
/// lands in a fresh window on every replica, the second closes that window
/// everywhere. A windowed operator forwards progress only by emitting
/// windows, so a single flush event could leave a downstream window open
/// when one upstream replica had no data in it. Returns the largest window
/// end that must have been emitted. `send(source, batch)` ingests.
template <typename SendFn>
LogicalTime FlushEvents(const WallConfig& c, const Built& b, LogicalTime now,
                        RefBook& book, SendFn send) {
  LogicalTime max_w = 0;
  for (const TenantDef& t : c.tenants) max_w = std::max(max_w, t.window);
  const LogicalTime first = now + 3 * max_w;
  for (const LogicalTime p : {first, first + 2 * max_w}) {
    for (std::size_t t = 0; t < c.tenants.size(); ++t) {
      for (OperatorId src : b.sources[t]) {
        EventBatch batch;
        batch.progress = p;
        batch.Append(0, 0.0, p);
        book.AddRow(t, 0, 0.0, p);
        send(src, std::move(batch));
      }
    }
  }
  return first - 1;
}

// ---------------------------------------------------------------------------

struct ScheduleStats {
  std::int64_t msgs = 0;
  std::int64_t events = 0;
  std::int64_t rejected = 0;
  SimTime start = 0;      // wall ns the schedule began
  SimTime last_due = 0;   // due time of the last message
  SimTime last_sent = 0;  // wall ns the last message was accepted
  std::vector<double> lag_ns;
  std::vector<double> ingest_ns;  // only when timing ingest
  std::vector<double> backlog;    // scheduler backlog every backlog_every messages
  double backlog_max = 0;
};

class WallRun {
 public:
  WallRun(const WallConfig& c, const Inputs& in) : c_(c), in_(in) {}

  /// Builds, wires, starts and warms one engine; returns the seconds it
  /// took. The previous engine (if any) is destroyed first, untimed.
  double SetUp() {
    engine_.reset();
    book_ = std::make_unique<RefBook>(c_);
    next_msg_ = 0;
    sent_ = 0;
    rejected_ = 0;
    rr_.assign(c_.tenants.size(), 0);
    const SimTime t0 = NowNs();
    origin_ = t0 - kOriginLead;
    cameo::EngineOptions eo;
    eo.workers = kWorkers;
    eo.scheduler = cameo::SchedulerKind::kCameo;
    eo.policy = "LLF";
    eo.seed = kEngineSeed;
    eo.wallclock.emulate_cost = false;
    engine_ = std::make_unique<cameo::ThreadEngine>(eo);
    built_ = BuildGraph(engine_->graph(), c_, /*wall_clock=*/true);
    // Start explicitly before any ingest, as the API documents.
    engine_->Start();
    for (std::int64_t i = 0; i < c_.warm_msgs; ++i) {
      const SimTime now = NowNs();
      CAMEO_CHECK(Send(now - origin_, nullptr));
    }
    engine_->Drain();
    return static_cast<double>(NowNs() - t0) / 1e9;
  }

  /// Paces messages open-loop at `rate_at(offset)` events/s for `len`.
  template <typename RateFn>
  ScheduleStats Run(Duration len, RateFn rate_at, bool time_ingest) {
    ScheduleStats st;
    st.lag_ns.reserve(1 << 21);
    if (time_ingest) st.ingest_ns.reserve(1 << 21);
    st.start = NowNs() + Micros(200);
    double due = static_cast<double>(st.start);
    const double end = static_cast<double>(st.start + len);
    while (due < end) {
      const auto due_ns = static_cast<SimTime>(due);
      // Ahead of schedule: sleep at least kProducerNap rather than spin, so
      // the producer does not hold a core the workers need; messages that
      // fall due meanwhile go out back to back, late by at most the nap.
      const SimTime ahead = due_ns - NowNs();
      if (ahead > 0) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(std::max(ahead, kProducerNap)));
      }
      const SimTime sent = NowNs();
      st.lag_ns.push_back(static_cast<double>(sent - due_ns));
      bool ok;
      if (time_ingest) {
        ok = Send(due_ns - origin_, &st.ingest_ns);
      } else {
        ok = Send(due_ns - origin_, nullptr);
      }
      if (!ok) ++st.rejected;
      ++st.msgs;
      st.events += c_.rows_per_msg;
      st.last_due = due_ns;
      if (st.msgs % c_.backlog_every == 0) {
        const cameo::SchedulerStats s = engine_->sched_stats();
        st.backlog.push_back(static_cast<double>(s.enqueued - s.dispatched));
        st.backlog_max = std::max(st.backlog_max, st.backlog.back());
      }
      const double rate = rate_at(due_ns - st.start);
      due += 1e9 * static_cast<double>(c_.rows_per_msg) / rate;
    }
    st.last_sent = NowNs();
    return st;
  }

  /// Sends `msgs` generated messages back to back, as fast as the producer
  /// can, then drains; returns the events per wall second the engine
  /// processed, from the first send to the end of the drain.
  double Burst(std::int64_t msgs) {
    const SimTime t0 = NowNs();
    for (std::int64_t i = 0; i < msgs; ++i) {
      if (!Send(NowNs() - origin_, nullptr)) break;  // counted in rejected_
    }
    engine_->Drain();
    return static_cast<double>(msgs * c_.rows_per_msg) /
           (static_cast<double>(NowNs() - t0) / 1e9);
  }

  /// Closes every window that holds data; returns the largest window end
  /// that must have been emitted (see FlushEvents).
  LogicalTime Flush() {
    engine_->Drain();
    const LogicalTime done = FlushEvents(
        c_, built_, NowNs() - origin_, *book_,
        [this](OperatorId src, EventBatch b) {
          CAMEO_CHECK(engine_->IngestBatch(src, std::move(b)));
        });
    engine_->Drain();
    return done;
  }

  cameo::ThreadEngine& engine() { return *engine_; }
  const Built& built() const { return built_; }
  const RefBook& book() const { return *book_; }
  SimTime origin() const { return origin_; }

  /// Latency (ns) of every record of tenant `t` whose window end lies in
  /// [lo, hi], measured from the due time of the window's last input.
  void Latencies(std::size_t t, LogicalTime lo, LogicalTime hi,
                 std::vector<double>& out) const {
    const Reference& ref = book_->ref(t);
    for (const RecordingSink* s : built_.sinks[t]) {
      for (const SinkRecord& r : s->records()) {
        if (r.window_end < lo || r.window_end > hi) continue;
        auto it = ref.find(r.window_end);
        if (it == ref.end()) continue;
        out.push_back(static_cast<double>(r.emit - (origin_ + it->second.last_p)));
      }
    }
  }

  /// (met, expected): tenant `t`'s windows in [lo, hi] that arrived complete,
  /// correct and within the constraint, and all windows with input there.
  std::pair<std::int64_t, std::int64_t> MetWindows(std::size_t t, LogicalTime lo,
                                                   LogicalTime hi) const {
    const Reference& ref = book_->ref(t);
    std::map<LogicalTime, WindowSums> got;
    std::map<LogicalTime, SimTime> last_emit;
    for (const RecordingSink* s : built_.sinks[t]) {
      for (const SinkRecord& r : s->records()) {
        if (r.window_end < lo || r.window_end > hi) continue;
        WindowSums& g = got[r.window_end];
        g.total += r.total;
        g.mix += r.mix;
        SimTime& e = last_emit[r.window_end];
        e = std::max(e, r.emit);
      }
    }
    std::int64_t met = 0;
    std::int64_t total = 0;
    for (auto it = ref.lower_bound(lo); it != ref.end() && it->first <= hi; ++it) {
      ++total;
      auto g = got.find(it->first);
      if (g == got.end() || !(g->second == it->second)) continue;
      const SimTime lat = last_emit[it->first] - (origin_ + it->second.last_p);
      if (lat <= c_.tenants[t].constraint) ++met;
    }
    return {met, total};
  }

  std::int64_t sent() const { return sent_; }
  std::int64_t rejected() const { return rejected_; }

 private:
  /// Sends the next generated message at logical time p.
  bool Send(LogicalTime p, std::vector<double>* ingest_ns) {
    const bool ok = SendOne(p, ingest_ns);
    ++sent_;
    if (!ok) ++rejected_;
    return ok;
  }

  bool SendOne(LogicalTime p, std::vector<double>* ingest_ns) {
    const std::size_t i = next_msg_++ % in_.n;
    std::size_t t = 0;
    EventBatch b;
    b.progress = p;
    if (!c_.keyed) {
      t = in_.tenant[i];
      const double v = in_.value[i];
      b.Append(0, v, p);
      book_->AddRow(t, 0, v, p);
    } else {
      const std::int64_t* k = &in_.keys[i * static_cast<std::size_t>(c_.rows_per_msg)];
      for (std::int64_t r = 0; r < c_.rows_per_msg; ++r) b.Append(k[r], 1.0, p);
      book_->AddTemplate(0, c_.rows_per_msg, in_.template_mix[i], p);
    }
    const std::vector<OperatorId>& srcs = built_.sources[t];
    const OperatorId src = srcs[rr_[t]++ % srcs.size()];
    if (ingest_ns == nullptr) return engine_->IngestBatch(src, std::move(b));
    const SimTime a = NowNs();
    const bool ok = engine_->IngestBatch(src, std::move(b));
    ingest_ns->push_back(static_cast<double>(NowNs() - a));
    return ok;
  }

  const WallConfig& c_;
  const Inputs& in_;
  std::unique_ptr<cameo::ThreadEngine> engine_;
  Built built_;
  std::unique_ptr<RefBook> book_;
  SimTime origin_ = 0;
  std::size_t next_msg_ = 0;
  std::vector<std::size_t> rr_;
  std::int64_t sent_ = 0;
  std::int64_t rejected_ = 0;
};

struct RungOutcome {
  bool passed = false;
  double achieved = 0;  // events / wall s actually sent
  double ls_p99_ms = 0;
  double growth = 0;
  double lag_p50_ms = 0;
};

/// Latencies (ns) of every latency-sensitive output with window end in [lo, hi].
std::vector<double> LsLatencies(const WallRun& run, const WallConfig& c,
                                LogicalTime lo, LogicalTime hi) {
  std::vector<double> lat;
  for (std::size_t t = 0; t < c.tenants.size(); ++t) {
    if (c.tenants[t].ls) run.Latencies(t, lo, hi, lat);
  }
  return lat;
}

Duration LsConstraint(const WallConfig& c) {
  Duration d = cameo::kTimeMax;
  for (const TenantDef& t : c.tenants) {
    if (t.ls) d = std::min(d, t.constraint);
  }
  return d;
}

LogicalTime MaxWindow(const WallConfig& c) {
  LogicalTime w = 0;
  for (const TenantDef& t : c.tenants) w = std::max(w, t.window);
  return w;
}

RungOutcome RunRung(WallRun& run, const WallConfig& c, double rate) {
  RungOutcome o;
  const ScheduleStats st =
      run.Run(c.rung_len, [rate](SimTime) { return rate; }, false);
  run.engine().Drain();
  // Backlog trend: median of the last quarter of samples minus median of the
  // first quarter, so one VM stall near either end cannot decide the rung.
  const std::size_t q = std::max<std::size_t>(1, st.backlog.size() / 4);
  if (!st.backlog.empty()) {
    o.growth = Median({st.backlog.end() - static_cast<std::ptrdiff_t>(q), st.backlog.end()}) -
               Median({st.backlog.begin(), st.backlog.begin() + static_cast<std::ptrdiff_t>(q)});
  }
  o.achieved = static_cast<double>(st.events) /
               (static_cast<double>(st.last_sent - st.start) / 1e9);
  o.lag_p50_ms = Percentile(st.lag_ns, 50) / 1e6;
  const LogicalTime w = MaxWindow(c);
  const LogicalTime lo = st.start - run.origin() + w;
  const LogicalTime hi = st.last_due - run.origin() - w;
  o.ls_p99_ms = Percentile(LsLatencies(run, c, lo, hi), 99) / 1e6;

  const double tolerance = std::max(500.0, 0.02 * static_cast<double>(st.msgs));
  o.passed = o.growth <= tolerance && o.lag_p50_ms <= 1.0 &&
             o.ls_p99_ms <= cameo::ToMillis(LsConstraint(c)) && st.rejected == 0;
  std::printf("  rung %9.0f ev/s: achieved %9.0f, backlog trend %+8.0f, "
              "gen lag p50 %.3f ms, LS p99 %.3f ms -> %s\n",
              rate, o.achieved, o.growth, o.lag_p50_ms, o.ls_p99_ms,
              o.passed ? "pass" : "FAIL");
  return o;
}

/// Up-down staircase over the fixed ladder: a passing rung steps up one
/// rung, a failing one steps down one, so the trials settle around the
/// highest rung the system sustains and keep sampling it until `budget` is
/// spent. Returns the median achieved rate of the trials from the first
/// reversal on (the approach from the starting rung is not counted). It
/// starts at the highest rung below 90% of `start_rate` (the saturated drain
/// rate), so the approach is short. ThreadRuntime has no backpressure, so
/// every rung ends with a Drain (inside RunRung) to keep the backlog, and
/// memory, bounded; a rung therefore never inherits its predecessor's queue.
double Staircase(WallRun& run, const WallConfig& c, double start_rate, Duration budget,
                 HostSpeed& host) {
  const SimTime deadline = NowNs() + budget;
  int i = static_cast<int>(std::floor(std::log(0.9 * start_rate) / std::log(kLadderStep)));
  std::vector<double> settled;
  bool reversed = false;
  int prev = 0;
  while (NowNs() < deadline) {
    const RungOutcome o = RunRung(run, c, std::pow(kLadderStep, i));
    host.Sample();
    const int move = o.passed ? 1 : -1;
    reversed |= prev != 0 && move != prev;
    if (reversed) settled.push_back(o.achieved);
    prev = move;
    i += move;
  }
  std::printf("  staircase: %zu settled trials\n", settled.size());
  return Median(settled);
}

/// Single-threaded pass over the first `msgs` generated messages, pacing by
/// virtual time only. Returns wall seconds; counts land in the stepper.
double StepSlice(Stepper& d, const Built& b, const WallConfig& c,
                  const Inputs& in, std::int64_t msgs, RefBook* book,
                  std::uint64_t* allocs_half, std::int64_t* dispatched_half) {
  std::vector<std::size_t> rr(c.tenants.size(), 0);
  const double gap = 1e9 * static_cast<double>(c.rows_per_msg) / c.fixed_rate;
  const SimTime t0 = NowNs();
  std::uint64_t a_mid = 0;
  std::int64_t d_mid = 0;
  for (std::int64_t m = 0; m < msgs; ++m) {
    if (m == msgs / 2) {
      a_mid = AllocCount();
      d_mid = d.counts().dispatched;
    }
    const std::size_t i = static_cast<std::size_t>(m) % in.n;
    const LogicalTime p = kOriginLead + static_cast<LogicalTime>(gap * static_cast<double>(m));
    std::size_t t = 0;
    EventBatch batch;
    batch.progress = p;
    if (!c.keyed) {
      t = in.tenant[i];
      batch.Append(0, in.value[i], p);
      if (book != nullptr) book->AddRow(t, 0, in.value[i], p);
    } else {
      const std::int64_t* k = &in.keys[i * static_cast<std::size_t>(c.rows_per_msg)];
      for (std::int64_t r = 0; r < c.rows_per_msg; ++r) batch.Append(k[r], 1.0, p);
      if (book != nullptr) book->AddTemplate(0, c.rows_per_msg, in.template_mix[i], p);
    }
    const std::vector<OperatorId>& srcs = b.sources[t];
    d.Ingest(srcs[rr[t]++ % srcs.size()], std::move(batch), p);
  }
  const double wall = static_cast<double>(NowNs() - t0) / 1e9;
  if (allocs_half != nullptr) *allocs_half = AllocCount() - a_mid;
  if (dispatched_half != nullptr) *dispatched_half = d.counts().dispatched - d_mid;
  return wall;
}

Result RunWall(const Options& o, const WallConfig& c) {
  Result r;
  const Inputs in = Generate(c, o.seed);
  WallRun run(c, in);
  const Duration total = Seconds(o.seconds);

  // The other set-ups come after the checks: each warm-up leaves memory in
  // the allocator and the program's pools, so they must not precede the RSS
  // reading.
  std::vector<double> setups{run.SetUp()};

  // Fixed-schedule phase first, right after warm-up, so its latencies do not
  // depend on how far the ladder climbed: base rate below the knee with
  // periodic bursts above it.
  const Duration fixed_len = o.trace ? std::min<Duration>(total * 2 / 5, Seconds(4))
                                     : total / 4;
  auto fixed_rate = [&c](SimTime off) {
    if (c.burst_period > 0 && off % c.burst_period < c.burst_len) return c.burst_rate;
    return c.fixed_rate;
  };
  const ScheduleStats fixed = run.Run(fixed_len, fixed_rate, o.trace);
  run.engine().Drain();
  // Peak RSS through warm-up and the fixed phase: a fixed amount of work.
  // The ladder's message count depends on where it stops, and memory that
  // grows with messages processed would make a later reading noisy.
  const double peak_rss_mb = PeakRssMb();

  double sustainable = 0;
  std::vector<double> drain_rates;
  HostSpeed host;
  if (!o.trace) {
    for (int i = 0; i < kBursts; ++i) {
      drain_rates.push_back(run.Burst(c.burst_msgs));
      host.Sample();
    }
    sustainable = Staircase(run, c, Median(drain_rates), total * 2 / 3, host);
  }
  const LogicalTime complete_until = run.Flush();

  const LogicalTime w = MaxWindow(c);
  const LogicalTime lo = fixed.start - run.origin() + w;
  const LogicalTime hi = fixed.last_due - run.origin() - w;
  const std::vector<double> ls_lat = LsLatencies(run, c, lo, hi);
  std::vector<double> bulk_lat;
  bool has_bulk = false;
  std::int64_t met = 0;
  std::int64_t expected = 0;
  for (std::size_t t = 0; t < c.tenants.size(); ++t) {
    if (c.tenants[t].ls) {
      const auto [m, n] = run.MetWindows(t, lo, hi);
      met += m;
      expected += n;
    } else {
      has_bulk = true;
      run.Latencies(t, lo, hi, bulk_lat);
    }
  }
  if (!has_bulk) bulk_lat = ls_lat;  // single-class workload: all outputs
  const double met_rate =
      expected > 0 ? static_cast<double>(met) / static_cast<double>(expected) : 0.0;

  // Output check over everything the kept engine ever received.
  std::int64_t windows = 0;
  std::int64_t bad = 0;
  bool self_test = true;
  for (std::size_t t = 0; t < c.tenants.size(); ++t) {
    const Reference got = SumSinks(run.built().sinks[t]);
    const CheckOutcome chk = CheckOutputs(run.book().ref(t), got, complete_until);
    windows += chk.windows_checked;
    bad += chk.failures();
    if (chk.failures() > 0) {
      std::printf("OUTPUT CHECK FAILED (%s): %" PRId64 " mismatched, %" PRId64
                  " missing, %" PRId64 " unexpected; first: %s\n",
                  c.tenants[t].name.c_str(), chk.mismatched, chk.missing,
                  chk.unexpected, chk.first_problem.c_str());
    }
    if (t == 0) {
      self_test = CheckerSelfTest(run.book().ref(t), got, complete_until);
    }
  }
  if (!self_test) std::printf("CHECKER SELF-TEST FAILED: a wrong window passed\n");
  std::printf("output check: %" PRId64 " windows, %" PRId64 " bad; self-test %s\n",
              windows, bad, self_test ? "ok" : "FAILED");

  r.attempted = run.sent() + windows;
  r.failed = run.rejected() + bad;
  r.correct = bad == 0 && run.rejected() == 0 && self_test;

  const double gen_lag_p99_ms = Percentile(fixed.lag_ns, 99) / 1e6;
  std::printf("fixed phase: %" PRId64 " msgs, LS samples %zu, bulk samples %zu, "
              "bench.gen_lag_p99_ms %.4f\n",
              fixed.msgs, ls_lat.size(), bulk_lat.size(), gen_lag_p99_ms);

  if (!o.trace) {
    while (setups.size() < kSetupReps) setups.push_back(run.SetUp());
    std::printf("%s: setup %.4f s (median of %zu)\n", c.workload.c_str(),
                Median(setups), setups.size());
    // No simulator runs here; the contract asks every workload for every
    // end-to-end metric, so sim_events_per_wall_s is the engine's saturated
    // drain rate.
    AddTimingMetrics(r, host, Median(setups), sustainable, Median(drain_rates));
    r.Add("met_rate", met_rate, "fraction");
    r.Add("peak_rss_mb", peak_rss_mb, "MB");
    r.PrintTable(c.workload);
    // Wall latencies track host scheduling stalls more than the system on a
    // shared VM, so they are informational here (per-layer in traced runs).
    std::printf("  %-44s %16.6f ms (%zu samples)\n", "p50_ms", Percentile(ls_lat, 50) / 1e6,
                ls_lat.size());
    std::printf("  %-44s %16.6f ms (%zu samples)\n", "p99_ms", Percentile(ls_lat, 99) / 1e6,
                ls_lat.size());
    std::printf("  %-44s %16.6f ms (%zu samples)\n", "bulk_p99_ms",
                Percentile(bulk_lat, 99) / 1e6, bulk_lat.size());
    std::printf("  %-44s %16.6f ms\n", "bench.gen_lag_p99_ms", gen_lag_p99_ms);
    return r;
  }

  // ---- traced run: per-layer numbers ----
  RealRunLayerStats real;
  real.ingest_p50_ns = Percentile(fixed.ingest_ns, 50);
  real.ingest_p99_ns = Percentile(fixed.ingest_ns, 99);
  real.ingest_rejected = static_cast<double>(fixed.rejected);
  const cameo::SchedulerStats ss = run.engine().sched_stats();
  real.swaps_per_dispatch = ss.dispatched > 0 ? static_cast<double>(ss.operator_swaps) /
                                                    static_cast<double>(ss.dispatched)
                                              : 0.0;
  real.backlog_max = fixed.backlog_max;
  real.gen_lag_p99_ms = gen_lag_p99_ms;
  real.ls_samples = static_cast<double>(ls_lat.size());
  real.p50_ms = Percentile(ls_lat, 50) / 1e6;
  real.p99_ms = Percentile(ls_lat, 99) / 1e6;
  real.bulk_p99_ms = Percentile(bulk_lat, 99) / 1e6;
  std::int64_t rows_seen = 0;
  std::int64_t overflow = 0;
  cameo::DataflowGraph& eg = run.engine().graph();
  for (std::size_t i = 0; i < eg.operator_count(); ++i) {
    auto* kc = dynamic_cast<cameo::KeyedCounterOp*>(
        &eg.Get(OperatorId{static_cast<std::int64_t>(i)}));
    if (kc == nullptr) continue;
    real.slate_rehashes += static_cast<double>(kc->store().rehashes());
    real.keys_live += static_cast<double>(kc->live_keys());
    rows_seen += kc->rows_seen();
    overflow += kc->overflow_folds();
  }
  real.overflow_fold_ratio =
      rows_seen > 0 ? static_cast<double>(overflow) / static_cast<double>(rows_seen) : 0.0;
  for (const cameo::PolicyCounter& pc : run.engine().runtime().PolicyCountersSnapshot()) {
    std::printf("policy counter %s = %" PRId64 "\n", pc.name.c_str(), pc.value);
  }

  // Spans-on pass, then the spans-off twin (single-threaded baseline).
  const std::int64_t slice = c.st_msgs;
  Tracer on(true);
  cameo::DataflowGraph g1;
  const Built b1 = BuildGraph(g1, c, false);
  Stepper traced(std::move(g1), on);
  RefBook traced_book(c);
  const double traced_wall = StepSlice(traced, b1, c, in, slice, &traced_book, nullptr, nullptr);

  Tracer off(false);
  cameo::DataflowGraph g2;
  const Built b2 = BuildGraph(g2, c, false);
  Stepper plain(std::move(g2), off);
  std::uint64_t allocs = 0;
  std::int64_t disp = 0;
  const double plain_wall = StepSlice(plain, b2, c, in, slice, nullptr, &allocs, &disp);

  // The traced stepper's own outputs are checked too.
  const LogicalTime slice_end =
      kOriginLead + static_cast<LogicalTime>(1e9 * static_cast<double>(c.rows_per_msg) /
                                             c.fixed_rate * static_cast<double>(slice));
  const LogicalTime traced_done = FlushEvents(
      c, b1, slice_end, traced_book, [&traced](OperatorId src, EventBatch batch) {
        const LogicalTime p = batch.progress;
        traced.Ingest(src, std::move(batch), p);
      });
  for (std::size_t t = 0; t < c.tenants.size(); ++t) {
    const Reference& ref = traced_book.ref(t);
    const CheckOutcome chk = CheckOutputs(ref, SumSinks(b1.sinks[t]), traced_done);
    r.attempted += chk.windows_checked;
    r.failed += chk.failures();
    if (chk.failures() > 0) {
      r.correct = false;
      std::printf("TRACED OUTPUT CHECK FAILED (%s): %s\n", c.tenants[t].name.c_str(),
                  chk.first_problem.c_str());
    }
  }

  const Ledger ledger = BuildLedger(on.spans());
  const std::string path = o.out_dir + "/trace_" + c.workload + "_seed" +
                           std::to_string(o.seed) + ".json";
  if (!WriteChromeTrace(on.spans(), path, 100'000)) {
    std::printf("cannot write trace file %s\n", path.c_str());
    r.correct = false;
  } else {
    std::printf("trace: %zu spans, wrote %s\n", on.spans().size(), path.c_str());
  }
  const double allocs_per_msg =
      disp > 0 ? static_cast<double>(allocs) / static_cast<double>(disp) : 0.0;
  AddLayerMetrics(r, ledger, traced.counts(), plain_wall, traced_wall,
                  static_cast<double>(plain.counts().ingested_rows), allocs_per_msg,
                  real);
  r.PrintTable(c.workload + " (traced)");
  return r;
}

}  // namespace

Result RunFineMt(const Options& o) { return RunWall(o, FineMtConfig()); }
Result RunCoarseKeyed(const Options& o) { return RunWall(o, CoarseKeyedConfig()); }

}  // namespace e2e
