#include "traced.h"

#include <cinttypes>
#include <cstdio>
#include <tuple>

#include "ops/source.h"
#include "ops/window_agg.h"
#include "shard/wire.h"
#include "state/keyed_counter.h"

namespace e2e {

using cameo::EventBatch;
using cameo::Message;
using cameo::OperatorId;

namespace {

class CollectingEmitter final : public cameo::Emitter {
 public:
  explicit CollectingEmitter(
      std::vector<std::tuple<int, EventBatch, SimTime>>& outs)
      : outs_(outs) {}
  void Emit(int port, EventBatch batch, SimTime event_time) override {
    outs_.emplace_back(port, std::move(batch), event_time);
  }

 private:
  std::vector<std::tuple<int, EventBatch, SimTime>>& outs_;
};

constexpr Duration kServicePeriod = cameo::kMillisecond;

}  // namespace

Stepper::Stepper(cameo::DataflowGraph graph, Tracer& tracer, int shards,
                 cameo::shard::FaultPlan faults)
    : graph_(std::move(graph)),
      shards_(shards),
      tracer_(tracer),
      policy_(cameo::MakePolicy("LLF", cameo::PolicyOptions{.seed = kEngineSeed})),
      latency_(1),
      placement_(shards, kEngineSeed),
      rng_(kEngineSeed) {
  policy_->BindCostReader(&profiler_);
  for (int s = 0; s < shards_; ++s) {
    scheds_.push_back(cameo::MakeScheduler(cameo::SchedulerKind::kCameo, 1, {}));
  }
  const std::size_t n_ops = graph_.operator_count();
  converters_.resize(n_ops);
  shard_of_.resize(n_ops);
  for (cameo::JobId job : graph_.job_ids()) {
    const cameo::JobSpec& spec = graph_.job(job);
    latency_.RegisterJob(job, spec.latency_constraint, spec.output_window,
                         spec.output_slide);
    cameo::ConverterOptions co;
    co.time_domain = spec.time_domain;
    for (OperatorId op : graph_.OperatorsOf(job)) {
      const auto i = static_cast<std::size_t>(op.value);
      converters_[i] = std::make_unique<cameo::ContextConverter>(policy_.get(), co);
      shard_of_[i] = placement_.ShardOf(op);
      profiler_.Seed(op, 0);
    }
  }
  if (shards_ > 1) {
    link_ = std::make_unique<cameo::shard::InprocTransport>(
        cameo::shard::DelayModel{cameo::kMillisecond, cameo::Micros(100)}, kEngineSeed);
    faulty_ = std::make_unique<cameo::shard::FaultInjectingTransport>(
        link_.get(), faults);
    faulty_->Start(shards_);
    cameo::shard::SessionConfig sc;
    sc.enabled = true;
    sc.seed = kEngineSeed;
    session_ = std::make_unique<cameo::shard::SessionLayer>(sc, faulty_.get());
    session_->Start(shards_);
  }
  enqueued_at_.reserve(1 << 22);
  batch_.reserve(64);
}

Stepper::~Stepper() = default;

int Stepper::ShardOf(OperatorId op) const {
  return shard_of_[static_cast<std::size_t>(op.value)];
}

const char* Stepper::InvokeSpanName(const cameo::Operator& op) const {
  if (op.is_sink()) return "ops.sink";
  if (op.is_source()) return "ops.source";
  if (dynamic_cast<const cameo::KeyedCounterOp*>(&op) != nullptr) {
    return "state.keyed_counter";
  }
  if (dynamic_cast<const cameo::WindowAggOp*>(&op) != nullptr) {
    return "ops.window_agg";
  }
  return "ops.other";
}

void Stepper::IngestSampled(OperatorId source, cameo::KeySampler& sampler,
                                 cameo::Rng& rng, std::int64_t rows,
                                 LogicalTime p, SimTime now) {
  EventBatch batch;
  batch.progress = p;
  {
    ScopedSpan s(tracer_, "workload.zipf");
    sampler.Fill(batch, rows, p, rng);
  }
  counts_.zipf_samples += rows;
  Ingest(source, std::move(batch), now);
}

void Stepper::Ingest(OperatorId source, EventBatch batch, SimTime now) {
  AdvanceTo(now);
  const std::int64_t id = next_id_++;
  {
    ScopedSpan root(tracer_, "step.ingest", id);
    const cameo::Operator& op = graph_.Get(source);
    const cameo::JobSpec& spec = graph_.job(op.job());
    counts_.ingested_rows += batch.size();
    {
      ScopedSpan s(tracer_, "metrics.record", id);
      latency_.OnSourceEvent(op.job(), batch.progress, now);
    }
    Message m;
    {
      ScopedSpan s(tracer_, "core.context", id);
      cameo::SourceEvent e;
      e.p = batch.progress;
      e.t = now;
      m.pc = converters_[static_cast<std::size_t>(source.value)]->BuildCxtAtSource(
          e, op, spec.latency_constraint, cameo::MessageId{id});
    }
    m.id = m.pc.id;
    m.target = source;
    m.event_time = now;
    m.batch = std::move(batch);
    enqueued_at_.push_back(NowNs());
    ScopedSpan s(tracer_, "sched.enqueue", id);
    scheds_[static_cast<std::size_t>(ShardOf(source))]->Enqueue(
        std::move(m), cameo::WorkerId{}, now);
  }
  RunToQuiescence(now);
}

void Stepper::RunToQuiescence(SimTime now) {
  bool progress = true;
  while (progress) {
    progress = false;
    for (int s = 0; s < shards_; ++s) {
      while (Activation(s, now)) progress = true;
    }
  }
}

bool Stepper::Activation(int shard, SimTime now) {
  cameo::Scheduler& sched = *scheds_[static_cast<std::size_t>(shard)];
  if (sched.pending() == 0) return false;
  ScopedSpan root(tracer_, "step.activation");
  const cameo::WorkerId w{0};
  batch_.clear();
  std::size_t n;
  {
    ScopedSpan s(tracer_, "sched.dequeue");
    n = sched.DequeueBatch(w, now, batch_);
  }
  if (n == 0) return false;
  const SimTime dequeued = NowNs();
  const OperatorId target = batch_.front().target;
  cameo::Operator& op = graph_.Get(target);
  const char* invoke_name = InvokeSpanName(op);
  for (Message& msg : batch_) {
    const std::int64_t id = msg.id.value;
    ++counts_.dispatched;
    counts_.wait_ns.push_back(
        static_cast<double>(dequeued - enqueued_at_[static_cast<std::size_t>(id)]));
    if (invoke_name[0] == 's') {
      counts_.keyed_counter_rows += msg.batch.size();
    } else if (invoke_name[4] == 'w') {
      counts_.window_agg_rows += msg.batch.size();
    }
    outs_.clear();
    CollectingEmitter emitter(outs_);
    cameo::InvokeContext ctx{now, &emitter, &rng_};
    SimTime t0;
    SimTime t1;
    {
      ScopedSpan s(tracer_, invoke_name, id);
      t0 = NowNs();
      op.Invoke(msg, ctx);
      t1 = NowNs();
    }
    {
      ScopedSpan s(tracer_, "core.policy", id);
      profiler_.Record(target, t1 - t0);
      policy_->OnInvoked(target, op.job(), t1 - t0, now);
    }
    for (auto& [port, out_batch, event_time] : outs_) {
      std::vector<cameo::DataflowGraph::Delivery> ds;
      {
        ScopedSpan s(tracer_, "dataflow.route", id);
        ds = graph_.Route(target, port, std::move(out_batch));
      }
      ++counts_.route_calls;
      counts_.deliveries += static_cast<std::int64_t>(ds.size());
      for (auto& d : ds) {
        const std::int64_t out_id = next_id_++;
        Message md;
        {
          ScopedSpan s(tracer_, "core.context", out_id);
          md.pc = converters_[static_cast<std::size_t>(target.value)]
                      ->BuildCxtAtOperator(msg.pc, op, graph_.Get(d.target),
                                           d.batch.progress, event_time,
                                           cameo::MessageId{out_id});
        }
        md.id = md.pc.id;
        md.target = d.target;
        md.sender = target;
        md.event_time = event_time;
        md.batch = std::move(d.batch);
        enqueued_at_.push_back(NowNs());
        Deliver(std::move(md), shard, now);
      }
    }
    if (msg.sender.valid()) {
      ScopedSpan s(tracer_, "core.context", id);
      cameo::ReplyContext rc =
          converters_[static_cast<std::size_t>(target.value)]->PrepareReply(
              profiler_.Estimate(target), now - msg.enqueue_time, op.is_sink());
      converters_[static_cast<std::size_t>(msg.sender.value)]
          ->ProcessCtxFromReply(target, rc);
    }
    if (op.is_sink()) {
      ScopedSpan s(tracer_, "metrics.record", id);
      const cameo::JobSpec& spec = graph_.job(op.job());
      latency_.OnSinkOutput(0, op.job(),
                            spec.output_slide > 0 ? msg.progress() : msg.event_time,
                            now);
      latency_.OnSinkTuples(0, op.job(), msg.batch.size(), now);
    }
    msg.batch.Recycle();
  }
  {
    ScopedSpan s(tracer_, "sched.complete");
    sched.OnComplete(target, w, now);
  }
  return true;
}

void Stepper::Deliver(Message m, int from_shard, SimTime now) {
  const int to = ShardOf(m.target);
  if (to == from_shard) {
    ScopedSpan s(tracer_, "sched.enqueue", m.id.value);
    scheds_[static_cast<std::size_t>(to)]->Enqueue(std::move(m),
                                                   cameo::WorkerId{0}, now);
    return;
  }
  const std::int64_t id = m.id.value;
  cameo::shard::WireFrame frame = cameo::shard::AcquireFrame();
  {
    ScopedSpan s(tracer_, "shard.wire.encode", id);
    cameo::shard::EncodeMessage(m, frame);
  }
  ++counts_.frames_encoded;
  counts_.frame_bytes += static_cast<std::int64_t>(frame.bytes.size());
  m.batch.Recycle();
  SimTime at;
  {
    ScopedSpan s(tracer_, "shard.session", id);
    at = session_->Send(from_shard, to, now, std::move(frame));
  }
  {
    ScopedSpan s(tracer_, "sim.event_queue", id);
    events_.Schedule(std::max(at, now), [this, to] { Poll(to); });
  }
  ++counts_.event_queue_ops;
  last_activity_ = now;
  if (!service_armed_) {
    service_armed_ = true;
    events_.Schedule(now + kServicePeriod, [this] { ServiceTick(); });
    ++counts_.event_queue_ops;
  }
}

void Stepper::Poll(int shard) {
  const SimTime now = events_.now();
  for (;;) {
    cameo::shard::WireFrame frame;
    int from = -1;
    bool got;
    {
      ScopedSpan s(tracer_, "shard.session");
      got = session_->Receive(shard, now, frame, from);
    }
      if (!got) return;
    Message m;
    bool ok;
    {
      ScopedSpan s(tracer_, "shard.wire.decode");
      ok = cameo::shard::DecodeMessage(frame, m);
      cameo::shard::ReleaseFrame(std::move(frame));
    }
    ++counts_.frames_decoded;
    if (!ok) continue;  // acks and replies carry no app message
    // Scheduler wait starts when the message reaches this shard's scheduler.
    enqueued_at_[static_cast<std::size_t>(m.id.value)] = NowNs();
    ScopedSpan s(tracer_, "sched.enqueue", m.id.value);
    scheds_[static_cast<std::size_t>(shard)]->Enqueue(std::move(m),
                                                      cameo::WorkerId{}, now);
  }
}

void Stepper::ServiceTick() {
  const SimTime now = events_.now();
  std::vector<std::pair<int, SimTime>> deliveries;
  for (int s = 0; s < shards_; ++s) {
    ScopedSpan span(tracer_, "shard.session");
    session_->Service(s, now, &deliveries);
    }
  for (const auto& [peer, at] : deliveries) {
    ScopedSpan span(tracer_, "sim.event_queue");
    const int to = peer;
    events_.Schedule(std::max(at, now), [this, to] { Poll(to); });
    ++counts_.event_queue_ops;
  }
  // Keep servicing while anything may still be unacknowledged.
  const cameo::shard::TransportStats st = session_->stats();
  if (st.delivered < st.sent_unique || now - last_activity_ < Millis(50)) {
    events_.Schedule(now + kServicePeriod, [this] { ServiceTick(); });
    ++counts_.event_queue_ops;
  } else {
    service_armed_ = false;
  }
}

void Stepper::AdvanceTo(SimTime until) {
  if (session_ == nullptr) return;
  while (!events_.empty() && events_.NextTime() <= until) {
    const SimTime t = events_.NextTime();
    {
      ScopedSpan root(tracer_, "step.event");
      ScopedSpan s(tracer_, "sim.event_queue");
      events_.RunNext();
    }
    ++counts_.event_queue_ops;
    RunToQuiescence(t);
  }
}

const cameo::shard::TransportStats Stepper::session_stats() const {
  return session_ != nullptr ? session_->stats() : cameo::shard::TransportStats{};
}

// ---------------------------------------------------------------------------

Ledger BuildLedger(const std::vector<Span>& spans) {
  Ledger l;
  std::vector<double> child_ns(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end - s.start);
    }
  }
  std::map<std::string, double> layer_ns;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double self = static_cast<double>(s.end - s.start) - child_ns[i];
    const std::string name = s.name;
    l.self_ns_by_name[name] += self;
    ++l.calls_by_name[name];
    if (s.parent < 0) l.root_ns += static_cast<double>(s.end - s.start);
    const std::string layer = name.substr(0, name.find('.'));
    layer_ns[layer == "step" ? "other" : layer] += self;
  }
  for (const auto& [layer, ns] : layer_ns) {
    l.share_by_layer[layer] = l.root_ns > 0 ? ns / l.root_ns : 0.0;
  }
  return l;
}

bool WriteChromeTrace(const std::vector<Span>& spans, const std::string& path,
                      std::size_t max_spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const SimTime origin = spans.empty() ? 0 : spans.front().start;
  std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
  const std::size_t n = std::min(spans.size(), max_spans);
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"cat\": \"%.*s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                 "\"args\": {\"span\": %zu, \"parent\": %d, \"msg\": %" PRId64
                 "}}\n",
                 i == 0 ? "" : ",", s.name,
                 static_cast<int>(std::string(s.name).find('.')), s.name,
                 static_cast<double>(s.start - origin) / 1e3,
                 static_cast<double>(s.end - s.start) / 1e3, i, s.parent, s.msg);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

void AddLayerMetrics(Result& r, const Ledger& ledger, const StepCounts& traced,
                     double plain_wall_s, double traced_wall_s, double plain_events,
                     double allocs_per_msg, const RealRunLayerStats& real) {
  auto self = [&](const char* name) {
    auto it = ledger.self_ns_by_name.find(name);
    return it == ledger.self_ns_by_name.end() ? 0.0 : it->second;
  };
  auto calls = [&](const char* name) {
    auto it = ledger.calls_by_name.find(name);
    return it == ledger.calls_by_name.end() ? 0.0
                                            : static_cast<double>(it->second);
  };
  auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const double dispatched = static_cast<double>(traced.dispatched);

  r.Add("api.ingest.ns_per_call.p50", real.ingest_p50_ns, "ns");
  r.Add("api.ingest.ns_per_call.p99", real.ingest_p99_ns, "ns");
  r.Add("api.ingest.rejected", real.ingest_rejected, "count");
  r.Add("sched.enqueue.ns_per_call",
        per(self("sched.enqueue"), calls("sched.enqueue")), "ns");
  r.Add("sched.dequeue.ns_per_call",
        per(self("sched.dequeue"), calls("sched.dequeue")), "ns");
  r.Add("sched.complete.ns_per_call",
        per(self("sched.complete"), calls("sched.complete")), "ns");
  r.Add("sched.wait_p99_us", Percentile(traced.wait_ns, 99) / 1e3, "us");
  r.Add("sched.swaps_per_dispatch", real.swaps_per_dispatch, "ratio");
  r.Add("sched.backlog_max", real.backlog_max, "count");
  r.Add("core.context.ns_per_msg", per(self("core.context"), dispatched), "ns");
  r.Add("core.policy.ns_per_msg", per(self("core.policy"), dispatched), "ns");
  r.Add("dataflow.route.ns_per_msg",
        per(self("dataflow.route"), static_cast<double>(traced.route_calls)), "ns");
  r.Add("dataflow.route.fanout",
        per(static_cast<double>(traced.deliveries),
            static_cast<double>(traced.route_calls)),
        "ratio");
  r.Add("ops.window_agg.ns_per_row",
        per(self("ops.window_agg"), static_cast<double>(traced.window_agg_rows)),
        "ns");
  r.Add("state.keyed_counter.ns_per_row",
        per(self("state.keyed_counter"),
            static_cast<double>(traced.keyed_counter_rows)),
        "ns");
  r.Add("state.slate.rehashes", real.slate_rehashes, "count");
  r.Add("state.keyed_counter.overflow_fold_ratio", real.overflow_fold_ratio,
        "ratio");
  r.Add("state.keys_live", real.keys_live, "count");
  // Per recorder call: OnSourceEvent at ingest, OnSinkOutput at the sink.
  r.Add("metrics.record.ns_per_output",
        per(self("metrics.record"), calls("metrics.record")), "ns");
  r.Add("workload.zipf.ns_per_sample",
        per(self("workload.zipf"), static_cast<double>(traced.zipf_samples)), "ns");
  r.Add("shard.wire.encode_ns_per_frame",
        per(self("shard.wire.encode"), static_cast<double>(traced.frames_encoded)),
        "ns");
  r.Add("shard.wire.decode_ns_per_frame",
        per(self("shard.wire.decode"), static_cast<double>(traced.frames_decoded)),
        "ns");
  r.Add("shard.wire.bytes_per_frame",
        per(static_cast<double>(traced.frame_bytes),
            static_cast<double>(traced.frames_encoded)),
        "bytes");
  r.Add("shard.frames_sent", real.frames_sent, "count");
  r.Add("shard.session.ns_per_frame",
        per(self("shard.session"),
            static_cast<double>(traced.frames_encoded + traced.frames_decoded)),
        "ns");
  r.Add("shard.session.retransmit_ratio", real.retransmit_ratio, "ratio");
  r.Add("shard.session.dup_drops", real.dup_drops, "count");
  r.Add("sim.event_queue.ns_per_op",
        per(self("sim.event_queue"), static_cast<double>(traced.event_queue_ops)),
        "ns");
  r.Add("common.pool.allocs_per_msg", allocs_per_msg, "count");
  for (const char* layer : {"sched", "core", "dataflow", "ops", "state",
                            "metrics", "workload", "shard", "sim"}) {
    auto it = ledger.share_by_layer.find(layer);
    r.Add(std::string("layer.") + layer + ".share",
          it == ledger.share_by_layer.end() ? 0.0 : it->second, "fraction");
  }
  auto other = ledger.share_by_layer.find("other");
  r.Add("layer.other.share",
        other == ledger.share_by_layer.end() ? 0.0 : other->second, "fraction");
  r.Add("trace.overhead_share",
        traced_wall_s > 0 ? (traced_wall_s - plain_wall_s) / traced_wall_s : 0.0,
        "fraction");
  r.Add("st_events_per_s", per(plain_events, plain_wall_s), "events/s");
  r.Add("bench.gen_lag_p99_ms", real.gen_lag_p99_ms, "ms");
  r.Add("bench.ls_samples", real.ls_samples, "count");
  r.Add("p50_ms", real.p50_ms, "ms");
  r.Add("p99_ms", real.p99_ms, "ms");
  r.Add("bulk_p99_ms", real.bulk_p99_ms, "ms");
}

}  // namespace e2e
