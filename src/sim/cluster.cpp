#include "sim/cluster.h"

#include <algorithm>

#include "common/check.h"
#include "common/pool.h"
#include "dataflow/critical_path.h"
#include "workload/churn.h"

namespace cameo {

namespace {

/// Chaos-mode timer pump cadence: how often each shard services its session
/// timers (retransmits, delayed acks) and drains parked frames when no
/// receive event is otherwise scheduled.
constexpr Duration kChaosPumpTick = Millis(2);

}  // namespace

Cluster::Cluster(EngineOptions options, DataflowGraph graph)
    : options_(std::move(options)),
      graph_(std::move(graph)),
      rng_(options_.seed),
      profiler_(/*smoothing=*/0.25, /*noise_seed=*/options_.seed ^ 0x9e3779b9),
      workers_(static_cast<std::size_t>(options_.workers) *
               static_cast<std::size_t>(options_.shards)) {
  CAMEO_EXPECTS(options_.workers >= 1 &&
                options_.workers <= Scheduler::kMaxWorkers);
  CAMEO_EXPECTS(options_.shards >= 1);
  const EngineOptions::SimOptions& sim = options_.sim;
  shard::ShardRuntimeOptions ro;
  ro.num_shards = options_.shards;
  ro.workers_per_shard = options_.workers;
  ro.scheduler = options_.scheduler;
  ro.sched = options_.sched;
  ro.policy = options_.policy;
  ro.seed = options_.seed;
  ro.link = {sim.shard_link_delay, sim.shard_link_jitter};
  ro.session = sim.shard_session;
  ro.faults = sim.shard_faults;
  ro.admission_limit = sim.admission_limit;
  runtime_ = std::make_unique<shard::ShardRuntime>(std::move(ro));
  chaos_mode_ = runtime_->session_enabled();
  pump_active_.assign(static_cast<std::size_t>(options_.shards), false);
  profiler_.SetPerturbation(sim.profiler_perturbation);
  // Every shard's policy reads the shared profiler. Profiler entries are
  // per-operator and an operator executes only on its owning shard, so the
  // shared map is semantically per-shard state.
  runtime_->BindCostReader(&profiler_);
  timeline_.SetEnabled(sim.enable_timeline);
  for (JobId job : graph_.job_ids()) RegisterJob(job);
}

void Cluster::SeedEstimatesFor(JobId job) {
  CriticalPathResult cp =
      ComputeCriticalPath(graph_, job, options_.sim.seed_nominal_tuples);
  for (const auto& [op, cost] : cp.cost) profiler_.Seed(op, cost);
  for (StageId sid : graph_.stages_of(job)) {
    const StageInfo& stage = graph_.stage(sid);
    for (StageId did : stage.downstream) {
      for (OperatorId u : stage.operators) {
        for (OperatorId t : graph_.stage(did).operators) {
          ReplyContext rc;
          rc.valid = true;
          rc.cost_m = cp.cost.at(t);
          rc.cost_path = cp.path_below.at(t);
          converters_.at(u)->SeedReply(t, rc);
        }
      }
    }
  }
}

void Cluster::RegisterJob(JobId job) {
  const JobSpec& spec = graph_.job(job);
  ConverterOptions options;
  options.use_query_semantics = options_.use_query_semantics;
  options.time_domain = spec.time_domain;
  for (OperatorId op : graph_.OperatorsOf(job)) {
    // Bound to the *owning shard's* policy instance: an operator's send
    // path consults only its own machine's policy state (paper §5.3 --
    // contexts are built at the sender, no global scheduler state).
    converters_.emplace(op, std::make_unique<ContextConverter>(
                                runtime_->policy_of(op), options));
  }
  latency_.RegisterJob(job, spec.latency_constraint, spec.output_window,
                       spec.output_slide, spec.output_gap);
  if (options_.sim.seed_static_estimates) SeedEstimatesFor(job);
}

ContextConverter& Cluster::converter(OperatorId op) {
  auto it = converters_.find(op);
  CAMEO_EXPECTS(it != converters_.end());
  return *it->second;
}

void Cluster::AddIngestion(StageId source_stage,
                           const ArrivalProcessFactory& factory,
                           Duration event_time_delay,
                           const KeySamplerFactory& key_sampler) {
  const StageInfo& stage = graph_.stage(source_stage);
  const JobSpec& spec = graph_.job(stage.job);
  for (int r = 0; r < stage.parallelism; ++r) {
    SourceState s;
    s.op = stage.operators[static_cast<std::size_t>(r)];
    s.process = factory(r);
    CAMEO_CHECK(s.process != nullptr);
    s.event_time_delay = event_time_delay;
    if (key_sampler) {
      s.sampler = key_sampler(r);
      CAMEO_CHECK(s.sampler != nullptr);
      // Distinct deterministic stream per source; decoupled from rng_ so
      // keyed ingestion cannot shift any existing scenario's replay.
      s.key_rng = Rng(options_.seed * 0x9E3779B97F4A7C15ULL +
                      (sources_.size() + 1) * 0xD1B54A32D192ED03ULL);
    }
    if (spec.token_rate_per_sec > 0) {
      auto budget = static_cast<std::int64_t>(spec.token_rate_per_sec);
      token_buckets_.emplace(s.op, TokenBucket(std::max<std::int64_t>(
                                       1, budget)));
    }
    sources_.push_back(std::move(s));
  }
}

int Cluster::ScheduleQuery(SimTime at, SimTime until, QueryBuilder builder,
                           ArrivalProcessFactory ingestion,
                           Duration event_time_delay) {
  CAMEO_EXPECTS(builder != nullptr && ingestion != nullptr);
  auto ticket = static_cast<int>(scheduled_.size());
  auto q = std::make_unique<ScheduledQuery>();
  q->at = at;
  q->until = until;
  q->build = std::move(builder);
  q->ingestion = std::move(ingestion);
  q->event_time_delay = event_time_delay;
  scheduled_.push_back(std::move(q));
  events_.Schedule(at, [this, ticket] {
    ScheduledQuery& q = *scheduled_[static_cast<std::size_t>(ticket)];
    std::size_t first_source = sources_.size();
    JobHandles h = q.build(graph_);
    q.job = h.job;
    RegisterJob(h.job);
    AddIngestion(h.source, q.ingestion, q.event_time_delay);
    if (h.source_right.valid()) {
      AddIngestion(h.source_right, q.ingestion, q.event_time_delay);
    }
    for (std::size_t i = first_source; i < sources_.size(); ++i) {
      PumpSource(i);
    }
    if (pumped_sources_ < sources_.size()) pumped_sources_ = sources_.size();
    if (q.until > q.at) {
      events_.Schedule(q.until, [this, job = h.job] { RemoveQueryNow(job); });
    }
    if (options_.sim.token_total_rate > 0) RebalanceTokens();
  });
  return ticket;
}

std::optional<JobId> Cluster::ScheduledJob(int ticket) const {
  CAMEO_EXPECTS(ticket >= 0 &&
                static_cast<std::size_t>(ticket) < scheduled_.size());
  return scheduled_[static_cast<std::size_t>(ticket)]->job;
}

void Cluster::RemoveQueryNow(JobId job) {
  if (!graph_.query_live(job)) return;  // idempotent under scripted overlap
  std::vector<OperatorId> ops = graph_.RemoveQuery(job);
  // Purge with accounting: backlog of an abruptly departing tenant is
  // discarded, never silently lost (conservation: enqueued = dispatched +
  // purged at quiescence; messages_purged() reads the stats so purges an
  // active mailbox defers to its owner's release are counted too).
  runtime_->RetireOperators(ops);
  if (options_.sim.token_total_rate > 0) RebalanceTokens();
}

void Cluster::At(SimTime t, std::function<void()> fn) {
  events_.Schedule(t, std::move(fn));
}

void Cluster::SetJobTokenRate(JobId job, double per_source_rate) {
  for (SourceState& s : sources_) {
    if (graph_.Get(s.op).job() != job) continue;
    auto it = token_buckets_.find(s.op);
    if (it == token_buckets_.end()) continue;
    it->second.SetBudget(
        std::max<std::int64_t>(1, static_cast<std::int64_t>(per_source_rate)));
  }
}

void Cluster::RebalanceTokens() {
  // Weights are the specs' configured token rates; the live tenants split
  // options_.sim.token_total_rate proportionally (SplitTokenShares, shared with
  // the churn scripts), spread over each job's sources.
  struct Member {
    JobId job;
    int sources = 0;
  };
  std::vector<Member> members;
  std::vector<double> weights;
  for (SourceState& s : sources_) {
    JobId job = graph_.Get(s.op).job();
    if (!graph_.query_live(job)) continue;
    if (token_buckets_.find(s.op) == token_buckets_.end()) continue;
    auto it = std::find_if(members.begin(), members.end(),
                           [&](const Member& m) { return m.job == job; });
    if (it == members.end()) {
      members.push_back({job, 1});
      weights.push_back(graph_.job(job).token_rate_per_sec);
    } else {
      ++it->sources;
    }
  }
  std::vector<double> shares =
      SplitTokenShares(options_.sim.token_total_rate, weights);
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (shares[i] <= 0) continue;
    SetJobTokenRate(members[i].job, shares[i] / std::max(1, members[i].sources));
  }
}

void Cluster::PumpSource(std::size_t idx) {
  SourceState& s = sources_[idx];
  if (!graph_.query_live(graph_.Get(s.op).job())) return;  // tenant left
  auto next = s.process->Next(rng_);
  if (!next) return;
  events_.Schedule(next->time, [this, idx, a = *next] {
    SourceState& src = sources_[idx];
    const Operator& op = graph_.Get(src.op);
    if (!graph_.query_live(op.job())) return;  // removed while scheduled
    const JobSpec& spec = graph_.job(op.job());
    const SimTime t = events_.now();
    LogicalTime p;
    if (spec.time_domain == TimeDomain::kEventTime) {
      // Prefer the generator's explicit stream progress (batching clients
      // stamp interval boundaries); otherwise assume a constant event delay.
      p = a.logical >= 0 ? a.logical : t - src.event_time_delay;
    } else {
      p = t;  // ingestion time: logical time is the arrival clock
    }
    if (p <= src.last_logical) p = src.last_logical + 1;  // in-order channel
    src.last_logical = p;
    latency_.OnSourceEvent(op.job(), p, t);

    SourceEvent e;
    e.p = p;
    e.t = t;
    auto tb = token_buckets_.find(src.op);
    if (tb != token_buckets_.end()) {
      TokenBucket::Token token = tb->second.TryAcquire(t);
      e.has_token = token.granted;
      e.token_tag = token.tag;
      e.token_interval = token.interval_id;
    }

    Message m;
    m.pc = converter(src.op).BuildCxtAtSource(
        e, op, spec.latency_constraint,
        MessageId{next_message_id_.fetch_add(1, std::memory_order_relaxed)});
    m.id = m.pc.id;
    m.target = src.op;
    if (src.sampler) {
      m.batch = EventBatch{};
      m.batch.progress = p;
      src.sampler->Fill(m.batch, a.tuples, p, src.key_rng);
    } else {
      m.batch = EventBatch::Synthetic(a.tuples, p);
    }
    m.event_time = t;
    Deliver(std::move(m), WorkerId{});
    PumpSource(idx);
  });
}

void Cluster::Deliver(Message m, WorkerId producer) {
  ++messages_delivered_;
  const int shard = runtime_->Enqueue(std::move(m), producer, events_.now());
  KickIdleWorkers(shard);
}

void Cluster::ReceiveShardFrame(int shard) {
  if (chaos_mode_) {
    // Faults decouple send events from deliveries (drops, spikes, parked
    // reorders, session holds): a poll may yield zero or several frames.
    DrainShardFrames(shard);
    return;
  }
  // Clean path: one receive event per transport Send, scheduled at the
  // frame's modeled delivery time -- so by the time the last same-timestamp
  // event fires, every due frame has been popped; a dry poll would be a
  // conservation bug.
  Message msg;
  shard::WireReply reply;
  switch (runtime_->ReceiveOne(shard, events_.now(), msg, reply)) {
    case shard::ReceiveKind::kMessage:
      Deliver(std::move(msg), WorkerId{});
      break;
    case shard::ReceiveKind::kReply:
      converter(reply.sender).ProcessCtxFromReply(reply.from, reply.rc);
      break;
    case shard::ReceiveKind::kNone:
      CAMEO_CHECK(false && "scheduled receive found no due frame");
  }
}

void Cluster::DrainShardFrames(int shard) {
  for (;;) {
    Message msg;
    shard::WireReply reply;
    switch (runtime_->ReceiveOne(shard, events_.now(), msg, reply)) {
      case shard::ReceiveKind::kMessage:
        Deliver(std::move(msg), WorkerId{});
        continue;
      case shard::ReceiveKind::kReply:
        converter(reply.sender).ProcessCtxFromReply(reply.from, reply.rc);
        continue;
      case shard::ReceiveKind::kNone:
        return;
    }
  }
}

void Cluster::SessionPump(int shard) {
  pump_deliveries_.clear();
  const SimTime deadline =
      runtime_->ServiceSession(shard, events_.now(), &pump_deliveries_);
  for (const auto& [peer, at] : pump_deliveries_) {
    const SimTime when = std::max(at, events_.now());
    events_.Schedule(when, [this, peer] { ReceiveShardFrame(peer); });
  }
  // Drain our own inbox: flushes parked fault-transport frames and anything
  // that became deliverable while no receive event was scheduled (e.g. the
  // end of a stall window).
  DrainShardFrames(shard);
  SimTime next = SatAdd(events_.now(), kChaosPumpTick);
  if (deadline < next) next = std::max(deadline, SatAdd(events_.now(), 1));
  if (next <= pump_until_) {
    events_.Schedule(next, [this, shard] { SessionPump(shard); });
  } else {
    pump_active_[static_cast<std::size_t>(shard)] = false;
  }
}

void Cluster::KickIdleWorkers(int shard) {
  // Kick every idle worker of the shard: slot-based scheduling pins
  // operators to specific workers, so only the owning worker can serve a
  // given message. A kicked worker that finds nothing simply goes idle
  // again. Workers of other shards are never kicked -- their schedulers
  // hold no new work.
  const auto workers = static_cast<std::size_t>(options_.workers);
  const std::size_t begin = static_cast<std::size_t>(shard) * workers;
  const std::size_t end = begin + workers;
  for (std::size_t i = begin; i < end; ++i) {
    WorkerState& ws = workers_[i];
    if (ws.busy || ws.kicked) continue;
    ws.kicked = true;
    WorkerId w{static_cast<std::int64_t>(i)};
    events_.Schedule(events_.now(), [this, w] { TryDispatch(w); });
  }
}

void Cluster::TryDispatch(WorkerId w) {
  WorkerState& ws = workers_[static_cast<std::size_t>(w.value)];
  ws.kicked = false;
  if (ws.busy) return;
  batch_scratch_.clear();
  Scheduler& sched = runtime_->scheduler(runtime_->ShardOfWorker(w));
  if (sched.DequeueBatch(runtime_->LocalWorker(w), events_.now(),
                         batch_scratch_) == 0) {
    return;
  }
  StartActivation(w);
}

void Cluster::StartActivation(WorkerId w) {
  WorkerState& ws = workers_[static_cast<std::size_t>(w.value)];
  exec_scratch_.clear();
  // The whole activation (claim-and-drain batch, one operator) executes as
  // one busy period: per-message costs are sampled up front in dispatch
  // order, the operator switch cost is charged once.
  const OperatorId target = batch_scratch_.front().target;
  const Operator& op = graph_.Get(target);
  Duration total = 0;
  for (Message& m : batch_scratch_) {
    Duration exec = op.cost_model().Sample(m.batch.size(), rng_);
    if (options_.sim.straggler_prob > 0 &&
        rng_.Chance(options_.sim.straggler_prob)) {
      exec = static_cast<Duration>(static_cast<double>(exec) *
                                   options_.sim.straggler_factor);
    }
    exec_scratch_.push_back(exec);
    total += exec;
  }
  if (!(ws.last_op == target)) total += options_.sim.switch_cost;
  ws.busy = true;
  ws.last_op = target;
  utilization_.AddBusy(w, total);
  for (const Message& m : batch_scratch_) {
    timeline_.Record(
        {events_.now(), target, op.stage(), op.job(), m.progress()});
  }
  const SimTime dispatch_time = events_.now();
  if (batch_scratch_.size() == 1) {
    // Single-message fast path: the Message rides inline in the event
    // closure (fits EventQueue's inline buffer -- no allocation) and the
    // schedule is bit-identical to the pre-batching dispatcher.
    auto done = [this, w, m = std::move(batch_scratch_.front()),
                 dispatch_time, exec = exec_scratch_.front()]() mutable {
      const OperatorId t = m.target;
      Execute(w, dispatch_time, std::span<Message>(&m, 1),
              std::span<const Duration>(&exec, 1));
      FinishActivation(w, t);
    };
    static_assert(sizeof(done) <= EventQueue::kActionCapacity,
                  "completion closure outgrew the inline event buffer; the "
                  "common sim path would heap-allocate every event");
    events_.Schedule(SatAdd(events_.now(), total), std::move(done));
    return;
  }
  // Batched path: the messages move into a pooled DispatchBatch whose
  // vectors are recycled activation to activation.
  DispatchBatch b =
      RecycleStash<DispatchBatch>::Global().Take().value_or(DispatchBatch{});
  b.msgs.clear();
  b.execs.clear();
  std::swap(b.msgs, batch_scratch_);
  std::swap(b.execs, exec_scratch_);
  events_.Schedule(SatAdd(events_.now(), total),
                   [this, w, b = std::move(b), dispatch_time]() mutable {
                     const OperatorId t = b.msgs.front().target;
                     Execute(w, dispatch_time, b.msgs, b.execs);
                     b.msgs.clear();
                     b.execs.clear();
                     RecycleStash<DispatchBatch>::Global().Put(std::move(b));
                     FinishActivation(w, t);
                   });
}

/// The simulator's step hooks: intra-shard hops become network-delay
/// events, cross-shard hops go through the wire codec and the transport.
class Cluster::SimHooks final : public StepHooks {
 public:
  SimHooks(Cluster& c, WorkerId w, int shard) : c_(c), w_(w), shard_(shard) {}

  void Send(Message md) override {
    const int dst_shard = c_.runtime_->ShardOf(md.target);
    if (dst_shard == shard_) {
      // Intra-shard hop: same path (and same virtual-time schedule) as the
      // pre-shard cluster.
      auto deliver = [&c = c_, md = std::move(md), w = w_]() mutable {
        c.Deliver(std::move(md), w);
      };
      static_assert(sizeof(deliver) <= EventQueue::kActionCapacity,
                    "delivery closure outgrew the inline event buffer; the "
                    "common sim path would heap-allocate every delivery");
      c_.events_.Schedule(
          SatAdd(c_.events_.now(), c_.options_.sim.network_delay),
          std::move(deliver));
      return;
    }
    // Cross-shard hop: serialize through the wire codec and ship on the
    // transport; the receive event fires at the modeled delivery time.
    const SimTime at =
        c_.runtime_->SendMessage(shard_, dst_shard, c_.events_.now(), md);
    md.batch.Recycle();  // columns are on the wire now; park the buffers
    c_.events_.Schedule(at,
                        [&c = c_, dst_shard] { c.ReceiveShardFrame(dst_shard); });
  }

  void Reply(OperatorId sender, OperatorId from,
             const ReplyContext& rc) override {
    const int sender_shard = c_.runtime_->ShardOf(sender);
    if (sender_shard == shard_) {
      c_.events_.Schedule(
          SatAdd(c_.events_.now(), c_.options_.sim.network_delay),
          [&c = c_, sender, from, rc] {
            c.converter(sender).ProcessCtxFromReply(from, rc);
          });
      return;
    }
    const SimTime at = c_.runtime_->SendReply(shard_, sender_shard,
                                              c_.events_.now(), sender, from,
                                              rc);
    c_.events_.Schedule(
        at, [&c = c_, sender_shard] { c.ReceiveShardFrame(sender_shard); });
  }

 private:
  Cluster& c_;
  WorkerId w_;
  int shard_;  // the activation's shard
};

void Cluster::Execute(WorkerId w, SimTime dispatch_time,
                      std::span<Message> msgs,
                      std::span<const Duration> costs) {
  const OperatorId target = msgs.front().target;
  Operator& op = graph_.Get(target);
  SimHooks hooks(*this, w, runtime_->ShardOf(target));
  const Activation a{graph_,           profiler_, *runtime_->policy_of(target),
                     converter(target), op,        next_message_id_,
                     emitter_,          rng_,      hooks,
                     latency_,          /*worker=*/0};
  // The busy period already elapsed: every step runs at the completion time
  // and is charged its sampled cost.
  const SimTime now = events_.now();
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    if (op.is_source()) {
      latency_.OnProcessed(op.job(), msgs[i].batch.size(), now);
    }
    ExecuteStep(a, msgs[i],
                {.dispatched = dispatch_time, .start = now, .charged = costs[i]});
  }
}

void Cluster::FinishActivation(WorkerId w, OperatorId op) {
  workers_[static_cast<std::size_t>(w.value)].busy = false;
  batch_scratch_.clear();
  Scheduler& sched = runtime_->scheduler(runtime_->ShardOfWorker(w));
  if (sched.CompleteAndDequeue(op, runtime_->LocalWorker(w), events_.now(),
                               batch_scratch_) == 0) {
    return;
  }
  StartActivation(w);
}

void Cluster::Run(SimTime until) {
  for (std::size_t i = pumped_sources_; i < sources_.size(); ++i) {
    PumpSource(i);
  }
  pumped_sources_ = sources_.size();
  if (chaos_mode_) {
    pump_until_ = until;
    for (int s = 0; s < options_.shards; ++s) {
      if (pump_active_[static_cast<std::size_t>(s)]) continue;
      pump_active_[static_cast<std::size_t>(s)] = true;
      events_.Schedule(SatAdd(events_.now(), kChaosPumpTick),
                       [this, s] { SessionPump(s); });
    }
  }
  events_.RunUntil(until);
  utilization_.SetSpan(until);
  utilization_.SetWorkers(options_.workers * options_.shards);
}

}  // namespace cameo
