#include "runtime/thread_runtime.h"

#include <algorithm>

#include "common/check.h"
#include "core/activation.h"

namespace cameo {

namespace {

void SpinFor(Duration d) {
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::nanoseconds(d);
  // Sleep for the bulk, spin the last stretch for accuracy. Keeping the spin
  // tail short matters for thread-scaling runs: sleeping workers overlap
  // freely even when oversubscribed, spinning ones contend for cores.
  if (d > Millis(1)) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(d - Micros(300)));
  }
  while (std::chrono::steady_clock::now() < deadline) {
  }
}

}  // namespace

ThreadRuntime::ThreadRuntime(EngineOptions options, DataflowGraph graph)
    : options_(std::move(options)),
      graph_(std::move(graph)),
      policy_(MakePolicy(options_.policy,
                         PolicyOptions{.seed = options_.seed})),
      scheduler_(MakeScheduler(options_.scheduler, options_.workers,
                               options_.sched)),
      latency_(options_.workers),
      start_(std::chrono::steady_clock::now()) {
  CAMEO_EXPECTS(options_.workers >= 1 &&
                options_.workers <= Scheduler::kMaxWorkers);
  CAMEO_EXPECTS(options_.shards == 1);
  policy_->BindCostReader(&profiler_);
  std::lock_guard control(control_mu_);
  for (JobId job : graph_.job_ids()) RegisterJobTables(job);
}

ThreadRuntime::~ThreadRuntime() { Stop(); }

void ThreadRuntime::RegisterJobTables(JobId job) {
  const JobSpec& spec = graph_.job(job);
  latency_.RegisterJob(job, spec.latency_constraint, spec.output_window,
                       spec.output_slide, spec.output_gap);
  ConverterOptions options;
  options.use_query_semantics = options_.use_query_semantics;
  options.time_domain = spec.time_domain;
  std::vector<OperatorId> ops = graph_.OperatorsOf(job);
  converters_.InsertAll(ops, [&](OperatorId) {
    return std::make_unique<ContextConverter>(policy_.get(), options);
  });
  std::vector<OperatorId> source_ops;
  for (OperatorId op : ops) {
    // Pre-create the profiler entry so hot-path Record/Estimate calls never
    // take its slow path concurrently.
    profiler_.Seed(op, 0);
    if (graph_.Get(op).is_source()) source_ops.push_back(op);
  }
  sources_.InsertAll(source_ops,
                     [](OperatorId) { return std::make_unique<SourceState>(); });
  job_states_.GetOrCreate(job, [] { return std::make_unique<JobState>(); });
}

JobHandles ThreadRuntime::AddQuery(const QueryBuilder& build) {
  std::lock_guard control(control_mu_);
  JobHandles h = graph_.AddQuery(build);
  // Tables are fully registered before the id escapes, so the first Ingest
  // (which is what lets messages reach the new operators) finds everything.
  RegisterJobTables(h.job);
  return h;
}

void ThreadRuntime::RemoveQuery(JobId job) {
  std::lock_guard control(control_mu_);
  JobState* js = job_states_.Find(job);
  CAMEO_EXPECTS(js != nullptr);
  CAMEO_EXPECTS(js->live.load(std::memory_order_seq_cst));
  // 1. Gate: producers that read live after this flip back off; producers
  // that already passed the gate hold an inflight increment we wait for.
  js->live.store(false, std::memory_order_seq_cst);
  // 2. Per-job quiesce under everyone else's live traffic.
  {
    std::unique_lock lock(drain_mu_);
    drain_cv_.wait(lock, [js] {
      return js->inflight.load(std::memory_order_seq_cst) == 0;
    });
  }
  // 3. Retire: mark the graph, park the mailboxes at kRetired, purge lazy
  // ready entries. The quiesce guarantees the backlog was executed, so the
  // purge finds nothing -- removal in this backend never drops a message.
  std::vector<OperatorId> ops = graph_.RemoveQuery(job);
  std::int64_t purged = scheduler_->RetireOperators(ops);
  CAMEO_CHECK(purged == 0 && "graceful removal purged accepted messages");
}

bool ThreadRuntime::QueryLive(JobId job) const {
  JobState* js = job_states_.Find(job);
  return js != nullptr && js->live.load(std::memory_order_seq_cst);
}

ContextConverter& ThreadRuntime::converter(OperatorId op) {
  ContextConverter* c = converters_.Find(op);
  CAMEO_EXPECTS(c != nullptr);
  return *c;
}

SimTime ThreadRuntime::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - start_)
      .count();
}

void ThreadRuntime::Start() {
  CAMEO_EXPECTS(threads_.empty());
  stop_.store(false, std::memory_order_seq_cst);
  std::lock_guard control(control_mu_);
  for (int i = 0; i < options_.workers; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

void ThreadRuntime::Drain() {
  std::unique_lock lock(drain_mu_);
  drain_cv_.wait(lock, [this] {
    return inflight_.load(std::memory_order_seq_cst) == 0;
  });
}

void ThreadRuntime::Stop() {
  stop_.store(true, std::memory_order_seq_cst);
  wake_cv_.notify_all();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
}

void ThreadRuntime::EnqueueTracked(Message m, WorkerId producer,
                                   JobState& js) {
  inflight_.fetch_add(1, std::memory_order_seq_cst);
  js.inflight.fetch_add(1, std::memory_order_seq_cst);
  scheduler_->Enqueue(std::move(m), producer, Now());
  wake_cv_.notify_one();
}

void ThreadRuntime::FinishOne(JobState& js) {
  bool job_done = js.inflight.fetch_sub(1, std::memory_order_seq_cst) == 1;
  bool all_done = inflight_.fetch_sub(1, std::memory_order_seq_cst) == 1;
  if (job_done || all_done) {
    // Take the drain lock so a waiter cannot check the predicate and miss
    // this notification in between.
    std::lock_guard lock(drain_mu_);
    drain_cv_.notify_all();
  }
}

bool ThreadRuntime::Ingest(OperatorId source, std::int64_t tuples,
                           std::optional<LogicalTime> p) {
  const Operator& op = graph_.Get(source);
  CAMEO_EXPECTS(op.is_source());
  SimTime t = Now();
  LogicalTime logical = p.value_or(t);
  EventBatch batch = EventBatch::Synthetic(tuples, logical);
  return IngestBatch(source, std::move(batch));
}

bool ThreadRuntime::IngestBatch(OperatorId source, EventBatch batch) {
  const Operator& op = graph_.Get(source);
  CAMEO_EXPECTS(op.is_source());
  const JobSpec& spec = graph_.job(op.job());
  JobState* js = job_states_.Find(op.job());
  SourceState* src = sources_.Find(source);
  CAMEO_EXPECTS(js != nullptr && src != nullptr);
  // Ingest gate (see JobState): the increment doubles as a guard that keeps
  // RemoveQuery's quiesce from completing under our feet.
  js->inflight.fetch_add(1, std::memory_order_seq_cst);
  if (!js->live.load(std::memory_order_seq_cst)) {
    // Back out of the guard; if RemoveQuery is already waiting, this release
    // may be the zero it needs, so notify.
    if (js->inflight.fetch_sub(1, std::memory_order_seq_cst) == 1) {
      std::lock_guard lock(drain_mu_);
      drain_cv_.notify_all();
    }
    return false;
  }
  SimTime t = Now();
  // Serialize per source channel only: progress must be monotone and the
  // source's mailbox must receive batches in progress order, so the lock
  // covers the enqueue as well.
  std::lock_guard lock(src->mu);
  if (batch.progress <= src->last_progress) {
    batch.progress = src->last_progress + 1;
  }
  src->last_progress = batch.progress;
  latency_.OnSourceEvent(op.job(), batch.progress, t);
  SourceEvent e;
  e.p = batch.progress;
  e.t = t;
  Message m;
  m.pc = converter(source).BuildCxtAtSource(
      e, op, spec.latency_constraint,
      MessageId{next_message_id_.fetch_add(1, std::memory_order_relaxed)});
  m.id = m.pc.id;
  m.target = source;
  m.event_time = t;
  m.batch = std::move(batch);
  // The guard increment above already counted this message for the job;
  // only the global counter still needs its increment.
  inflight_.fetch_add(1, std::memory_order_seq_cst);
  scheduler_->Enqueue(std::move(m), WorkerId{}, Now());
  wake_cv_.notify_one();
  return true;
}

/// The wall-clock step hooks: messages go straight into the scheduler,
/// replies straight into the sender's converter.
class ThreadRuntime::WorkerHooks final : public StepHooks {
 public:
  WorkerHooks(ThreadRuntime& rt, int index, JobState& js)
      : rt_(rt), index_(index), js_(js) {}

  void Send(Message m) override {
    rt_.EnqueueTracked(std::move(m), WorkerId{index_}, js_);
  }

  void Reply(OperatorId sender, OperatorId from,
             const ReplyContext& rc) override {
    rt_.converter(sender).ProcessCtxFromReply(from, rc);
  }

 private:
  ThreadRuntime& rt_;
  int index_;
  // Edges never cross jobs (Connect checks), so every downstream message
  // belongs to the sender's job state.
  JobState& js_;
};

void ThreadRuntime::WorkerLoop(int index) {
  WorkerId w{index};
  Rng rng(options_.seed + static_cast<std::uint64_t>(index) * 7919);
  CollectingEmitter emitter;
  // The activation this worker holds (claim-and-drain contract): all
  // messages target one operator, claimed until the CompleteAndDequeue or
  // OnComplete below. Empty while the worker holds nothing. The batch and
  // the emitter retain capacity, keeping the loop allocation-free.
  std::vector<Message> batch;
  auto leaving = [this] { return stop_.load(std::memory_order_seq_cst); };
  // Sleeps until woken or 200 us pass; false when the worker must leave.
  auto park = [&] {
    std::unique_lock lock(wake_mu_);
    if (leaving()) return false;
    wake_cv_.wait_for(lock, std::chrono::microseconds(200));
    return true;
  };

  while (true) {
    if (batch.empty()) {
      if (leaving()) return;
      if (scheduler_->DequeueBatch(w, Now(), batch) == 0) {
        if (!park()) return;
        continue;
      }
    }

    // Invocations run with no locks held: the scheduler's operator
    // exclusivity guarantees this worker is the sole owner of the operator's
    // state, profiler entry and send-path converter use, for the whole
    // activation.
    const OperatorId target = batch.front().target;
    Operator& op = graph_.Get(target);
    JobState* js = job_states_.Find(op.job());
    CAMEO_EXPECTS(js != nullptr);
    WorkerHooks hooks(*this, index, *js);
    const Activation a{graph_,           profiler_, *policy_,
                       converter(target), op,        next_message_id_,
                       emitter,           rng,       hooks,
                       latency_,          index};
    for (Message& msg : batch) {
      // The profiled cost is measured: emulated compute plus the invocation.
      const SimTime start = Now();
      if (options_.wallclock.emulate_cost) {
        SpinFor(op.cost_model().Sample(msg.batch.size(), rng));
      }
      ExecuteStep(a, msg,
                  {.dispatched = start, .start = start, .wall_epoch = &start_});
    }
    const std::size_t done = batch.size();
    batch.clear();
    // A continuing operator keeps its claim across CompleteAndDequeue, so a
    // worker leaving on Stop() must release it with OnComplete: a claim that
    // outlived the worker would strand the operator's backlog across a
    // later Start().
    const bool leave = leaving();
    std::size_t next = 0;
    if (leave) {
      scheduler_->OnComplete(target, w, Now());
    } else {
      next = scheduler_->CompleteAndDequeue(target, w, Now(), batch);
    }
    // Only after the completion and output routing: the counters hit zero
    // iff the dataflow (respectively the job) is quiescent.
    for (std::size_t i = 0; i < done; ++i) FinishOne(*js);
    if (leave || (next == 0 && !park())) return;
  }
}

}  // namespace cameo
