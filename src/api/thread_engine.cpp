#include "api/thread_engine.h"

#include <chrono>
#include <mutex>
#include <thread>
#include <utility>

#include "common/check.h"

namespace cameo {

ThreadEngine::ThreadEngine(EngineOptions options) : Engine(std::move(options)) {
  // Sharding is a sim-backend capability (src/shard/): the wall-clock
  // runtime is one machine by definition. Reject rather than silently run
  // an 8-shard scenario on one scheduler.
  CAMEO_EXPECTS(options_.shards == 1 &&
                "ThreadEngine cannot honour EngineOptions::shards > 1");
}

ThreadEngine::~ThreadEngine() { Stop(); }

void ThreadEngine::EnsureStarted() { Start(); }

void ThreadEngine::Start() {
  // Producers reach this concurrently through Ingest/IngestBatch: exactly
  // one of them builds the runtime, the rest wait until it has started.
  std::call_once(start_once_, [this] {
    runtime_ = std::make_unique<ThreadRuntime>(options_, std::move(staging_));
    runtime_->Start();
  });
}

QueryHandle ThreadEngine::Submit(const QueryDef& def) {
  QueryHandle q;
  q.name = def.name();
  if (runtime_ == nullptr) {
    q.handles = def.Build(staging_);
  } else {
    q.handles = runtime_->AddQuery(def.Builder());
  }
  if (def.has_ingest()) AttachProducers(def, q.handles);
  return q;
}

void ThreadEngine::AttachProducers(const QueryDef& def, const JobHandles& h) {
  const IngestSpec& spec = def.ingest();
  AttachStage(spec, def.domain(), h.source);
  if (h.source_right.valid()) AttachStage(spec, def.domain(), h.source_right);
}

void ThreadEngine::AttachStage(const IngestSpec& spec, TimeDomain domain,
                               StageId stage) {
  ArrivalProcessFactory factory = MakeArrivalFactory(spec);
  const StageInfo& info = graph().stage(stage);
  for (int r = 0; r < info.parallelism; ++r) {
    auto p = std::make_unique<Producer>();
    p->op = info.operators[static_cast<std::size_t>(r)];
    p->domain = domain;
    p->event_time_delay = spec.event_time_delay;
    p->process = factory(r);
    CAMEO_CHECK(p->process != nullptr);
    // Deterministic per-producer stream, decorrelated by operator id.
    p->rng = Rng(options_.seed ^
                 (0x9e3779b97f4a7c15ULL *
                  static_cast<std::uint64_t>(p->op.value + 1)));
    if (spec.key_sampler) {
      p->sampler = spec.key_sampler(r);
      CAMEO_CHECK(p->sampler != nullptr);
      p->key_rng = Rng(options_.seed * 0x9e3779b97f4a7c15ULL +
                       0xd1b54a32d192ed03ULL *
                           static_cast<std::uint64_t>(p->op.value + 1));
    }
    producers_.push_back(std::move(p));
  }
}

void ThreadEngine::RunFor(Duration d) {
  CAMEO_EXPECTS(d >= 0);
  EnsureStarted();
  const SimTime window_start = ingest_elapsed_;
  const SimTime window_end = window_start + d;
  const double scale = options_.wallclock.time_scale;
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(producers_.size());
  for (const std::unique_ptr<Producer>& owned : producers_) {
    Producer* p = owned.get();
    if (p->done) continue;
    threads.emplace_back([this, p, window_start, window_end, scale, t0] {
      for (;;) {
        std::optional<Arrival> a;
        if (p->pending.has_value()) {
          a = std::exchange(p->pending, std::nullopt);
        } else {
          a = p->process->Next(p->rng);
        }
        if (!a.has_value()) {
          p->done = true;
          return;
        }
        if (a->time > window_end) {
          p->pending = a;  // replay in the next window
          return;
        }
        const auto wake =
            t0 + std::chrono::nanoseconds(static_cast<std::int64_t>(
                     static_cast<double>(a->time - window_start) * scale));
        std::this_thread::sleep_until(wake);
        std::optional<LogicalTime> logical;
        if (p->domain == TimeDomain::kEventTime) {
          logical = a->logical >= 0 ? a->logical
                                    : a->time - p->event_time_delay;
        }
        bool accepted;
        if (p->sampler != nullptr) {
          EventBatch batch;
          batch.progress = logical.value_or(a->time);
          p->sampler->Fill(batch, a->tuples, batch.progress, p->key_rng);
          accepted = runtime_->IngestBatch(p->op, std::move(batch));
        } else {
          accepted = runtime_->Ingest(p->op, a->tuples, logical);
        }
        if (!accepted) {
          p->done = true;  // query removed: producer retires
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ingest_elapsed_ = window_end;
  runtime_->Drain();
}

void ThreadEngine::Remove(const QueryHandle& q) {
  CAMEO_EXPECTS(q.handles.job.valid());
  EnsureStarted();  // a staged query may be removed before the run starts
  runtime_->RemoveQuery(q.handles.job);
}

void ThreadEngine::Drain() {
  if (runtime_ != nullptr) runtime_->Drain();
}

void ThreadEngine::Stop() {
  if (runtime_ != nullptr) runtime_->Stop();
}

bool ThreadEngine::Ingest(OperatorId source, std::int64_t tuples,
                          std::optional<LogicalTime> p) {
  EnsureStarted();
  return runtime_->Ingest(source, tuples, p);
}

bool ThreadEngine::IngestBatch(OperatorId source, EventBatch batch) {
  EnsureStarted();
  return runtime_->IngestBatch(source, std::move(batch));
}

SampleStats ThreadEngine::Latency(const QueryHandle& q) const {
  CAMEO_EXPECTS(runtime_ != nullptr && q.handles.job.valid());
  return runtime_->latency().Latency(q.handles.job);
}

double ThreadEngine::SuccessRate(const QueryHandle& q) const {
  CAMEO_EXPECTS(runtime_ != nullptr && q.handles.job.valid());
  return runtime_->latency().SuccessRate(q.handles.job);
}

DataflowGraph& ThreadEngine::graph() {
  return runtime_ != nullptr ? runtime_->graph() : staging_;
}

SchedulerStats ThreadEngine::sched_stats() const {
  CAMEO_EXPECTS(runtime_ != nullptr);
  return runtime_->scheduler().stats();
}

ThreadRuntime& ThreadEngine::runtime() {
  EnsureStarted();
  return *runtime_;
}

}  // namespace cameo
