// Property-based sweeps across window shapes, loads, and schedulers:
// conservation laws and ordering invariants that must hold for any
// parameter combination, plus failure-injection behaviour.
#include <gtest/gtest.h>

#include <numeric>

#include <unordered_map>
#include <unordered_set>

#include "bench_util/scenarios.h"
#include "common/rng.h"
#include "core/transform.h"
#include "ops/sink.h"
#include "ops/window_agg.h"
#include "sched/cameo_scheduler.h"
#include "sched/mailbox.h"
#include "sim/cluster.h"
#include "workload/tenants.h"

namespace cameo {
namespace {

// ---------------- Window algebra properties ----------------

struct WindowCase {
  LogicalTime size;
  LogicalTime slide;
};

class WindowProperty : public ::testing::TestWithParam<WindowCase> {};

TEST_P(WindowProperty, TupleCountConservation) {
  // Every tuple lands in exactly size/slide windows, so once all windows
  // flush, the sum of per-window counts equals tuples * (size/slide).
  const auto [size, slide] = GetParam();
  ASSERT_EQ(size % slide, 0) << "test cases use integral overlap";
  const std::int64_t overlap = size / slide;

  WindowAggOp agg("a", WindowSpec{size, slide}, {}, AggKind::kCount);
  struct Collect final : Emitter {
    void Emit(int, EventBatch b, SimTime) override {
      for (double v : b.values) total += v;
      ++outputs;
    }
    double total = 0;
    int outputs = 0;
  } sink;
  Rng rng(99);
  InvokeContext ctx{0, &sink, &rng};

  const int kTuples = 200;
  std::int64_t id = 0;
  LogicalTime horizon = 20 * size;
  for (int i = 0; i < kTuples; ++i) {
    LogicalTime t = 1 + rng.UniformInt(0, horizon - 2);
    Message m;
    m.id = MessageId{id++};
    m.sender = OperatorId{0};
    // Tuples arrive in random order, so the channel's progress must stay a
    // lower bound on every future tuple time (the EventBatch contract) --
    // anything faster would make the randomly-early tuples late, and the
    // operator now drops late folds instead of resurrecting fired windows.
    m.batch.progress = 0;
    m.batch.Append(0, 1.0, t);
    agg.Invoke(m, ctx);
  }
  // Flush: advance progress far past every open window.
  Message flush;
  flush.id = MessageId{id++};
  flush.sender = OperatorId{0};
  flush.batch.progress = horizon + size * 2;
  flush.batch.Append(0, 1.0, horizon + size);
  agg.Invoke(flush, ctx);

  EXPECT_DOUBLE_EQ(sink.total,
                   static_cast<double>((kTuples + 1) * overlap));
  EXPECT_EQ(agg.open_windows(), 0u) << "everything flushed";
}

TEST_P(WindowProperty, TransformAgreesWithOperatorAssignment) {
  // TRANSFORM's frontier is exactly the first window the operator will
  // trigger for a tuple at p.
  const auto [size, slide] = GetParam();
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    LogicalTime p = 1 + rng.UniformInt(0, 10 * size);
    LogicalTime frontier = Transform(p, 0, slide);
    // Operator model: earliest multiple-of-slide window end in [p, p+size).
    LogicalTime first = ((p + slide - 1) / slide) * slide;
    EXPECT_EQ(frontier, first) << "p=" << p;
    EXPECT_GE(frontier, p);
    EXPECT_LT(frontier - p, slide);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, WindowProperty,
    ::testing::Values(WindowCase{10, 10}, WindowCase{20, 10},
                      WindowCase{30, 10}, WindowCase{100, 25},
                      WindowCase{Seconds(1), Seconds(1)},
                      WindowCase{Seconds(10), Seconds(1)}),
    [](const ::testing::TestParamInfo<WindowCase>& info) {
      return "w" + std::to_string(info.param.size) + "s" +
             std::to_string(info.param.slide);
    });

// ---------------- End-to-end conservation across schedulers ----------------

class SchedulerSweep : public ::testing::TestWithParam<SchedulerKind> {};

TEST_P(SchedulerSweep, WindowSumsIndependentOfScheduler) {
  // The *values* computed by the pipeline must not depend on the scheduler:
  // scheduling changes order and latency, never results. Compare total sink
  // tuple volume and output count over windows that every run flushed.
  auto run = [&](SchedulerKind kind) {
    DataflowGraph graph;
    QuerySpec spec = MakeLatencySensitiveSpec("LS0");
    spec.sources = 4;
    spec.aggs = 2;
    JobHandles h = BuildAggregationJob(graph, spec);
    EngineOptions cfg;
    cfg.workers = 2;
    cfg.scheduler = kind;
    cfg.sim.straggler_prob = 0;  // keep every run comfortably inside the horizon
    Cluster cluster(cfg, std::move(graph));
    cluster.AddIngestion(h.source, [&](int r) {
      return std::make_unique<ConstantRate>(1.0, 500, 0, Seconds(15),
                                            Millis(3 + 2 * r), true);
    });
    cluster.Run(Seconds(30));
    return std::pair(cluster.latency().outputs(h.job),
                     cluster.latency().sink_tuples(h.job));
  };
  auto [outputs, tuples] = run(GetParam());
  auto [ref_outputs, ref_tuples] = run(SchedulerKind::kCameo);
  EXPECT_EQ(outputs, ref_outputs);
  EXPECT_EQ(tuples, ref_tuples);
}

TEST_P(SchedulerSweep, NoMessageLostUnderBurstOverload) {
  // Failure injection: a 20x burst in the middle of the run overloads the
  // cluster; afterwards every ingested tuple must still be accounted for at
  // the sources (processed counter) once the queues drain.
  DataflowGraph graph;
  QuerySpec spec = MakeLatencySensitiveSpec("LS0");
  spec.sources = 2;
  spec.aggs = 2;
  JobHandles h = BuildAggregationJob(graph, spec);
  EngineOptions cfg;
  cfg.workers = 2;
  cfg.scheduler = GetParam();
  Cluster cluster(cfg, std::move(graph));

  // Steady 1 msg/s plus a burst of 40 messages at t=10s on each source.
  std::int64_t expected_tuples = 0;
  std::vector<Arrival> arrivals;
  for (int k = 1; k <= 20; ++k) {
    arrivals.push_back({Seconds(k) + Millis(5), 1000, Seconds(k)});
    expected_tuples += 1000;
  }
  for (int i = 0; i < 40; ++i) {
    arrivals.push_back({Seconds(10) + Millis(6 + i), 1000, -1});
    expected_tuples += 1000;
  }
  std::sort(arrivals.begin(), arrivals.end(),
            [](const Arrival& a, const Arrival& b) { return a.time < b.time; });
  cluster.AddIngestion(h.source, [&](int) {
    return std::make_unique<ReplayTrace>(arrivals);
  });
  cluster.Run(Seconds(120));  // long tail to drain the burst
  EXPECT_EQ(cluster.latency().processed(h.job),
            expected_tuples * 2);  // two sources
}

INSTANTIATE_TEST_SUITE_P(AllSchedulers, SchedulerSweep,
                         ::testing::Values(SchedulerKind::kCameo,
                                           SchedulerKind::kFifo,
                                           SchedulerKind::kOrleans,
                                           SchedulerKind::kSlot),
                         [](const auto& info) { return ToString(info.param); });

// ---------------- Deadline / policy properties ----------------

TEST(DeadlineProperty, LaxerConstraintNeverIncreasesPriority) {
  LeastLaxityFirst llf;
  Rng rng(5);
  for (int i = 0; i < 300; ++i) {
    PriorityContext a, b;
    a.frontier_time = b.frontier_time = rng.UniformInt(0, Seconds(100));
    a.frontier_progress = b.frontier_progress = a.frontier_time;
    a.latency_constraint = rng.UniformInt(0, Seconds(10));
    b.latency_constraint = a.latency_constraint + rng.UniformInt(1, Seconds(10));
    ReplyContext rc;
    rc.valid = true;
    rc.cost_m = rng.UniformInt(0, Millis(10));
    rc.cost_path = rng.UniformInt(0, Millis(10));
    llf.AssignPriority(a, rc, OperatorId{1});
    llf.AssignPriority(b, rc, OperatorId{1});
    EXPECT_LT(a.pri_global, b.pri_global)
        << "tighter constraint must be more urgent";
  }
}

TEST(DeadlineProperty, LongerCriticalPathIsMoreUrgent) {
  LeastLaxityFirst llf;
  PriorityContext shallow, deep;
  shallow.frontier_time = deep.frontier_time = Seconds(5);
  shallow.latency_constraint = deep.latency_constraint = Millis(800);
  ReplyContext rc_shallow, rc_deep;
  rc_shallow.valid = rc_deep.valid = true;
  rc_shallow.cost_m = rc_deep.cost_m = Millis(1);
  rc_shallow.cost_path = Millis(2);
  rc_deep.cost_path = Millis(50);
  llf.AssignPriority(shallow, rc_shallow, OperatorId{1});
  llf.AssignPriority(deep, rc_deep, OperatorId{1});
  EXPECT_LT(deep.pri_global, shallow.pri_global)
      << "more downstream work leaves less slack";
}

TEST(DeadlineProperty, ExtensionNeverShrinksDeadline) {
  // TRANSFORM + PROGRESSMAP may only push a message's deadline later
  // (windowed target) or keep it (regular target) -- never earlier.
  Rng rng(11);
  LeastLaxityFirst llf;
  for (int i = 0; i < 200; ++i) {
    SimTime t = rng.UniformInt(Millis(1), Seconds(50));
    LogicalTime p = t;  // ingestion-time style
    LogicalTime slide = Seconds(1);
    LogicalTime frontier = Transform(p, 0, slide);
    EXPECT_GE(frontier, p);
    PriorityContext regular, windowed;
    regular.frontier_time = t;
    windowed.frontier_time = frontier;  // ingestion time: map is identity
    regular.latency_constraint = windowed.latency_constraint = Millis(800);
    ReplyContext rc;
    rc.valid = true;
    llf.AssignPriority(regular, rc, OperatorId{1});
    llf.AssignPriority(windowed, rc, OperatorId{1});
    EXPECT_GE(windowed.pri_global, regular.pri_global);
  }
}

// ---------------- Failure injection on the cluster ----------------

TEST(FailureInjection, ExtremePerturbationStillDeliversAllWindows) {
  // Even with completely unreliable cost estimates (sigma = 10 s), Cameo
  // must remain live: every window is eventually produced.
  DataflowGraph graph;
  QuerySpec spec = MakeLatencySensitiveSpec("LS0");
  spec.sources = 4;
  spec.aggs = 2;
  JobHandles h = BuildAggregationJob(graph, spec);
  EngineOptions cfg;
  cfg.workers = 2;
  cfg.sim.profiler_perturbation = Seconds(10);
  Cluster cluster(cfg, std::move(graph));
  cluster.AddIngestion(h.source, [](int r) {
    return std::make_unique<ConstantRate>(1.0, 1000, 0, Seconds(20),
                                          Millis(2 + 3 * r), true);
  });
  cluster.Run(Seconds(40));
  EXPECT_GE(cluster.latency().outputs(h.job), 18u);
}

TEST(FailureInjection, FrequentStragglersDegradeButDoNotWedge) {
  DataflowGraph graph;
  QuerySpec spec = MakeLatencySensitiveSpec("LS0");
  spec.sources = 4;
  spec.aggs = 2;
  JobHandles h = BuildAggregationJob(graph, spec);
  EngineOptions cfg;
  cfg.workers = 2;
  cfg.sim.straggler_prob = 0.2;  // 1 in 5 invocations runs 15x long
  Cluster cluster(cfg, std::move(graph));
  cluster.AddIngestion(h.source, [](int r) {
    return std::make_unique<ConstantRate>(1.0, 1000, 0, Seconds(20),
                                          Millis(2 + 3 * r), true);
  });
  cluster.Run(Seconds(60));
  EXPECT_GE(cluster.latency().outputs(h.job), 15u);
  // Latency suffers but stays bounded by the drain horizon.
  EXPECT_LT(cluster.latency().Latency(h.job).Max(),
            static_cast<double>(Seconds(40)));
}

TEST(FailureInjection, ColdStartWithoutSeedsConverges) {
  // With no static seeding and no prior acks, the first windows run on
  // zero-cost estimates; the system must still converge to the same
  // steady-state latency as the seeded run.
  auto run = [&](bool seeded) {
    DataflowGraph graph;
    QuerySpec spec = MakeLatencySensitiveSpec("LS0");
    spec.sources = 4;
    spec.aggs = 2;
    JobHandles h = BuildAggregationJob(graph, spec);
    EngineOptions cfg;
    cfg.workers = 2;
    cfg.sim.seed_static_estimates = seeded;
    Cluster cluster(cfg, std::move(graph));
    cluster.AddIngestion(h.source, [](int r) {
      return std::make_unique<ConstantRate>(1.0, 1000, 0, Seconds(60),
                                            Millis(2 + 3 * r), true);
    });
    // Steady state: median over the run's second half, i.e. the samples
    // recorded after the first 30 s leg.
    cluster.Run(Seconds(30));
    const std::size_t first_half = cluster.latency().Latency(h.job).count();
    cluster.Run(Seconds(60));
    const SampleStats all = cluster.latency().Latency(h.job);
    SampleStats tail_half;
    for (std::size_t i = first_half; i < all.samples().size(); ++i) {
      tail_half.Add(all.samples()[i]);
    }
    return tail_half.Median();
  };
  double seeded = run(true);
  double cold = run(false);
  EXPECT_NEAR(cold, seeded, 0.5 * seeded);
}

// ---------------- MailboxTable / scheduler invariants ----------------

// Random Enqueue/Dequeue/OnComplete interleavings against the sharded
// control plane. Two invariants must hold for every scheduler:
//  1. an operator is never active on two workers at once, and
//  2. per-mailbox dispatch order is FIFO (messages to one operator come out
//     in enqueue order when priorities do not distinguish them).
class MailboxInvariants : public ::testing::TestWithParam<SchedulerKind> {};

TEST_P(MailboxInvariants, ExclusivityAndPerMailboxFifoUnderRandomOps) {
  constexpr int kWorkers = 3;
  constexpr int kOperators = 9;
  constexpr int kSteps = 20000;
  SchedulerConfig cfg;
  cfg.quantum = Micros(50);
  auto sched = MakeScheduler(GetParam(), kWorkers, cfg);

  Rng rng(4242);
  std::int64_t next_id = 0;
  SimTime now = 0;
  // Per-operator enqueue order and dispatch order.
  std::unordered_map<std::int64_t, std::deque<std::int64_t>> expected;
  // Worker -> (operator, message id) currently active.
  std::unordered_map<int, std::pair<std::int64_t, std::int64_t>> running;
  std::unordered_set<std::int64_t> active_ops;
  std::int64_t enqueued = 0, dispatched = 0;

  for (int step = 0; step < kSteps; ++step) {
    now += rng.UniformInt(0, Micros(20));
    const int action = static_cast<int>(rng.UniformInt(0, 2));
    if (action == 0 || enqueued - dispatched > 64) {
      // OnComplete for a random running worker (if any).
      if (!running.empty()) {
        auto it = running.begin();
        std::advance(it, static_cast<long>(
                             rng.UniformInt(0, static_cast<std::int64_t>(
                                                   running.size() - 1))));
        auto [w, what] = *it;
        sched->OnComplete(OperatorId{what.first}, WorkerId{w}, now);
        active_ops.erase(what.first);
        running.erase(it);
        continue;
      }
    }
    if (action == 1) {
      // Enqueue: same pri_global/pri_local for everything so FIFO tie-break
      // governs order even under the Cameo heap.
      std::int64_t op = rng.UniformInt(0, kOperators - 1);
      Message m;
      m.id = MessageId{next_id};
      m.target = OperatorId{op};
      m.pc.id = m.id;
      m.pc.pri_global = Millis(5);
      m.pc.pri_local = 0;
      m.batch = EventBatch::Synthetic(1, step + 1);
      sched->Enqueue(std::move(m), WorkerId{}, now);
      expected[op].push_back(next_id);
      ++next_id;
      ++enqueued;
      continue;
    }
    // Dequeue on a random free worker.
    int w = static_cast<int>(rng.UniformInt(0, kWorkers - 1));
    if (running.find(w) != running.end()) continue;
    auto m = sched->Dequeue(WorkerId{w}, now);
    if (!m.has_value()) continue;
    std::int64_t op = m->target.value;
    // Invariant 1: never active on two workers.
    ASSERT_TRUE(active_ops.insert(op).second)
        << sched->name() << ": operator " << op << " double-activated";
    // Invariant 2: per-mailbox FIFO.
    ASSERT_FALSE(expected[op].empty());
    EXPECT_EQ(m->id.value, expected[op].front())
        << sched->name() << ": mailbox " << op << " out of order";
    expected[op].pop_front();
    running[w] = {op, m->id.value};
    ++dispatched;
  }
  // Drain whatever remains: conservation closes the books.
  for (auto& [w, what] : running) {
    sched->OnComplete(OperatorId{what.first}, WorkerId{w}, now);
  }
  running.clear();
  active_ops.clear();
  bool progress = true;
  while (progress) {
    progress = false;
    for (int w = 0; w < kWorkers; ++w) {
      now += Micros(10);
      while (auto m = sched->Dequeue(WorkerId{w}, now)) {
        std::int64_t op = m->target.value;
        ASSERT_FALSE(expected[op].empty());
        EXPECT_EQ(m->id.value, expected[op].front());
        expected[op].pop_front();
        sched->OnComplete(m->target, WorkerId{w}, now);
        ++dispatched;
        progress = true;
      }
    }
  }
  EXPECT_EQ(dispatched, enqueued);
  EXPECT_EQ(sched->pending(), 0u);
  for (auto& [op, q] : expected) {
    EXPECT_TRUE(q.empty()) << "operator " << op << " lost messages";
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchedulers, MailboxInvariants,
                         ::testing::Values(SchedulerKind::kCameo,
                                           SchedulerKind::kFifo,
                                           SchedulerKind::kOrleans,
                                           SchedulerKind::kSlot),
                         [](const auto& info) { return ToString(info.param); });

TEST(MailboxProperty, DrainPreservesPushOrderAndCounts) {
  // The raw mailbox: any mix of pushes and claim/drain/pop cycles preserves
  // FIFO order and the size counter.
  Mailbox mb(MailboxOrder::kFifo);
  Rng rng(7);
  std::int64_t pushed = 0, popped = 0;
  std::deque<std::int64_t> order;
  for (int round = 0; round < 500; ++round) {
    std::int64_t n = rng.UniformInt(0, 5);
    for (std::int64_t i = 0; i < n; ++i) {
      Message m;
      m.id = MessageId{pushed};
      order.push_back(pushed);
      ++pushed;
      mb.Push(std::move(m));
    }
    EXPECT_EQ(mb.size(), pushed - popped);
    if (rng.Chance(0.7) && mb.size() > 0) {
      ASSERT_TRUE(mb.TryClaim());
      mb.DrainInbox();
      std::int64_t take = rng.UniformInt(1, mb.size());
      for (std::int64_t i = 0; i < take && !mb.buffer_empty(); ++i) {
        Message m = mb.PopBest();
        ASSERT_FALSE(order.empty());
        EXPECT_EQ(m.id.value, order.front());
        order.pop_front();
        ++popped;
      }
      ReleaseMailbox(mb, [](Mailbox&) { return 0; }, [](int, std::uint64_t) {});
    }
  }
  EXPECT_EQ(mb.size(), pushed - popped);
}

// ---------------- Retirement invariants (query hot-remove) ----------------

TEST(RetirementProperty, RetiredMailboxRejectsEveryClaimAndPush) {
  Mailbox mb(MailboxOrder::kFifo);
  Message m;
  m.id = MessageId{1};
  ASSERT_TRUE(mb.Push(std::move(m)));
  std::uint64_t session = 0;
  ASSERT_TRUE(mb.TryMarkQueued(session));  // mint a lazy ready entry's epoch

  mb.BeginRetire();
  ASSERT_TRUE(mb.TryClaim());
  EXPECT_EQ(mb.PurgeBacklog(), 1);  // backlog discarded with accounting
  mb.ReleaseToRetired();

  EXPECT_EQ(mb.state(), Mailbox::State::kRetired);
  EXPECT_GT(mb.epoch(), session) << "retirement must open a fresh epoch";
  // The stale entry (old epoch), a forged entry (current epoch), and every
  // other claim path must all fail forever.
  EXPECT_FALSE(mb.TryClaimQueued(session));
  EXPECT_FALSE(mb.TryClaimQueued(mb.epoch()));
  EXPECT_FALSE(mb.TryClaim());
  EXPECT_FALSE(mb.TryReclaim());
  std::uint64_t epoch_out = 0;
  EXPECT_FALSE(mb.TryMarkQueued(epoch_out));
  Message late;
  late.id = MessageId{2};
  EXPECT_FALSE(mb.Push(std::move(late))) << "retired mailbox took a push";
  EXPECT_EQ(mb.size(), 0);
}

TEST(RetirementProperty, EpochNeverRegressesThroughRandomLifecycle) {
  Rng rng(31);
  for (int round = 0; round < 50; ++round) {
    Mailbox mb(MailboxOrder::kFifo);
    std::uint64_t last_epoch = mb.epoch();
    std::int64_t id = 0;
    auto check = [&] {
      std::uint64_t e = mb.epoch();
      ASSERT_GE(e, last_epoch) << "epoch word regressed";
      last_epoch = e;
    };
    for (int step = 0; step < 200; ++step) {
      switch (rng.UniformInt(0, 3)) {
        case 0: {
          Message m;
          m.id = MessageId{id++};
          mb.Push(std::move(m));
          break;
        }
        case 1: {
          std::uint64_t e = 0;
          mb.TryMarkQueued(e);
          break;
        }
        case 2:
          if (mb.TryClaim()) {
            mb.DrainInbox();
            while (!mb.buffer_empty() && rng.Chance(0.5)) mb.PopBest();
            ReleaseMailbox(
                mb, [](Mailbox&) { return 0; }, [](int, std::uint64_t) {});
          }
          break;
        default:
          break;
      }
      check();
    }
    // Terminal retirement bumps once more and then pins the epoch.
    mb.BeginRetire();
    if (mb.state() != Mailbox::State::kRetired && mb.TryClaim()) {
      mb.PurgeBacklog();
      mb.ReleaseToRetired();
    }
    check();
    EXPECT_EQ(mb.state(), Mailbox::State::kRetired);
  }
}

// Random Enqueue/Dequeue/OnComplete/RetireOperators interleavings: once
// RetireOperators(op) has returned (and any invocation running at that
// moment completed), no message for op is ever dispatched again -- lazy
// ready-queue entries are discarded, not served -- and the books close:
// every enqueue attempt is dispatched, purged, or rejected.
class RetirementSweep : public ::testing::TestWithParam<SchedulerKind> {};

TEST_P(RetirementSweep, RetiredOpsNeverDispatchAndEverythingIsAccounted) {
  constexpr int kWorkers = 3;
  constexpr int kOperators = 12;
  constexpr int kSteps = 20000;
  SchedulerConfig cfg;
  cfg.quantum = Micros(50);
  auto sched = MakeScheduler(GetParam(), kWorkers, cfg);

  Rng rng(9001);
  std::int64_t next_id = 0;
  SimTime now = 0;
  std::unordered_set<std::int64_t> retired;
  std::unordered_map<int, std::int64_t> running;  // worker -> operator
  std::int64_t attempts = 0;
  std::int64_t dispatched = 0;

  auto dequeue_on = [&](int w) {
    auto m = sched->Dequeue(WorkerId{w}, now);
    if (!m.has_value()) return false;
    EXPECT_EQ(retired.count(m->target.value), 0u)
        << sched->name() << ": dispatched retired operator "
        << m->target.value;
    running[w] = m->target.value;
    ++dispatched;
    return true;
  };

  for (int step = 0; step < kSteps; ++step) {
    now += rng.UniformInt(0, Micros(20));
    switch (rng.UniformInt(0, 9)) {
      case 0:
      case 1: {  // complete a random running invocation
        if (running.empty()) break;
        auto it = running.begin();
        sched->OnComplete(OperatorId{it->second}, WorkerId{it->first}, now);
        running.erase(it);
        break;
      }
      case 2: {  // retire a random operator (possibly mid-invocation)
        std::int64_t op = rng.UniformInt(0, kOperators - 1);
        bool is_running = false;
        for (auto& [w, r] : running) is_running |= r == op;
        if (is_running) break;  // keep the model simple: retire parked ops
        sched->RetireOperators({OperatorId{op}});
        retired.insert(op);
        break;
      }
      case 3:
      case 4:
      case 5: {  // enqueue (sometimes to an already-retired operator)
        std::int64_t op = rng.UniformInt(0, kOperators - 1);
        Message m;
        m.id = MessageId{next_id++};
        m.target = OperatorId{op};
        m.pc.id = m.id;
        m.pc.pri_global = Millis(1 + op);
        m.batch = EventBatch::Synthetic(1, step + 1);
        sched->Enqueue(std::move(m), WorkerId{}, now);
        ++attempts;
        break;
      }
      default: {  // dequeue on a random free worker
        int w = static_cast<int>(rng.UniformInt(0, kWorkers - 1));
        if (running.find(w) != running.end()) break;
        dequeue_on(w);
        break;
      }
    }
  }
  for (auto& [w, op] : running) {
    sched->OnComplete(OperatorId{op}, WorkerId{w}, now);
  }
  running.clear();
  bool progress = true;
  while (progress) {
    progress = false;
    for (int w = 0; w < kWorkers; ++w) {
      now += Micros(10);
      while (dequeue_on(w)) {
        auto it = running.find(w);
        sched->OnComplete(OperatorId{it->second}, WorkerId{w}, now);
        running.erase(it);
        progress = true;
      }
    }
  }

  SchedulerStats stats = sched->stats();
  EXPECT_EQ(sched->pending(), 0u);
  EXPECT_EQ(stats.enqueued + stats.rejected,
            static_cast<std::uint64_t>(attempts));
  EXPECT_EQ(stats.enqueued, stats.dispatched + stats.purged)
      << sched->name() << ": purge accounting leaked messages";
  EXPECT_EQ(stats.dispatched, static_cast<std::uint64_t>(dispatched));
}

INSTANTIATE_TEST_SUITE_P(AllSchedulers, RetirementSweep,
                         ::testing::Values(SchedulerKind::kCameo,
                                           SchedulerKind::kFifo,
                                           SchedulerKind::kOrleans,
                                           SchedulerKind::kSlot),
                         [](const auto& info) { return ToString(info.param); });

// ---------------- Starvation guard (§6.3) ----------------

TEST(StarvationGuard, BoundsLowPriorityWaitUnderPressure) {
  // Without the guard, untokened/lax traffic can wait indefinitely behind a
  // saturating stream of urgent work; with the guard its wait is capped.
  auto run = [&](Duration limit) {
    SchedulerConfig cfg;
    cfg.quantum = 0;
    cfg.starvation_limit = limit;
    CameoScheduler sched(cfg);
    // One lax message at t=0...
    Message lax;
    lax.id = MessageId{0};
    lax.target = OperatorId{99};
    lax.pc.pri_global = Seconds(7200);
    lax.batch = EventBatch::Synthetic(1, 0);
    sched.Enqueue(std::move(lax), WorkerId{}, 0);
    // ...competing against a steady stream of urgent messages.
    SimTime now = 0;
    std::int64_t id = 1;
    for (int i = 0; i < 1000; ++i) {
      now += Millis(1);
      Message urgent;
      urgent.id = MessageId{id++};
      urgent.target = OperatorId{1};
      urgent.pc.pri_global = now + Millis(10);
      urgent.batch = EventBatch::Synthetic(1, 0);
      sched.Enqueue(std::move(urgent), WorkerId{}, now);
      auto m = sched.Dequeue(WorkerId{0}, now);
      if (!m) continue;
      if (m->target == OperatorId{99}) return now;  // lax message served
      sched.OnComplete(m->target, WorkerId{0}, now);
    }
    return kTimeMax;
  };
  EXPECT_EQ(run(kTimeMax), kTimeMax) << "no guard: starves for the whole run";
  SimTime served_at = run(Millis(50));
  EXPECT_LE(served_at, Millis(60)) << "guard caps the wait near the limit";
}

}  // namespace
}  // namespace cameo
