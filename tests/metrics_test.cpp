// Unit tests for src/metrics: latency attribution (the paper's §4.1 latency
// definition), success rates, processed-volume buckets, the recorder under
// concurrent writers, utilization, timelines.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "metrics/latency_recorder.h"
#include "metrics/timeline.h"
#include "metrics/utilization.h"

namespace cameo {
namespace {

const JobId kJob{0};

TEST(LatencyRecorderTest, TumblingWindowAttribution) {
  LatencyRecorder r;
  r.RegisterJob(kJob, Millis(800), Seconds(1), Seconds(1));
  // Window (0, 1s]: events arrive at 400ms and 950ms.
  r.OnSourceEvent(kJob, Millis(400), Millis(420));
  r.OnSourceEvent(kJob, Millis(950), Millis(980));
  // Output for window ending 1s emitted at 1.1s.
  r.OnSinkOutput(0, kJob, Seconds(1), Millis(1100));
  ASSERT_EQ(r.outputs(kJob), 1u);
  EXPECT_DOUBLE_EQ(r.Latency(kJob).Max(),
                   static_cast<double>(Millis(1100) - Millis(980)));
}

TEST(LatencyRecorderTest, BoundaryEventBelongsToItsWindow) {
  LatencyRecorder r;
  r.RegisterJob(kJob, Millis(800), Seconds(1), Seconds(1));
  // Inclusive-right: the event at logical exactly 1s is in window 1s.
  r.OnSourceEvent(kJob, Seconds(1), Millis(1030));
  r.OnSinkOutput(0, kJob, Seconds(1), Millis(1100));
  ASSERT_EQ(r.outputs(kJob), 1u);
  EXPECT_DOUBLE_EQ(r.Latency(kJob).Max(), static_cast<double>(Millis(70)));
}

TEST(LatencyRecorderTest, EmptyWindowRecordsNothing) {
  LatencyRecorder r;
  r.RegisterJob(kJob, Millis(800), Seconds(1), Seconds(1));
  r.OnSinkOutput(0, kJob, Seconds(5), Millis(5100));
  EXPECT_EQ(r.outputs(kJob), 0u);
}

TEST(LatencyRecorderTest, SlidingWindowSpansMultipleBuckets) {
  LatencyRecorder r;
  // W=2s, S=1s: output at boundary 2s covers events in (0, 2s].
  r.RegisterJob(kJob, Millis(800), Seconds(2), Seconds(1));
  r.OnSourceEvent(kJob, Millis(500), Millis(520));    // bucket 1
  r.OnSourceEvent(kJob, Millis(1500), Millis(1530));  // bucket 2
  r.OnSinkOutput(0, kJob, Seconds(2), Millis(2100));
  ASSERT_EQ(r.outputs(kJob), 1u);
  EXPECT_DOUBLE_EQ(r.Latency(kJob).Max(),
                   static_cast<double>(Millis(2100) - Millis(1530)));
}

TEST(LatencyRecorderTest, SuccessRateAgainstConstraint) {
  LatencyRecorder r;
  r.RegisterJob(kJob, Millis(100), Seconds(1), Seconds(1));
  r.OnSourceEvent(kJob, Millis(900), Millis(900));
  r.OnSinkOutput(0, kJob, Seconds(1), Millis(950));  // 50ms: met
  r.OnSourceEvent(kJob, Millis(1900), Millis(1900));
  r.OnSinkOutput(0, kJob, Seconds(2), Millis(2300));  // 400ms: missed
  EXPECT_DOUBLE_EQ(r.SuccessRate(kJob), 0.5);
}

TEST(LatencyRecorderTest, PerMessageJobsUseEventTime) {
  LatencyRecorder r;
  r.RegisterJob(kJob, Millis(100), 0, 0);  // slide 0: per-message latency
  r.OnSinkOutput(0, kJob, /*window_end=arrival time*/ Millis(500), Millis(620));
  ASSERT_EQ(r.outputs(kJob), 1u);
  EXPECT_DOUBLE_EQ(r.Latency(kJob).Max(), static_cast<double>(Millis(120)));
}

TEST(LatencyRecorderTest, MultipleJobsIndependent) {
  LatencyRecorder r;
  JobId j2{1};
  r.RegisterJob(kJob, Millis(100), Seconds(1), Seconds(1));
  r.RegisterJob(j2, Millis(200), Seconds(10), Seconds(10));
  r.OnSourceEvent(kJob, Millis(900), Millis(900));
  r.OnSinkOutput(0, kJob, Seconds(1), Millis(950));
  r.OnSinkTuples(0, kJob, 100, Millis(950));
  r.OnSinkTuples(0, kJob, 50, Millis(950));
  r.OnSinkTuples(0, kJob, 30, Millis(950));
  EXPECT_EQ(r.outputs(kJob), 1u);
  EXPECT_EQ(r.sink_tuples(kJob), 180);
  EXPECT_EQ(r.outputs(j2), 0u);
  EXPECT_EQ(r.sink_tuples(j2), 0);
  EXPECT_EQ(r.jobs().size(), 2u);
  // 150 ms meets j2's own 200 ms constraint, not kJob's 100 ms.
  r.OnSourceEvent(j2, Seconds(9), Seconds(9));
  r.OnSinkOutput(0, j2, Seconds(10), Seconds(9) + Millis(150));
  EXPECT_DOUBLE_EQ(r.SuccessRate(j2), 1.0);
}

TEST(LatencyRecorderTest, SessionOutputReadsItsLastEventsBucket) {
  // A session closes at B = (its last event) + gap. One single-event
  // session per 100 ms; the ones at 300 ms and 600 ms lie on a multiple of
  // the gap, so a window-range lookup over (B - gap, B] misses them. Every
  // closed session must still yield one sample.
  const LogicalTime gap = Millis(30);
  LatencyRecorder r;
  r.RegisterJob(kJob, Seconds(1), gap, gap, gap);
  for (LogicalTime p = Millis(100); p <= Millis(600); p += Millis(100)) {
    r.OnSourceEvent(kJob, p, p + Millis(5));
    r.OnSinkOutput(0, kJob, p + gap, p + Millis(40));
    r.OnSinkTuples(0, kJob, 1, p + Millis(40));
  }
  EXPECT_EQ(r.outputs(kJob), static_cast<std::uint64_t>(r.sink_tuples(kJob)));
  EXPECT_DOUBLE_EQ(r.Latency(kJob).Max(), static_cast<double>(Millis(35)));
}

TEST(LatencyRecorderTest, ProcessedPerSecondBuckets) {
  LatencyRecorder r;
  r.RegisterJob(kJob, Millis(800), Seconds(1), Seconds(1));
  r.OnProcessed(kJob, 100, Millis(200));
  r.OnProcessed(kJob, 50, Millis(999));
  r.OnProcessed(kJob, 30, Seconds(1));  // the first instant of second 1
  r.OnProcessed(kJob, 7, Millis(3500));
  EXPECT_EQ(r.processed(kJob), 187);
  // The 3 s span ends before the last batch, which drops out of the rows.
  EXPECT_EQ(r.ProcessedPerSecond(kJob, Seconds(3)),
            (std::vector<std::int64_t>{150, 30, 0}));
  // A partial last second still gets its row; rows past the data are 0.
  EXPECT_EQ(r.ProcessedPerSecond(kJob, Millis(3500)),
            (std::vector<std::int64_t>{150, 30, 0, 7}));
  EXPECT_EQ(r.ProcessedPerSecond(kJob, Seconds(6)),
            (std::vector<std::int64_t>{150, 30, 0, 7, 0, 0}));
}

TEST(LatencyRecorderTest, ConcurrentIngestSinkAndHotAddStayExact) {
  // Two ingest threads feed the arrival side, three workers record into
  // their own accumulators, a control thread registers a second job while
  // they run, and a reader merges mid-run. Every output's window is seeded
  // before the threads start, so the totals are exact whatever the
  // interleaving.
  constexpr int kWorkers = 3;
  constexpr int kIngest = 2;
  constexpr int kEvents = 10000;   // per ingest thread
  constexpr int kOutputs = 10000;  // per worker
  constexpr int kWindows = 8;
  const JobId hot{1};
  LatencyRecorder r(kWorkers);
  r.RegisterJob(kJob, Seconds(100), Seconds(1), Seconds(1));
  for (int k = 1; k <= kWindows; ++k) {
    r.OnSourceEvent(kJob, Seconds(k), Seconds(k));
  }

  std::atomic<bool> hot_live{false};
  std::atomic<bool> done{false};
  std::atomic<int> progress{0};
  std::vector<std::int64_t> hot_processed(kIngest, 0);
  std::vector<std::int64_t> hot_outputs(kWorkers, 0);
  std::vector<std::thread> threads;
  for (int i = 0; i < kIngest; ++i) {
    threads.emplace_back([&, i] {
      for (int e = 0; e < kEvents; ++e) {
        const SimTime t = Millis(1 + e % (kWindows * 1000));
        r.OnSourceEvent(kJob, t, t);
        r.OnProcessed(kJob, 1, t);
        if (hot_live.load(std::memory_order_acquire)) {
          r.OnSourceEvent(hot, t, t);
          r.OnProcessed(hot, 1, t);
          ++hot_processed[static_cast<std::size_t>(i)];
        }
      }
    });
  }
  for (int w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&, w] {
      for (int o = 0; o < kOutputs; ++o) {
        // Park halfway until the second job is live, so its registration
        // always lands while the other workers are still recording.
        if (o == kOutputs / 2) {
          while (!hot_live.load(std::memory_order_acquire)) {
            std::this_thread::yield();
          }
        }
        r.OnSinkOutput(w, kJob, Seconds(1 + o % kWindows), Seconds(20));
        r.OnSinkTuples(w, kJob, 2, Seconds(20));
        progress.fetch_add(1, std::memory_order_relaxed);
        if (hot_live.load(std::memory_order_acquire)) {
          r.OnSinkOutput(w, hot, Millis(o), Millis(o) + Millis(5));
          r.OnSinkTuples(w, hot, 1, Millis(o) + Millis(5));
          ++hot_outputs[static_cast<std::size_t>(w)];
        }
      }
    });
  }
  threads.emplace_back([&] {
    while (progress.load(std::memory_order_relaxed) < kOutputs / 2) {
      std::this_thread::yield();
    }
    r.RegisterJob(hot, Seconds(1), 0, 0);  // per-message output
    hot_live.store(true, std::memory_order_release);
  });
  std::thread reader([&] {
    std::uint64_t last = 0;
    while (!done.load(std::memory_order_acquire)) {
      // Each accumulator only grows, so the merged count never falls.
      const std::uint64_t now = r.outputs(kJob);
      EXPECT_GE(now, last);
      EXPECT_LE(r.Latency(kJob).count(), static_cast<std::size_t>(
                                             kWorkers * kOutputs));
      last = now;
      std::this_thread::yield();
    }
  });
  for (std::thread& t : threads) t.join();
  done.store(true, std::memory_order_release);
  reader.join();

  constexpr std::int64_t kTotal = kWorkers * kOutputs;
  EXPECT_EQ(r.outputs(kJob), static_cast<std::uint64_t>(kTotal));
  EXPECT_EQ(r.Latency(kJob).count(), static_cast<std::size_t>(kTotal));
  EXPECT_EQ(r.sink_tuples(kJob), 2 * kTotal);
  EXPECT_DOUBLE_EQ(r.SuccessRate(kJob), 1.0);
  EXPECT_EQ(r.processed(kJob), kIngest * kEvents);
  std::int64_t per_second = 0;
  for (std::int64_t n : r.ProcessedPerSecond(kJob, Seconds(kWindows + 1))) {
    per_second += n;
  }
  EXPECT_EQ(per_second, kIngest * kEvents);

  std::int64_t hot_out = 0;
  for (std::int64_t n : hot_outputs) hot_out += n;
  std::int64_t hot_in = 0;
  for (std::int64_t n : hot_processed) hot_in += n;
  EXPECT_GT(hot_out, 0);
  EXPECT_EQ(r.outputs(hot), static_cast<std::uint64_t>(hot_out));
  EXPECT_EQ(r.sink_tuples(hot), hot_out);
  EXPECT_DOUBLE_EQ(r.Latency(hot).Max(), static_cast<double>(Millis(5)));
  EXPECT_EQ(r.processed(hot), hot_in);
  EXPECT_EQ(r.jobs(), (std::vector<JobId>{kJob, hot}));
}

TEST(LatencyRecorderDeathTest, RejectsOutOfRangeShard) {
  LatencyRecorder r(2);
  r.RegisterJob(kJob, Seconds(1), 0, 0);
  r.OnSinkTuples(1, kJob, 1, 0);  // the last worker's accumulator
  EXPECT_EQ(r.sink_tuples(kJob), 1);
  EXPECT_DEATH(r.OnSinkTuples(2, kJob, 1, 0), "index");
  EXPECT_DEATH(r.OnSinkOutput(-1, kJob, 0, 0), "index");
}

TEST(UtilizationTest, AggregatesAcrossWorkers) {
  UtilizationTracker u;
  u.SetWorkers(2);
  u.SetSpan(Seconds(10));
  u.AddBusy(WorkerId{0}, Seconds(5));
  u.AddBusy(WorkerId{1}, Seconds(10));
  EXPECT_DOUBLE_EQ(u.Utilization(), 0.75);
  EXPECT_DOUBLE_EQ(u.WorkerUtilization(WorkerId{0}), 0.5);
  EXPECT_DOUBLE_EQ(u.WorkerUtilization(WorkerId{1}), 1.0);
}

TEST(UtilizationTest, ZeroWithoutSpan) {
  UtilizationTracker u;
  u.AddBusy(WorkerId{0}, Seconds(5));
  EXPECT_DOUBLE_EQ(u.Utilization(), 0.0);
}

TEST(TimelineTest, DisabledByDefault) {
  Timeline t;
  t.Record({Millis(1), OperatorId{1}, StageId{0}, JobId{0}, 0});
  EXPECT_TRUE(t.records().empty());
}

TEST(TimelineTest, RecordsWhenEnabled) {
  Timeline t;
  t.SetEnabled(true);
  t.Record({Millis(1), OperatorId{1}, StageId{0}, JobId{0}, Seconds(1)});
  ASSERT_EQ(t.records().size(), 1u);
  EXPECT_EQ(t.records()[0].progress, Seconds(1));
}

TEST(TimelineTest, JobFilterApplies) {
  Timeline t;
  t.SetEnabled(true);
  t.SetJobFilter(JobId{7});
  t.Record({Millis(1), OperatorId{1}, StageId{0}, JobId{0}, 0});
  t.Record({Millis(2), OperatorId{2}, StageId{0}, JobId{7}, 0});
  ASSERT_EQ(t.records().size(), 1u);
  EXPECT_EQ(t.records()[0].job, JobId{7});
}

TEST(TimelineTest, CapacityBounded) {
  Timeline t(/*capacity=*/2);
  t.SetEnabled(true);
  for (int i = 0; i < 5; ++i) {
    t.Record({Millis(i), OperatorId{1}, StageId{0}, JobId{0}, 0});
  }
  EXPECT_EQ(t.records().size(), 2u);
  EXPECT_TRUE(t.truncated());
}

}  // namespace
}  // namespace cameo
