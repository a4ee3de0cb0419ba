// Unit tests for src/metrics: latency attribution (the paper's §4.1 latency
// definition), success rates, throughput buckets, utilization, timelines.
#include <gtest/gtest.h>

#include "metrics/latency_recorder.h"
#include "metrics/sharded_latency.h"
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
  r.OnSinkOutput(kJob, Seconds(1), Millis(1100));
  ASSERT_EQ(r.outputs(kJob), 1u);
  EXPECT_DOUBLE_EQ(r.Latency(kJob).Max(),
                   static_cast<double>(Millis(1100) - Millis(980)));
}

TEST(LatencyRecorderTest, BoundaryEventBelongsToItsWindow) {
  LatencyRecorder r;
  r.RegisterJob(kJob, Millis(800), Seconds(1), Seconds(1));
  // Inclusive-right: the event at logical exactly 1s is in window 1s.
  r.OnSourceEvent(kJob, Seconds(1), Millis(1030));
  r.OnSinkOutput(kJob, Seconds(1), Millis(1100));
  ASSERT_EQ(r.outputs(kJob), 1u);
  EXPECT_DOUBLE_EQ(r.Latency(kJob).Max(), static_cast<double>(Millis(70)));
}

TEST(LatencyRecorderTest, EmptyWindowRecordsNothing) {
  LatencyRecorder r;
  r.RegisterJob(kJob, Millis(800), Seconds(1), Seconds(1));
  r.OnSinkOutput(kJob, Seconds(5), Millis(5100));
  EXPECT_EQ(r.outputs(kJob), 0u);
}

TEST(LatencyRecorderTest, SlidingWindowSpansMultipleBuckets) {
  LatencyRecorder r;
  // W=2s, S=1s: output at boundary 2s covers events in (0, 2s].
  r.RegisterJob(kJob, Millis(800), Seconds(2), Seconds(1));
  r.OnSourceEvent(kJob, Millis(500), Millis(520));    // bucket 1
  r.OnSourceEvent(kJob, Millis(1500), Millis(1530));  // bucket 2
  r.OnSinkOutput(kJob, Seconds(2), Millis(2100));
  ASSERT_EQ(r.outputs(kJob), 1u);
  EXPECT_DOUBLE_EQ(r.Latency(kJob).Max(),
                   static_cast<double>(Millis(2100) - Millis(1530)));
}

TEST(LatencyRecorderTest, SuccessRateAgainstConstraint) {
  LatencyRecorder r;
  r.RegisterJob(kJob, Millis(100), Seconds(1), Seconds(1));
  r.OnSourceEvent(kJob, Millis(900), Millis(900));
  r.OnSinkOutput(kJob, Seconds(1), Millis(950));  // 50ms: met
  r.OnSourceEvent(kJob, Millis(1900), Millis(1900));
  r.OnSinkOutput(kJob, Seconds(2), Millis(2300));  // 400ms: missed
  EXPECT_DOUBLE_EQ(r.SuccessRate(kJob), 0.5);
}

TEST(LatencyRecorderTest, PerMessageJobsUseEventTime) {
  LatencyRecorder r;
  r.RegisterJob(kJob, Millis(100), 0, 0);  // slide 0: per-message latency
  r.OnSinkOutput(kJob, /*window_end=arrival time*/ Millis(500), Millis(620));
  ASSERT_EQ(r.outputs(kJob), 1u);
  EXPECT_DOUBLE_EQ(r.Latency(kJob).Max(), static_cast<double>(Millis(120)));
}

TEST(LatencyRecorderTest, SeriesRecordsEmissionTimeline) {
  LatencyRecorder r;
  r.RegisterJob(kJob, Millis(800), Seconds(1), Seconds(1));
  r.OnSourceEvent(kJob, Millis(900), Millis(900));
  r.OnSinkOutput(kJob, Seconds(1), Millis(1050));
  const auto& series = r.Series(kJob);
  ASSERT_EQ(series.size(), 1u);
  EXPECT_EQ(series[0].first, Millis(1050));
  EXPECT_EQ(series[0].second, Millis(150));
}

TEST(LatencyRecorderTest, ThroughputBucketsSumTuples) {
  LatencyRecorder r;
  r.RegisterJob(kJob, Millis(800), Seconds(1), Seconds(1));
  r.OnSinkTuples(kJob, 100, Millis(200));
  r.OnSinkTuples(kJob, 50, Millis(700));
  r.OnSinkTuples(kJob, 30, Millis(1500));
  auto buckets = r.ThroughputBuckets(kJob, kSecond, Seconds(3));
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_EQ(buckets[0], 150);
  EXPECT_EQ(buckets[1], 30);
  EXPECT_EQ(buckets[2], 0);
  EXPECT_EQ(r.sink_tuples(kJob), 180);
}

TEST(LatencyRecorderTest, MultipleJobsIndependent) {
  LatencyRecorder r;
  JobId j2{1};
  r.RegisterJob(kJob, Millis(100), Seconds(1), Seconds(1));
  r.RegisterJob(j2, Millis(200), Seconds(10), Seconds(10));
  r.OnSourceEvent(kJob, Millis(900), Millis(900));
  r.OnSinkOutput(kJob, Seconds(1), Millis(950));
  EXPECT_EQ(r.outputs(kJob), 1u);
  EXPECT_EQ(r.outputs(j2), 0u);
  EXPECT_EQ(r.jobs().size(), 2u);
  EXPECT_EQ(r.constraint(j2), Millis(200));
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
    r.OnSinkOutput(kJob, p + gap, p + Millis(40));
    r.OnSinkTuples(kJob, 1);
  }
  EXPECT_EQ(r.outputs(kJob), static_cast<std::uint64_t>(r.sink_tuples(kJob)));
  EXPECT_DOUBLE_EQ(r.Latency(kJob).Max(), static_cast<double>(Millis(35)));
}

TEST(ShardedLatencyRecorderDeathTest, RejectsOutOfRangeShard) {
  ShardedLatencyRecorder r(2);
  r.RegisterJob(kJob, Seconds(1), 0, 0);
  r.OnSinkTuples(1, kJob, 1, 0);  // the last worker's shard
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
