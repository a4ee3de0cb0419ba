// Proportional fair sharing with tokens (paper §5.4, Fig. 6): three tenants
// are entitled to 20% / 40% / 40% of the cluster's ingestion capacity. They
// start 20 s apart and each offers far more load than its share. With the
// frontend API the entitlement is one attribute of the query definition
// (`TokenRate`) -- Cameo's TokenFair policy turns it into a throughput share
// without any resource reservation.
#include <cstdio>
#include <string>
#include <vector>

#include "api/sim_engine.h"
#include "workload/tenants.h"

using namespace cameo;

int main() {
  constexpr SimTime kDuration = Seconds(100);
  constexpr SimTime kStagger = Seconds(20);
  const std::vector<double> token_rates = {12, 24, 24};  // 20% / 40% / 40%

  EngineOptions opt;
  opt.workers = 2;
  opt.scheduler = SchedulerKind::kCameo;
  opt.policy = "TokenFair";
  SimEngine engine(opt);

  std::vector<QueryHandle> tenants;
  for (std::size_t i = 0; i < token_rates.size(); ++i) {
    QuerySpec spec = MakeLatencySensitiveSpec("J" + std::to_string(i + 1));
    spec.sources = 2;
    spec.aggs = 2;
    spec.token_rate_per_sec = token_rates[i];
    spec.tuples_per_msg = 10000;  // heavy batches: tokened work saturates

    // Offered load far above the entitlement, starting i * 20 s in.
    IngestSpec ingest;
    ingest.aligned = false;
    ingest.msgs_per_sec = 60;
    ingest.tuples_per_msg = spec.tuples_per_msg;
    ingest.start = static_cast<SimTime>(i) * kStagger;
    ingest.end = kDuration;
    tenants.push_back(engine.Submit(AggregationQueryDef(spec).Ingest(ingest)));
  }

  engine.RunFor(kDuration);

  std::vector<std::vector<std::int64_t>> throughput;
  for (const QueryHandle& q : tenants) {
    throughput.push_back(
        engine.cluster().latency().ProcessedPerSecond(q.job(), kDuration));
  }

  std::printf("three tenants, token shares 20/40/40, staggered starts\n\n");
  std::printf("%-10s %12s %12s %12s\n", "t(s)", "tenant1", "tenant2",
              "tenant3");
  const std::size_t n = throughput[0].size();
  for (std::size_t b = 0; b + 20 <= n; b += 20) {
    double v[3] = {0, 0, 0};
    for (int j = 0; j < 3; ++j) {
      for (std::size_t i = b; i < b + 20; ++i) {
        v[j] += static_cast<double>(throughput[static_cast<std::size_t>(j)][i]);
      }
    }
    double total = v[0] + v[1] + v[2];
    if (total <= 0) continue;
    std::printf("%3zu-%-6zu %11.1f%% %11.1f%% %11.1f%%\n", b, b + 20,
                100 * v[0] / total, 100 * v[1] / total, 100 * v[2] / total);
  }
  std::printf("\ntenant 1 used the whole cluster while alone; once all three "
              "were active the shares\nconverged to the 20/40/40 "
              "entitlements (paper Fig. 6).\n");
  return 0;
}
