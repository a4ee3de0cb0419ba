// Worker busy-time accounting, for the paper's utilization-vs-latency
// comparison (Fig. 1) and thread-pool sizing study (Fig. 8(c)).
#pragma once

#include <unordered_map>

#include "common/ids.h"
#include "common/time.h"

namespace cameo {

class UtilizationTracker {
 public:
  void AddBusy(WorkerId w, Duration d);
  void SetSpan(Duration span) { span_ = span; }
  void SetWorkers(int n) { workers_ = n; }

  Duration busy(WorkerId w) const;
  Duration total_busy() const;
  /// Aggregate utilization in [0, 1]: busy time over workers * span.
  double Utilization() const;
  double WorkerUtilization(WorkerId w) const;

 private:
  std::unordered_map<WorkerId, Duration> busy_;
  Duration span_ = 0;
  int workers_ = 0;
};

}  // namespace cameo
