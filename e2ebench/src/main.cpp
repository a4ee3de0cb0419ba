// End-to-end benchmark of the Cameo reproduction.
//
//   e2e_bench --workload <fine_mt|coarse_keyed|sim_shards> --seed N
//             --seconds S --trace <0|1> [--out-dir DIR]
//
// Prints a human-readable table, then one JSON line with the verdict and
// metrics (end-to-end metrics with --trace 0, per-layer with --trace 1).
// Exits non-zero on bad arguments; a failed output check is reported in the
// JSON (`correct: false`) and the exit code.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: e2e_bench --workload <fine_mt|coarse_keyed|sim_shards> "
               "--seed N --seconds S --trace <0|1> [--out-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      o.workload = v;
    } else if (k == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      o.seconds = std::atoi(v);
    } else if (k == "--trace") {
      o.trace = std::strcmp(v, "1") == 0;
    } else if (k == "--out-dir") {
      o.out_dir = v;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || o.seconds < 1) return Usage();
  if (o.trace && !e2e::AllocCountingEnabled()) {
    std::fprintf(stderr, "--trace 1 needs the e2e_bench_traced binary\n");
    return 2;
  }
  e2e::Result r;
  if (o.workload == "fine_mt") {
    r = e2e::RunFineMt(o);
  } else if (o.workload == "coarse_keyed") {
    r = e2e::RunCoarseKeyed(o);
  } else if (o.workload == "sim_shards") {
    r = e2e::RunSimShards(o);
  } else {
    return Usage();
  }
  r.PrintJson();
  return r.correct ? 0 : 1;
}
