// The benchmark's three workloads. See README.md for their make-up.
#ifndef EPOCHBENCH_WORKLOADS_H_
#define EPOCHBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>

namespace epochbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  // false: the end-to-end metrics; true: the per-layer trace.
  bool trace = false;
  // Scratch directory for WAL and checkpoint files; removed afterwards.
  std::string work_dir;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct OpCount {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

struct RunResult {
  std::map<std::string, Metric> metrics;
  // Operations per kind: ingest, flush, apply, read, recovery.
  std::map<std::string, OpCount> ops;
  // Facts about the run for the report line (sample counts, percentiles).
  std::map<std::string, std::string> notes;
};

bool IsWorkload(const std::string& name);

// Runs one workload end to end and checks every output against the
// reference evaluator. Throws CheckFailure, naming the check or the
// operation, on the first mismatch or failed operation.
RunResult RunWorkload(const RunOptions& options);

}  // namespace epochbench

#endif  // EPOCHBENCH_WORKLOADS_H_
