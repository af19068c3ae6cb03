// Epoch benchmark entry point: runs one workload and prints its metrics.
//
//   epochbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--work-dir <dir>]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The line before it reports the
// seed, nproc, build type and operations per kind. Any failed check or
// operation prints its name to standard error and exits with code 1;
// bad arguments or a GPIVOT_* environment variable exit with code 2.
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>

#include "reference.h"
#include "workloads.h"

extern char** environ;

namespace {

int Usage(const std::string& why) {
  std::fprintf(stderr,
               "epochbench: %s\nusage: epochbench --workload "
               "<trickle_durable|bulk_paper|serve_hot> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir <dir>]\n",
               why.c_str());
  return 2;
}

bool ParseUint(const char* text, uint64_t* out) {
  if (text == nullptr || *text == '\0') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || *end != '\0' || text[0] == '-') return false;
  *out = v;
  return true;
}

std::string Num(double v) {
  std::ostringstream out;
  out.precision(12);
  out << v;
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  // Every library setting stays at its default: a GPIVOT_* variable would
  // change what is measured, so the benchmark refuses to run under one.
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "GPIVOT_", 7) == 0) {
      return Usage(std::string("refusing to run with ") + *env + " set");
    }
  }
  epochbench::RunOptions options;
  uint64_t seconds = 0, trace = 2;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (value == nullptr) return Usage("missing value for " + flag);
    ++i;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      if (!ParseUint(value, &options.seed)) return Usage("bad --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseUint(value, &seconds) || seconds == 0) return Usage("bad --seconds");
    } else if (flag == "--trace") {
      if (!ParseUint(value, &trace) || trace > 1) return Usage("bad --trace");
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return Usage("unknown flag " + flag);
    }
  }
  if (!epochbench::IsWorkload(options.workload)) return Usage("unknown workload");
  if (!have_seed || seconds == 0 || trace > 1) return Usage("missing flags");
  options.seconds = static_cast<double>(seconds);
  options.trace = trace == 1;
  if (options.work_dir.empty()) {
    options.work_dir = ".bench_build/epochbench-work/" + options.workload + "-" +
                       std::to_string(getpid());
  }

  epochbench::RunResult result;
  try {
    epochbench::SelfTest();
    result = epochbench::RunWorkload(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "epochbench: %s: FAILED: %s\n", options.workload.c_str(),
                 e.what());
    return 1;
  }

  uint64_t attempted = 0, failed = 0;
  std::string ops;
  for (const auto& [kind, count] : result.ops) {
    attempted += count.attempted;
    failed += count.failed;
    ops += (ops.empty() ? "" : ", ") + std::string("\"") + kind +
           "\": {\"attempted\": " + std::to_string(count.attempted) +
           ", \"failed\": " + std::to_string(count.failed) + "}";
  }
  std::string notes;
  for (const auto& [key, value] : result.notes) {
    notes += ", \"" + key + "\": \"" + value + "\"";
  }
  std::printf(
      "report: {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %llu, "
      "\"trace\": %llu, \"nproc\": %u, \"build_type\": \"%s\"%s, \"ops\": {%s}}\n",
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      static_cast<unsigned long long>(seconds), static_cast<unsigned long long>(trace),
      std::thread::hardware_concurrency(), EPOCHBENCH_BUILD_TYPE, notes.c_str(),
      ops.c_str());
  std::string metrics;
  for (const auto& [name, metric] : result.metrics) {
    metrics += (metrics.empty() ? "" : ", ") + std::string("\"") + name +
               "\": {\"value\": " + Num(metric.value) + ", \"unit\": \"" +
               metric.unit + "\"}";
  }
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
  return 0;
}
