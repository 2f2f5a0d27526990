// The end-to-end benchmark of the durable eos::Database API.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;  // edit_mix | object_churn
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;   // trace and self-time files
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;  // what made `correct` false
};

bool KnownWorkload(const std::string& name);

// Sets up, measures and checks one workload. Human-readable detail goes
// to stdout as it runs; the caller prints the result line.
Outcome RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
