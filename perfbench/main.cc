// perfbench --workload <edit_mix|object_churn> --seed <n> --seconds <s>
//           --trace <0|1> --out-dir <dir>
//
// Runs one workload against the durable eos::Database and prints, as its
// last line, {"correct":..,"attempted":..,"failed":..,"metrics":{..}}:
// the end-to-end metrics with --trace 0, the per-layer ones with --trace 1.
// Exits 1 if any output disagreed with the benchmark's own oracle or any
// operation failed.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"
#include "check.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <edit_mix|object_churn> "
               "--seed <n> --seconds <s> --trace <0|1> --out-dir <dir>\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    const char* v = argv[i + 1];
    if (key == "--workload") {
      opt.workload = v;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(v, nullptr);
    } else if (key == "--trace") {
      opt.trace = std::strcmp(v, "0") != 0;
    } else if (key == "--out-dir") {
      opt.out_dir = v;
    } else {
      return Usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("arguments come in pairs");
  if (!perfbench::KnownWorkload(opt.workload)) return Usage("unknown workload");
  if (!(opt.seconds > 0 && opt.seconds <= 600)) return Usage("bad --seconds");
  if (opt.out_dir.empty()) return Usage("--out-dir is required");

  perfbench::Outcome out = perfbench::RunWorkload(opt);
  for (const std::string& e : out.errors) {
    std::fprintf(stderr, "perfbench: %s\n", e.c_str());
  }
  if (out.metrics.empty()) return 1;  // set-up failed: nothing measured
  std::string line = "{\"correct\": " + std::string(out.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const perfbench::Metric& m = out.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    line += (i == 0 ? "" : ", ") + perfbench::JsonQuote(m.name) +
            ": {\"value\": " + value +
            ", \"unit\": " + perfbench::JsonQuote(m.unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return out.correct ? 0 : 1;
}
