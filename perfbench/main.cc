// perfbench: runs one workload and prints its metrics as one JSON line.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>] [--days <d>] [--vehicles <v>]
//             [--perturb-reference 1]
//
// The last line of standard output is
//   {"correct": <bool>, "attempted": <n>, "failed": <n>, "metrics": {...}}
// with every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). The line before it is {"context": {...}}: ungated figures
// (host steal share, RunFleet floor) to tell a host-skewed run apart. A
// run whose output check fails reports its failures and no metrics, and
// exits with code 1. Bad arguments exit with code 2.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workload.h"

namespace {

int Usage(const char* message) {
  std::fprintf(stderr, "perfbench: %s\n", message);
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1>\nworkloads:");
  for (const perfbench::WorkloadSpec& spec : perfbench::Workloads())
    std::fprintf(stderr, " %s", spec.name);
  std::fprintf(stderr, "\n");
  return 2;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char text[64];
  std::snprintf(text, sizeof(text), "%.17g", value);
  return text;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  perfbench::RunOptions options;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--days") {
      options.days = std::atoi(value);
    } else if (flag == "--vehicles") {
      options.vehicles = std::atoi(value);
    } else if (flag == "--perturb-reference") {
      options.perturb_reference = std::strcmp(value, "0") != 0;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  const perfbench::WorkloadSpec* spec = perfbench::FindWorkload(workload);
  if (spec == nullptr) return Usage("unknown or missing --workload");
  if (!have_seed) return Usage("missing --seed");
  if (!(options.seconds > 0)) return Usage("--seconds must be positive");

  const perfbench::RunResult result = perfbench::RunWorkload(*spec, options);
  for (const std::string& failure : result.failures)
    std::fprintf(stderr, "FAILED: %s\n", failure.c_str());

  // The ungated context of the run, on the line before the result.
  std::string context = "{\"context\": {";
  for (const auto& [name, metric] : result.context) {
    if (context.back() != '{') context += ", ";
    context += "\"" + name + "\": {\"value\": " + JsonNumber(metric.value) +
               ", \"unit\": \"" + metric.unit + "\"}";
  }
  context += "}}";

  std::string json = "{\"correct\": ";
  json += result.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  if (result.correct()) {
    bool first = true;
    for (const auto& [name, metric] : result.metrics) {
      if (!first) json += ", ";
      first = false;
      json += "\"" + name + "\": {\"value\": " + JsonNumber(metric.value) +
              ", \"unit\": \"" + metric.unit + "\"}";
    }
  }
  json += "}}";
  std::fflush(stderr);
  std::printf("%s\n%s\n", context.c_str(), json.c_str());
  return result.correct() ? 0 : 1;
}
