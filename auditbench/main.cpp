// audit_bench: runs one workload of the DE-Sword audit benchmark.
//
//   audit_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               [--trace-out <file>]
//
// Prints every metric by name and unit, then, as the last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics for --trace 0, the per-layer metrics for --trace 1. Exits 0 only
// when the output oracle accepted every query.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common/json.h"
#include "workloads.h"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <cold_audit|recall_campaign|"
               "ingest_under_load> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-out <file>]\n",
               argv0);
  return 2;
}

void print_metrics(const std::vector<auditbench::Metric>& metrics) {
  for (const auditbench::Metric& m : metrics) {
    std::printf("  %-40s %14.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  auditbench::RunOptions options;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--trace-out") {
      options.trace_path = value;
    } else {
      return usage(argv[0]);
    }
  }
  if (!have_workload || argc % 2 == 0 || options.seconds <= 0) {
    return usage(argv[0]);
  }

  auditbench::RunReport report;
  try {
    report = auditbench::run_workload(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "audit_bench: %s\n", e.what());
    return 1;
  }

  std::printf("workload %s seed %llu seconds %g trace %d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::printf("end-to-end:\n");
  print_metrics(report.end_to_end);
  print_metrics(report.end_to_end_extra);
  if (options.trace) {
    std::printf("per-layer:\n");
    print_metrics(report.per_layer);
  }
  for (const std::string& failure : report.failures) {
    std::printf("FAILED %s\n", failure.c_str());
  }

  desword::json::Object metrics;
  for (const auditbench::Metric& m :
       options.trace ? report.per_layer : report.end_to_end) {
    desword::json::Object entry;
    entry["value"] = desword::json::Value(m.value);
    entry["unit"] = desword::json::Value(m.unit);
    metrics[m.name] = desword::json::Value(std::move(entry));
  }
  const bool correct = report.failed == 0 && report.attempted > 0;
  desword::json::Object result;
  result["correct"] = desword::json::Value(correct);
  result["attempted"] =
      desword::json::Value(static_cast<std::int64_t>(report.attempted));
  result["failed"] =
      desword::json::Value(static_cast<std::int64_t>(report.failed));
  result["metrics"] = desword::json::Value(std::move(metrics));
  std::printf("%s\n", desword::json::Value(std::move(result)).dump().c_str());
  return correct ? 0 : 1;
}
