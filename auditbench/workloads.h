// The audit benchmark's workloads and the metrics they report. See
// README.md for the definitions and the reason each workload exists.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace auditbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  /// Traced run: the first half of the timed region runs untraced, the
  /// second half with every span recorded; per-layer metrics are printed.
  bool trace = false;
  /// Where a traced run writes its spans (one JSON object per line).
  std::string trace_path;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunReport {
  std::uint64_t attempted = 0;  // queries begun (timed region + warm-up)
  std::uint64_t failed = 0;     // rejected by the oracle or never completed
  std::vector<std::string> failures;  // first few oracle messages
  std::vector<Metric> end_to_end;
  /// Printed beside the end-to-end metrics but kept out of the JSON
  /// result: the p99 has fewer than 10 samples beyond it except on
  /// recall_campaign, and error_rate is 0 whenever the result counts.
  std::vector<Metric> end_to_end_extra;
  std::vector<Metric> per_layer;
};

/// Runs one workload; throws std::invalid_argument for an unknown name.
RunReport run_workload(const RunOptions& options);

}  // namespace auditbench
