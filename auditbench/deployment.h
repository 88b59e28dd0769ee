// An in-process DE-Sword deployment composed from public constructors:
// one net::SimTransport per endpoint over a shared net::Network, the
// Proxy and Participant primary constructors, and
// supplychain::run_distribution feeding them. protocol::Scenario builds
// the same deployment but keeps its transports private; the benchmark
// needs them to interpose TracingTransport, so it composes its own and
// proves the two equivalent (equivalence_test.cpp).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "desword/participant.h"
#include "desword/proxy.h"
#include "supplychain/distribution.h"
#include "tracing.h"

namespace auditbench {

struct DeploymentConfig {
  desword::zkedb::EdbConfig edb;
  /// Crypto workers shared by the proxy and every participant (0 = inline).
  unsigned worker_threads = 0;
  std::size_t max_concurrent_queries = 8;
  /// Pre-generated CRS; null lets the proxy generate one from `edb`.
  desword::zkedb::EdbCrsPtr crs;
  /// Non-null: every endpoint's transport is wrapped in a TracingTransport
  /// reporting to this tracer (recording only while it is enabled).
  Tracer* tracer = nullptr;
};

/// Wall time of one distribution task, split at the physical simulation.
struct TaskTiming {
  double simulation_ms = 0;  // supplychain::run_distribution
  double total_ms = 0;       // simulation + protocol distribution phase
};

class Deployment {
 public:
  static constexpr const char* kProxyId = "proxy";

  Deployment(desword::supplychain::SupplyChainGraph graph,
             DeploymentConfig config);

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  desword::protocol::Proxy& proxy() { return *proxy_; }
  desword::net::Network& network() { return network_; }
  const desword::supplychain::SupplyChainGraph& graph() const {
    return graph_;
  }

  /// Simulates one distribution task and drives the protocol's
  /// distribution phase (ps fetch, POC aggregation, list submission) to
  /// completion. Returns the ground truth; throws if the phase stalls.
  const desword::supplychain::DistributionResult& run_task(
      const std::string& task_id,
      const desword::supplychain::DistributionConfig& dist,
      TaskTiming* timing = nullptr);

  /// Ground truth of the task that distributed `product` (null if none).
  const desword::supplychain::DistributionResult* truth_of(
      const desword::supplychain::ProductId& product) const;

 private:
  desword::supplychain::SupplyChainGraph graph_;
  DeploymentConfig config_;
  desword::net::Network network_;
  desword::protocol::CrsCachePtr crs_cache_;
  // Transports outlive the endpoints: endpoint destructors cancel timers
  // and unregister through them.
  std::vector<std::unique_ptr<desword::net::SimTransport>> sims_;
  std::vector<std::unique_ptr<TracingTransport>> traced_;
  std::unique_ptr<desword::protocol::Proxy> proxy_;
  std::map<desword::supplychain::ParticipantId,
           std::unique_ptr<desword::protocol::Participant>>
      participants_;
  std::map<std::string, desword::supplychain::DistributionResult> truths_;
};

/// The output oracle. Checks one finished query against ground truth:
/// complete; path equals the simulated path; every recovered trace equals
/// the participant's trace-DB entry; no violations (every participant is
/// honest); and the query's reputation events — the tail of the ledger
/// when the completion callback runs — carry the sign `policy` gives the
/// query's quality, one per identified participant. Returns "" when
/// correct, otherwise the first mismatch.
std::string check_outcome(
    const desword::protocol::QueryOutcome& outcome,
    const desword::supplychain::DistributionResult* truth,
    const desword::protocol::ReputationLedger& ledger,
    const desword::protocol::ScorePolicy& policy);

}  // namespace auditbench
