#include "deployment.h"

#include <stdexcept>

#include "common/error.h"
#include "common/timing.h"

namespace auditbench {

using desword::protocol::Participant;
using desword::protocol::ParticipantDeps;
using desword::protocol::Proxy;
using desword::protocol::ProxyConfig;
using desword::protocol::ProxyDeps;
using desword::protocol::QueryOutcome;
using desword::supplychain::DistributionConfig;
using desword::supplychain::DistributionResult;
using desword::supplychain::ParticipantId;

Deployment::Deployment(desword::supplychain::SupplyChainGraph graph,
                       DeploymentConfig config)
    : graph_(std::move(graph)),
      config_(std::move(config)),
      crs_cache_(std::make_shared<desword::protocol::CrsCache>()) {
  // One transport per endpoint over the shared network; the tracing
  // decorator, when requested, sits between the endpoint and its transport.
  const auto endpoint_transport = [this]() -> desword::net::Transport& {
    sims_.push_back(std::make_unique<desword::net::SimTransport>(network_));
    if (config_.tracer == nullptr) return *sims_.back();
    traced_.push_back(std::make_unique<TracingTransport>(
        *sims_.back(), *config_.tracer, kProxyId,
        /*inline_crypto=*/config_.worker_threads == 0));
    return *traced_.back();
  };

  // The same ProxyConfig protocol::Scenario derives from its defaults:
  // batched verification and every cache and memo layer on.
  ProxyConfig proxy_config;
  proxy_config.edb = config_.edb;
  proxy_config.verify.worker_threads = config_.worker_threads;
  proxy_config.max_concurrent_queries = config_.max_concurrent_queries;
  ProxyDeps deps;
  deps.crs_cache = crs_cache_;
  deps.crs = config_.crs;
  proxy_ = std::make_unique<Proxy>(kProxyId, endpoint_transport(),
                                   std::move(deps), std::move(proxy_config));
  for (const ParticipantId& id : graph_.participants()) {
    auto p = std::make_unique<Participant>(
        id, endpoint_transport(), kProxyId,
        ParticipantDeps{.crs_cache = crs_cache_});
    if (proxy_->executor()) p->set_executor(proxy_->executor());
    participants_.emplace(id, std::move(p));
  }
}

const DistributionResult& Deployment::run_task(const std::string& task_id,
                                               const DistributionConfig& dist,
                                               TaskTiming* timing) {
  if (truths_.count(task_id) > 0) {
    throw std::invalid_argument("task already ran: " + task_id);
  }
  const std::uint64_t started = desword::now_ns();
  DistributionResult result;
  {
    ScopedSpan span(config_.tracer, "run_distribution", "", task_id);
    result = desword::supplychain::run_distribution(graph_, dist);
  }
  const std::uint64_t simulated = desword::now_ns();

  // Wire the physical outcome into the endpoints exactly as
  // protocol::Scenario::run_task does.
  for (const ParticipantId& id : result.involved) {
    Participant& p = *participants_.at(id);
    p.load_database(result.databases.at(id));
    desword::protocol::TaskSetup setup;
    setup.task_id = task_id;
    setup.initial = dist.initial;
    setup.involved = result.involved;
    for (const auto& [parent, children] : result.used_edges) {
      if (parent == id) setup.children.assign(children.begin(), children.end());
      if (children.count(id) > 0) setup.parents.push_back(parent);
    }
    for (const auto& [product, path] : result.paths) {
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        if (path[i] == id) setup.shipments[product] = path[i + 1];
      }
    }
    p.begin_task(setup);
  }
  {
    ScopedSpan span(config_.tracer, "distribution_phase", "", task_id);
    participants_.at(dist.initial)->initiate_task(task_id);
    network_.run();
  }
  // The benchmark network is loss-free: one pass must finish the phase.
  if (proxy_->task_list(task_id) == nullptr) {
    throw desword::ProtocolError("distribution phase did not complete for " +
                                 task_id);
  }
  if (timing != nullptr) {
    const std::uint64_t finished = desword::now_ns();
    timing->simulation_ms = static_cast<double>(simulated - started) / 1e6;
    timing->total_ms = static_cast<double>(finished - started) / 1e6;
  }
  return truths_.emplace(task_id, std::move(result)).first->second;
}

const DistributionResult* Deployment::truth_of(
    const desword::supplychain::ProductId& product) const {
  for (const auto& [task_id, truth] : truths_) {
    if (truth.paths.count(product) > 0) return &truth;
  }
  return nullptr;
}

std::string check_outcome(const QueryOutcome& outcome,
                          const DistributionResult* truth,
                          const desword::protocol::ReputationLedger& ledger,
                          const desword::protocol::ScorePolicy& policy) {
  if (truth == nullptr) return "product has no ground truth";
  if (!outcome.complete) return "query incomplete";
  if (!outcome.violations.empty()) {
    return "honest participant flagged: " + outcome.violations[0].participant;
  }
  const auto path = truth->paths.find(outcome.product);
  if (path == truth->paths.end()) return "product not in its task";
  if (outcome.path != path->second) return "wrong path";
  if (outcome.traces.size() != outcome.path.size()) return "missing traces";
  for (const std::string& hop : outcome.path) {
    const auto trace = outcome.traces.find(hop);
    const auto* entry = truth->databases.at(hop).find(outcome.product);
    if (trace == outcome.traces.end() || entry == nullptr ||
        trace->second.da != entry->da.serialize()) {
      return "wrong trace at " + hop;
    }
  }
  const double expected =
      outcome.quality == desword::protocol::ProductQuality::kGood
          ? policy.positive
          : -policy.negative;
  std::size_t events = 0;
  const auto& history = ledger.history();
  for (auto it = history.rbegin();
       it != history.rend() && it->query_id == outcome.query_id; ++it) {
    if ((it->delta > 0) != (expected > 0) || it->delta == 0) {
      return "wrong reputation sign for " + it->participant;
    }
    ++events;
  }
  if (events != outcome.path.size()) return "wrong reputation event count";
  return "";
}

}  // namespace auditbench
