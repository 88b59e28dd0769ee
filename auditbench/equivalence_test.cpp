// Harness equivalence: the benchmark's own deployment measures the same
// program as protocol::Scenario. On a small (512-bit) configuration and
// identical inputs it must produce the same query outcomes, the same
// reputation board and the same wire traffic as Scenario; a traced
// deployment must produce the same outputs as an untraced one, inline and
// with crypto workers; and the output oracle must accept every honest
// answer and reject tampered ones.
//
// Exit status 0 on success; every failed check is printed.
#include <cstdio>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "deployment.h"
#include "desword/scenario.h"

namespace {

using desword::protocol::ProductQuality;
using desword::protocol::Proxy;
using desword::protocol::QueryOutcome;
using desword::supplychain::ProductId;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

const desword::zkedb::EdbConfig kSmallEdb{4, 8, 512, "p256",
                                          desword::zkedb::SoftMode::kShared};

desword::supplychain::SupplyChainGraph graph() {
  return desword::supplychain::SupplyChainGraph::layered(3, 3, 2);
}

struct TaskInput {
  std::string id;
  desword::supplychain::DistributionConfig dist;
};

std::vector<TaskInput> tasks() {
  std::vector<TaskInput> out;
  for (std::uint64_t t = 0; t < 2; ++t) {
    TaskInput task;
    task.id = "task-" + std::to_string(t);
    task.dist.initial = "L0-0";
    task.dist.products = desword::supplychain::make_products(1, 100 * t, 5);
    task.dist.seed = 7 + t;
    out.push_back(std::move(task));
  }
  return out;
}

/// The four query kinds of cold_audit over every product.
std::vector<Proxy::QuerySpec> queries() {
  std::vector<Proxy::QuerySpec> out;
  for (const TaskInput& task : tasks()) {
    for (const ProductId& product : task.dist.products) {
      for (const ProductQuality quality :
           {ProductQuality::kGood, ProductQuality::kBad}) {
        out.push_back({product, quality, task.id});
        out.push_back({product, quality, std::nullopt});
      }
    }
  }
  return out;
}

/// Everything an auditor can observe from one deployment.
struct Observed {
  std::vector<QueryOutcome> outcomes;
  std::map<std::string, double> reputation;
  std::uint64_t wire_bytes = 0;
  std::uint64_t frames = 0;
};

bool same_outcome(const QueryOutcome& a, const QueryOutcome& b) {
  if (a.query_id != b.query_id || a.product != b.product ||
      a.quality != b.quality || a.task_id != b.task_id ||
      a.complete != b.complete || a.path != b.path ||
      a.violations != b.violations || a.traces.size() != b.traces.size()) {
    return false;
  }
  for (const auto& [hop, trace] : a.traces) {
    const auto it = b.traces.find(hop);
    if (it == b.traces.end() || it->second.da != trace.da) return false;
  }
  return true;
}

void compare(const Observed& a, const Observed& b, const std::string& what) {
  expect(a.outcomes.size() == b.outcomes.size(), what + ": query count");
  for (std::size_t i = 0; i < a.outcomes.size() && i < b.outcomes.size();
       ++i) {
    expect(same_outcome(a.outcomes[i], b.outcomes[i]),
           what + ": outcome of query " + std::to_string(i));
  }
  expect(a.reputation == b.reputation, what + ": reputation snapshot");
  expect(a.wire_bytes == b.wire_bytes,
         what + ": wire bytes " + std::to_string(a.wire_bytes) + " vs " +
             std::to_string(b.wire_bytes));
  expect(a.frames == b.frames, what + ": frames");
}

/// Runs the query list one at a time (cold/recall shape) or as one
/// run_queries batch (ingest shape).
std::vector<QueryOutcome> run(Proxy& proxy, bool batch) {
  if (batch) return proxy.run_queries(queries());
  std::vector<QueryOutcome> out;
  for (const Proxy::QuerySpec& q : queries()) {
    out.push_back(proxy.run_query(q.product, q.quality, q.task_hint));
  }
  return out;
}

Observed observe_scenario(desword::zkedb::EdbCrsPtr* crs) {
  desword::protocol::ScenarioConfig config;
  config.edb = kSmallEdb;
  desword::protocol::Scenario scenario(graph(), config);
  for (const TaskInput& task : tasks()) scenario.run_task(task.id, task.dist);
  Observed o;
  o.outcomes = run(scenario.proxy(), /*batch=*/false);
  o.reputation = scenario.proxy().reputation_snapshot();
  o.wire_bytes = scenario.network().total_stats().bytes_sent;
  o.frames = scenario.network().total_stats().messages_sent;
  *crs = scenario.proxy().crs();
  return o;
}

Observed observe_deployment(const desword::zkedb::EdbCrsPtr& crs,
                            unsigned workers, bool traced, bool batch) {
  auditbench::Tracer tracer;
  tracer.set_enabled(traced);
  auditbench::DeploymentConfig config;
  config.edb = kSmallEdb;
  config.crs = crs;
  config.worker_threads = workers;
  config.tracer = traced ? &tracer : nullptr;
  auditbench::Deployment deployment(graph(), config);
  std::size_t oracle_failures = 0;
  deployment.proxy().set_completion_callback(
      [&](const QueryOutcome& outcome) {
        const std::string error = auditbench::check_outcome(
            outcome, deployment.truth_of(outcome.product),
            deployment.proxy().ledger(), desword::protocol::ScorePolicy{});
        if (!error.empty()) {
          ++oracle_failures;
          std::printf("oracle: %s\n", error.c_str());
        }
      });
  for (const TaskInput& task : tasks()) deployment.run_task(task.id, task.dist);
  Observed o;
  o.outcomes = run(deployment.proxy(), batch);
  o.reputation = deployment.proxy().reputation_snapshot();
  o.wire_bytes = deployment.network().total_stats().bytes_sent;
  o.frames = deployment.network().total_stats().messages_sent;
  const std::string mode = std::string(traced ? "traced" : "untraced") +
                           " workers=" + std::to_string(workers);
  expect(oracle_failures == 0, mode + ": oracle rejected an honest answer");
  if (traced) {
    std::size_t handlers = 0;
    for (const auditbench::Span& s : tracer.spans()) {
      handlers += s.name == "handler" ? 1 : 0;
    }
    expect(handlers > 0, mode + ": no handler spans recorded");
    expect(tracer.first_requests().size() == o.outcomes.size(),
           mode + ": first request frame of every query");
  }
  return o;
}

/// The oracle must reject each single-field corruption of a good answer.
void check_oracle_rejects(const desword::zkedb::EdbCrsPtr& crs) {
  auditbench::DeploymentConfig config;
  config.edb = kSmallEdb;
  config.crs = crs;
  auditbench::Deployment deployment(graph(), config);
  const TaskInput task = tasks()[0];
  deployment.run_task(task.id, task.dist);
  const ProductId product = task.dist.products[0];
  const QueryOutcome good = deployment.proxy().run_query(
      product, ProductQuality::kGood, task.id);
  const auto* truth = deployment.truth_of(product);
  const auto& ledger = deployment.proxy().ledger();
  const desword::protocol::ScorePolicy policy;
  expect(auditbench::check_outcome(good, truth, ledger, policy).empty(),
         "oracle accepts an honest answer");

  const std::vector<std::pair<std::string, std::function<void(QueryOutcome&)>>>
      corruptions = {
          {"incomplete", [](QueryOutcome& o) { o.complete = false; }},
          {"wrong path", [](QueryOutcome& o) { o.path.back() = "L0-1"; }},
          {"wrong trace",
           [](QueryOutcome& o) { o.traces.begin()->second.da.push_back(0); }},
          {"violation",
           [](QueryOutcome& o) {
             o.violations.push_back({o.path[0], {}});
           }},
          {"reputation sign",
           [](QueryOutcome& o) { o.quality = ProductQuality::kBad; }},
      };
  for (const auto& [name, corrupt] : corruptions) {
    QueryOutcome bad = good;
    corrupt(bad);
    expect(!auditbench::check_outcome(bad, truth, ledger, policy).empty(),
           "oracle rejects: " + name);
  }
}

}  // namespace

int main() {
  desword::zkedb::EdbCrsPtr crs;
  const Observed scenario = observe_scenario(&crs);
  expect(scenario.outcomes.size() == queries().size(), "scenario ran");

  compare(scenario, observe_deployment(crs, 0, false, false),
          "Scenario vs deployment");
  compare(scenario, observe_deployment(crs, 0, true, false),
          "Scenario vs traced deployment");
  compare(observe_deployment(crs, 3, false, true),
          observe_deployment(crs, 3, true, true),
          "untraced vs traced deployment, 3 workers, run_queries");
  check_oracle_rejects(crs);

  if (g_failures == 0) std::printf("audit_bench_equivalence: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
