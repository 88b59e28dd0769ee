#include "workloads.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>
#include <memory>
#include <stdexcept>

#include "common/rng.h"
#include "common/timing.h"
#include "deployment.h"
#include "obs/metrics.h"
#include "zkedb/params.h"

namespace auditbench {

namespace {

using desword::protocol::ProductQuality;
using desword::protocol::Proxy;
using desword::protocol::QueryOutcome;
using desword::supplychain::ProductId;
namespace obs = desword::obs;

// Every workload runs the repo's full-size deployment: RSA-2048 qTMC and
// P-256 TMC with q = 16, h = 32 (q^h = 2^128), on a 3-tier layered chain
// where every product passes exactly one participant per tier.
const desword::zkedb::EdbConfig kEdb{16, 32, 2048, "p256",
                                     desword::zkedb::SoftMode::kShared};
constexpr std::size_t kLayers = 3;
constexpr std::size_t kWidth = 3;
constexpr std::size_t kFanout = 2;
// Every task starts at the same initial participant, so its POC-queue
// holds several tasks and an unhinted query scans them in order (§IV-D).
constexpr const char* kInitial = "L0-0";
// CRS keygens per run; setup_s takes their median (prime-search variance).
constexpr int kKeygens = 3;

constexpr std::size_t kColdTasks = 4;
constexpr std::size_t kColdProductsPerTask = 80;  // 20 rounds: > 30 s at 10 q/s
constexpr std::size_t kRecallTasks = 3;
constexpr std::size_t kRecallProductsPerTask = 8;
constexpr std::size_t kHotProducts = 6;
constexpr unsigned kIngestWorkers = 3;  // nproc - 1: the loop is the 4th
constexpr std::size_t kIngestInFlight = 4;
constexpr std::size_t kIngestProductsPerTask = 12;

constexpr std::size_t kCounters =
    static_cast<std::size_t>(obs::CounterId::kCount);
constexpr std::size_t kHistograms =
    static_cast<std::size_t>(obs::HistogramId::kCount);

/// Counter values and histogram sums (µs) of the process-wide registry,
/// plus the deployment's wire bytes. Regions subtract two of these, so no
/// number ever includes work done outside its region.
struct ObsTotals {
  std::array<std::uint64_t, kCounters> counters{};
  std::array<std::uint64_t, kHistograms> hist_us{};
  std::uint64_t wire_bytes = 0;

  static ObsTotals now(const desword::net::Network& network) {
    const auto& reg = obs::MetricsRegistry::global();
    ObsTotals t;
    for (std::size_t i = 0; i < kCounters; ++i) {
      t.counters[i] = reg.counter(static_cast<obs::CounterId>(i)).value();
    }
    for (std::size_t i = 0; i < kHistograms; ++i) {
      t.hist_us[i] = reg.histogram(static_cast<obs::HistogramId>(i)).sum_us();
    }
    t.wire_bytes = network.total_stats().bytes_sent;
    return t;
  }

  void add_delta(const ObsTotals& before, const ObsTotals& after) {
    for (std::size_t i = 0; i < kCounters; ++i) {
      counters[i] += after.counters[i] - before.counters[i];
    }
    for (std::size_t i = 0; i < kHistograms; ++i) {
      hist_us[i] += after.hist_us[i] - before.hist_us[i];
    }
    wire_bytes += after.wire_bytes - before.wire_bytes;
  }

  double count(obs::CounterId id) const {
    return static_cast<double>(counters[static_cast<std::size_t>(id)]);
  }
  double ms(obs::HistogramId id) const {
    return static_cast<double>(hist_us[static_cast<std::size_t>(id)]) / 1e3;
  }
};

/// Linear-interpolated percentile of an unsorted sample (0 when empty).
double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

double ratio(double num, double base) { return base > 0 ? num / base : 0; }

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

/// Queries of one half of the timed region (a traced run has two).
struct Segment {
  std::uint64_t queries = 0;
  std::uint64_t hops = 0;       // identified participants, summed
  double query_wall_s = 0;      // wall time spent with queries in flight
  std::vector<double> latency_ms;
  ObsTotals obs;                // deltas over this segment's queries
};

/// One workload run: owns the deployment, the clocks, the oracle and the
/// metric ledger. Workload functions below drive it.
class Run {
 public:
  Run(const RunOptions& options, unsigned workers, std::size_t in_flight)
      : options_(options), rng_(options.seed), workers_(workers) {
    // CRS keygen, several times: setup_s counts the median.
    desword::zkedb::EdbCrsPtr crs;
    std::vector<double> keygen_s;
    for (int i = 0; i < kKeygens; ++i) {
      const desword::Stopwatch sw;
      crs = desword::zkedb::generate_crs(kEdb);
      keygen_s.push_back(sw.elapsed_ms() / 1e3);
    }
    setup_s_ = percentile(keygen_s, 0.5);
    const desword::Stopwatch sw;
    DeploymentConfig config;
    config.edb = kEdb;
    config.crs = std::move(crs);
    config.worker_threads = workers;
    config.max_concurrent_queries = in_flight;
    config.tracer = options_.trace ? &tracer_ : nullptr;
    deployment_ = std::make_unique<Deployment>(
        desword::supplychain::SupplyChainGraph::layered(kLayers, kWidth,
                                                        kFanout),
        std::move(config));
    proxy().set_completion_callback(
        [this](const QueryOutcome& outcome) { on_complete(outcome); });
    setup_s_ += sw.elapsed_ms() / 1e3;
  }

  Proxy& proxy() { return deployment_->proxy(); }
  desword::SimRng& rng() { return rng_; }

  struct Task {
    std::string id;
    std::vector<ProductId> products;
  };

  /// Distributes one task of `count` seed-chosen products and records its
  /// wall time and layer deltas. Counts towards setup_s before
  /// start_timed().
  Task distribute(std::size_t count) {
    Task task;
    task.id = "task-" + std::to_string(tasks_);
    // Disjoint serial ranges per task; the seed picks where they start.
    const std::uint64_t base =
        (static_cast<std::uint64_t>(tasks_) << 24) +
        rng_.below((std::uint64_t{1} << 24) - count);
    task.products = desword::supplychain::make_products(1, base, count);
    desword::supplychain::DistributionConfig dist;
    dist.initial = kInitial;
    dist.products = task.products;
    dist.seed = rng_.next();
    const ObsTotals before = ObsTotals::now(deployment_->network());
    TaskTiming timing;
    deployment_->run_task(task.id, dist, &timing);
    task_obs_.add_delta(before, ObsTotals::now(deployment_->network()));
    task_ms_.push_back(timing.total_ms);
    simulation_ms_.push_back(timing.simulation_ms);
    if (!timed_) setup_s_ += timing.total_ms / 1e3;
    ++tasks_;
    return task;
  }

  /// Untimed queries whose wall time counts towards setup_s (warm-up).
  void warm_up(const std::vector<Proxy::QuerySpec>& specs) {
    const desword::Stopwatch sw;
    warming_ = true;
    attempted_ += specs.size();
    for (const Proxy::QuerySpec& spec : specs) {
      proxy().run_query(spec.product, spec.quality, spec.task_hint);
    }
    warming_ = false;
    setup_s_ += sw.elapsed_ms() / 1e3;
  }

  void start_timed() {
    timed_ = true;
    timed_start_ns_ = desword::now_ns();
  }

  /// Closed-loop continuation test; in a traced run it also switches the
  /// tracer on for the second half of the timed region.
  bool keep_going() {
    const double elapsed =
        static_cast<double>(desword::now_ns() - timed_start_ns_) / 1e9;
    if (options_.trace && !tracer_.enabled() &&
        elapsed >= options_.seconds / 2) {
      tracer_.set_enabled(true);
      segment_ = &segments_[1];
    }
    return elapsed < options_.seconds;
  }

  /// One query, one in flight: begin, drive to completion.
  void query(const Proxy::QuerySpec& spec) {
    const ObsTotals before = ObsTotals::now(deployment_->network());
    begin_ns_ = desword::now_ns();
    ++segment_->queries;
    ++attempted_;
    proxy().begin_query(spec.product, spec.quality, spec.task_hint);
    proxy().pump();
    segment_->query_wall_s +=
        static_cast<double>(desword::now_ns() - begin_ns_) / 1e9;
    segment_->obs.add_delta(before, ObsTotals::now(deployment_->network()));
  }

  /// A batch through Proxy::run_queries; every query's latency runs from
  /// the batch start (scheduler admission wait included).
  void query_batch(const std::vector<Proxy::QuerySpec>& specs) {
    const ObsTotals before = ObsTotals::now(deployment_->network());
    begin_ns_ = desword::now_ns();
    segment_->queries += specs.size();
    attempted_ += specs.size();
    {
      ScopedSpan span(&tracer_, "run_queries");
      proxy().run_queries(specs);
    }
    segment_->query_wall_s +=
        static_cast<double>(desword::now_ns() - begin_ns_) / 1e9;
    segment_->obs.add_delta(before, ObsTotals::now(deployment_->network()));
  }

  RunReport report();

 private:
  void on_complete(const QueryOutcome& outcome) {
    const std::uint64_t end_ns = desword::now_ns();
    ++completed_;
    check(outcome);  // warm-up answers too: a wrong one fails the run
    if (warming_) return;
    segment_->latency_ms.push_back(static_cast<double>(end_ns - begin_ns_) /
                                   1e6);
    segment_->hops += outcome.path.size();
    if (tracer_.enabled()) {
      Span span;
      span.name = "query";
      span.node = Deployment::kProxyId;
      span.detail = outcome.quality == ProductQuality::kGood ? "good" : "bad";
      span.query_id = outcome.query_id;
      span.start_ns = begin_ns_;
      span.end_ns = end_ns;
      tracer_.record(std::move(span));
    }
  }

  void check(const QueryOutcome& outcome) {
    const std::string error =
        check_outcome(outcome, deployment_->truth_of(outcome.product),
                      proxy().ledger(), desword::protocol::ScorePolicy{});
    if (error.empty()) return;
    ++failed_;
    if (failures_.size() < 5) {
      failures_.push_back("query " + std::to_string(outcome.query_id) + ": " +
                          error);
    }
  }

  void add_span_metrics(RunReport& report) const;

  RunOptions options_;
  desword::SimRng rng_;
  unsigned workers_;
  Tracer tracer_;  // outlives the deployment's TracingTransports
  std::unique_ptr<Deployment> deployment_;
  double setup_s_ = 0;
  bool timed_ = false;
  bool warming_ = false;
  std::uint64_t timed_start_ns_ = 0;
  std::uint64_t begin_ns_ = 0;
  std::size_t tasks_ = 0;
  std::vector<double> task_ms_;
  std::vector<double> simulation_ms_;
  ObsTotals task_obs_;
  std::array<Segment, 2> segments_;
  Segment* segment_ = &segments_[0];
  std::uint64_t attempted_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

RunReport Run::report() {
  RunReport r;
  // A query that never reached its completion callback failed too.
  r.attempted = attempted_;
  r.failed = failed_ + (attempted_ - completed_);
  r.failures = failures_;
  if (attempted_ != completed_) {
    r.failures.push_back(std::to_string(attempted_ - completed_) +
                         " queries never completed");
  }

  const Segment& e2e = segments_[0];
  const double queries = static_cast<double>(e2e.queries);
  r.end_to_end = {
      {"setup_s", setup_s_, "s"},
      {"query_p50_ms", percentile(e2e.latency_ms, 0.50), "ms"},
      {"query_p90_ms", percentile(e2e.latency_ms, 0.90), "ms"},
      {"queries_per_s", ratio(queries, e2e.query_wall_s), "1/s"},
      {"task_p50_ms", percentile(task_ms_, 0.50), "ms"},
      {"wire_kb_per_query",
       ratio(static_cast<double>(e2e.obs.wire_bytes) / 1024.0, queries),
       "KiB"},
      {"peak_rss_mb", peak_rss_mib(), "MiB"},
  };
  r.end_to_end_extra = {
      {"query_p99_ms", percentile(e2e.latency_ms, 0.99), "ms"},
      {"query_samples", static_cast<double>(e2e.latency_ms.size()), "count"},
      {"error_rate",
       ratio(static_cast<double>(r.failed), static_cast<double>(r.attempted)),
       "ratio"},
  };

  // Per-layer ledger: query-phase deltas over the whole timed region (both
  // halves of a traced run), task-phase deltas over every distributed task.
  ObsTotals q = segments_[0].obs;
  q.add_delta(ObsTotals{}, segments_[1].obs);  // sum of the two deltas
  const double nq =
      static_cast<double>(segments_[0].queries + segments_[1].queries);
  const double hops =
      static_cast<double>(segments_[0].hops + segments_[1].hops);
  const double wall_s = segments_[0].query_wall_s + segments_[1].query_wall_s;
  const double ntasks = static_cast<double>(task_ms_.size());
  using C = obs::CounterId;
  using H = obs::HistogramId;
  const double modexp = q.count(C::crypto_modexp_calls);
  const double cache_lookups =
      q.count(C::zkedb_cache_hit) + q.count(C::zkedb_cache_miss);
  const double proofs =
      q.count(C::protocol_proof_ownership) + q.count(C::protocol_proof_non_own);
  const double reply_lookups = q.count(C::net_reply_cache_hits) +
                               q.count(C::net_reply_cache_misses);
  double sim_ms = 0;
  for (const double ms : simulation_ms_) sim_ms += ms;
  r.per_layer = {
      {"bench.queries", nq, "count"},
      {"bench.tasks", ntasks, "count"},
      {"crypto.modexp_per_query", ratio(modexp, nq), "count"},
      {"crypto.multi_exp_per_query",
       ratio(q.count(C::crypto_multi_exp_calls), nq), "count"},
      {"crypto.fixed_base_hit_ratio",
       ratio(q.count(C::crypto_modexp_fb_hits), modexp), "ratio"},
      {"mercurial.batch_folds_per_query",
       ratio(q.count(C::crypto_batch_folds), nq), "count"},
      {"mercurial.bisect_steps_per_query",
       ratio(q.count(C::crypto_batch_bisects), nq), "count"},
      {"zkedb.prove_ms_per_query", ratio(q.ms(H::zkedb_prove_wall_ms), nq),
       "ms"},
      {"zkedb.verify_ms_per_query", ratio(q.ms(H::zkedb_verify_wall_ms), nq),
       "ms"},
      {"zkedb.commit_ms_per_task",
       ratio(task_obs_.ms(H::zkedb_commit_wall_ms), ntasks), "ms"},
      {"zkedb.commit_nodes_per_task",
       ratio(task_obs_.count(C::zkedb_commit_nodes), ntasks), "count"},
      {"zkedb.cache_hit_ratio", ratio(q.count(C::zkedb_cache_hit), cache_lookups),
       "ratio"},
      {"zkedb.cache_lookups_per_query", ratio(cache_lookups, nq), "count"},
      {"poc.ownership_proofs_per_query",
       ratio(q.count(C::protocol_proof_ownership), nq), "count"},
      {"poc.non_ownership_proofs_per_query",
       ratio(q.count(C::protocol_proof_non_own), nq), "count"},
      {"poc.proof_memo_hit_ratio",
       ratio(q.count(C::protocol_proof_memo_hits), proofs), "ratio"},
      {"poc.proof_requests_per_query", ratio(proofs, nq), "count"},
      {"supplychain.distribution_ms_per_task", ratio(sim_ms, ntasks), "ms"},
      {"net.frames_per_query", ratio(q.count(C::net_frame_sent), nq),
       "count"},
      {"net.kb_per_hop",
       ratio(static_cast<double>(q.wire_bytes) / 1024.0, hops), "KiB"},
      {"net.hops_per_query", ratio(hops, nq), "count"},
      {"net.reply_cache_hit_ratio",
       ratio(q.count(C::net_reply_cache_hits), reply_lookups), "ratio"},
      {"net.reply_cache_lookups_per_query", ratio(reply_lookups, nq),
       "count"},
      {"net.retransmits_per_query",
       ratio(q.count(C::net_retransmit_fired), nq), "count"},
      {"common.exec_wait_ms_per_query",
       ratio(q.ms(H::exec_task_wait_ms), nq), "ms"},
      {"common.exec_run_ms_per_query", ratio(q.ms(H::exec_task_run_ms), nq),
       "ms"},
      {"common.worker_busy_ratio",
       ratio(q.ms(H::exec_task_run_ms) / 1e3, workers_ * wall_s), "ratio"},
      {"common.worker_threads", static_cast<double>(workers_), "count"},
      {"common.query_wall_s", wall_s, "s"},
  };
  if (options_.trace) add_span_metrics(r);
  return r;
}

void Run::add_span_metrics(RunReport& report) const {
  const std::vector<Span>& spans = tracer_.spans();
  // Self time of a query-phase handler: its duration minus the crypto
  // observed inside it and minus the sends it made (net's share).
  std::vector<double> child_send_ms(spans.size(), 0.0);
  double send_ms = 0;
  std::size_t sends = 0;
  for (const Span& s : spans) {
    if (s.name != "send" || s.query_id == 0) continue;
    const double ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    send_ms += ms;
    ++sends;
    if (s.parent != 0) child_send_ms[s.parent - 1] += ms;
  }
  double proxy_self_ms = 0;
  double participant_self_ms = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.name != "handler" || s.query_id == 0) continue;
    const double self = static_cast<double>(s.end_ns - s.start_ns) / 1e6 -
                        static_cast<double>(s.crypto_us) / 1e3 -
                        child_send_ms[i];
    (s.node == Deployment::kProxyId ? proxy_self_ms : participant_self_ms) +=
        self;
  }
  double admission_ms = 0;
  std::size_t admitted = 0;
  for (const Span& s : spans) {
    if (s.name != "query") continue;
    const auto it = tracer_.first_requests().find(s.query_id);
    if (it == tracer_.first_requests().end()) continue;
    admission_ms += static_cast<double>(it->second - s.start_ns) / 1e6;
    ++admitted;
  }
  const Segment& traced = segments_[1];
  const double nq = static_cast<double>(traced.queries);
  // Overhead compares median latency, not wall per query: the proxy keeps
  // every finished session, so later queries pay more pump() bookkeeping
  // after their completion callback whether or not they are traced.
  const double plain_p50 = percentile(segments_[0].latency_ms, 0.5);
  const double traced_p50 = percentile(traced.latency_ms, 0.5);
  report.per_layer.insert(
      report.per_layer.end(),
      {
          {"net.send_us_per_frame",
           ratio(send_ms * 1e3, static_cast<double>(sends)), "us"},
          {"desword.proxy_self_ms_per_query", ratio(proxy_self_ms, nq), "ms"},
          {"desword.participant_self_ms_per_query",
           ratio(participant_self_ms, nq), "ms"},
          {"desword.admission_wait_ms_per_query",
           ratio(admission_ms, static_cast<double>(admitted)), "ms"},
          {"trace.queries", nq, "count"},
          {"trace.overhead_pct",
           plain_p50 > 0 ? (traced_p50 / plain_p50 - 1.0) * 100.0 : 0.0,
           "%"},
      });
  if (!options_.trace_path.empty()) tracer_.write_jsonl(options_.trace_path);
}

/// Seed-ordered copy of `items` (Fisher-Yates over the run's DRBG).
template <typename T>
std::vector<T> shuffled(std::vector<T> items, desword::SimRng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.below(i)]);
  }
  return items;
}

// cold_audit: first-time audits, one in flight, inline crypto. Every query
// hits a product never queried before in the run, in four equal kinds:
// {good, bad} x {task hint, POC-queue scan}. The sequence is built in
// rounds of one query per (kind, task) pair, so the kind mix and the scan
// depth (which queued task holds the product) are the same for every
// seed; the seed picks the products and the order inside each round.
RunReport cold_audit(const RunOptions& options) {
  Run run(options, /*workers=*/0, /*in_flight=*/1);
  std::vector<Run::Task> tasks;
  for (std::size_t t = 0; t < kColdTasks; ++t) {
    tasks.push_back(run.distribute(kColdProductsPerTask));
    tasks.back().products = shuffled(tasks.back().products, run.rng());
  }
  constexpr std::size_t kKinds = 4;
  std::vector<Proxy::QuerySpec> sequence;
  for (std::size_t r = 0; r < kColdProductsPerTask / kKinds; ++r) {
    std::vector<Proxy::QuerySpec> round;
    for (const Run::Task& task : tasks) {
      for (std::size_t kind = 0; kind < kKinds; ++kind) {
        Proxy::QuerySpec spec{task.products[r * kKinds + kind],
                              kind % 2 == 0 ? ProductQuality::kGood
                                            : ProductQuality::kBad,
                              task.id};
        if (kind >= 2) spec.task_hint.reset();  // scan the POC-queue
        round.push_back(std::move(spec));
      }
    }
    for (Proxy::QuerySpec& spec : shuffled(std::move(round), run.rng())) {
      sequence.push_back(std::move(spec));
    }
  }
  // The clock is read only between rounds, so every run measures whole
  // rounds and the kind mix behind its percentiles never depends on where
  // the time ran out.
  const std::size_t round_size = kKinds * tasks.size();
  run.start_timed();
  for (std::size_t i = 0; i < sequence.size(); ++i) {
    if (i % round_size == 0 && !run.keep_going()) break;
    run.query(sequence[i]);
  }
  return run.report();
}

// recall_campaign: a small hot set re-queried (good and bad, hinted) after
// one untimed warm-up pass, inline crypto, caches on.
RunReport recall_campaign(const RunOptions& options) {
  Run run(options, /*workers=*/0, /*in_flight=*/1);
  std::vector<Proxy::QuerySpec> candidates;
  for (std::size_t t = 0; t < kRecallTasks; ++t) {
    const Run::Task task = run.distribute(kRecallProductsPerTask);
    for (const ProductId& product : task.products) {
      candidates.push_back({product, ProductQuality::kGood, task.id});
    }
  }
  candidates = shuffled(std::move(candidates), run.rng());
  std::vector<Proxy::QuerySpec> hot;
  for (std::size_t i = 0; i < kHotProducts; ++i) {
    hot.push_back(candidates[i]);
    hot.push_back(candidates[i]);
    hot.back().quality = ProductQuality::kBad;
  }
  run.warm_up(hot);
  run.start_timed();
  while (run.keep_going()) {
    for (const Proxy::QuerySpec& spec : shuffled(hot, run.rng())) {
      run.query(spec);
    }
  }
  return run.report();
}

// ingest_under_load: rounds of (distribute one new task, then audit each
// of its products once through run_queries) with crypto workers and a
// bounded number of queries in flight. Distribution never overlaps a batch.
RunReport ingest_under_load(const RunOptions& options) {
  Run run(options, kIngestWorkers, kIngestInFlight);
  run.distribute(kIngestProductsPerTask);  // a pre-built task, in set-up
  run.start_timed();
  while (run.keep_going()) {
    const Run::Task task = run.distribute(kIngestProductsPerTask);
    std::vector<Proxy::QuerySpec> batch;
    for (std::size_t i = 0; i < task.products.size(); ++i) {
      batch.push_back({task.products[i],
                       i % 2 == 0 ? ProductQuality::kGood : ProductQuality::kBad,
                       task.id});
    }
    run.query_batch(shuffled(std::move(batch), run.rng()));
  }
  return run.report();
}

}  // namespace

RunReport run_workload(const RunOptions& options) {
  if (options.workload == "cold_audit") return cold_audit(options);
  if (options.workload == "recall_campaign") return recall_campaign(options);
  if (options.workload == "ingest_under_load") {
    return ingest_under_load(options);
  }
  throw std::invalid_argument("unknown workload: " + options.workload);
}

}  // namespace auditbench
