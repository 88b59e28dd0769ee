// Benchmark-owned tracing: an in-memory span store and a net::Transport
// decorator that records a span around every delivered handler call and
// every send. It follows the pattern of net::FaultInjector (wrap an inner
// transport, forward everything else) so the program under test is
// unchanged; tracing inside the program is a separate concern.
//
// Spans are recorded on the transport loop thread only (handlers and sends
// run there in every deployment mode: worker completions are posted back
// to the loop before they send). Nesting is tracked with a stack, so each
// span knows the span that caused it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "net/transport.h"

namespace auditbench {

struct Span {
  std::string name;    // "handler" | "send" | "query" | "run_queries" | ...
  std::string node;    // endpoint that ran the handler / sent the frame
  std::string detail;  // message type, task id, ...
  std::uint64_t query_id = 0;  // protocol query id when the span has one
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::size_t parent = 0;  // 1-based index of the enclosing span, 0 = root
  /// zkedb prove + verify wall time observed inside the span (handler spans
  /// of inline-crypto deployments only; see TracingTransport).
  std::uint64_t crypto_us = 0;
  std::size_t bytes = 0;  // payload bytes (send spans)
};

class Tracer {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Opens a span nested in the innermost open one; returns its handle.
  std::size_t open(std::string name, std::string node, std::string detail,
                   std::uint64_t query_id = 0);
  /// Closes the innermost open span, which must be `handle`.
  Span& close(std::size_t handle);
  /// Records an already-measured span with no parent.
  void record(Span span);

  /// First request frame the proxy sent for a query (admission point).
  void note_first_request(std::uint64_t query_id, std::uint64_t at_ns);
  const std::map<std::uint64_t, std::uint64_t>& first_requests() const {
    return first_request_ns_;
  }

  const std::vector<Span>& spans() const { return spans_; }
  /// Writes every span as one JSON object per line.
  void write_jsonl(const std::string& path) const;

 private:
  void check_thread();

  bool enabled_ = false;
  std::thread::id owner_{};
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;  // open span handles, innermost last
  std::map<std::uint64_t, std::uint64_t> first_request_ns_;
};

/// RAII span over a scope; a no-op while the tracer is disabled or null.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, std::string node = {},
             std::string detail = {}, std::uint64_t query_id = 0);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  std::size_t handle_ = 0;
};

/// Transport decorator: every handler registered through it and every
/// send() through it is bracketed by a span while the tracer is enabled.
/// Everything else forwards to the inner transport unchanged.
class TracingTransport final : public desword::net::Transport {
 public:
  /// `inline_crypto`: crypto runs inside handlers (no executor), so the
  /// zkedb prove/verify histogram growth across a handler call is the
  /// crypto that handler did and is stored in its span.
  TracingTransport(desword::net::Transport& inner, Tracer& tracer,
                   desword::net::NodeId proxy_id, bool inline_crypto)
      : inner_(inner),
        tracer_(tracer),
        proxy_id_(std::move(proxy_id)),
        inline_crypto_(inline_crypto) {}

  TracingTransport(const TracingTransport&) = delete;
  TracingTransport& operator=(const TracingTransport&) = delete;

  void register_node(const desword::net::NodeId& id,
                     desword::net::Handler handler) override;
  void unregister_node(const desword::net::NodeId& id) override {
    inner_.unregister_node(id);
  }
  bool has_node(const desword::net::NodeId& id) const override {
    return inner_.has_node(id);
  }
  bool send(const desword::net::NodeId& from, const desword::net::NodeId& to,
            const std::string& type, desword::Bytes payload) override;
  std::uint64_t now() const override { return inner_.now(); }
  TimerId set_timer(std::uint64_t delay, TimerFn fn) override {
    return inner_.set_timer(delay, std::move(fn));
  }
  void cancel_timer(TimerId id) override { inner_.cancel_timer(id); }
  std::size_t pending_timers() const override {
    return inner_.pending_timers();
  }
  void post(std::function<void()> fn) override { inner_.post(std::move(fn)); }
  void add_work() override { inner_.add_work(); }
  void remove_work() override { inner_.remove_work(); }
  std::size_t poll(int timeout_ms = 0) override {
    return inner_.poll(timeout_ms);
  }
  const desword::net::LinkStats& stats(
      const desword::net::NodeId& from,
      const desword::net::NodeId& to) const override {
    return inner_.stats(from, to);
  }
  desword::net::LinkStats total_stats() const override {
    return inner_.total_stats();
  }

 private:
  desword::net::Transport& inner_;
  Tracer& tracer_;
  desword::net::NodeId proxy_id_;
  bool inline_crypto_;
};

/// Query id carried by a query-phase frame (query/reveal/next-hop request
/// or response), 0 for any other frame or a frame too short to hold one.
std::uint64_t frame_query_id(const std::string& type,
                             const desword::Bytes& payload);

}  // namespace auditbench
