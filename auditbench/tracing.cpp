#include "tracing.h"

#include <fstream>
#include <stdexcept>

#include "common/json.h"
#include "common/serial.h"
#include "common/timing.h"
#include "desword/messages.h"
#include "obs/metrics.h"

namespace auditbench {

namespace {

std::uint64_t crypto_us_now() {
  const auto& reg = desword::obs::MetricsRegistry::global();
  return reg.histogram(desword::obs::HistogramId::zkedb_prove_wall_ms)
             .sum_us() +
         reg.histogram(desword::obs::HistogramId::zkedb_verify_wall_ms)
             .sum_us();
}

}  // namespace

void Tracer::check_thread() {
  // Nesting is a per-thread stack; a span opened from a second thread
  // would corrupt it, so refuse instead of recording garbage.
  if (owner_ == std::thread::id{}) owner_ = std::this_thread::get_id();
  if (owner_ != std::this_thread::get_id()) {
    throw std::logic_error("tracer used from more than one thread");
  }
}

std::size_t Tracer::open(std::string name, std::string node,
                         std::string detail, std::uint64_t query_id) {
  check_thread();
  Span span;
  span.name = std::move(name);
  span.node = std::move(node);
  span.detail = std::move(detail);
  span.query_id = query_id;
  span.parent = stack_.empty() ? 0 : stack_.back();
  span.start_ns = desword::now_ns();
  spans_.push_back(std::move(span));
  stack_.push_back(spans_.size());
  return spans_.size();
}

Span& Tracer::close(std::size_t handle) {
  check_thread();
  if (stack_.empty() || stack_.back() != handle) {
    throw std::logic_error("span closed out of order");
  }
  stack_.pop_back();
  Span& span = spans_[handle - 1];
  span.end_ns = desword::now_ns();
  return span;
}

void Tracer::record(Span span) {
  check_thread();
  spans_.push_back(std::move(span));
}

void Tracer::note_first_request(std::uint64_t query_id, std::uint64_t at_ns) {
  first_request_ns_.emplace(query_id, at_ns);  // keeps the earliest
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    desword::json::Object o;
    o["id"] = desword::json::Value(static_cast<std::int64_t>(i + 1));
    o["parent"] = desword::json::Value(static_cast<std::int64_t>(s.parent));
    o["name"] = desword::json::Value(s.name);
    o["node"] = desword::json::Value(s.node);
    o["detail"] = desword::json::Value(s.detail);
    o["query_id"] =
        desword::json::Value(static_cast<std::int64_t>(s.query_id));
    o["start_ns"] =
        desword::json::Value(static_cast<std::int64_t>(s.start_ns));
    o["dur_ns"] =
        desword::json::Value(static_cast<std::int64_t>(s.end_ns - s.start_ns));
    o["crypto_us"] =
        desword::json::Value(static_cast<std::int64_t>(s.crypto_us));
    o["bytes"] = desword::json::Value(static_cast<std::int64_t>(s.bytes));
    out << desword::json::Value(std::move(o)).dump() << '\n';
  }
}

ScopedSpan::ScopedSpan(Tracer* tracer, std::string name, std::string node,
                       std::string detail, std::uint64_t query_id)
    : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr) {
  if (tracer_ != nullptr) {
    handle_ = tracer_->open(std::move(name), std::move(node),
                            std::move(detail), query_id);
  }
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ != nullptr) tracer_->close(handle_);
}

void TracingTransport::register_node(const desword::net::NodeId& id,
                                     desword::net::Handler handler) {
  inner_.register_node(
      id, [this, id, handler = std::move(handler)](
              const desword::net::Envelope& env) {
        if (!tracer_.enabled()) {
          handler(env);
          return;
        }
        const std::uint64_t crypto_before = inline_crypto_ ? crypto_us_now() : 0;
        const std::size_t h = tracer_.open(
            "handler", id, env.type, frame_query_id(env.type, env.payload));
        try {
          handler(env);
        } catch (...) {
          tracer_.close(h);  // handlers rethrow CheckError
          throw;
        }
        Span& span = tracer_.close(h);
        if (inline_crypto_) span.crypto_us = crypto_us_now() - crypto_before;
      });
}

bool TracingTransport::send(const desword::net::NodeId& from,
                            const desword::net::NodeId& to,
                            const std::string& type, desword::Bytes payload) {
  if (!tracer_.enabled()) {
    return inner_.send(from, to, type, std::move(payload));
  }
  const std::uint64_t qid = frame_query_id(type, payload);
  const std::size_t bytes = payload.size();
  const std::size_t h = tracer_.open("send", from, type, qid);
  if (from == proxy_id_ && qid != 0 &&
      type == desword::protocol::msg::kQueryRequest) {
    tracer_.note_first_request(qid, tracer_.spans()[h - 1].start_ns);
  }
  bool ok = false;
  try {
    ok = inner_.send(from, to, type, std::move(payload));
  } catch (...) {
    tracer_.close(h);
    throw;
  }
  tracer_.close(h).bytes = bytes;
  return ok;
}

std::uint64_t frame_query_id(const std::string& type,
                             const desword::Bytes& payload) {
  using desword::protocol::MessageType;
  switch (desword::protocol::message_type_of(type)) {
    case MessageType::kQueryRequest:
    case MessageType::kQueryResponse:
    case MessageType::kRevealRequest:
    case MessageType::kRevealResponse:
    case MessageType::kNextHopRequest:
    case MessageType::kNextHopResponse:
      break;
    default:
      return 0;
  }
  // Every query-phase message starts with its fixed-width u64 query id.
  if (payload.size() < 8) return 0;
  desword::BinaryReader reader(desword::BytesView(payload.data(), 8));
  return reader.u64();
}

}  // namespace auditbench
