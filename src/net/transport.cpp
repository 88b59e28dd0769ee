#include "net/transport.h"

#include <vector>

#include "common/error.h"
#include "obs/metrics.h"

namespace desword::net {

namespace {

obs::Counter& timers_armed() {
  static obs::Counter& c = obs::metric("net.timer.armed");
  return c;
}

obs::Counter& timers_cancelled() {
  static obs::Counter& c = obs::metric("net.timer.cancelled");
  return c;
}

obs::Counter& timers_fired() {
  static obs::Counter& c = obs::metric("net.timer.fired");
  return c;
}

// Upper bound on how long an otherwise-idle poll() blocks for an owed
// executor completion when the caller gave no timeout. The condition
// variable wakes the instant the completion posts, so this only bounds
// pathological cases (a wedged worker).
constexpr int kWorkWaitMs = 200;

}  // namespace

// `delay` is unused: poll() fires timers only at quiescence, in arming
// order, so no deadline is ever compared (see the class comment).
Transport::TimerId SimTransport::set_timer(std::uint64_t /*delay*/,
                                           TimerFn fn) {
  if (!fn) throw ProtocolError("timer callback must be callable");
  const TimerId id = next_timer_id_++;
  timers_.emplace(id, std::move(fn));
  timers_armed().add();
  return id;
}

void SimTransport::cancel_timer(TimerId id) {
  if (timers_.erase(id) > 0) timers_cancelled().add();
}

std::size_t SimTransport::poll(int timeout_ms) {
  bind_loop_thread();
  // Executor completions first: they typically send() responses the
  // subsequent network_.run() then delivers within the same round.
  std::size_t events = network_.run_posted();
  events += network_.run();
  if (events > 0) return events;
  if (network_.work_pending() > 0 || network_.posted_pending() > 0) {
    // Off-loop crypto is still running, or its completion landed after the
    // run_posted() above (workers post BEFORE remove_work(), so reading
    // work_pending() first and posted_pending() second misses none): the
    // network only *looks* drained — a completion is owed, so this is not
    // quiescence and timers must hold their fire (a stall-scan round here
    // would burn the retransmission budget against a prover that is
    // merely busy, not silent). Block for the completion instead of
    // busy-spinning the pump.
    network_.wait_posted(timeout_ms > 0 ? timeout_ms : kWorkWaitMs);
    events = network_.run_posted();
    events += network_.run();
    return events;
  }
  if (timers_.empty()) return 0;
  // Queue drained: every pending timer is due before anything else can
  // happen. Snapshot the pending set — callbacks may arm new timers (e.g.
  // a retransmission re-arming itself) and those must wait for the next
  // quiescent point, exactly like a fresh stall-scan round.
  std::vector<TimerId> due;
  due.reserve(timers_.size());
  for (const auto& [id, fn] : timers_) due.push_back(id);
  std::size_t fired = 0;
  for (const TimerId id : due) {
    const auto it = timers_.find(id);
    if (it == timers_.end()) continue;  // cancelled by an earlier callback
    TimerFn fn = std::move(it->second);
    timers_.erase(it);
    fn();
    ++fired;
    timers_fired().add();
    // The callback queued traffic: the network is no longer quiescent, so
    // the rest of the snapshot is NOT "due before anything else" anymore —
    // deliveries preempt them. End the round; they fire (or get cancelled
    // by whatever the deliveries trigger) at the next quiescent point.
    if (network_.pending() > 0) break;
  }
  return fired;
}

}  // namespace desword::net
