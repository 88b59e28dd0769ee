// The loop ↔ worker handoff shared by the protocol endpoints.
//
// The proxy's hop verifications and the participant's proof builds both
// run a self-contained `work` closure somewhere and resume their state
// machine with its outcome on the transport loop thread. `run_off_loop`
// is the one place that decides *where* `work` runs (DESIGN.md §9):
//
//   * no strand (0 crypto workers): `work` and `complete` run in place,
//     synchronously, inside the calling handler — the single-threaded
//     deployment, drivable by `Network::run()` alone;
//   * a strand: `work` runs on it under the transport work-accounting
//     bracket and `complete` runs from a posted loop-thread continuation.
//
// Either way `complete(std::optional<R>, std::exception_ptr)` receives the
// value or the exception `work` threw — never swallowed — so both modes
// share one exception policy, applied by the caller on the loop thread
// through `apply_error_policy`.
#pragma once

#include <exception>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>

#include "common/error.h"
#include "common/executor.h"
#include "net/transport.h"

namespace desword::protocol {

/// The endpoints' one exception policy for loop-thread code — message
/// handlers, off-loop outcomes and their continuations. Runs `fn`; a
/// CheckError (an internal invariant failure, a DE-Sword bug) propagates
/// out of the loop, while any other `Error` means the bytes being absorbed
/// were adversarial or corrupt and just drops this continuation:
/// retransmission or the no-response path deals with the peer.
template <typename Fn>
void apply_error_policy(Fn&& fn) {
  try {
    fn();
  } catch (const CheckError&) {
    throw;
  } catch (const Error&) {
  }
}

/// Runs `work()` and hands its outcome to `complete(result, error)` on the
/// loop thread of `transport`; exactly one of `result` / `error` is set.
///
/// `strand == nullptr`: both run before this returns. Otherwise `work`
/// runs on `strand` (so it must be worker-safe: by-value captures and
/// const shared state only). The bracket: add_work() here, and the worker
/// posts the completion BEFORE remove_work(), so the loop never observes
/// "no work pending" while a completion is owed (SimTransport would
/// otherwise fire stall-scan timers against a busy, not silent, peer). A
/// completion that outlives its owner (`alive` expired) is a no-op; the
/// owner drains `strand` before destruction, so the worker never outlives
/// it either.
template <typename Work, typename Complete>
void run_off_loop(net::Transport& transport, Strand* strand,
                  const std::shared_ptr<void>& alive, Work work,
                  Complete complete) {
  using R = std::invoke_result_t<Work&>;
  if (strand == nullptr) {
    std::optional<R> result;
    std::exception_ptr error;
    try {
      result.emplace(work());
    } catch (...) {
      error = std::current_exception();
    }
    complete(std::move(result), error);
    return;
  }
  transport.add_work();
  std::weak_ptr<void> token = alive;
  strand->post([&transport, strand, token, work = std::move(work),
                 complete = std::move(complete)]() mutable {
    // Worker context: everything loop-owned stays out of this body — the
    // outcome travels back through transport.post below.
    std::optional<R> result;
    std::exception_ptr error;
    try {
      DESWORD_DCHECK(strand->running_on_this_thread(),
                     "off-loop task escaped its strand");
      result.emplace(work());
    } catch (...) {
      error = std::current_exception();
    }
    transport.post([token, result = std::move(result), error,
                    complete = std::move(complete)]() mutable {
      if (token.expired()) return;
      complete(std::move(result), error);
    });
    transport.remove_work();
  });
}

}  // namespace desword::protocol
