// Executor / Strand unit tests: task accounting, drain semantics, strand
// serialization, inline mode, the metric hooks, and the protocol
// endpoints' loop <-> worker handoff (desword/offload.h).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/executor.h"
#include "common/thread_pool.h"
#include "desword/offload.h"
#include "net/network.h"
#include "net/transport.h"
#include "obs/metrics.h"

namespace desword {
namespace {

TEST(ExecutorTest, RunsEveryTaskAndDrains) {
  Executor exec(4);
  constexpr int kN = 200;
  std::atomic<int> ran{0};
  for (int i = 0; i < kN; ++i) {
    exec.post([&ran] { ran.fetch_add(1); });
  }
  exec.drain();
  EXPECT_EQ(ran.load(), kN);
  EXPECT_EQ(exec.pending(), 0u);
}

TEST(ExecutorTest, InlineModeRunsOnCallerThread) {
  ThreadPool pool(1);
  Executor exec(pool);
  EXPECT_TRUE(exec.inline_mode());
  const auto caller = std::this_thread::get_id();
  bool ran = false;
  exec.post([&] {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ran = true;
  });
  EXPECT_TRUE(ran);  // inline: completed before post() returned
  exec.drain();
}

TEST(ExecutorTest, TaskExceptionsDoNotWedgeAccounting) {
  Executor exec(2);
  for (int i = 0; i < 8; ++i) {
    exec.post([] { throw std::runtime_error("task boom"); });
  }
  exec.drain();  // must not hang or terminate
  EXPECT_EQ(exec.pending(), 0u);
}

TEST(ExecutorTest, MetricHooksObserveSubmissionAndCompletion) {
  obs::install_executor_metrics();
  obs::Counter& submitted = obs::metric("exec.task.submitted");
  obs::Counter& completed = obs::metric("exec.task.completed");
  const auto before_submitted = submitted.value();
  const auto before_completed = completed.value();
  Executor exec(2);
  for (int i = 0; i < 10; ++i) exec.post([] {});
  exec.drain();
  EXPECT_EQ(submitted.value() - before_submitted, 10u);
  EXPECT_EQ(completed.value() - before_completed, 10u);
}

TEST(StrandTest, SerializesTasksInFifoOrder) {
  auto exec = std::make_shared<Executor>(4);
  Strand strand(exec);
  constexpr int kN = 300;
  std::vector<int> order;  // no lock: the strand is the lock
  std::atomic<int> overlap{0};
  std::atomic<bool> in_task{false};
  for (int i = 0; i < kN; ++i) {
    strand.post([&, i] {
      if (in_task.exchange(true)) overlap.fetch_add(1);
      order.push_back(i);
      in_task.store(false);
    });
  }
  strand.drain();
  exec->drain();
  EXPECT_EQ(overlap.load(), 0);
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kN));
  for (int i = 0; i < kN; ++i) EXPECT_EQ(order[i], i);
}

TEST(StrandTest, IndependentStrandsRunConcurrently) {
  auto exec = std::make_shared<Executor>(4);
  Strand a(exec);
  Strand b(exec);
  // If a and b were serialized against each other this would deadlock-free
  // but never overlap; with 4 workers the rendezvous below must succeed.
  std::atomic<bool> a_entered{false};
  std::atomic<bool> b_entered{false};
  std::atomic<bool> overlapped{false};
  const auto spin_until = [](std::atomic<bool>& flag) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!flag.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    return flag.load();
  };
  a.post([&] {
    a_entered.store(true);
    if (spin_until(b_entered)) overlapped.store(true);
  });
  b.post([&] {
    b_entered.store(true);
    if (spin_until(a_entered)) overlapped.store(true);
  });
  a.drain();
  b.drain();
  exec->drain();
  EXPECT_TRUE(overlapped.load());
}

TEST(StrandTest, DrainWaitsForQueuedTasks) {
  auto exec = std::make_shared<Executor>(2);
  Strand strand(exec);
  std::atomic<int> ran{0};
  for (int i = 0; i < 50; ++i) {
    strand.post([&ran] {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      ran.fetch_add(1);
    });
  }
  strand.drain();
  EXPECT_EQ(ran.load(), 50);
  EXPECT_EQ(strand.pending(), 0u);
  exec->drain();
}

TEST(StrandTest, StrandTaskExceptionDoesNotStopSuccessors) {
  auto exec = std::make_shared<Executor>(2);
  Strand strand(exec);
  std::atomic<int> ran{0};
  strand.post([] { throw std::runtime_error("strand boom"); });
  strand.post([&ran] { ran.fetch_add(1); });
  strand.drain();
  exec->drain();
  EXPECT_EQ(ran.load(), 1);
}

TEST(ExecutorTest, ManyStrandsManyTasksStress) {
  auto exec = std::make_shared<Executor>(4);
  constexpr int kStrands = 8;
  constexpr int kTasksPerStrand = 100;
  std::vector<std::unique_ptr<Strand>> strands;
  std::vector<std::atomic<int>> counters(kStrands);
  for (int sidx = 0; sidx < kStrands; ++sidx) {
    strands.push_back(std::make_unique<Strand>(exec));
  }
  for (int t = 0; t < kTasksPerStrand; ++t) {
    for (int sidx = 0; sidx < kStrands; ++sidx) {
      strands[static_cast<std::size_t>(sidx)]->post(
          [&counters, sidx] { counters[sidx].fetch_add(1); });
    }
  }
  for (auto& strand : strands) strand->drain();
  exec->drain();
  for (int sidx = 0; sidx < kStrands; ++sidx) {
    EXPECT_EQ(counters[sidx].load(), kTasksPerStrand);
  }
}

// run_off_loop over a SimTransport, once with no strand (inline: work and
// completion run before the call returns) and once on a strand of a
// 2-worker executor (completion posted back to the loop thread).
class OffloadTest : public ::testing::TestWithParam<bool> {
 protected:
  OffloadTest() : transport_(network_) {
    if (GetParam()) {
      executor_ = std::make_shared<Executor>(2);
      strand_ = std::make_unique<Strand>(executor_);
    }
    transport_.poll(0);  // binds this thread as the loop thread
  }
  ~OffloadTest() override {
    if (strand_) strand_->drain();
  }

  // Polls until `done` (bounded, so a lost completion fails, not hangs).
  void poll_until(const bool& done) {
    for (int i = 0; i < 500 && !done; ++i) transport_.poll(10);
  }

  // Runs `work` through the helper and returns the outcome it completed
  // with; the completion must run on the loop thread.
  template <typename Work>
  std::pair<std::optional<int>, std::exception_ptr> offload(Work work) {
    std::pair<std::optional<int>, std::exception_ptr> outcome;
    bool done = false;
    protocol::run_off_loop(
        transport_, strand_.get(), alive_, std::move(work),
        [&](std::optional<int> result, std::exception_ptr error) {
          EXPECT_EQ(std::this_thread::get_id(), loop_thread_);
          EXPECT_TRUE(transport_.on_loop_thread());
          outcome = {result, error};
          done = true;
        });
    // Inline completes before the call returns; a strand completes only
    // from a later poll() on this thread.
    EXPECT_EQ(done, !GetParam());
    poll_until(done);
    EXPECT_TRUE(done) << "completion never arrived";
    return outcome;
  }

  net::Network network_;
  net::SimTransport transport_;
  std::shared_ptr<Executor> executor_;
  std::unique_ptr<Strand> strand_;
  std::shared_ptr<void> alive_ = std::make_shared<int>(0);
  const std::thread::id loop_thread_ = std::this_thread::get_id();
};

TEST_P(OffloadTest, ValueReachesCompletionOnLoopThread) {
  std::thread::id work_thread;
  const auto [result, error] = offload([&] {
    work_thread = std::this_thread::get_id();
    return 42;
  });
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(*result, 42);
  EXPECT_FALSE(error);
  // Inline runs the work in place; a strand runs it on a worker.
  EXPECT_EQ(work_thread != loop_thread_, GetParam());
  // The worker releases the work bracket after posting the completion.
  if (strand_) strand_->drain();
  EXPECT_EQ(network_.work_pending(), 0u);
}

TEST_P(OffloadTest, ErrorArrivesAsExceptionPtr) {
  const auto [result, error] =
      offload([]() -> int { throw ProtocolError("bad bytes"); });
  EXPECT_FALSE(result.has_value());
  ASSERT_TRUE(error);
  EXPECT_THROW(std::rethrow_exception(error), ProtocolError);
  // The policy drops an input-dependent Error ...
  EXPECT_NO_THROW(
      protocol::apply_error_policy([&] { std::rethrow_exception(error); }));
}

TEST_P(OffloadTest, CheckErrorArrivesAsExceptionPtr) {
  const auto [result, error] =
      offload([]() -> int { throw CheckError("broken invariant"); });
  EXPECT_FALSE(result.has_value());
  ASSERT_TRUE(error);
  // ... but never an internal invariant failure.
  EXPECT_THROW(
      protocol::apply_error_policy([&] { std::rethrow_exception(error); }),
      CheckError);
}

TEST_P(OffloadTest, NoTimerFiresWhileCompletionOwed) {
  std::vector<std::string> events;
  bool fired = false;
  (void)transport_.set_timer(1, [&] {
    events.push_back("timer");
    fired = true;
  });
  std::atomic<bool> release{!GetParam()};
  bool done = false;
  protocol::run_off_loop(
      transport_, strand_.get(), alive_,
      [&release] {
        while (!release.load()) std::this_thread::yield();
        return 7;
      },
      [&](std::optional<int> result, std::exception_ptr) {
        EXPECT_EQ(result, std::optional<int>(7));
        events.push_back("complete");
        done = true;
      });
  // Quiescent-looking network, pending timer, owed completion: the
  // simulator must wait for the completion, not fire a stall-scan round.
  for (int i = 0; i < 5; ++i) transport_.poll(5);
  if (GetParam()) {
    EXPECT_TRUE(events.empty());
    release.store(true);
    poll_until(done);
  }
  poll_until(fired);  // nothing owed any more: the timer is now due
  EXPECT_EQ(events, (std::vector<std::string>{"complete", "timer"}));
}

INSTANTIATE_TEST_SUITE_P(InlineAndStrand, OffloadTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Strand" : "Inline";
                         });

}  // namespace
}  // namespace desword
