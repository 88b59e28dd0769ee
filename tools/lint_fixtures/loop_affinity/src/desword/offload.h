// Fixture: the shared loop <-> worker handoff helper is scanned like the
// endpoints (rule loop-affinity). A loop-owned completion called straight
// from the strand body fires; the same call inside the nested
// transport.post hand-back does not.
#pragma once

namespace desword::protocol {

template <typename Work>
void run_off_loop_racy(Strand* strand, Work work) {
  strand->post([this, work] {
    finish_hop_verify(key_, 0, work(), {});
  });
}

template <typename Work, typename Complete>
void run_off_loop(net::Transport& transport, Strand* strand, Work work,
                  Complete complete) {
  transport.add_work();
  strand->post([&transport, work, complete] {
    auto result = work();
    transport.post([this, result] { finish_hop_verify(key_, 0, result, {}); });
    transport.remove_work();
  });
}

}  // namespace desword::protocol
