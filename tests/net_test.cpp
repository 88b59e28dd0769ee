#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.h"
#include "net/network.h"

namespace desword::net {
namespace {

TEST(NetworkTest, DeliversMessages) {
  Network net;
  std::vector<std::string> received;
  net.register_node("a", [](const Envelope&) {});
  net.register_node("b", [&](const Envelope& env) {
    received.push_back(env.type + ":" + string_of(env.payload));
  });
  net.send("a", "b", "hello", bytes_of("x"));
  net.send("a", "b", "hello", bytes_of("y"));
  EXPECT_EQ(net.run(), 2u);
  EXPECT_EQ(received, (std::vector<std::string>{"hello:x", "hello:y"}));
}

TEST(NetworkTest, HandlersCanReply) {
  Network net;
  std::string got;
  net.register_node("client", [&](const Envelope& env) {
    got = string_of(env.payload);
  });
  net.register_node("server", [&](const Envelope& env) {
    net.send("server", env.from, "pong", env.payload);
  });
  net.send("client", "server", "ping", bytes_of("42"));
  net.run();
  EXPECT_EQ(got, "42");
}

TEST(NetworkTest, ClockAdvancesOneTickPerHop) {
  // A relay chain a -> b -> c -> d plus one direct a -> d frame. Every send
  // is stamped now() + 1, so the queue is already in delivery order: the
  // network delivers in send order and each hop costs exactly one tick.
  Network net;
  std::vector<std::string> log;
  const auto relay = [&](const NodeId& self, const NodeId& next) {
    return [&, self, next](const Envelope& env) {
      log.push_back(self + ":" + env.type + "@" + std::to_string(net.now()));
      if (!next.empty()) net.send(self, next, env.type, env.payload);
    };
  };
  net.register_node("a", [](const Envelope&) {});
  net.register_node("b", relay("b", "c"));
  net.register_node("c", relay("c", "d"));
  net.register_node("d", relay("d", ""));
  net.send("a", "b", "m1", {});
  net.send("a", "b", "m2", {});
  net.send("a", "d", "x", {});
  EXPECT_EQ(net.now(), 0u) << "sending alone must not advance the clock";
  EXPECT_EQ(net.run(), 7u);
  EXPECT_EQ(log, (std::vector<std::string>{"b:m1@1", "b:m2@1", "d:x@1",
                                           "c:m1@2", "c:m2@2", "d:m1@3",
                                           "d:m2@3"}));
  EXPECT_EQ(net.now(), 3u);

  // A send after the queue drained is stamped from the current clock.
  net.send("a", "d", "late", {});
  EXPECT_EQ(net.run(), 1u);
  EXPECT_EQ(log.back(), "d:late@4");
  EXPECT_EQ(net.now(), 4u);
}

TEST(NetworkTest, ByteAccounting) {
  Network net;
  net.register_node("a", [](const Envelope&) {});
  net.register_node("b", [](const Envelope&) {});
  net.send("a", "b", "m", Bytes(100, 0));
  net.send("a", "b", "m", Bytes(28, 0));
  net.run();
  EXPECT_EQ(net.stats("a", "b").bytes_sent, 128u);
  EXPECT_EQ(net.total_stats().bytes_sent, 128u);
}

TEST(NetworkTest, UnknownRecipientDropsAndCounts) {
  // A crashed / never-registered peer must not take the sender down: the
  // message is dropped and shows up in the drop counter. The sender's
  // retransmission and no-response machinery deal with the silence.
  Network net;
  net.register_node("a", [](const Envelope&) {});
  EXPECT_NO_THROW(net.send("a", "ghost", "m", Bytes(7, 0)));
  EXPECT_EQ(net.run(), 0u);
  EXPECT_EQ(net.stats("a", "ghost").messages_sent, 1u);
  EXPECT_EQ(net.stats("a", "ghost").messages_dropped, 1u);
  EXPECT_EQ(net.stats("a", "ghost").bytes_sent, 7u);
  EXPECT_EQ(net.total_stats().messages_dropped, 1u);
}

TEST(NetworkTest, DuplicateRegistrationThrows) {
  Network net;
  net.register_node("a", [](const Envelope&) {});
  EXPECT_THROW(net.register_node("a", [](const Envelope&) {}), Error);
}

TEST(NetworkTest, UnregisteredReceiverLosesMessage) {
  Network net;
  int delivered = 0;
  net.register_node("a", [](const Envelope&) {});
  net.register_node("b", [&](const Envelope&) { ++delivered; });
  net.send("a", "b", "m", {});
  net.unregister_node("b");
  net.run();
  EXPECT_EQ(delivered, 0);
}

TEST(NetworkTest, MaxStepsBoundsDelivery) {
  Network net;
  net.register_node("a", [](const Envelope&) {});
  net.register_node("b", [](const Envelope&) {});
  for (int i = 0; i < 5; ++i) net.send("a", "b", "m", {});
  EXPECT_EQ(net.run(2), 2u);
  EXPECT_EQ(net.pending(), 3u);
  net.run();
  EXPECT_EQ(net.pending(), 0u);
}

}  // namespace
}  // namespace desword::net
