#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <numeric>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/fifo.hpp"
#include "sim/mpi.hpp"
#include "support/rng.hpp"

namespace cham::sim {
namespace {

std::vector<std::uint8_t> blob(std::initializer_list<std::uint8_t> b) {
  return std::vector<std::uint8_t>(b);
}

TEST(P2P, BlockingSendRecvDeliversPayload) {
  Engine engine({.nprocs = 2});
  std::vector<std::uint8_t> got;
  engine.run([&](Mpi& mpi) {
    if (mpi.rank() == 0) {
      mpi.send(1, 8, /*tag=*/7, blob({1, 2, 3}));
    } else {
      RecvStatus st = mpi.recv(0, 8, 7, &got);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 7);
    }
  });
  EXPECT_EQ(got, blob({1, 2, 3}));
}

TEST(P2P, RecvBeforeSend) {
  // Receiver posts first and blocks; sender arrives later.
  Engine engine({.nprocs = 2});
  bool received = false;
  engine.run([&](Mpi& mpi) {
    if (mpi.rank() == 1) {
      mpi.recv(0, 4, 3);
      received = true;
    } else {
      mpi.compute(1.0);  // delay the send
      mpi.send(1, 4, 3);
    }
  });
  EXPECT_TRUE(received);
}

TEST(P2P, TagMatchingIsSelective) {
  Engine engine({.nprocs = 2});
  std::vector<int> arrival_order;
  engine.run([&](Mpi& mpi) {
    if (mpi.rank() == 0) {
      mpi.send(1, 4, /*tag=*/10);
      mpi.send(1, 4, /*tag=*/20);
    } else {
      // Receive in reverse tag order: matching must honor tags, not FIFO.
      RecvStatus st1 = mpi.recv(0, 4, 20);
      arrival_order.push_back(st1.tag);
      RecvStatus st2 = mpi.recv(0, 4, 10);
      arrival_order.push_back(st2.tag);
    }
  });
  const std::vector<int> expected = {20, 10};
  EXPECT_EQ(arrival_order, expected);
}

TEST(P2P, AnySourceMatchesFirstArrival) {
  Engine engine({.nprocs = 3});
  std::vector<Rank> sources;
  engine.run([&](Mpi& mpi) {
    if (mpi.rank() == 0) {
      for (int i = 0; i < 2; ++i) {
        RecvStatus st = mpi.recv(kAnySource, 4, kAnyTag);
        sources.push_back(st.source);
      }
    } else {
      mpi.send(0, 4, mpi.rank());
    }
  });
  ASSERT_EQ(sources.size(), 2u);
  EXPECT_NE(sources[0], sources[1]);
}

TEST(P2P, FifoOrderPreservedPerSenderAndTag) {
  Engine engine({.nprocs = 2});
  std::vector<std::uint8_t> order;
  engine.run([&](Mpi& mpi) {
    if (mpi.rank() == 0) {
      for (std::uint8_t i = 0; i < 5; ++i) mpi.send(1, 1, 0, {i});
    } else {
      for (int i = 0; i < 5; ++i) {
        std::vector<std::uint8_t> payload;
        mpi.recv(0, 1, 0, &payload);
        ASSERT_EQ(payload.size(), 1u);
        order.push_back(payload[0]);
      }
    }
  });
  const std::vector<std::uint8_t> expected = {0, 1, 2, 3, 4};
  EXPECT_EQ(order, expected);
}

TEST(P2P, NonblockingExchangeCompletes) {
  // Classic halo exchange: both ranks Irecv, Isend, Waitall.
  Engine engine({.nprocs = 2});
  engine.run([&](Mpi& mpi) {
    const Rank peer = 1 - mpi.rank();
    std::vector<Request> reqs;
    reqs.push_back(mpi.irecv(peer, 64, 5));
    reqs.push_back(mpi.isend(peer, 64, 5));
    mpi.waitall(reqs);
  });
  EXPECT_EQ(engine.messages_sent(), 2u);
}

TEST(P2P, WaitReturnsMatchedSource) {
  Engine engine({.nprocs = 2});
  Rank matched = -99;
  engine.run([&](Mpi& mpi) {
    if (mpi.rank() == 0) {
      Request r = mpi.irecv(kAnySource, 4);
      RecvStatus st = mpi.wait(r);
      matched = st.source;
    } else {
      mpi.send(0, 4);
    }
  });
  EXPECT_EQ(matched, 1);
}

TEST(P2P, UnmatchedRecvDeadlocks) {
  Engine engine({.nprocs = 2});
  EXPECT_THROW(engine.run([](Mpi& mpi) {
    if (mpi.rank() == 0) mpi.recv(1, 4, 99);  // nobody sends tag 99
  }),
               std::runtime_error);
}

TEST(P2P, SendToInvalidRankRejected) {
  Engine engine({.nprocs = 2});
  EXPECT_ANY_THROW(engine.run([](Mpi& mpi) {
    if (mpi.rank() == 0) mpi.send(5, 4);
  }));
}

TEST(P2P, ByteAccountingTracksDeclaredSizes) {
  Engine engine({.nprocs = 2});
  engine.run([&](Mpi& mpi) {
    if (mpi.rank() == 0) {
      mpi.send(1, 1000);
      mpi.send(1, 24);
    } else {
      mpi.recv(0, 1000);
      mpi.recv(0, 24);
    }
  });
  EXPECT_EQ(engine.messages_sent(), 2u);
  EXPECT_EQ(engine.bytes_sent(), 1024u);
}

TEST(P2P, RingPassesTokenAroundManyRanks) {
  const int p = 64;
  Engine engine({.nprocs = p});
  int hops = 0;
  engine.run([&](Mpi& mpi) {
    const Rank next = (mpi.rank() + 1) % p;
    const Rank prev = (mpi.rank() + p - 1) % p;
    if (mpi.rank() == 0) {
      mpi.send(next, 8);
      mpi.recv(prev, 8);
      ++hops;
    } else {
      mpi.recv(prev, 8);
      ++hops;
      mpi.send(next, 8);
    }
  });
  EXPECT_EQ(hops, p);
  EXPECT_EQ(engine.messages_sent(), static_cast<std::uint64_t>(p));
}

TEST(P2P, ToolAndWorldTrafficDoNotMix) {
  // A tool-comm message must not satisfy a world-comm receive.
  Engine engine({.nprocs = 2});
  int world_payload = -1;
  engine.run([&](Mpi& mpi) {
    if (mpi.rank() == 0) {
      mpi.pmpi().send_bytes(1, 0, {9});  // tool comm
      mpi.send(1, 1, 0, {42});           // world comm
    } else {
      std::vector<std::uint8_t> payload;
      mpi.recv(0, 1, 0, &payload);  // world recv sees only the world message
      ASSERT_EQ(payload.size(), 1u);
      world_payload = payload[0];
      auto tool_payload = mpi.pmpi().recv_bytes(0, 0);
      ASSERT_EQ(tool_payload.size(), 1u);
      EXPECT_EQ(tool_payload[0], 9);
    }
  });
  EXPECT_EQ(world_payload, 42);
}

std::vector<int> queued_tags(const Engine& engine, Rank r) {
  std::vector<int> tags;
  for (const Message& m : engine.unexpected_messages(kCommWorld, r))
    tags.push_back(m.tag);
  return tags;
}

TEST(P2P, UnexpectedQueueKeepsArrivalOrderThroughTakesAndRefills) {
  // Rank 0 collects 40 unexpected messages from 5 senders. Each tag names
  // its sender and sequence number. On one thread a send never yields, so
  // the order of `sent` is the order of rank 0's unexpected queue.
  constexpr int kSenders = 5;
  constexpr int kPerSender = 8;
  Engine engine({.nprocs = kSenders + 1});
  std::vector<int> sent;
  std::vector<int> drained;
  std::vector<int> refilled;
  engine.run([&](Mpi& mpi) {
    const auto send_batch = [&](int round) {
      for (int i = 0; i < kPerSender; ++i) {
        const int tag = round * 1000 + mpi.rank() * 100 + i;
        sent.push_back(tag);
        mpi.send(0, 8, tag);
      }
    };
    const auto drain = [&](std::vector<int>& out, std::size_t n) {
      for (std::size_t i = 0; i < n; ++i) {
        const RecvStatus st = mpi.recv(kAnySource, 8, kAnyTag);
        EXPECT_EQ(st.source, (st.tag % 1000) / 100);
        out.push_back(st.tag);
      }
    };
    if (mpi.rank() != 0) {
      send_batch(0);
      mpi.barrier();
      mpi.barrier();
      send_batch(1);
      mpi.barrier();
      return;
    }
    mpi.barrier();  // every round-0 message is queued
    ASSERT_EQ(queued_tags(engine, 0), sent);
    // A specific-source receive takes one message out of the middle.
    const std::size_t middle = sent.size() / 2;
    const int middle_tag = sent[middle];
    const RecvStatus st = mpi.recv((middle_tag % 1000) / 100, 8, middle_tag);
    EXPECT_EQ(st.tag, middle_tag);
    sent.erase(sent.begin() + static_cast<std::ptrdiff_t>(middle));
    EXPECT_EQ(queued_tags(engine, 0), sent);
    // MPI_ANY_SOURCE then drains the rest in arrival order.
    drain(drained, sent.size());
    EXPECT_EQ(drained, sent);
    EXPECT_TRUE(engine.unexpected_messages(kCommWorld, 0).empty());
    sent.clear();
    mpi.barrier();  // senders refill the drained queue
    mpi.barrier();
    EXPECT_EQ(queued_tags(engine, 0), sent);
    drain(refilled, sent.size());
  });
  EXPECT_EQ(refilled, sent);
  EXPECT_EQ(drained.size(), kSenders * kPerSender - 1u);
  EXPECT_TRUE(engine.unexpected_messages(kCommWorld, 0).empty());
}

TEST(P2P, PostedReceivesMatchTheirOwnSenderOutOfOrder) {
  // Rank 0 posts one irecv per source in rank order; the senders then send
  // in a shuffled order, chained by tokens, so matches hit the head, the
  // middle and the tail of the posted-receive queue.
  const std::vector<Rank> order = {4, 6, 1, 5, 2, 3};
  Engine engine({.nprocs = 7});
  std::vector<Rank> send_order;
  std::vector<Rank> matched;
  engine.run([&](Mpi& mpi) {
    const Rank me = mpi.rank();
    if (me == 0) {
      std::vector<Request> reqs;
      for (Rank src = 1; src <= 6; ++src)
        reqs.push_back(mpi.irecv(src, 8, /*tag=*/5));
      EXPECT_EQ(engine.pending_recvs(kCommWorld, 0).size(), 6u);
      mpi.barrier();  // every receive is posted before any send
      for (const Request req : reqs) matched.push_back(mpi.wait(req).source);
      return;
    }
    mpi.barrier();
    const auto pos = static_cast<std::size_t>(
        std::find(order.begin(), order.end(), me) - order.begin());
    if (pos > 0) mpi.recv(order[pos - 1], 1, /*tag=*/9);
    send_order.push_back(me);
    mpi.send(0, 8, /*tag=*/5);
    if (pos + 1 < order.size()) mpi.send(order[pos + 1], 1, /*tag=*/9);
  });
  EXPECT_EQ(send_order, order);
  const std::vector<Rank> expected = {1, 2, 3, 4, 5, 6};
  EXPECT_EQ(matched, expected);
  EXPECT_TRUE(engine.pending_recvs(kCommWorld, 0).empty());
}

TEST(Fifo, MatchesADequeUnderPushesAndErases) {
  // Alternating grow and shrink phases drive the queue through drains,
  // head removals past the compaction point and removals from the middle.
  support::Rng rng(17);
  Fifo<int> fifo;
  std::deque<int> ref;
  int next = 0;
  for (int op = 0; op < 20000; ++op) {
    const bool grow = (op / 400) % 2 == 0;
    if (ref.empty() || rng.next_below(10) < (grow ? 7u : 3u)) {
      fifo.emplace_back(next);
      ref.push_back(next++);
    } else {
      const auto pos = rng.next_below(3) == 0 ? rng.next_below(ref.size()) : 0;
      const auto at = static_cast<std::ptrdiff_t>(pos);
      const auto it = fifo.erase(fifo.begin() + at);
      ref.erase(ref.begin() + at);
      if (pos < ref.size()) {
        EXPECT_EQ(*it, ref[pos]);
      } else {
        EXPECT_TRUE(it == fifo.end());
      }
    }
    ASSERT_EQ(fifo.view().size(), ref.size());
    ASSERT_TRUE(std::equal(fifo.view().begin(), fifo.view().end(),
                           ref.begin(), ref.end()))
        << "op " << op;
  }
  fifo.clear();
  EXPECT_TRUE(fifo.view().empty());
}

}  // namespace
}  // namespace cham::sim
