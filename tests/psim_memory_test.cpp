#include "psim/memory.h"

#include <gtest/gtest.h>

#include <vector>

#include "psim/coro.h"

namespace cnet::psim {
namespace {

TEST(Memory, LoadStoreRoundTrip) {
  Engine engine;
  Memory mem(engine, MemParams{10, 4});
  const std::uint32_t a = mem.alloc(5);
  std::uint64_t seen = 0;
  const auto body = [&]() -> Coro<> {
    seen = co_await mem.load(a);
    co_await mem.store(a, 9);
    seen += co_await mem.load(a);
  };
  auto task = body();
  task.start();
  engine.run();
  EXPECT_EQ(seen, 14u);
  EXPECT_EQ(mem.peek(a), 9u);
}

TEST(Memory, AccessCostsLatency) {
  Engine engine;
  Memory mem(engine, MemParams{25, 4});
  const std::uint32_t a = mem.alloc(0);
  Cycle after = 0;
  const auto body = [&]() -> Coro<> {
    co_await mem.load(a);
    after = engine.now();
  };
  auto task = body();
  task.start();
  engine.run();
  EXPECT_EQ(after, 25u);
}

TEST(Memory, SameWordAccessesSerialize) {
  Engine engine;
  Memory mem(engine, MemParams{10, 6});
  const std::uint32_t a = mem.alloc(0);
  std::vector<Cycle> completions;
  auto toucher = [&]() -> Coro<> {
    co_await mem.load(a);
    completions.push_back(engine.now());
  };
  std::vector<Coro<>> tasks;
  for (int i = 0; i < 3; ++i) tasks.push_back(toucher());
  for (auto& t : tasks) t.start();
  engine.run();
  // Service starts at 0, 6, 12 (occupancy spacing); completions +latency.
  EXPECT_EQ(completions, (std::vector<Cycle>{10, 16, 22}));
}

TEST(Memory, DistinctWordsDoNotSerialize) {
  Engine engine;
  Memory mem(engine, MemParams{10, 6});
  const std::uint32_t a = mem.alloc(0);
  const std::uint32_t b = mem.alloc(0);
  std::vector<Cycle> completions;
  auto toucher = [&](std::uint32_t addr) -> Coro<> {
    co_await mem.load(addr);
    completions.push_back(engine.now());
  };
  std::vector<Coro<>> tasks;
  tasks.push_back(toucher(a));
  tasks.push_back(toucher(b));
  for (auto& t : tasks) t.start();
  engine.run();
  EXPECT_EQ(completions, (std::vector<Cycle>{10, 10}));
}

TEST(Memory, FetchAddReturnsOldAndIsAtomic) {
  Engine engine;
  Memory mem(engine, MemParams{10, 4});
  const std::uint32_t a = mem.alloc(0);
  std::vector<std::uint64_t> olds;
  auto adder = [&]() -> Coro<> {
    for (int i = 0; i < 100; ++i) olds.push_back(co_await mem.fetch_add(a, 1));
  };
  std::vector<Coro<>> tasks;
  for (int i = 0; i < 4; ++i) tasks.push_back(adder());
  for (auto& t : tasks) t.start();
  engine.run();
  EXPECT_EQ(mem.peek(a), 400u);
  // Every old value is distinct: no lost updates.
  std::sort(olds.begin(), olds.end());
  for (std::uint64_t i = 0; i < olds.size(); ++i) EXPECT_EQ(olds[i], i);
}

TEST(Memory, SwapReturnsPrevious) {
  Engine engine;
  Memory mem(engine, MemParams{5, 2});
  const std::uint32_t a = mem.alloc(7);
  std::uint64_t old = 0;
  const auto body = [&]() -> Coro<> { old = co_await mem.swap(a, 11); };
  auto task = body();
  task.start();
  engine.run();
  EXPECT_EQ(old, 7u);
  EXPECT_EQ(mem.peek(a), 11u);
}

TEST(Memory, CasSucceedsAndFails) {
  Engine engine;
  Memory mem(engine, MemParams{5, 2});
  const std::uint32_t a = mem.alloc(3);
  std::uint64_t first = 0;
  std::uint64_t second = 0;
  const auto body = [&]() -> Coro<> {
    first = co_await mem.cas(a, 3, 8);   // succeeds: returns 3
    second = co_await mem.cas(a, 3, 9);  // fails: returns 8, value unchanged
  };
  auto task = body();
  task.start();
  engine.run();
  EXPECT_EQ(first, 3u);
  EXPECT_EQ(second, 8u);
  EXPECT_EQ(mem.peek(a), 8u);
}

TEST(Memory, ExactlyOneCasWinner) {
  Engine engine;
  Memory mem(engine, MemParams{10, 4});
  const std::uint32_t a = mem.alloc(0);
  int winners = 0;
  auto contender = [&](std::uint64_t id) -> Coro<> {
    if (co_await mem.cas(a, 0, id) == 0) ++winners;
  };
  std::vector<Coro<>> tasks;
  for (std::uint64_t i = 1; i <= 8; ++i) tasks.push_back(contender(i));
  for (auto& t : tasks) t.start();
  engine.run();
  EXPECT_EQ(winners, 1);
  EXPECT_EQ(mem.peek(a), 1u);  // first issuer wins under FIFO service
}

TEST(Memory, BankContentionSerializesDistinctWords) {
  // One bank: accesses to *different* words still space out by the bank
  // occupancy, though responses overlap in flight.
  Engine engine;
  MemParams params{10, 4};
  params.banks = 1;
  params.bank_occupancy = 6;
  Memory mem(engine, params);
  const std::uint32_t a = mem.alloc(0);
  const std::uint32_t b = mem.alloc(0);
  std::vector<Cycle> completions;
  auto toucher = [&](std::uint32_t addr) -> Coro<> {
    co_await mem.load(addr);
    completions.push_back(engine.now());
  };
  std::vector<Coro<>> tasks;
  tasks.push_back(toucher(a));
  tasks.push_back(toucher(b));
  for (auto& t : tasks) t.start();
  engine.run();
  EXPECT_EQ(completions, (std::vector<Cycle>{10, 16}));
}

TEST(Memory, ManyBanksRestoreParallelism) {
  Engine engine;
  MemParams params{10, 4};
  params.banks = 8;
  params.bank_occupancy = 6;
  Memory mem(engine, params);
  const std::uint32_t a = mem.alloc(0);   // bank 0
  const std::uint32_t b = mem.alloc(0);   // bank 1
  std::vector<Cycle> completions;
  auto toucher = [&](std::uint32_t addr) -> Coro<> {
    co_await mem.load(addr);
    completions.push_back(engine.now());
  };
  std::vector<Coro<>> tasks;
  tasks.push_back(toucher(a));
  tasks.push_back(toucher(b));
  for (auto& t : tasks) t.start();
  engine.run();
  EXPECT_EQ(completions, (std::vector<Cycle>{10, 10}));
}

TEST(Memory, AccessCounterCounts) {
  Engine engine;
  Memory mem(engine, MemParams{5, 2});
  const std::uint32_t a = mem.alloc(0);
  const auto body = [&]() -> Coro<> {
    co_await mem.load(a);
    co_await mem.store(a, 1);
    co_await mem.fetch_add(a, 1);
  };
  auto task = body();
  task.start();
  engine.run();
  EXPECT_EQ(mem.accesses(), 3u);
}

}  // namespace
}  // namespace cnet::psim
