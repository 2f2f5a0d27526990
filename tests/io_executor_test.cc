// Unit tests for the parallel I/O substrate: IoExecutor task semantics
// (batch join, error fan-in, inline fallback, shutdown) and BufferPool
// recycling invariants.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "io/buffer_pool.h"
#include "io/io_executor.h"
#include "tests/test_util.h"

namespace eos {
namespace {

using testing_util::PatternBytes;

TEST(IoExecutorTest, RunBatchRunsEveryTask) {
  IoExecutor exec(3);
  std::atomic<int> ran{0};
  std::vector<std::function<Status()>> tasks;
  for (int i = 0; i < 50; ++i) {
    tasks.push_back([&ran] {
      ran.fetch_add(1);
      return Status::OK();
    });
  }
  EOS_ASSERT_OK(exec.RunBatch(std::move(tasks)));
  EXPECT_EQ(ran.load(), 50);
}

TEST(IoExecutorTest, ErrorFanInReturnsFirstInTaskOrder) {
  IoExecutor exec(4);
  std::vector<std::function<Status()>> tasks;
  tasks.push_back([] { return Status::OK(); });
  tasks.push_back([] { return Status::IOError("first failure"); });
  tasks.push_back([] { return Status::Corruption("second failure"); });
  Status s = exec.RunBatch(std::move(tasks));
  ASSERT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_NE(s.ToString().find("first failure"), std::string::npos);
}

TEST(IoExecutorTest, ErrorDoesNotCancelRemainingTasks) {
  // RunBatch's contract: every task finishes before it returns, so
  // captured buffers stay valid even when an earlier task failed.
  IoExecutor exec(2);
  std::atomic<int> ran{0};
  std::vector<std::function<Status()>> tasks;
  tasks.push_back([&ran] {
    ran.fetch_add(1);
    return Status::IOError("boom");
  });
  for (int i = 0; i < 20; ++i) {
    tasks.push_back([&ran] {
      ran.fetch_add(1);
      return Status::OK();
    });
  }
  EXPECT_TRUE(exec.RunBatch(std::move(tasks)).IsIOError());
  EXPECT_EQ(ran.load(), 21);
}

TEST(IoExecutorTest, ZeroThreadsRunsInline) {
  IoExecutor exec(0);
  EXPECT_EQ(exec.threads(), 0u);
  std::thread::id caller = std::this_thread::get_id();
  std::thread::id seen;
  std::vector<std::function<Status()>> tasks;
  tasks.push_back([&seen] {
    seen = std::this_thread::get_id();
    return Status::OK();
  });
  tasks.push_back([] { return Status::OK(); });
  EOS_ASSERT_OK(exec.RunBatch(std::move(tasks)));
  EXPECT_EQ(seen, caller);
}

TEST(IoExecutorTest, SingleTaskBatchRunsInline) {
  IoExecutor exec(2);
  std::thread::id caller = std::this_thread::get_id();
  std::thread::id seen;
  std::vector<std::function<Status()>> tasks;
  tasks.push_back([&seen] {
    seen = std::this_thread::get_id();
    return Status::OK();
  });
  EOS_ASSERT_OK(exec.RunBatch(std::move(tasks)));
  EXPECT_EQ(seen, caller);
}

TEST(IoExecutorTest, SubmitTicketWaitReturnsTaskStatus) {
  IoExecutor exec(2);
  IoExecutor::Ticket ok = exec.Submit([] { return Status::OK(); });
  IoExecutor::Ticket bad = exec.Submit([] { return Status::Busy("later"); });
  EOS_EXPECT_OK(ok.Wait());
  EXPECT_TRUE(bad.Wait().IsBusy());
  // A detached ticket's second Wait is OK by contract.
  EOS_EXPECT_OK(bad.Wait());
}

TEST(IoExecutorTest, TicketDestructorJoins) {
  std::atomic<bool> ran{false};
  IoExecutor exec(1);
  {
    IoExecutor::Ticket t = exec.Submit([&ran] {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      ran.store(true);
      return Status::OK();
    });
    // Dropped unjoined: the destructor must wait for the task.
  }
  EXPECT_TRUE(ran.load());
}

TEST(IoExecutorTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  std::vector<IoExecutor::Ticket> tickets;
  {
    IoExecutor exec(1);
    for (int i = 0; i < 16; ++i) {
      tickets.push_back(exec.Submit([&ran] {
        ran.fetch_add(1);
        return Status::OK();
      }));
    }
  }
  EXPECT_EQ(ran.load(), 16);
}

TEST(IoExecutorTest, ConcurrentBatchesFromManyThreads) {
  IoExecutor exec(4);
  std::atomic<int> total{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&exec, &total] {
      for (int round = 0; round < 8; ++round) {
        std::vector<std::function<Status()>> tasks;
        for (int i = 0; i < 8; ++i) {
          tasks.push_back([&total] {
            total.fetch_add(1);
            return Status::OK();
          });
        }
        Status s = exec.RunBatch(std::move(tasks));
        EXPECT_TRUE(s.ok()) << s.ToString();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(total.load(), 4 * 8 * 8);
}

TEST(IoExecutorTest, DefaultExecutorExists) {
  IoExecutor* exec = IoExecutor::Default();
  ASSERT_NE(exec, nullptr);
  EXPECT_EQ(exec, IoExecutor::Default());  // stable singleton
  std::vector<std::function<Status()>> tasks;
  std::atomic<int> ran{0};
  for (int i = 0; i < 4; ++i) {
    tasks.push_back([&ran] {
      ran.fetch_add(1);
      return Status::OK();
    });
  }
  EOS_ASSERT_OK(exec->RunBatch(std::move(tasks)));
  EXPECT_EQ(ran.load(), 4);
}

// ----- BufferPool ------------------------------------------------------------

TEST(BufferPoolTest, AcquireGivesUsableAlignedMemory) {
  BufferPool pool;
  BufferPool::Buffer b = pool.Acquire(10000);
  ASSERT_TRUE(b.valid());
  EXPECT_GE(b.size(), 10000u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b.data()) % 4096, 0u);
  std::memset(b.data(), 0xAB, b.size());
  EXPECT_EQ(b.data()[b.size() - 1], 0xAB);
}

TEST(BufferPoolTest, ReleaseThenAcquireReusesBlock) {
  BufferPool pool;
  uint8_t* first;
  {
    BufferPool::Buffer b = pool.Acquire(8192);
    first = b.data();
  }
  EXPECT_EQ(pool.idle_buffers(), 1u);
  BufferPool::Buffer again = pool.Acquire(8192);
  EXPECT_EQ(again.data(), first);
  EXPECT_EQ(pool.idle_buffers(), 0u);
}

TEST(BufferPoolTest, SteadyStateHasNoFreshAllocations) {
  // The zero-per-I/O-allocation claim, in miniature: after warmup a
  // fixed-size working set cycles entirely through the free lists.
  BufferPool pool;
  for (int round = 0; round < 3; ++round) {
    std::vector<BufferPool::Buffer> live;
    for (int i = 0; i < 8; ++i) live.push_back(pool.Acquire(4096));
  }
  // Rounds 2 and 3 must have been served from the free list: the pool
  // never holds more than the 8 blocks round 1 allocated.
  EXPECT_EQ(pool.idle_buffers(), 8u);
}

TEST(BufferPoolTest, DifferentSizeClassesDoNotMix) {
  BufferPool pool;
  { BufferPool::Buffer b = pool.Acquire(4096); }
  BufferPool::Buffer big = pool.Acquire(1u << 20);
  EXPECT_GE(big.size(), 1u << 20);
  EXPECT_EQ(pool.idle_buffers(), 1u);  // the 4 KiB block is still idle
}

TEST(BufferPoolTest, OversizeRequestsAreUnpooled) {
  BufferPool pool;
  { BufferPool::Buffer b = pool.Acquire(64u << 20); }  // > kMaxPooledBytes
  EXPECT_EQ(pool.idle_buffers(), 0u);  // freed, not retained
}

TEST(BufferPoolTest, MoveTransfersOwnership) {
  BufferPool pool;
  BufferPool::Buffer a = pool.Acquire(4096);
  uint8_t* p = a.data();
  BufferPool::Buffer b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move): testing it
  EXPECT_EQ(b.data(), p);
  b.Release();
  EXPECT_FALSE(b.valid());
  EXPECT_EQ(pool.idle_buffers(), 1u);
}

TEST(BufferPoolTest, RetentionIsBounded) {
  BufferPool pool(/*max_per_class=*/2);
  {
    std::vector<BufferPool::Buffer> live;
    for (int i = 0; i < 10; ++i) live.push_back(pool.Acquire(4096));
  }
  EXPECT_EQ(pool.idle_buffers(), 2u);
}

TEST(BufferPoolTest, RetainedBytesAreBoundedAcrossClasses) {
  // The per-class count cap alone is not a memory bound: a workload that
  // cycles whole-extent staging buffers (cache fills) through every size
  // class would retain max_per_class buffers of each class — hundreds of
  // MiB. The pool must also enforce a total idle-byte budget.
  constexpr size_t kBudget = 8u << 20;  // 8 MiB
  BufferPool pool(/*max_per_class=*/16, /*max_idle_bytes=*/kBudget);
  // Touch every pooled class, several buffers each, mimicking repeated
  // fill staging of differently-sized extents.
  for (int round = 0; round < 4; ++round) {
    for (size_t bytes = 4096; bytes <= (16u << 20); bytes <<= 1) {
      BufferPool::Buffer b = pool.Acquire(bytes);
      ASSERT_TRUE(b.valid());
      b.data()[0] = 1;  // returned on scope exit
    }
    EXPECT_LE(pool.idle_bytes(), kBudget);
  }
  EXPECT_LE(pool.idle_bytes(), kBudget);
  // The budget still leaves room for small-class recycling: a 4 KiB block
  // released under budget must be retained, not freed.
  size_t before = pool.idle_bytes();
  if (before + 4096 <= kBudget) {
    { BufferPool::Buffer b = pool.Acquire(32u << 20); }  // unpooled, no-op
    { BufferPool::Buffer b = pool.Acquire(4096); }
    EXPECT_GE(pool.idle_bytes(), before);
  }
}

TEST(BufferPoolTest, IdleBytesTracksAcquireAndReturn) {
  BufferPool pool;
  EXPECT_EQ(pool.idle_bytes(), 0u);
  { BufferPool::Buffer b = pool.Acquire(8192); }
  EXPECT_EQ(pool.idle_bytes(), 8192u);
  BufferPool::Buffer again = pool.Acquire(8192);
  EXPECT_EQ(pool.idle_bytes(), 0u);
  again.Release();
  EXPECT_EQ(pool.idle_bytes(), 8192u);
}

TEST(BufferPoolTest, ConcurrentAcquireRelease) {
  BufferPool pool;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&pool, t] {
      for (int i = 0; i < 200; ++i) {
        BufferPool::Buffer b = pool.Acquire(4096 << (i % 3));
        b.data()[0] = static_cast<uint8_t>(t);
        ASSERT_EQ(b.data()[0], static_cast<uint8_t>(t));
      }
    });
  }
  for (auto& th : threads) th.join();
}

TEST(BufferPoolTest, PooledBuffersFlowAcrossThreads) {
  // Buffers acquired on one thread and released on another (the executor
  // hand-off pattern) must recycle cleanly.
  BufferPool pool;
  IoExecutor exec(2);
  for (int round = 0; round < 20; ++round) {
    // std::function requires copyable closures, so the move-only Buffer
    // travels behind a shared_ptr — the same shape the read-ahead uses.
    auto b = std::make_shared<BufferPool::Buffer>(pool.Acquire(8192));
    Bytes payload = PatternBytes(round, 8192);
    std::memcpy(b->data(), payload.data(), payload.size());
    IoExecutor::Ticket t = exec.Submit([b, &payload] {
      if (std::memcmp(b->data(), payload.data(), payload.size()) != 0) {
        return Status::Corruption("payload mangled in hand-off");
      }
      b->Release();
      return Status::OK();
    });
    EOS_ASSERT_OK(t.Wait());
  }
  EXPECT_GE(pool.idle_buffers(), 1u);
}

}  // namespace
}  // namespace eos
