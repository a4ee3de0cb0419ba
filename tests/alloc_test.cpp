// Counting-allocator proof of the zero-allocation hot path, plus property
// tests for the object pools.
//
// The test binary overrides global operator new/delete with counting
// wrappers; each steady-state test warms the relevant pool/caches, snapshots
// the counter, drives a few thousand more messages (or simulated events) and
// asserts the counter did not move. Runs in the ASan and TSan suites too
// (CMake CAMEO_SAN_SUITES): there the sanitizer checks that recycled storage
// is never aliased by live objects, while the zero-allocation assertions are
// skipped (sanitizer runtimes allocate behind the scenes).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <set>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/pool.h"
#include "common/rng.h"
#include "sched/cameo_scheduler.h"
#include "sched/fifo_scheduler.h"
#include "shard/wire.h"
#include "sim/event_queue.h"
#include "state/keyed_counter.h"

// ---------------------------------------------------------------------------
// Counting global allocator.
// ---------------------------------------------------------------------------

namespace {

std::atomic<std::int64_t> g_heap_allocs{0};

void* CountedAlloc(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n ? n : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

// The release half of CountedAlloc. Kept out of line: once inlined, GCC
// sees `free` applied to storage from a replaced `operator new` and warns
// -Wmismatched-new-delete at every inlined delete site.
[[gnu::noinline]] void CountedFree(void* p) noexcept { std::free(p); }

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kCountingReliable = false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kCountingReliable = false;
#else
constexpr bool kCountingReliable = true;
#endif
#else
constexpr bool kCountingReliable = true;
#endif

}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}

namespace cameo {
namespace {

std::int64_t HeapAllocs() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}

Message MakeMsg(std::int64_t id, std::int64_t op) {
  Message m;
  m.id = MessageId{id};
  m.target = OperatorId{op};
  m.pc.id = m.id;
  m.pc.pri_global = id;
  m.pc.pri_local = id;
  m.batch = EventBatch::Synthetic(1, id);
  return m;
}

// ---------------------------------------------------------------------------
// Zero heap allocations per steady-state message, both scheduler backends.
// ---------------------------------------------------------------------------

template <typename Sched>
void ExpectZeroAllocSteadyState(std::size_t drain) {
  Sched sched;
  constexpr std::int64_t kOps = 13;
  const WorkerId w{0};
  std::int64_t id = 0;
  // Standing backlog so batched drains engage.
  for (int i = 0; i < 64; ++i) {
    sched.Enqueue(MakeMsg(id, id % kOps), WorkerId{}, id);
    ++id;
  }
  // One enqueue -> claim-and-drain -> complete cycle; runs of `drain`
  // messages per operator (batching-client arrival pattern).
  std::vector<Message> stash;
  std::size_t next = 0;
  auto drive = [&](int iters) {
    for (int i = 0; i < iters; ++i) {
      const std::int64_t op = (id / static_cast<std::int64_t>(drain)) % kOps;
      sched.Enqueue(MakeMsg(id, op), WorkerId{}, id);
      ++id;
      if (next == stash.size()) {
        stash.clear();
        next = 0;
        ASSERT_GT(sched.DequeueBatch(w, id, drain, stash), 0u);
        sched.OnComplete(stash.front().target, w, id);
      }
      ++next;
    }
  };
  // Warm every cache: mailbox ring/heap capacity, ready-queue heap, pool
  // thread caches, the stash itself.
  drive(4000);
  if (::testing::Test::HasFatalFailure()) return;

  const std::int64_t before = HeapAllocs();
  drive(2000);
  const std::int64_t after = HeapAllocs();
  if (::testing::Test::HasFatalFailure()) return;
  if (kCountingReliable) {
    EXPECT_EQ(after - before, 0)
        << "steady-state messages must not touch the heap";
  }
}

TEST(ZeroAllocTest, CameoSchedulerSteadyStateBatchOne) {
  ExpectZeroAllocSteadyState<CameoScheduler>(1);
}

TEST(ZeroAllocTest, CameoSchedulerSteadyStateBatchEight) {
  ExpectZeroAllocSteadyState<CameoScheduler>(8);
}

TEST(ZeroAllocTest, FifoSchedulerSteadyStateBatchOne) {
  ExpectZeroAllocSteadyState<FifoScheduler>(1);
}

TEST(ZeroAllocTest, FifoSchedulerSteadyStateBatchEight) {
  ExpectZeroAllocSteadyState<FifoScheduler>(8);
}

TEST(ZeroAllocTest, EventQueueSteadyState) {
  EventQueue q;
  std::int64_t ran = 0;
  std::int64_t scheduled = 0;
  // Warm every ring slot (the wheel wraps once per kBuckets * width of
  // simulated time) and the overflow heap.
  auto drive = [&](int iters) {
    for (int i = 0; i < iters; ++i) {
      q.Schedule(q.now() + (i % 7) * Micros(60), [&ran] { ++ran; });
      ++scheduled;
      if (i % 16 == 0) {
        q.Schedule(q.now() + Seconds(1), [&ran] { ++ran; });
        ++scheduled;
        q.RunNext();
      }
      q.RunNext();
    }
    while (!q.empty()) q.RunNext();
  };
  drive(6000);

  const std::int64_t before = HeapAllocs();
  drive(3000);
  const std::int64_t after = HeapAllocs();
  EXPECT_EQ(ran, scheduled);
  if (kCountingReliable) {
    EXPECT_EQ(after - before, 0)
        << "steady-state simulated events must not touch the heap";
  }
}

TEST(ZeroAllocTest, ColumnarBatchRecycleSteadyState) {
  auto cycle = [](std::int64_t seed) {
    EventBatch b;
    for (int i = 0; i < 256; ++i) {
      b.Append(seed + i, static_cast<double>(i), seed + i);
    }
    std::int64_t sum = 0;
    for (std::int64_t k : b.keys) sum += k;
    b.Recycle();
    return sum;
  };
  for (int i = 0; i < 64; ++i) cycle(i);  // warm the column stash

  const std::int64_t before = HeapAllocs();
  std::int64_t sum = 0;
  for (int i = 0; i < 512; ++i) sum += cycle(i);
  const std::int64_t after = HeapAllocs();
  EXPECT_NE(sum, 0);
  if (kCountingReliable) {
    EXPECT_EQ(after - before, 0)
        << "recycled column buffers must satisfy steady-state Appends";
  }
}

TEST(ZeroAllocTest, WireCodecEncodeShipDecodeSteadyState) {
  // The full inter-shard cycle: build a columnar message, encode it into a
  // recycled frame, decode into a fresh message that adopts pooled columns,
  // recycle everything. Frame buffers ride the RecycleStash, columns ride
  // the column pool -- once both are warm, zero heap allocations per message.
  auto cycle = [](std::int64_t seed) {
    cameo::Message m;
    m.id = cameo::MessageId{seed};
    m.target = cameo::OperatorId{seed % 64};
    m.pc.id = m.id;
    m.pc.pri_global = seed;
    m.batch.progress = seed;
    for (int i = 0; i < 128; ++i) {
      m.batch.Append(seed + i, static_cast<double>(i), seed + i);
    }
    cameo::shard::WireFrame frame = cameo::shard::AcquireFrame();
    cameo::shard::EncodeMessage(m, frame);
    cameo::Message out;
    CAMEO_CHECK(cameo::shard::DecodeMessage(frame, out));
    const std::int64_t tag = out.batch.keys.empty() ? 0 : out.batch.keys[0];
    cameo::shard::ReleaseFrame(std::move(frame));
    out.batch.Recycle();
    m.batch.Recycle();
    return tag;
  };
  for (int i = 0; i < 64; ++i) cycle(i);  // warm frame stash + column pool

  const std::int64_t before = HeapAllocs();
  std::int64_t sum = 0;
  constexpr int kMessages = 2000;
  for (int i = 0; i < kMessages; ++i) sum += cycle(i);
  const std::int64_t after = HeapAllocs();
  EXPECT_NE(sum, 0);
  if (kCountingReliable) {
    EXPECT_EQ(after - before, 0)
        << "steady-state encode->ship->decode must not touch the heap "
        << "(allocs/msg = "
        << static_cast<double>(after - before) / kMessages << ")";
  }
}

// ---------------------------------------------------------------------------
// Keyed slate state: a million live keys, zero allocations per message.
// ---------------------------------------------------------------------------

/// Recycles every emitted batch back into the column stash, mirroring what
/// the runtime does after a sink consumes a message.
class DrainEmitter final : public Emitter {
 public:
  void Emit(int /*port*/, EventBatch batch, SimTime /*event_time*/) override {
    ++emitted;
    batch.Recycle();
  }
  std::int64_t emitted = 0;
};

/// Drives `op` with one columnar batch of `keys` rows (ids `base + i`), all
/// stamped `p`, then recycles the input batch -- the runtime's steady-state
/// message lifecycle.
void DriveKeyedBatch(KeyedCounterOp& op, InvokeContext& ctx, std::int64_t& id,
                     std::int64_t base, std::int64_t keys, LogicalTime p) {
  Message m;
  m.id = MessageId{id++};
  m.sender = OperatorId{1};
  m.batch.progress = p;
  for (std::int64_t i = 0; i < keys; ++i) m.batch.Append(base + i, 1.0, p);
  op.Invoke(m, ctx);
  m.batch.Recycle();
}

TEST(ZeroAllocTest, KeyedCounterMillionKeySteadyState) {
  KeyedCounterOptions opts;
  opts.mini_batch = true;
  KeyedCounterOp op("slates", WindowSpec::Tumbling(256), {0, 0, 0.0}, opts);
  DrainEmitter emitter;
  Rng rng(7);
  InvokeContext ctx{0, &emitter, &rng};
  std::int64_t id = 0;
  LogicalTime p = 0;

  // Build the working set: 1M distinct keys, watermark advancing so windows
  // close as we go. This also wraps the timer wheel's 256-bucket ring several
  // times (one wheel bucket per batch at this stride), warming every bucket
  // vector, the slate store's growth path, and the pool's slab caches.
  constexpr std::int64_t kKeys = 1 << 20;  // 1,048,576 live keys
  constexpr std::int64_t kBatch = 512;
  for (std::int64_t base = 0; base < kKeys; base += kBatch) {
    p += 64;
    DriveKeyedBatch(op, ctx, id, base, kBatch, p);
  }
  ASSERT_EQ(op.live_keys(), static_cast<std::size_t>(kKeys));

  // Steady state: traffic cycles over a resident subset of the million keys,
  // windows keep closing, emissions keep draining. A few cycles first so the
  // emission batches and pending-emit buffers reach their high-water marks.
  std::int64_t next = 0;
  auto drive = [&](int batches) {
    for (int i = 0; i < batches; ++i) {
      p += 64;
      DriveKeyedBatch(op, ctx, id, next, kBatch, p);
      next = (next + kBatch) % 4096;
    }
  };
  drive(600);  // > 256 batches: full ring wrap inside the warm phase

  const std::int64_t before = HeapAllocs();
  drive(512);  // another full wrap, measured
  const std::int64_t after = HeapAllocs();
  EXPECT_EQ(op.live_keys(), static_cast<std::size_t>(kKeys));
  EXPECT_GT(emitter.emitted, 0);
  if (kCountingReliable) {
    EXPECT_EQ(after - before, 0)
        << "steady-state keyed-counter messages must not touch the heap";
  }
}

TEST(ZeroAllocTest, KeyedCounterTtlChurnSteadyState) {
  // Keys arrive, go idle, and expire: inserts balance expiries, so the store
  // reaches a fixed population where tombstone sweeps (same-capacity
  // rehashes) recycle slabs through the pool instead of growing. After the
  // pool has seen one full double-buffered rehash, churn is allocation-free.
  KeyedCounterOptions opts;
  opts.ttl = 2048;
  KeyedCounterOp op("churn", WindowSpec::Tumbling(256), {0, 0, 0.0}, opts);
  DrainEmitter emitter;
  Rng rng(11);
  InvokeContext ctx{0, &emitter, &rng};
  std::int64_t id = 0;
  LogicalTime p = 0;
  std::int64_t base = 0;
  auto drive = [&](int batches) {
    for (int i = 0; i < batches; ++i) {
      p += 64;
      DriveKeyedBatch(op, ctx, id, base, 256, p);
      base += 256;  // fresh keys every batch; old ones idle out via TTL
    }
  };
  drive(4000);
  const std::size_t population = op.live_keys();

  const std::int64_t before = HeapAllocs();
  drive(2000);
  const std::int64_t after = HeapAllocs();
  EXPECT_EQ(op.live_keys(), population) << "TTL churn must hold steady";
  EXPECT_GT(op.expired(), 0);
  if (kCountingReliable) {
    EXPECT_EQ(after - before, 0)
        << "insert/expire churn must recycle slabs, not allocate";
  }
}

// ---------------------------------------------------------------------------
// Pool property tests.
// ---------------------------------------------------------------------------

struct Payload {
  explicit Payload(std::int64_t v) : value(v) { canary = ~v; }
  std::int64_t value;
  std::int64_t canary;
};

TEST(PoolTest, LiveObjectsNeverAlias) {
  auto& pool = Pool<Payload>::Global();
  std::vector<Payload*> live;
  std::set<const void*> addresses;
  for (std::int64_t i = 0; i < 1000; ++i) {
    Payload* p = pool.New(i);
    ASSERT_TRUE(addresses.insert(p).second) << "pool handed out a live slot";
    live.push_back(p);
  }
  for (std::int64_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(live[static_cast<std::size_t>(i)]->value, i);
    EXPECT_EQ(live[static_cast<std::size_t>(i)]->canary, ~i);
  }
  for (Payload* p : live) pool.Delete(p);
}

TEST(PoolTest, RecycleAfterRetireReusesStorageSafely) {
  auto& pool = Pool<Payload>::Global();
  // Retire a batch, then reacquire: values must come from the constructor,
  // never from a stale live reference (ASan would flag a use-after-free if
  // Delete freed instead of recycling, and the canary catches torn reuse).
  std::vector<Payload*> first;
  for (std::int64_t i = 0; i < 128; ++i) first.push_back(pool.New(i));
  for (Payload* p : first) pool.Delete(p);
  std::vector<Payload*> second;
  for (std::int64_t i = 1000; i < 1128; ++i) second.push_back(pool.New(i));
  for (std::size_t i = 0; i < second.size(); ++i) {
    EXPECT_EQ(second[i]->value, 1000 + static_cast<std::int64_t>(i));
    EXPECT_EQ(second[i]->canary, ~(1000 + static_cast<std::int64_t>(i)));
  }
  for (Payload* p : second) pool.Delete(p);
}

TEST(PoolTest, CrossThreadRecyclingBalances) {
  // Producer threads acquire, a consumer thread releases: slots must flow
  // back through the global spillover without loss or aliasing. (The TSan
  // suite leg checks the handoff for races.)
  auto& pool = Pool<Payload>::Global();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::atomic<std::int64_t> sum{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::int64_t i = 0; i < kPerThread; ++i) {
        Payload* p = pool.New(t * kPerThread + i);
        sum.fetch_add(p->value, std::memory_order_relaxed);
        pool.Delete(p);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const std::int64_t n = static_cast<std::int64_t>(kThreads) * kPerThread;
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

TEST(PoolTest, RecycledBatchColumnsDoNotAliasLiveBatches) {
  // A live columnar batch and a recycled-then-adopted one must never share
  // buffers: mutate one, verify the other.
  EventBatch a;
  for (int i = 0; i < 64; ++i) a.Append(i, 1.0, i);
  EventBatch b;
  for (int i = 0; i < 64; ++i) b.Append(100 + i, 2.0, i);
  b.Recycle();
  EventBatch c;
  c.Append(7, 3.0, 7);  // adopts b's recycled buffers (or fresh ones)
  ASSERT_NE(c.keys.data(), a.keys.data());
  c.keys[0] = -1;
  EXPECT_EQ(a.keys[0], 0);
  EXPECT_EQ(a.keys[63], 63);
  a.Recycle();
  c.Recycle();
}

TEST(RecycleStashTest, PutTakeRoundTripsAcrossThreads) {
  using Stash = RecycleStash<std::vector<int>>;
  auto& stash = Stash::Global();
  std::vector<std::thread> threads;
  std::atomic<int> taken{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 2000; ++i) {
        std::vector<int> v;
        if (auto got = stash.Take()) v = std::move(*got);
        v.clear();
        v.push_back(i);
        taken.fetch_add(static_cast<int>(v.capacity() > 0));
        stash.Put(std::move(v));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(taken.load(), 4 * 2000);
}

}  // namespace
}  // namespace cameo
