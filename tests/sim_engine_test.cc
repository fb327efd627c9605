// Engine tests: serialized execution, tracing, scheduling hooks, faults, RMWs, copies, and
// the fiber machinery (abort unwinding, cross-thread reuse).
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "src/sim/engine.h"
#include "src/sim/site.h"

namespace snowboard {
namespace {

GuestAddr Alloc(Engine& engine, uint32_t bytes) { return engine.mem().StaticAlloc(bytes, 8); }

TEST(EngineTest, SequentialRunRecordsAccesses) {
  Engine engine(1 << 16);
  GuestAddr cell = Alloc(engine, 8);
  Engine::RunResult result = engine.RunSequential([&](Ctx& ctx) {
    ctx.Store32(cell, 7, SB_SITE());
    EXPECT_EQ(ctx.Load32(cell, SB_SITE()), 7u);
  });
  EXPECT_TRUE(result.completed);
  EXPECT_FALSE(result.panicked);
  ASSERT_EQ(result.trace.size(), 2u);
  EXPECT_EQ(result.trace[0].access.type, AccessType::kWrite);
  EXPECT_EQ(result.trace[0].access.value, 7u);
  EXPECT_EQ(result.trace[1].access.type, AccessType::kRead);
  EXPECT_EQ(result.trace[1].access.value, 7u);
}

TEST(EngineTest, SeqNumbersIncrease) {
  Engine engine(1 << 16);
  GuestAddr cell = Alloc(engine, 8);
  Engine::RunResult result = engine.RunSequential([&](Ctx& ctx) {
    for (int i = 0; i < 5; i++) {
      ctx.Store32(cell, static_cast<uint32_t>(i), SB_SITE());
    }
  });
  for (size_t i = 1; i < result.trace.size(); i++) {
    EXPECT_GT(result.trace[i].seq, result.trace[i - 1].seq);
  }
}

TEST(EngineTest, NullDereferencePanics) {
  Engine engine(1 << 16);
  Engine::RunResult result = engine.RunSequential([&](Ctx& ctx) {
    ctx.Load32(8, SB_SITE());  // Inside the null page.
    ADD_FAILURE() << "unreachable after fault";
  });
  EXPECT_FALSE(result.completed);
  EXPECT_TRUE(result.panicked);
  EXPECT_NE(result.panic_message.find("NULL pointer dereference"), std::string::npos);
}

TEST(EngineTest, OutOfRangePageFaultPanics) {
  Engine engine(1 << 16);
  Engine::RunResult result = engine.RunSequential([&](Ctx& ctx) {
    ctx.Load32((1u << 16) + 100, SB_SITE());
  });
  EXPECT_TRUE(result.panicked);
  EXPECT_NE(result.panic_message.find("page fault"), std::string::npos);
}

TEST(EngineTest, ExplicitPanicStopsTrial) {
  Engine engine(1 << 16);
  Engine::RunResult result =
      engine.RunSequential([&](Ctx& ctx) { ctx.Panic("BUG: test panic"); });
  EXPECT_TRUE(result.panicked);
  EXPECT_EQ(result.panic_message, "BUG: test panic");
  ASSERT_FALSE(result.console.empty());
  EXPECT_EQ(result.console[0], "BUG: test panic");
}

TEST(EngineTest, InstructionBudgetHangs) {
  Engine engine(1 << 16);
  GuestAddr cell = Alloc(engine, 8);
  Engine::RunOptions opts;
  opts.max_instructions = 100;
  Engine::RunResult result = engine.Run(
      {[&](Ctx& ctx) {
        for (;;) {
          ctx.Store32(cell, 1, SB_SITE());
          ctx.Store32(cell + 4, 1, SB_SITE());  // Alternate windows to defeat is_live.
        }
      }},
      opts);
  EXPECT_TRUE(result.hang);
  EXPECT_FALSE(result.completed);
}

TEST(EngineTest, TwoVcpusBothRunSerialized) {
  Engine engine(1 << 16);
  GuestAddr a = Alloc(engine, 8);
  GuestAddr b = Alloc(engine, 8);
  Engine::RunOptions opts;
  Engine::RunResult result = engine.Run(
      {[&](Ctx& ctx) { ctx.Store32(a, 1, SB_SITE()); },
       [&](Ctx& ctx) { ctx.Store32(b, 2, SB_SITE()); }},
      opts);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(engine.mem().ReadRaw(a, 4), 1u);
  EXPECT_EQ(engine.mem().ReadRaw(b, 4), 2u);
  // vCPU 0 runs first and to completion (no scheduler switches): its event precedes 1's.
  ASSERT_EQ(result.trace.size(), 2u);
  EXPECT_EQ(result.trace[0].vcpu, 0);
  EXPECT_EQ(result.trace[1].vcpu, 1);
}

// A scheduler that switches after every access: verifies alternation and determinism.
class AlternatingScheduler : public Scheduler {
 public:
  bool AfterAccess(VcpuId vcpu, const Access& access) override { return true; }
};

TEST(EngineTest, SchedulerSwitchInterleaves) {
  Engine engine(1 << 16);
  GuestAddr log_cell = Alloc(engine, 64);
  AlternatingScheduler scheduler;
  Engine::RunOptions opts;
  opts.scheduler = &scheduler;
  auto writer = [&](int base) {
    return [&, base](Ctx& ctx) {
      for (int i = 0; i < 3; i++) {
        ctx.Store32(log_cell + 4 * static_cast<uint32_t>(i) + static_cast<uint32_t>(base),
                    1, SB_SITE());
      }
    };
  };
  Engine::RunResult result = engine.Run({writer(0), writer(16)}, opts);
  EXPECT_TRUE(result.completed);
  // The access stream alternates vCPUs after the first.
  std::vector<VcpuId> order;
  for (const Event& e : result.trace) {
    if (e.kind == EventKind::kAccess) {
      order.push_back(e.vcpu);
    }
  }
  ASSERT_EQ(order.size(), 6u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 1);
  EXPECT_EQ(order[2], 0);
}

TEST(EngineTest, YieldEventsRecorded) {
  Engine engine(1 << 16);
  GuestAddr cell = Alloc(engine, 8);
  AlternatingScheduler scheduler;
  Engine::RunOptions opts;
  opts.scheduler = &scheduler;
  auto two_stores = [&](Ctx& ctx) {
    ctx.Store32(cell, 1, SB_SITE());
    ctx.Store32(cell, 2, SB_SITE());
  };
  Engine::RunResult result = engine.Run({two_stores, two_stores}, opts);
  bool saw_yield = false;
  for (const Event& e : result.trace) {
    saw_yield = saw_yield || e.kind == EventKind::kYield;
  }
  EXPECT_TRUE(saw_yield);
}

TEST(EngineTest, Cas32SucceedsAndFails) {
  Engine engine(1 << 16);
  GuestAddr cell = Alloc(engine, 8);
  engine.RunSequential([&](Ctx& ctx) {
    EXPECT_TRUE(ctx.Cas32(cell, 0, 5, SB_SITE()));
    EXPECT_FALSE(ctx.Cas32(cell, 0, 9, SB_SITE()));
    EXPECT_EQ(ctx.Load32(cell, SB_SITE()), 5u);
  });
}

TEST(EngineTest, CasIsAtomicUnderPreemption) {
  // Even with a switch-happy scheduler, the CAS read and write are one scheduling unit.
  Engine engine(1 << 16);
  GuestAddr cell = Alloc(engine, 8);
  AlternatingScheduler scheduler;
  Engine::RunOptions opts;
  opts.scheduler = &scheduler;
  std::atomic<int> acquired{0};
  Engine::RunResult result = engine.Run(
      {[&](Ctx& ctx) {
         if (ctx.Cas32(cell, 0, 1, SB_SITE())) {
           acquired.fetch_add(1);
         }
       },
       [&](Ctx& ctx) {
         if (ctx.Cas32(cell, 0, 2, SB_SITE())) {
           acquired.fetch_add(1);
         }
       }},
      opts);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(acquired.load(), 1);  // Exactly one CAS wins.
}

TEST(EngineTest, FetchAddAccumulates) {
  Engine engine(1 << 16);
  GuestAddr cell = Alloc(engine, 8);
  engine.RunSequential([&](Ctx& ctx) {
    EXPECT_EQ(ctx.FetchAdd32(cell, 3, SB_SITE()), 0u);
    EXPECT_EQ(ctx.FetchAdd32(cell, -1, SB_SITE()), 3u);
    EXPECT_EQ(ctx.Load32(cell, SB_SITE()), 2u);
  });
}

TEST(EngineTest, CopyIsChunked) {
  Engine engine(1 << 16);
  GuestAddr src = Alloc(engine, 16);
  GuestAddr dst = Alloc(engine, 16);
  engine.mem().WriteRaw(src, 4, 0x44332211);
  engine.mem().WriteRaw(src + 4, 2, 0x6655);
  Engine::RunResult result = engine.RunSequential([&](Ctx& ctx) {
    ctx.Copy(dst, src, 6, SB_SITE(), SB_SITE());
  });
  // 6 bytes => one 4-byte chunk + one 2-byte chunk => 2 loads + 2 stores.
  ASSERT_EQ(result.trace.size(), 4u);
  EXPECT_EQ(engine.mem().ReadRaw(dst, 4), 0x44332211u);
  EXPECT_EQ(engine.mem().ReadRaw(dst + 4, 2), 0x6655u);
}

TEST(EngineTest, EspStampedOnAccesses) {
  Engine engine(1 << 16);
  GuestAddr cell = Alloc(engine, 8);
  Engine::RunResult result = engine.RunSequential([&](Ctx& ctx) {
    ctx.esp = 0x4000;
    ctx.Store32(cell, 1, SB_SITE());
  });
  ASSERT_EQ(result.trace.size(), 1u);
  EXPECT_EQ(result.trace[0].access.esp, 0x4000u);
}

TEST(EngineTest, EngineReusableAcrossRuns) {
  Engine engine(1 << 16);
  GuestAddr cell = Alloc(engine, 8);
  for (int i = 0; i < 5; i++) {
    Engine::RunResult result = engine.RunSequential([&](Ctx& ctx) {
      ctx.Store32(cell, static_cast<uint32_t>(i), SB_SITE());
    });
    EXPECT_TRUE(result.completed);
    EXPECT_EQ(result.trace.size(), 1u);
  }
}

TEST(EngineTest, PanicOnOneVcpuAbortsOther) {
  Engine engine(1 << 16);
  GuestAddr cell = Alloc(engine, 8);
  AlternatingScheduler scheduler;
  Engine::RunOptions opts;
  opts.scheduler = &scheduler;
  bool second_finished = false;
  Engine::RunResult result = engine.Run(
      {[&](Ctx& ctx) {
         ctx.Store32(cell, 1, SB_SITE());
         ctx.Panic("BUG: vcpu0 dies");
       },
       [&](Ctx& ctx) {
         for (int i = 0; i < 100; i++) {
           ctx.Store32(cell, 2, SB_SITE());
         }
         second_finished = true;
       }},
      opts);
  EXPECT_TRUE(result.panicked);
  EXPECT_FALSE(second_finished);  // Aborted mid-flight.
}

TEST(EngineTest, ConsoleCapturedPerRun) {
  Engine engine(1 << 16);
  Engine::RunResult r1 = engine.RunSequential([&](Ctx& ctx) { ctx.Printk("hello"); });
  Engine::RunResult r2 = engine.RunSequential([&](Ctx& ctx) { ctx.Printk("world"); });
  ASSERT_EQ(r1.console.size(), 1u);
  ASSERT_EQ(r2.console.size(), 1u);
  EXPECT_EQ(r1.console[0], "hello");
  EXPECT_EQ(r2.console[0], "world");
}

// --- Fiber switching. ---------------------------------------------------------------------

// A guest RAII frame: logs its vCPU when destroyed, as kernel StackFrame guards restore esp.
struct FrameGuard {
  std::vector<int>* log;
  int vcpu;
  ~FrameGuard() { log->push_back(vcpu); }
};

// Compact "A<vcpu>"/"Y<vcpu>" rendering of a trace's event kinds, in order.
std::string TraceShape(const Engine::RunResult& result) {
  std::string shape;
  for (const Event& e : result.trace) {
    shape += e.kind == EventKind::kAccess ? "A" : e.kind == EventKind::kYield ? "Y" : "?";
    shape += std::to_string(e.vcpu);
  }
  return shape;
}

Engine::RunResult RunTwoStoresPerVcpu(Engine& engine, GuestAddr cells, int vcpus) {
  AlternatingScheduler scheduler;
  Engine::RunOptions opts;
  opts.scheduler = &scheduler;
  std::vector<Engine::GuestFn> fns;
  for (int v = 0; v < vcpus; v++) {
    fns.push_back([cells, v](Ctx& ctx) {
      ctx.Store32(cells + 4 * static_cast<uint32_t>(v), 1, SB_SITE());
      ctx.Store32(cells + 4 * static_cast<uint32_t>(v), 2, SB_SITE());
    });
  }
  return engine.Run(fns, opts);
}

TEST(EngineFiberTest, TracesMatchFixedSequenceForOneTwoThreeVcpus) {
  // Switch-after-every-access: each vCPU's second store yields (recording Y) to the next
  // live vCPU round-robin; a finished vCPU hands off without an event. One engine runs all
  // three shapes, so fibers mapped for the 3-vCPU run are reused by the later runs too.
  Engine engine(1 << 16);
  GuestAddr cells = Alloc(engine, 16);
  const char* expected[] = {"", "A0A0", "A0Y0A1Y1A0A1", "A0Y0A1Y1A2Y2A0A1A2"};
  for (int vcpus : {1, 2, 3, 2, 1, 3}) {
    SCOPED_TRACE(vcpus);
    Engine::RunResult result = RunTwoStoresPerVcpu(engine, cells, vcpus);
    EXPECT_TRUE(result.completed);
    EXPECT_EQ(TraceShape(result), expected[vcpus]);
    for (size_t i = 0; i < result.trace.size(); i++) {
      EXPECT_EQ(result.trace[i].seq, i);
    }
  }
}

TEST(EngineFiberTest, PanicUnwindsEveryStartedVcpuAndSkipsUnstartedOne) {
  Engine engine(1 << 16);
  GuestAddr cell = Alloc(engine, 8);
  AlternatingScheduler scheduler;
  Engine::RunOptions opts;
  opts.scheduler = &scheduler;
  std::vector<int> destroyed;
  bool third_started = false;
  Engine::RunResult result = engine.Run(
      {[&](Ctx& ctx) {
         FrameGuard guard{&destroyed, 0};
         ctx.Store32(cell, 1, SB_SITE());
         ctx.Store32(cell, 2, SB_SITE());  // Yields to vCPU 1 first; never returns.
         ADD_FAILURE() << "vCPU 0 resumed past the abort";
       },
       [&](Ctx& ctx) {
         FrameGuard guard{&destroyed, 1};
         ctx.Panic("BUG: vcpu1 dies");
       },
       [&](Ctx& ctx) { third_started = true; }},
      opts);
  EXPECT_TRUE(result.panicked);
  EXPECT_FALSE(result.completed);
  EXPECT_FALSE(third_started) << "a vCPU that never ran must skip its body on abort";
  // The panicking vCPU unwinds first, then the rest in round-robin order from it.
  EXPECT_EQ(destroyed, (std::vector<int>{1, 0}));
}

TEST(EngineFiberTest, HangUnwindsEveryVcpuRoundRobinFromTheAborter) {
  Engine engine(1 << 16);
  GuestAddr cells = Alloc(engine, 16);
  AlternatingScheduler scheduler;
  Engine::RunOptions opts;
  opts.scheduler = &scheduler;
  opts.max_instructions = 7;  // Instruction k runs on vCPU (k - 1) % 3: the 8th is vCPU 1's.
  std::vector<int> destroyed;
  std::vector<Engine::GuestFn> fns;
  for (int v = 0; v < 3; v++) {
    fns.push_back([&, v](Ctx& ctx) {
      FrameGuard guard{&destroyed, v};
      for (uint32_t i = 0;; i++) {
        ctx.Store32(cells + 4 * static_cast<uint32_t>(v), i, SB_SITE());
      }
    });
  }
  Engine::RunResult result = engine.Run(fns, opts);
  EXPECT_TRUE(result.hang);
  EXPECT_FALSE(result.completed);
  EXPECT_EQ(result.instructions, 8u);
  EXPECT_EQ(destroyed, (std::vector<int>{1, 2, 0}));
}

// Recurses `depth` frames, each holding a guard and touching memory (so the scheduler
// switches vCPUs between frames), then panics from the innermost one.
void DeepPanic(Ctx& ctx, GuestAddr cell, int depth, std::vector<int>* destroyed) {
  FrameGuard guard{destroyed, 100 + depth};
  ctx.Store32(cell, static_cast<uint32_t>(depth), SB_SITE());
  if (depth == 0) {
    ctx.Panic("BUG: deep panic");
  }
  DeepPanic(ctx, cell, depth - 1, destroyed);
}

TEST(EngineFiberTest, TrialAbortDeepInsideFiberUnwindsCleanly) {
  Engine engine(1 << 16);
  GuestAddr cell = Alloc(engine, 16);
  AlternatingScheduler scheduler;
  Engine::RunOptions opts;
  opts.scheduler = &scheduler;
  std::vector<int> destroyed;
  Engine::RunResult result = engine.Run(
      {[&](Ctx& ctx) {
         FrameGuard guard{&destroyed, 0};
         for (;;) {
           ctx.Store32(cell + 8, 0, SB_SITE());
           ctx.Store32(cell + 12, 0, SB_SITE());
         }
       },
       [&](Ctx& ctx) { DeepPanic(ctx, cell, 6, &destroyed); }},
      opts);
  EXPECT_TRUE(result.panicked);
  EXPECT_EQ(result.panic_message, "BUG: deep panic");
  // vCPU 1's frames innermost-first, then vCPU 0's.
  EXPECT_EQ(destroyed, (std::vector<int>{100, 101, 102, 103, 104, 105, 106, 0}));

  // The engine (and vCPU 1's reused fiber stack) is fully usable afterwards.
  Engine::RunResult next = RunTwoStoresPerVcpu(engine, cell, 2);
  EXPECT_TRUE(next.completed);
  EXPECT_EQ(TraceShape(next), "A0Y0A1Y1A0A1");
}

TEST(EngineFiberTest, OneEngineRunsOnSuccessiveHostThreads) {
  Engine engine(1 << 16);
  GuestAddr cells = Alloc(engine, 16);
  std::vector<std::string> shapes;
  for (int round = 0; round < 2; round++) {
    std::thread host([&] {
      Engine::RunResult result = RunTwoStoresPerVcpu(engine, cells, 3);
      EXPECT_TRUE(result.completed);
      shapes.push_back(TraceShape(result));
    });
    host.join();
  }
  ASSERT_EQ(shapes.size(), 2u);
  EXPECT_EQ(shapes[0], "A0Y0A1Y1A2Y2A0A1A2");
  EXPECT_EQ(shapes[1], shapes[0]);
}

}  // namespace
}  // namespace snowboard
