#include "src/sim/engine.h"

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <cstdlib>

// Sanitizer fiber annotations: ASan must know which stack is live (for exception unwinding
// and fake stacks), TSan which fiber's history an access belongs to.
#if defined(__SANITIZE_ADDRESS__)
#define SB_ASAN_FIBERS 1
#endif
#if defined(__SANITIZE_THREAD__)
#define SB_TSAN_FIBERS 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SB_ASAN_FIBERS 1
#endif
#if __has_feature(thread_sanitizer)
#define SB_TSAN_FIBERS 1
#endif
#endif
#if SB_ASAN_FIBERS
#include <sanitizer/common_interface_defs.h>
#endif
#if SB_TSAN_FIBERS
#include <sanitizer/tsan_interface.h>
#endif

#include "src/sim/site.h"
#include "src/util/assert.h"
#include "src/util/strings.h"
#include "src/util/trace.h"

namespace snowboard {

// --------------------------------------------------------------------------------------------
// Ctx: guest-side access API.
// --------------------------------------------------------------------------------------------

Memory& Ctx::mem() { return engine_->memory_; }

uint64_t Ctx::Load(GuestAddr addr, uint32_t len, SiteId site, bool marked_atomic) {
  Access access;
  access.type = AccessType::kRead;
  access.marked_atomic = marked_atomic;
  access.len = static_cast<uint8_t>(len);
  access.vcpu = vcpu_;
  access.addr = addr;
  access.site = site;
  engine_->OnAccess(*this, access);
  return access.value;
}

void Ctx::Store(GuestAddr addr, uint32_t len, uint64_t value, SiteId site, bool marked_atomic) {
  Access access;
  access.type = AccessType::kWrite;
  access.marked_atomic = marked_atomic;
  access.len = static_cast<uint8_t>(len);
  access.vcpu = vcpu_;
  access.addr = addr;
  access.value = value;
  access.site = site;
  engine_->OnAccess(*this, access);
}

bool Ctx::Cas32(GuestAddr addr, uint32_t expected, uint32_t desired, SiteId site) {
  Access read;
  read.type = AccessType::kRead;
  read.marked_atomic = true;
  read.len = 4;
  read.vcpu = vcpu_;
  read.addr = addr;
  read.site = site;

  Access write = read;
  write.type = AccessType::kWrite;
  write.value = desired;

  engine_->OnRmw(*this, read, /*do_write_if=*/
                 [&](uint64_t old) { return old == expected; }, write);
  return read.value == expected;
}

uint32_t Ctx::FetchAdd32(GuestAddr addr, int32_t delta, SiteId site) {
  Access read;
  read.type = AccessType::kRead;
  read.marked_atomic = true;
  read.len = 4;
  read.vcpu = vcpu_;
  read.addr = addr;
  read.site = site;

  Access write = read;
  write.type = AccessType::kWrite;

  engine_->OnRmw(*this, read,
                 [&](uint64_t old) {
                   write.value = static_cast<uint32_t>(old) + static_cast<uint32_t>(delta);
                   return true;
                 },
                 write);
  return static_cast<uint32_t>(read.value);
}

void Ctx::Copy(GuestAddr dst, GuestAddr src, uint32_t len, SiteId read_site,
               SiteId write_site) {
  // Word-at-a-time copy: each chunk is an independent instruction pair, so the scheduler can
  // interleave another vCPU mid-copy and a reader can observe a torn object.
  uint32_t off = 0;
  while (off < len) {
    uint32_t chunk = len - off >= 4 ? 4 : len - off;
    uint64_t v = Load(src + off, chunk, read_site);
    Store(dst + off, chunk, v, write_site);
    off += chunk;
  }
}

void Ctx::ExplicitYield() { engine_->Yield(vcpu_, /*record_event=*/true); }

void Ctx::Pause() {
  Engine& e = *engine_;
  e.liveness_.OnPause(vcpu_);
  // A spinner with no live partner can never be satisfied: classic hang.
  if (!e.liveness_.IsLive(vcpu_) && e.NextLiveVcpu(vcpu_) == kInvalidVcpu) {
    e.AbortTrial(vcpu_, /*panic=*/false, "hang: spinning with no runnable partner");
  }
  e.Yield(vcpu_, /*record_event=*/false);
}

void Ctx::LockEvent(EventKind kind, GuestAddr lock_addr, SiteId site) {
  Event event;
  event.kind = kind;
  event.vcpu = vcpu_;
  event.lock_addr = lock_addr;
  event.access.site = site;
  event.access.vcpu = vcpu_;
  engine_->RecordEvent(event);
}

void Ctx::OnSyscallEntry() { engine_->liveness_.OnProgress(vcpu_); }

void Ctx::Printk(const std::string& line) { engine_->console_.Printk(line); }

void Ctx::Panic(const std::string& message) {
  engine_->console_.Printk(message);
  engine_->AbortTrial(vcpu_, /*panic=*/true, message);
}

// --------------------------------------------------------------------------------------------
// Engine.
// --------------------------------------------------------------------------------------------

namespace {

// Fiber stacks are reserved, not committed (MAP_NORESERVE): only the pages guest code
// actually touches become resident.
constexpr size_t kFiberStackBytes = size_t{1} << 20;

}  // namespace

// One vCPU's execution context. vCPU 0 has no stack of its own: it runs on whichever host
// thread called RunInto, and its context slot saves that thread's state while a fiber runs.
struct Engine::Fiber {
  Fiber() = default;  // vCPU 0.

  // vCPU >= 1: maps a stack with a PROT_NONE guard page below it.
  explicit Fiber(size_t bytes) {
    const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
    mapping_bytes = bytes + page;
    mapping = mmap(nullptr, mapping_bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1, 0);
    SB_CHECK(mapping != MAP_FAILED);
    SB_CHECK(mprotect(mapping, page, PROT_NONE) == 0);
    stack_bottom = static_cast<char*>(mapping) + page;
    stack_bytes = bytes;
    SB_CHECK(getcontext(&context) == 0);
#if SB_TSAN_FIBERS
    tsan_fiber = __tsan_create_fiber(0);
#endif
  }

  ~Fiber() {
    if (mapping == nullptr) {
      return;
    }
#if SB_TSAN_FIBERS
    __tsan_destroy_fiber(tsan_fiber);
#endif
    munmap(mapping, mapping_bytes);
  }

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  ucontext_t context{};
  void* mapping = nullptr;
  size_t mapping_bytes = 0;
  // The usable stack, as the sanitizers want it described. vCPU 0's bounds are learned from
  // ASan on each switch away from the host stack.
  const void* stack_bottom = nullptr;
  size_t stack_bytes = 0;
  void* asan_fake_stack = nullptr;
  void* tsan_fiber = nullptr;
};

Engine::Engine(uint32_t mem_size) : memory_(mem_size) {
  fibers_.push_back(std::make_unique<Fiber>());
}

Engine::~Engine() = default;

Engine::RunResult Engine::Run(const std::vector<GuestFn>& vcpu_fns, const RunOptions& opts) {
  RunResult result;
  RunInto(vcpu_fns, opts, &result);
  return result;
}

void Engine::RunInto(const std::vector<GuestFn>& vcpu_fns, const RunOptions& opts,
                     RunResult* result) {
  TRACE_SPAN("engine.run", vcpu_fns.size());
  SB_CHECK(!vcpu_fns.empty());
  const int n = static_cast<int>(vcpu_fns.size());

  // Reset per-run state, recycling buffer capacity from the previous run (and the caller's
  // trace buffer via `result`): at steady state nothing here touches the heap.
  opts_ = opts;
  scheduler_ = opts.scheduler != nullptr ? opts.scheduler : &sequential_;
  vcpus_.assign(static_cast<size_t>(n), VcpuState());
  ctxs_.clear();
  ctxs_.reserve(static_cast<size_t>(n));
  for (int v = 0; v < n; v++) {
    ctxs_.emplace_back(this, v);
  }
  liveness_.Reset(n, opts.liveness);
  trace_ = std::move(result->trace);
  trace_.clear();
  seq_ = 0;
  instructions_ = 0;
  abort_ = false;
  panicked_ = false;
  hang_ = false;
  panic_message_.clear();
  console_.Clear();
  run_fns_ = &vcpu_fns;

  // Map a stack for every vCPU this run adds over the high-water count (first run with that
  // many vCPUs only), then aim each fiber at the top of FiberMain.
  while (fibers_.size() < static_cast<size_t>(n)) {
    fibers_.push_back(std::make_unique<Fiber>(kFiberStackBytes));
  }
  const uintptr_t self = reinterpret_cast<uintptr_t>(this);
  for (int v = 1; v < n; v++) {
    Fiber& fiber = *fibers_[static_cast<size_t>(v)];
    fiber.context.uc_stack.ss_sp = const_cast<void*>(fiber.stack_bottom);
    fiber.context.uc_stack.ss_size = fiber.stack_bytes;
    fiber.context.uc_link = nullptr;  // FiberMain never returns.
    makecontext(&fiber.context, reinterpret_cast<void (*)()>(&Engine::FiberMain), 3,
                static_cast<unsigned>(self >> 32), static_cast<unsigned>(self), v);
  }
#if SB_TSAN_FIBERS
  fibers_[0]->tsan_fiber = __tsan_get_current_fiber();
#endif

  scheduler_->OnTrialStart(n);
  RunVcpu(0);
  // vCPU 0 is done. Resume the others, if any is unfinished: a fiber hands control back to
  // this host context only once every vCPU has finished.
  const VcpuId next = NextLiveVcpu(0);
  if (next != kInvalidVcpu) {
    SwitchTo(0, next);
  }
  run_fns_ = nullptr;
  scheduler_->OnTrialEnd();

  result->completed = !abort_;
  result->hang = hang_;
  result->panicked = panicked_;
  result->panic_message = panic_message_;
  result->instructions = instructions_;
  result->trace = std::move(trace_);
  trace_ = Trace();
  result->console = console_.lines();
}

Engine::RunResult Engine::RunSequential(const GuestFn& fn, uint64_t max_instructions) {
  RunOptions opts;
  opts.max_instructions = max_instructions;
  return Run({fn}, opts);
}

void Engine::RunVcpu(VcpuId vcpu) noexcept {
  try {
    if (!abort_) {
      (*run_fns_)[static_cast<size_t>(vcpu)](ctxs_[static_cast<size_t>(vcpu)]);
    }
  } catch (const TrialAbort&) {
    // Unwound guest code; this vCPU is done either way.
  }
  vcpus_[static_cast<size_t>(vcpu)].finished = true;
}

void Engine::FiberMain(unsigned engine_hi, unsigned engine_lo, unsigned vcpu) {
  Engine* engine = reinterpret_cast<Engine*>((uintptr_t{engine_hi} << 32) | engine_lo);
  engine->FinishSwitch(nullptr);
  const VcpuId self = static_cast<VcpuId>(vcpu);
  engine->RunVcpu(self);
  // Pass control onward; back to the host context once every vCPU has finished.
  const VcpuId next = engine->NextLiveVcpu(self);
  engine->LeaveFinishedFiber(self, next != kInvalidVcpu ? next : 0);
}

void Engine::SwitchTo(VcpuId from, VcpuId to) {
  Fiber& self = *fibers_[static_cast<size_t>(from)];
  Fiber& target = *fibers_[static_cast<size_t>(to)];
  switch_from_ = from;
#if SB_TSAN_FIBERS
  __tsan_switch_to_fiber(target.tsan_fiber, 0);
#endif
#if SB_ASAN_FIBERS
  __sanitizer_start_switch_fiber(&self.asan_fake_stack, target.stack_bottom,
                                 target.stack_bytes);
#endif
  swapcontext(&self.context, &target.context);
  FinishSwitch(self.asan_fake_stack);
}

void Engine::LeaveFinishedFiber(VcpuId from, VcpuId to) {
  Fiber& target = *fibers_[static_cast<size_t>(to)];
  switch_from_ = from;
#if SB_TSAN_FIBERS
  __tsan_switch_to_fiber(target.tsan_fiber, 0);
#endif
#if SB_ASAN_FIBERS
  // Null save slot: this fiber's fake stack is released, it never resumes.
  __sanitizer_start_switch_fiber(nullptr, target.stack_bottom, target.stack_bytes);
#endif
  setcontext(&target.context);
  std::abort();  // setcontext returns only on failure.
}

void Engine::FinishSwitch(void* fake_stack) {
#if SB_ASAN_FIBERS
  const void* from_bottom = nullptr;
  size_t from_bytes = 0;
  __sanitizer_finish_switch_fiber(fake_stack, &from_bottom, &from_bytes);
  Fiber& from = *fibers_[static_cast<size_t>(switch_from_)];
  from.stack_bottom = from_bottom;
  from.stack_bytes = from_bytes;
#else
  (void)fake_stack;
#endif
}

VcpuId Engine::NextLiveVcpu(VcpuId from) const {
  const int n = static_cast<int>(vcpus_.size());
  for (int i = 1; i < n; i++) {
    VcpuId candidate = (from + i) % n;
    if (!vcpus_[static_cast<size_t>(candidate)].finished) {
      return candidate;
    }
  }
  return kInvalidVcpu;
}

void Engine::Yield(VcpuId from, bool record_event) {
  VcpuId next = NextLiveVcpu(from);
  if (next == kInvalidVcpu) {
    return;  // No one to switch to; keep running.
  }
  if (record_event && opts_.collect_trace) {
    Event event;
    event.kind = EventKind::kYield;
    event.vcpu = from;
    event.seq = seq_++;
    trace_.push_back(event);
  }
  SwitchTo(from, next);
  if (abort_) {
    throw TrialAbort{};  // Another vCPU ended the trial while this one was suspended.
  }
}

void Engine::RecordEvent(Event event) {
  event.seq = seq_++;
  if (event.kind == EventKind::kAccess) {
    event.access.seq = event.seq;
  }
  if (opts_.collect_trace) {
    trace_.push_back(event);
  }
}

void Engine::AbortTrial(VcpuId vcpu, bool panic, const std::string& message) {
  abort_ = true;
  if (panic) {
    panicked_ = true;
    panic_message_ = message;
  } else {
    hang_ = true;
  }
  throw TrialAbort{};
}

void Engine::FaultCheck(Ctx& ctx, const Access& access) {
  if (memory_.Valid(access.addr, access.len)) {
    return;
  }
  std::string message;
  if (access.addr < kGuestNullPageSize) {
    message = StrPrintf("BUG: kernel NULL pointer dereference, address: 0x%08x at %s",
                        access.addr, SiteName(access.site).c_str());
  } else {
    message = StrPrintf("BUG: unable to handle page fault for address: 0x%08x at %s",
                        access.addr, SiteName(access.site).c_str());
  }
  ctx.Panic(message);
}

void Engine::PerformAccess(Access& access) {
  if (access.type == AccessType::kRead) {
    access.value = memory_.ReadRaw(access.addr, access.len);
  } else {
    memory_.WriteRaw(access.addr, access.len, access.value);
  }
}

void Engine::CheckBudgetAndLiveness(Ctx& ctx) {
  VcpuId v = ctx.vcpu_;
  instructions_++;
  if (instructions_ > opts_.max_instructions) {
    AbortTrial(v, /*panic=*/false, "hang: instruction budget exhausted");
  }
  if (!liveness_.IsLive(v)) {
    scheduler_->OnNotLive(v);
    VcpuId next = NextLiveVcpu(v);
    if (next == kInvalidVcpu) {
      AbortTrial(v, /*panic=*/false, "hang: not live with no runnable partner");
    }
    if (!liveness_.IsLive(next)) {
      // Both threads stuck in low-liveness loops: deadlock/livelock. End the trial.
      AbortTrial(v, /*panic=*/false, "hang: all vCPUs not live (deadlock suspected)");
    }
    Yield(v, /*record_event=*/true);
  }
}

void Engine::OnAccess(Ctx& ctx, Access& access) {
  VcpuId v = ctx.vcpu_;
  VcpuState& state = vcpus_[static_cast<size_t>(v)];

  // A switch armed by the previous instruction (Algorithm 2: `if switch then yield()`), or a
  // scheduler decision to preempt before this instruction executes.
  bool do_switch = state.pending_switch;
  state.pending_switch = false;
  if (scheduler_->BeforeAccess(v, access)) {
    do_switch = true;
  }
  if (do_switch) {
    Yield(v, /*record_event=*/true);
  }

  CheckBudgetAndLiveness(ctx);
  FaultCheck(ctx, access);
  access.esp = ctx.esp;
  PerformAccess(access);

  Event event;
  event.kind = EventKind::kAccess;
  event.vcpu = v;
  event.access = access;
  RecordEvent(event);
  // RecordEvent stamped event.access.seq; mirror it into the caller-visible access.
  access.seq = event.access.seq;

  liveness_.OnAccess(v, access);
  state.pending_switch = scheduler_->AfterAccess(v, access);
}

void Engine::OnRmw(Ctx& ctx, Access& read, const std::function<bool(uint64_t)>& do_write_if,
                   Access& write) {
  VcpuId v = ctx.vcpu_;
  VcpuState& state = vcpus_[static_cast<size_t>(v)];

  bool do_switch = state.pending_switch;
  state.pending_switch = false;
  if (scheduler_->BeforeAccess(v, read)) {
    do_switch = true;
  }
  if (do_switch) {
    Yield(v, /*record_event=*/true);
  }

  CheckBudgetAndLiveness(ctx);
  FaultCheck(ctx, read);
  read.esp = ctx.esp;
  write.esp = ctx.esp;

  // Read and (conditional) write happen back-to-back with no scheduling point in between:
  // this models a single atomic RMW instruction.
  PerformAccess(read);
  Event read_event;
  read_event.kind = EventKind::kAccess;
  read_event.vcpu = v;
  read_event.access = read;
  RecordEvent(read_event);
  read.seq = read_event.access.seq;
  liveness_.OnAccess(v, read);

  bool pending = scheduler_->AfterAccess(v, read);
  if (do_write_if(read.value)) {
    PerformAccess(write);
    Event write_event;
    write_event.kind = EventKind::kAccess;
    write_event.vcpu = v;
    write_event.access = write;
    RecordEvent(write_event);
    write.seq = write_event.access.seq;
    liveness_.OnAccess(v, write);
    pending = scheduler_->AfterAccess(v, write) || pending;
  }
  state.pending_switch = pending;
}

}  // namespace snowboard
