// Copyright 2026 The LearnRisk Authors
// Interleaver (interleave.h): ucontext tasks under a least-time-per-share
// scheduler.

#include "interleave.h"

#include <cstdlib>
#include <limits>
#include <utility>

#include "bench.h"

namespace perfbench {

namespace {

/// Stack of one task. It is only reserved up front; pages become resident
/// as the task's calls reach them.
constexpr size_t kStackBytes = size_t{8} << 20;

}  // namespace

CpuRotation::CpuRotation() {
  CPU_ZERO(&original_);
  have_original_ = sched_getaffinity(0, sizeof(original_), &original_) == 0;
  if (!have_original_) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
  }
}

CpuRotation::~CpuRotation() {
  if (have_original_ && cpus_.size() > 1) {
    sched_setaffinity(0, sizeof(original_), &original_);
  }
}

void CpuRotation::Next() {
  if (cpus_.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[next_++ % cpus_.size()], &one);
  sched_setaffinity(0, sizeof(one), &one);
}

struct Interleaver::Task {
  std::function<void()> body;
  double share = 1.0;
  uint64_t run_ns = 0;
  bool started = false;
  bool done = false;
  ucontext_t context;
  std::unique_ptr<char[]> stack;
};

Interleaver::Interleaver(double quantum_s)
    : quantum_ns_(static_cast<uint64_t>(quantum_s * 1e9)) {}

Interleaver::~Interleaver() = default;

size_t Interleaver::Add(std::function<void()> body, double share) {
  auto task = std::make_unique<Task>();
  task->body = std::move(body);
  task->share = share > 0.0 ? share : 1.0;
  tasks_.push_back(std::move(task));
  return tasks_.size() - 1;
}

void Interleaver::Enter(unsigned int high, unsigned int low) {
  auto* self = reinterpret_cast<Interleaver*>(
      (static_cast<uintptr_t>(high) << 32) | static_cast<uintptr_t>(low));
  self->current_->body();
  self->current_->done = true;
  // Returning continues at uc_link, the scheduler.
}

void Interleaver::Resume(Task* task) {
  if (!task->started) {
    task->started = true;
    task->stack.reset(new char[kStackBytes]);
    if (getcontext(&task->context) != 0) std::abort();
    task->context.uc_stack.ss_sp = task->stack.get();
    task->context.uc_stack.ss_size = kStackBytes;
    task->context.uc_link = &scheduler_;
    const auto self = reinterpret_cast<uintptr_t>(this);
    makecontext(&task->context, reinterpret_cast<void (*)()>(&Enter), 2,
                static_cast<unsigned int>(self >> 32),
                static_cast<unsigned int>(self & 0xffffffffu));
  }
  current_ = task;
  resumed_ns_ = NowNs();
  if (swapcontext(&scheduler_, &task->context) != 0) std::abort();
  task->run_ns += NowNs() - resumed_ns_;
  current_ = nullptr;
  if (task->done) task->stack.reset();
}

void Interleaver::Run() {
  CpuRotation rotation;
  for (;;) {
    Task* next = nullptr;
    double least = std::numeric_limits<double>::infinity();
    for (const auto& task : tasks_) {
      if (task->done) continue;
      const double per_share = static_cast<double>(task->run_ns) / task->share;
      if (per_share < least) {
        least = per_share;
        next = task.get();
      }
    }
    if (next == nullptr) return;
    rotation.Next();
    Resume(next);
  }
}

void Interleaver::Yield() {
  if (current_ == nullptr || NowNs() - resumed_ns_ < quantum_ns_) return;
  Task* task = current_;
  if (swapcontext(&task->context, &scheduler_) != 0) std::abort();
}

double Interleaver::seconds(size_t task) const {
  const Task& t = *tasks_[task];
  const uint64_t running = current_ == &t ? NowNs() - resumed_ns_ : 0;
  return static_cast<double>(t.run_ns + running) * 1e-9;
}

bool Interleaver::done(size_t task) const { return tasks_[task]->done; }

}  // namespace perfbench
