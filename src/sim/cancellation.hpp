// Cooperative cancellation for long simulations, plus the typed errors
// the execution layer maps into its PointError taxonomy.
//
// A CancellationToken is shared between the thread running simulate()
// and a supervisor (the fcdpm::resilience watchdog): the simulator
// `beat()`s the token at every slot boundary — a deterministic liveness
// heartbeat — and checks `cancelled()` at the same point, so a stuck or
// runaway point can be stopped without preemption and without touching
// the results of any other point. The deadline companion is the
// *simulated-slot budget* in SimulationOptions: wall-clock plays no
// part, so whether a point exceeds its deadline is a deterministic
// property of the point, not of machine load.
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>

namespace fcdpm::sim {

/// Thrown by simulate() at a slot boundary after the token was
/// cancelled (e.g. by the watchdog). The run's partial state is
/// discarded by the caller; nothing shared was mutated.
class CancelledError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown by simulate() when the simulated-slot budget is exhausted
/// (SimulationOptions::slot_budget). Deterministic: depends only on the
/// trace and the budget, never on wall-clock.
class DeadlineExceededError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Shared cancel flag + liveness heartbeat. All operations are lock-free
/// atomics; one token is owned by one in-flight run at a time. The run
/// beats it every slot, so each token takes a cache line of its own:
/// par::run_sweep keeps one per worker in an array, and neighbours
/// sharing a line would contend on every slot.
class alignas(64) CancellationToken {
 public:
  CancellationToken() = default;
  CancellationToken(const CancellationToken&) = delete;
  CancellationToken& operator=(const CancellationToken&) = delete;

  void cancel() noexcept { cancelled_.store(true, std::memory_order_release); }
  [[nodiscard]] bool cancelled() const noexcept {
    return cancelled_.load(std::memory_order_acquire);
  }

  /// Liveness tick; the simulator calls this once per slot.
  void beat() noexcept {
    heartbeat_.fetch_add(1, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t heartbeat() const noexcept {
    return heartbeat_.load(std::memory_order_relaxed);
  }

  /// Rearm for the next attempt (retries reuse one token).
  void reset() noexcept {
    cancelled_.store(false, std::memory_order_release);
    heartbeat_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> cancelled_{false};
  std::atomic<std::uint64_t> heartbeat_{0};
};

}  // namespace fcdpm::sim
