// Run tracing: a thread-safe collector of completed, named spans (plan →
// per-cell cache-probe/compute → aggregate, shrink for fuzz runs).  The
// runners record into it when a caller attaches one; the paper-workload
// benchmark sums span durations by name into its per-layer ledger.
//
// Determinism: spans are runtime telemetry and must never perturb report
// byte-identity — collectors hang off config pointers that default to
// nullptr, and a null collector makes every Scope a no-op.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace mcan::obs {

/// One completed span.  Times are microseconds on the steady clock
/// relative to the collector's epoch.
struct Span {
  std::uint64_t id{};      // unique within the collector, assigned from 1
  std::uint64_t parent{};  // 0 = root
  std::string name;
  std::string category;
  double start_us{};
  double dur_us{};
};

/// Thread-safe sink for completed spans; workers record concurrently.
class SpanCollector {
 public:
  /// `trace_id` labels the run; `epoch` anchors span timestamps and
  /// defaults to construction time.
  explicit SpanCollector(std::uint64_t trace_id,
                         std::chrono::steady_clock::time_point epoch =
                             std::chrono::steady_clock::now());

  [[nodiscard]] std::uint64_t trace_id() const noexcept { return trace_id_; }

  /// Microseconds since the epoch (monotonic).
  [[nodiscard]] double now_us() const;

  /// Reserve the next span id (thread-safe).  Lets a parent hand its id to
  /// children before the parent span itself completes.
  [[nodiscard]] std::uint64_t next_id();

  /// Record a completed span (thread-safe).
  void record(Span span);

  [[nodiscard]] std::vector<Span> spans() const;

  /// RAII span: reserves an id at construction (children can parent to it
  /// immediately) and records the completed span at destruction.  A null
  /// collector makes every member a no-op, so call sites need no guards.
  class Scope {
   public:
    Scope(SpanCollector* collector, std::string_view name,
          std::string_view category, std::uint64_t parent = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

   private:
    SpanCollector* collector_;
    std::uint64_t id_{0};
    std::uint64_t parent_{0};
    std::string name_;
    std::string category_;
    double start_us_{0};
  };

 private:
  std::uint64_t trace_id_;
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::uint64_t next_id_{1};
  std::vector<Span> spans_;
};

}  // namespace mcan::obs
