// Logic-analyzer style recording of the bus level, bit by bit.
//
// The paper's testbed attaches a hardware logic analyzer to the breadboard
// (Fig. 5) to measure bus-off times and to capture the Fig. 6 waveform.  The
// LogicAnalyzer here plays the same role: it records the resolved wired-AND
// level for every bit time, plus free-form annotations, and supports the
// queries the evaluation needs (idle-run detection, busy fraction, edge
// positions, ASCII rendering of a window).
//
// Storage is run-length encoded: the quiescence-skipping kernel records a
// multi-thousand-bit idle stretch as a single run via sample_run(), and a
// CAN trace is naturally runs of a few bits anyway.  Every query is defined
// over the logical per-bit sequence, so results are byte-identical to the
// old one-vector-entry-per-bit representation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/types.hpp"

namespace mcan::sim {

class LogicAnalyzer {
 public:
  /// Maximal constant-level run in the recording.
  struct Run {
    BitTime start;
    BitTime length;
    BitLevel level;
  };

  /// Record the resolved bus level for the current bit time.
  void sample(BitLevel level) { sample_run(level, 1); }

  /// Record `count` consecutive bits of the same level (a skipped idle
  /// stretch).  Equivalent to calling sample(level) `count` times.
  void sample_run(BitLevel level, BitTime count);

  /// Attach a text annotation at a given bit time (e.g. "0x066 SOF").
  void annotate(BitTime at, std::string text);

  [[nodiscard]] std::size_t size() const noexcept {
    return static_cast<std::size_t>(size_);
  }
  [[nodiscard]] BitLevel at(BitTime t) const;

  /// Maximal constant-level runs covering [0, size()), in order.  Adjacent
  /// runs always differ in level.
  [[nodiscard]] const std::vector<Run>& runs() const noexcept {
    return runs_;
  }

  /// Number of dominant bits in [from, to).
  [[nodiscard]] std::size_t dominant_count(BitTime from, BitTime to) const;

  /// Fraction of bits in [from, to) that are part of non-idle activity.
  /// A bit is "busy" if it is dominant or lies inside a frame (between a SOF
  /// edge and the subsequent 11-recessive idle run).  For bus-load purposes
  /// we approximate busy = not part of an idle run of >= `idle_run` bits.
  [[nodiscard]] double busy_fraction(BitTime from, BitTime to,
                                     std::size_t idle_run = 11) const;

  /// First falling edge (recessive->dominant) at or after `from`, if any.
  [[nodiscard]] std::optional<BitTime> next_falling_edge(BitTime from) const;

  /// First position >= `from` where `run` consecutive recessive bits end
  /// (i.e. the index of the bit following the run), if any.
  [[nodiscard]] std::optional<BitTime> end_of_recessive_run(
      BitTime from, std::size_t run) const;

  /// Render [from, to) as a string of '_' (dominant) and '-' (recessive),
  /// chunked into `group` sized blocks for readability.
  [[nodiscard]] std::string render(BitTime from, BitTime to,
                                   std::size_t group = 10) const;

  struct Annotation {
    BitTime at;
    std::string text;
  };
  [[nodiscard]] const std::vector<Annotation>& annotations() const noexcept {
    return annotations_;
  }

 private:
  /// Index of the run containing bit t (t must be < size_).
  [[nodiscard]] std::size_t run_index(BitTime t) const;

  std::vector<Run> runs_;
  BitTime size_{0};
  std::vector<Annotation> annotations_;
};

}  // namespace mcan::sim
