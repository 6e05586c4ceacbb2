#include "sim/trace.hpp"

#include <algorithm>
#include <stdexcept>

namespace mcan::sim {

std::string to_string(BitLevel l) {
  return l == BitLevel::Dominant ? "dominant" : "recessive";
}

void LogicAnalyzer::sample_run(BitLevel level, BitTime count) {
  if (count == 0) return;
  if (!runs_.empty() && runs_.back().level == level) {
    runs_.back().length += count;
  } else {
    runs_.push_back({size_, count, level});
  }
  size_ += count;
}

void LogicAnalyzer::annotate(BitTime at, std::string text) {
  annotations_.push_back({at, std::move(text)});
}

std::size_t LogicAnalyzer::run_index(BitTime t) const {
  // First run whose start is > t, then step back one.
  auto it = std::upper_bound(
      runs_.begin(), runs_.end(), t,
      [](BitTime v, const Run& r) { return v < r.start; });
  return static_cast<std::size_t>(it - runs_.begin()) - 1;
}

BitLevel LogicAnalyzer::at(BitTime t) const {
  if (t >= size_) throw std::out_of_range{"LogicAnalyzer::at: past end"};
  return runs_[run_index(t)].level;
}

std::size_t LogicAnalyzer::dominant_count(BitTime from, BitTime to) const {
  to = std::min(to, size_);
  if (to <= from) return 0;
  std::size_t n = 0;
  for (std::size_t i = run_index(from); i < runs_.size(); ++i) {
    const Run& r = runs_[i];
    if (r.start >= to) break;
    if (r.level == BitLevel::Dominant) {
      const BitTime lo = std::max(r.start, from);
      const BitTime hi = std::min(r.start + r.length, to);
      n += static_cast<std::size_t>(hi - lo);
    }
  }
  return n;
}

double LogicAnalyzer::busy_fraction(BitTime from, BitTime to,
                                    std::size_t idle_run) const {
  to = std::min(to, size_);
  if (to <= from) return 0.0;
  // A recessive run clipped to the window counts as busy iff its clipped
  // length is < idle_run — same windowed-maximal-run rule as the per-bit
  // implementation this replaces.
  std::size_t busy = 0;
  for (std::size_t i = run_index(from); i < runs_.size(); ++i) {
    const Run& r = runs_[i];
    if (r.start >= to) break;
    const BitTime lo = std::max(r.start, from);
    const BitTime hi = std::min(r.start + r.length, to);
    const std::size_t seg = static_cast<std::size_t>(hi - lo);
    if (r.level == BitLevel::Dominant) {
      busy += seg;
    } else if (seg < idle_run) {
      busy += seg;
    }
  }
  return static_cast<double>(busy) / static_cast<double>(to - from);
}

std::optional<BitTime> LogicAnalyzer::next_falling_edge(BitTime from) const {
  // A falling edge exists exactly at the start of every dominant run except
  // one starting at t=0 (no preceding recessive bit).
  from = std::max<BitTime>(from, 1);
  if (from >= size_) return std::nullopt;
  for (std::size_t i = run_index(from); i < runs_.size(); ++i) {
    const Run& r = runs_[i];
    if (r.level == BitLevel::Dominant && r.start >= from && r.start > 0) {
      return r.start;
    }
  }
  return std::nullopt;
}

std::optional<BitTime> LogicAnalyzer::end_of_recessive_run(
    BitTime from, std::size_t run) const {
  if (from >= size_) return std::nullopt;
  for (std::size_t i = run_index(from); i < runs_.size(); ++i) {
    const Run& r = runs_[i];
    if (r.level != BitLevel::Recessive) continue;
    const BitTime lo = std::max(r.start, from);
    const BitTime avail = r.start + r.length - lo;
    if (avail >= run) return lo + run;
  }
  return std::nullopt;
}

std::string LogicAnalyzer::render(BitTime from, BitTime to,
                                  std::size_t group) const {
  to = std::min(to, size_);
  std::string out;
  if (to <= from) return out;
  out.reserve(static_cast<std::size_t>(to - from) +
              (group ? static_cast<std::size_t>(to - from) / group : 0));
  std::size_t in_group = 0;
  for (std::size_t i = run_index(from); i < runs_.size(); ++i) {
    const Run& r = runs_[i];
    if (r.start >= to) break;
    const char c = r.level == BitLevel::Dominant ? '_' : '-';
    const BitTime lo = std::max(r.start, from);
    const BitTime hi = std::min(r.start + r.length, to);
    for (BitTime t = lo; t < hi; ++t) {
      out.push_back(c);
      if (group != 0 && ++in_group == group && t + 1 < to) {
        out.push_back(' ');
        in_group = 0;
      }
    }
  }
  return out;
}

}  // namespace mcan::sim
