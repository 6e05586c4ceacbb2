// On-disk content-addressed cell cache backing the `--cache-dir` flag of
// `michican_cli campaign`, `fault-sweep` and `fuzz`.  Every finished cell
// is stored as it completes, so a re-run against the same directory —
// after a clean exit or a kill — replays those cells and computes only the
// rest.
//
// Layout: one file per cell under the cache directory, named "<key id>.cell"
// (the CellKey::id() content address — spec hash, derived seed, engine
// version — so a key change is a different file, never a reinterpretation).
// Each file is a one-line header followed by the raw payload:
//
//   MCST1 <fnv64 hex, 16 digits> <payload length decimal>\n<payload bytes>
//
// The header's hash is re-verified on every fetch.  Any mismatch — torn
// write, truncation, bit rot, hand editing — deletes the entry, counts it
// as `corrupt`, and reports a miss: the caller recomputes and re-stores.
// Corruption is never fatal and never served.
//
// Writes go through a temp file + rename() in the same directory, so a
// reader can never observe a half-written entry and a crash mid-store
// leaves at most a stray ".tmp" file (swept at startup).
//
// Eviction: size-capped LRU over payload bytes.  The store keeps an
// in-memory recency index (monotonic sequence numbers, seeded from file
// mtimes at startup so recency survives restarts approximately); when a
// store() pushes the total over the cap, least-recently-used entries are
// deleted until it fits — except the entry just stored, which is always
// kept even if it alone exceeds the cap (evicting your own write would
// livelock a cache smaller than one cell).
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "runner/cell_store.hpp"

namespace mcan::serve {

class DiskStore final : public runner::CellStore {
 public:
  /// Opens (creating if needed) the cache directory and indexes existing
  /// entries.  `cap_bytes` caps total *payload* bytes; 0 = unlimited.
  /// Throws std::runtime_error if the directory cannot be created.
  explicit DiskStore(std::filesystem::path dir, std::uint64_t cap_bytes = 0);

  [[nodiscard]] std::optional<std::string> fetch(
      const runner::CellKey& key) override;
  void store(const runner::CellKey& key, std::string_view bytes) override;
  [[nodiscard]] Stats stats() const override;

  [[nodiscard]] const std::filesystem::path& dir() const { return dir_; }

 private:
  struct Entry {
    std::uint64_t bytes{};  // payload length
    std::uint64_t seq{};    // recency: larger = more recently used
  };

  [[nodiscard]] std::filesystem::path path_for(std::string_view id) const;
  /// Drop one entry from disk and the index (lock held).
  void drop(const std::string& id, std::uint64_t counted_as_corrupt);
  /// Evict LRU entries until total payload fits the cap (lock held);
  /// `keep` is never evicted.
  void evict_to_cap(const std::string& keep);

  std::filesystem::path dir_;
  std::uint64_t cap_bytes_;

  mutable std::mutex mu_;
  std::map<std::string, Entry> index_;  // key id -> entry
  std::uint64_t total_bytes_{0};
  std::uint64_t next_seq_{1};
  Stats stats_;
};

}  // namespace mcan::serve
