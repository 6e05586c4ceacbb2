// Seeded fuzz-case generation.  One derived seed maps to exactly one case
// (pure function of the seed — no global state), so any case the campaign
// runner finds is reproducible from its (base_seed, stream, index) triple
// alone.  The distribution is deliberately stuff-heavy: long equal runs in
// IDs and payloads are what exercise the stuffing corner cases real attacks
// (CANflict, error-frame stomping) live in.
#pragma once

#include <cstdint>

#include "conformance/fuzz_case.hpp"

namespace mcan::conformance {

/// Deterministically generate one case from a derived seed.
/// Mix: ~50% Clean (1-3 nodes, unique arbitration keys), ~20% ScheduledFlip
/// (lone standard frame, one body flip), ~15% Noisy (BER / stuck windows /
/// arbitrary scheduled flips), ~15% dense Clean (up to 4 nodes with fuller
/// queues and large DLCs, so the bus stays mid-frame nearly throughout).
[[nodiscard]] FuzzCase generate_case(std::uint64_t seed);

}  // namespace mcan::conformance
