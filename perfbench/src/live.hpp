// The live authoritative path (netio), measured from outside in a traced
// run: zone load, an in-process netio::Server with one worker, and one UDP
// generator thread replaying a workload's logged authoritative queries.
#pragma once

#include <cstdint>
#include <vector>

#include "bench.hpp"

namespace perfbench {

/// Loads a generated .nl-sized delegation zone and the test domain into a
/// live server, replays `queries` (wire form) through it over loopback UDP
/// (rate ladder, then capacity and fixed-rate rounds), checks every reply
/// byte for byte past the id against the in-process Responder, and fills
/// the zone-load, netio and generator per-layer metrics of `res`. Spans go
/// under a root span "live".
void measure_live(const std::vector<std::vector<std::uint8_t>>& queries,
                  std::uint64_t seed, Tracer& tracer, Result& res);

}  // namespace perfbench
