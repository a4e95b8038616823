// The join-wave workloads: an offline-built consistent network of n nodes
// (b = 16, d = 8), then m joiners arriving 0.05 ms apart through seeded
// random gateways on the ShardedNet stack, the schedule bench_scale runs.
//   join-wave          K = 1, followed by a closed-loop route() phase;
//   join-wave-sharded  K = min(4, nproc), no lookup phase.
#pragma once

#include <cstdint>

#include "report.h"

namespace hcube::perfbench {

void run_join_wave(const Options& opts, std::uint32_t lanes,
                   bool closed_loop_lookups, Report& report);

}  // namespace hcube::perfbench
