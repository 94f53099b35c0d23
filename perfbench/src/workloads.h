// The four benchmark workloads. Each is a closed loop: the caller starts
// the next operation only after the previous one returned.
#pragma once

#include <memory>

#include "harness.h"

namespace perfbench {

std::unique_ptr<BenchWorkload> make_map_workload(const Options& options,
                                                 Checker& checker);
std::unique_ptr<BenchWorkload> make_serve_workload(const Options& options,
                                                   Checker& checker);
std::unique_ptr<BenchWorkload> make_simulate_workload(
    const Options& options, Checker& checker);
std::unique_ptr<BenchWorkload> make_campaign_workload(
    const Options& options, Checker& checker);

}  // namespace perfbench
