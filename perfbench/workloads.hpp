#pragma once
/// \file workloads.hpp
/// The benchmark's workloads (see workloads.cpp for what each drives).

#include "common.hpp"

namespace perfbench {

/// Run the named workload; throws std::invalid_argument for an unknown
/// name and check_failure for a wrong output.
[[nodiscard]] outcome run_workload(const run_args& a);

}  // namespace perfbench
