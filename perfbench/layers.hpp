#pragma once
/// \file layers.hpp
/// Per-layer measurements for the traced run.  Every probe drives the
/// library through its public entry points with the workload's own
/// pairs and checks every output against the serial reference.

#include <vector>

#include "common.hpp"
#include "service/router.hpp"
#include "service/trace.hpp"

namespace perfbench {

/// One call the workload makes: its shape and whether it asks for a
/// traceback (input to `anyseq.route_share.*`).
struct call_shape {
  anyseq::index_t n = 0, m = 0;
  bool traceback = false;
};

/// `anyseq.route_share.<route>`: share of the workload's calls each
/// route of `aligner::plan` takes under default options.
void probe_routes(const std::vector<call_shape>& calls, metric_map& out);

/// Single-pair layers (one-shot vs handle, thread count, forced
/// backends, traceback vs score): `anyseq.call_overhead_us`,
/// `parallel.spawn_overhead_us`, `parallel.ctx_switches_per_call`,
/// `parallel.wavefront.speedup`, `tiled.wavefront.gcups_1t`,
/// `tiled.hirschberg.tb_over_score`, `simd.intra.*`.
void probe_calls(const pair_set& p, double budget_s, metric_map& out);

/// Batch-engine layers over the pairs as one batch:
/// `parallel.batch.efficiency`, `tiled.batch.*`, `simd.inter.*_vs_scalar`.
/// Sets `anyseq.workspace_bytes` when `set_workspace` (the default-option
/// handle after the batches).
void probe_batches(const pair_set& p, double budget_s, bool set_workspace,
                   metric_map& out);

/// `simd.inter.auto_vs_best_forced.{reads150,short}`: auto precision
/// against the best forced precision on fixed 150 bp and 20-40 bp
/// batches generated from `seed`.
void probe_precision(std::uint64_t seed, bool smoke, double budget_s,
                     metric_map& out);

/// Arms the library's lifecycle-trace collector for its own lifetime, so
/// no exit path leaves a collector armed after it is gone.
class armed_collector {
 public:
  explicit armed_collector(anyseq::service::trace::collector& c) {
    anyseq::service::trace::arm(c);
  }
  ~armed_collector() { anyseq::service::trace::disarm(); }
  armed_collector(const armed_collector&) = delete;
  armed_collector& operator=(const armed_collector&) = delete;
};

/// What a service-layer measurement window saw.
struct service_window {
  anyseq::service::service_stats before, after;
  std::vector<std::uint64_t> shard_completed;  ///< per-shard deltas
  std::vector<double> submit_us;               ///< time inside submit()
  std::uint64_t delivered_cells = 0;           ///< cells of completed requests
  double wall_s = 0.0;
};

/// Snapshot every shard's completed count (for `router.shard_imbalance`).
[[nodiscard]] std::vector<std::uint64_t> shard_completed(
    anyseq::service::service_group& g);

/// `service.*` and `router.*` from a window's stats deltas and the
/// library's own lifecycle spans in `c`.
void service_metrics(const service_window& w,
                     const anyseq::service::trace::collector& c,
                     metric_map& out);

/// Closed-loop service probe for workloads that do not drive the
/// service themselves: the pairs go once through a 2-shard group.
void probe_service(const pair_set& p, double budget_s, metric_map& out);

/// The 2-shard group configuration the benchmark serves through.
[[nodiscard]] anyseq::service::service_group::config group_config();

/// Trace-derived metrics: `trace.self_share.{bench,anyseq,service}` from
/// the benchmark's own spans, `loadgen.lag_p99_us`, `trace.overhead`.
void trace_metrics(const span_log& log, const std::vector<double>& lag_us,
                   double overhead, metric_map& out);

}  // namespace perfbench
