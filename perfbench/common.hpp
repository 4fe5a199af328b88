#pragma once
/// \file common.hpp
/// Shared pieces of the repository benchmark: inputs with their serial
/// reference scores, output checks, sample statistics, the metric sink
/// and the benchmark-owned span recorder.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "anyseq/anyseq.hpp"
#include "bio/sequence.hpp"

namespace perfbench {

using anyseq::align_options;
using anyseq::alignment_result;
using anyseq::score_t;
using anyseq::bio::sequence;

// ---------------------------------------------------------------------------
// Time
// ---------------------------------------------------------------------------

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] inline double seconds_since(std::int64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) * 1e-9;
}

// ---------------------------------------------------------------------------
// Run parameters (parsed in main.cpp)
// ---------------------------------------------------------------------------

struct run_args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs and short phases: exercises every path in seconds.
  bool smoke = false;
  /// Flip one reference score so the output check must fail (tests the
  /// check itself).
  bool corrupt_reference = false;
  /// serve_mixed phase rates (requests/s) and the overload latency limit.
  double steady_rps = 0.0;
  double overload_rps = 0.0;
  double latency_limit_us = 0.0;
  /// Chrome trace-event JSON of the benchmark's spans (traced run only).
  std::string trace_out;
};

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// Scoring every workload uses: global alignment, affine gaps.  Execution
/// fields stay at the library defaults unless a workload says otherwise.
[[nodiscard]] align_options workload_options();

/// The serial reference configuration the outputs are checked against.
[[nodiscard]] align_options reference_options();

/// Owned sequence pairs plus the reference score of each.
struct pair_set {
  std::vector<sequence> q, s;
  std::vector<score_t> ref;

  [[nodiscard]] std::size_t size() const noexcept { return q.size(); }
  [[nodiscard]] std::uint64_t cells(std::size_t i) const noexcept {
    return static_cast<std::uint64_t>(q[i].size()) *
           static_cast<std::uint64_t>(s[i].size());
  }
  void add(sequence a, sequence b) {
    q.push_back(std::move(a));
    s.push_back(std::move(b));
  }
  [[nodiscard]] std::vector<anyseq::seq_pair> views() const;
};

/// Read pairs from the Illumina simulator over a seeded synthetic
/// reference, each read then trimmed to a length drawn uniformly from
/// [lo, hi] (`read_length` >= hi).
[[nodiscard]] pair_set make_read_pairs(std::size_t count, anyseq::index_t lo,
                                       anyseq::index_t hi,
                                       anyseq::index_t read_length,
                                       std::uint64_t seed);

/// Score every pair with the serial reference configuration (untimed;
/// pairs are spread over hardware threads, each pair runs serially).
void compute_reference(pair_set& p, bool corrupt);

// ---------------------------------------------------------------------------
// Output checks
// ---------------------------------------------------------------------------

/// A wrong score or traceback.  main() turns it into a non-zero exit
/// without a result line.
class check_failure : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Score must equal the reference.
void check_score(const char* where, std::size_t idx, score_t got,
                 score_t ref);

/// Traceback check: the reported score equals the reference, and the
/// CIGAR, re-scored against the pair under `opt`, covers both sequences
/// and reproduces that score ('=' columns must really match, 'X' columns
/// must really differ).
void check_traceback(const char* where, std::size_t idx,
                     const sequence& q, const sequence& s,
                     const alignment_result& r, score_t ref,
                     const align_options& opt);

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// Nearest-rank quantile (q in [0, 1]); sorts a copy.  0 when empty.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(const std::vector<double>& v) {
  return quantile(v, 0.5);
}
/// Peak resident set of this process in MiB.
[[nodiscard]] double peak_rss_mb();
/// Voluntary + involuntary context switches of this process so far.
[[nodiscard]] std::uint64_t context_switches();

// ---------------------------------------------------------------------------
// Host noise
// ---------------------------------------------------------------------------

/// CPU time the hypervisor gave to other guests so far, summed over all
/// CPUs (seconds; 0 where /proc/stat has no steal column).
[[nodiscard]] double steal_seconds();

/// Reads `steal_seconds()` at the end of each window [origin + i*width,
/// origin + (i+1)*width) on a thread of its own, so a run can tell the
/// windows in which other guests took CPU from those in which none did.
class steal_sampler {
 public:
  steal_sampler(std::int64_t origin_ns, std::int64_t width_ns);
  ~steal_sampler();
  steal_sampler(const steal_sampler&) = delete;
  steal_sampler& operator=(const steal_sampler&) = delete;

  /// Stop sampling (idempotent); returns the steal seen in each window
  /// so far, the last one partial.
  const std::vector<double>& stop();

  /// Windows in [first, last) already sampled that saw no steal (safe
  /// while sampling).
  [[nodiscard]] std::size_t steal_free(std::size_t first, std::size_t last);

 private:
  void loop();

  std::int64_t origin_, width_;
  std::vector<double> per_window_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::thread thread_;
};

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

struct metric {
  double value = 0.0;
  std::string unit;
};

/// Named metrics of one run, printed in name order.
using metric_map = std::map<std::string, metric>;

/// What one workload run reports.
struct outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  metric_map metrics;
  /// Time windows (long_pair: calls) of the untraced measurement, and
  /// how many of them the end-to-end figures pool (the quiet ones).
  std::size_t windows = 0, quiet_windows = 0;
};

// ---------------------------------------------------------------------------
// Benchmark-owned spans (traced run only)
// ---------------------------------------------------------------------------

/// In-memory span log: name, start, end, parent and request id.  Spans
/// are recorded by the benchmark around each call into a library layer;
/// nothing is written until `write_chrome_json` at exit.  Single writer
/// (the thread that drives the workload).
class span_log {
 public:
  /// Open a span; returns its index (the `parent` of nested spans).
  /// `parent` < 0 marks a root.
  int open(const char* name, std::uint64_t request, int parent,
           std::int64_t t0_ns);
  void close(int span, std::int64_t t1_ns);
  /// Record a finished span in one go.
  int add(const char* name, std::uint64_t request, int parent,
          std::int64_t t0_ns, std::int64_t t1_ns);

  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }

  /// Self time per span name: duration minus the part of its interval
  /// covered by child spans, summed over spans of that name (seconds).
  [[nodiscard]] std::map<std::string, double> self_seconds() const;
  /// Summed duration of root spans (seconds).
  [[nodiscard]] double root_seconds() const;

  /// Chrome trace-event JSON ("ph":"X" events, args carry id and
  /// parent) of the first 100000 spans.  Returns false when the file
  /// cannot be written.
  bool write_chrome_json(const std::string& path) const;

 private:
  struct span {
    const char* name;
    std::uint64_t request;
    int parent;
    std::int64_t t0, t1;
  };
  std::vector<span> spans_;
};

/// RAII helper: opens on construction, closes on destruction; a null
/// log records nothing (the untraced runs).
class scoped_span {
 public:
  scoped_span(span_log* log, const char* name, std::uint64_t request,
              int parent = -1)
      : log_(log),
        id_(log != nullptr ? log->open(name, request, parent, now_ns())
                           : -1) {}
  ~scoped_span() {
    if (log_ != nullptr) log_->close(id_, now_ns());
  }
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;
  [[nodiscard]] int id() const noexcept { return id_; }

 private:
  span_log* log_;
  int id_;
};

}  // namespace perfbench
