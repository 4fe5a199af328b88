#pragma once
/// \file metrics.hpp
/// Fixed-shape metric primitives for the serving tier: log2 latency
/// histograms, per-route x per-variant execution accounting, and the
/// bounded text buffer the exporters render into.
///
/// Everything here obeys the service's zero-steady-state-allocation
/// contract: a `latency_histogram` is a fixed array of relaxed atomics
/// (record = two fetch_adds and one indexed fetch_add, no lock, no
/// allocation), the execution tables are fixed 2-D atomic arrays, and
/// `text_buffer` writes into caller-owned storage with the snprintf
/// contract (reports bytes *needed* even when the buffer is too small,
/// always NUL-terminates what fits).
///
/// Histograms exist *alongside* the reservoirs in telemetry.hpp, not
/// instead of them: a reservoir answers "what is p99 right now" from a
/// bounded uniform sample, while a histogram is exact over the full
/// request population and — crucially — merges across shards by plain
/// bucket-wise addition, which the Prometheus exposition format
/// requires (`_bucket{le=...}` series from different shards sum; sampled
/// percentiles never do, they merge by union-rank only).

#include <atomic>
#include <bit>
#include <cstdarg>
#include <cstddef>
#include <cstdint>
#include <cstdio>

namespace anyseq::service {

/// Bucket i of a log2 histogram covers latencies in [2^i, 2^(i+1)) ns
/// (bucket 0 also absorbs 0).  48 buckets reach ~3.26 days — everything
/// above clamps into the last bucket.
inline constexpr std::size_t n_latency_buckets = 48;

/// Point-in-time copy of a histogram, mergeable across shards.
struct histogram_snapshot {
  std::uint64_t buckets[n_latency_buckets] = {};
  std::uint64_t count = 0;
  std::uint64_t sum_ns = 0;

  /// Bucket-wise sum — the shard-merge operation.  Exact: unlike
  /// reservoir percentiles, histogram merging loses nothing.
  void merge(const histogram_snapshot& other) noexcept {
    for (std::size_t i = 0; i < n_latency_buckets; ++i)
      buckets[i] += other.buckets[i];
    count += other.count;
    sum_ns += other.sum_ns;
  }
};

/// Thread-safe fixed-bucket log2 latency histogram.  `record` is three
/// relaxed fetch_adds; never allocates, never locks.
class latency_histogram {
 public:
  /// Index of the bucket holding a latency of `ns` nanoseconds.
  [[nodiscard]] static std::size_t bucket_of(std::uint64_t ns) noexcept {
    const auto w = static_cast<std::size_t>(std::bit_width(ns));
    const std::size_t b = w == 0 ? 0 : w - 1;
    return b < n_latency_buckets ? b : n_latency_buckets - 1;
  }

  /// Inclusive upper bound of bucket i in ns (the Prometheus `le` edge).
  [[nodiscard]] static std::uint64_t bucket_upper_ns(std::size_t i) noexcept {
    return (2ull << i) - 1;
  }

  void record(std::uint64_t ns) noexcept {
    buckets_[bucket_of(ns)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_ns_.fetch_add(ns, std::memory_order_relaxed);
  }

  [[nodiscard]] histogram_snapshot snapshot() const noexcept {
    histogram_snapshot s;
    for (std::size_t i = 0; i < n_latency_buckets; ++i)
      s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    s.count = count_.load(std::memory_order_relaxed);
    s.sum_ns = sum_ns_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  std::atomic<std::uint64_t> buckets_[n_latency_buckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_ns_{0};
};

/// Execution accounting axes.  Routes mirror `service::route`
/// (batch_score, batch_traceback, solo); variants are the engine names
/// stamped into `alignment_result::variant`, with one spill cell for
/// anything unrecognised (future engines).
inline constexpr std::size_t n_exec_routes = 3;
inline constexpr std::size_t n_exec_variants = 4;

[[nodiscard]] const char* exec_route_name(std::size_t i) noexcept;
[[nodiscard]] const char* exec_variant_name(std::size_t i) noexcept;

/// Map an `alignment_result::variant` string to its table column
/// (scalar=0, avx2=1, avx512=2, anything else — including nullptr — 3).
[[nodiscard]] std::size_t exec_variant_index(const char* variant) noexcept;

/// One (route, variant) cell of the execution table.
struct exec_cell {
  std::uint64_t requests = 0;  ///< requests executed through this cell
  std::uint64_t cells = 0;     ///< DP cells relaxed (GCUPS numerator)
  std::uint64_t ns = 0;        ///< wall time inside the engine call
};

/// Point-in-time copy of the execution table, mergeable across shards.
struct exec_snapshot {
  exec_cell at[n_exec_routes][n_exec_variants] = {};

  void merge(const exec_snapshot& other) noexcept {
    for (std::size_t r = 0; r < n_exec_routes; ++r)
      for (std::size_t v = 0; v < n_exec_variants; ++v) {
        at[r][v].requests += other.at[r][v].requests;
        at[r][v].cells += other.at[r][v].cells;
        at[r][v].ns += other.at[r][v].ns;
      }
  }

  /// Aggregate throughput in giga-cell-updates per second across every
  /// cell that recorded engine time (0.0 when nothing executed).
  [[nodiscard]] double total_gcups() const noexcept {
    std::uint64_t cells = 0, ns = 0;
    for (std::size_t r = 0; r < n_exec_routes; ++r)
      for (std::size_t v = 0; v < n_exec_variants; ++v) {
        cells += at[r][v].cells;
        ns += at[r][v].ns;
      }
    return ns == 0 ? 0.0 : static_cast<double>(cells) /
                               static_cast<double>(ns);
  }
};

/// Bounded append-only text sink with the snprintf contract: writes as
/// much as fits into the caller-owned buffer (always NUL-terminated when
/// cap > 0) while `needed()` keeps counting the bytes a large-enough
/// buffer would have received.  Callers size with a null/0 dry run, then
/// render for real — exactly like snprintf.
class text_buffer {
 public:
  text_buffer(char* buf, std::size_t cap) noexcept
      : buf_(cap > 0 ? buf : nullptr), cap_(buf != nullptr ? cap : 0) {
    if (buf_ != nullptr) buf_[0] = '\0';
  }

#if defined(__GNUC__) || defined(__clang__)
  __attribute__((format(printf, 2, 3)))
#endif
  void
  printf(const char* fmt, ...) noexcept {
    va_list ap;
    va_start(ap, fmt);
    char* dst = needed_ < cap_ ? buf_ + needed_ : nullptr;
    const std::size_t avail = needed_ < cap_ ? cap_ - needed_ : 0;
    const int n = std::vsnprintf(dst, avail, fmt, ap);
    va_end(ap);
    if (n > 0) needed_ += static_cast<std::size_t>(n);
  }

  /// Total bytes the full rendering requires, excluding the NUL.
  [[nodiscard]] std::size_t needed() const noexcept { return needed_; }

 private:
  char* buf_;
  std::size_t cap_;
  std::size_t needed_ = 0;
};

}  // namespace anyseq::service
