/// The four workloads.  Each one sets up several times (reporting the
/// median as `setup_s`), scores its inputs with the serial reference
/// (untimed), then measures through one public entry point:
///
///   reads_batch  `aligner::align_batch_into` on jittered 150 bp reads
///   long_pair    `aligner::align_into`, score and Hirschberg traceback,
///                on two ~16 kbp Table I surrogates
///   small_calls  one-shot `anyseq::align` on 16-300 bp pairs
///   serve_mixed  open-loop Poisson traffic into a 2-shard
///                `service::service_group`
///
/// Every workload reports every end-to-end metric; what each one means
/// per workload is listed in perfbench/config.json ("metric_meaning").

#include <sys/prctl.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "bio/datasets.hpp"
#include "bio/rng.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace svc = anyseq::service;

constexpr int kSetupRepeats = 9;

/// Build the workload state `kSetupRepeats` times; report the median.
template <class Make>
auto repeated_setup(Make&& make, metric_map& m) {
  std::vector<double> t;
  decltype(make()) st;
  for (int r = 0; r < kSetupRepeats; ++r) {
    st = nullptr;  // tear the previous copy down outside the timing
    const std::int64_t t0 = now_ns();
    st = make();
    t.push_back(seconds_since(t0));
  }
  m["setup_s"] = {median(t), "s"};
  return st;
}

align_options with_traceback(align_options o) {
  o.want_alignment = true;
  return o;
}

double gcups(std::uint64_t cells, double seconds) {
  return seconds > 0.0 ? static_cast<double>(cells) / seconds * 1e-9 : 0.0;
}

/// Work the library calls completed and the time they took.
struct throughput {
  std::uint64_t cells = 0, pairs = 0;
  double seconds = 0.0;
  void add(std::uint64_t c, std::uint64_t p, double s) {
    cells += c;
    pairs += p;
    seconds += s;
  }
  [[nodiscard]] double gcups() const { return perfbench::gcups(cells, seconds); }
};

/// What a stretch of a run saw.  The end-to-end figures are computed
/// over pooled tallies: totals for rates, percentiles over every call
/// or request for latencies.
struct tally {
  throughput score, traceback;  ///< library-call work and time
  std::vector<double> lat_us;   ///< filled by window_series::pooled
  std::uint64_t done = 0;  ///< requests completed
  std::uint64_t good = 0;  ///< completed and checked (serve: within the limit)
  std::uint64_t good_cells = 0, good_tb_cells = 0;

  void merge(const tally& o) {
    score.add(o.score.cells, o.score.pairs, o.score.seconds);
    traceback.add(o.traceback.cells, o.traceback.pairs, o.traceback.seconds);
    lat_us.insert(lat_us.end(), o.lat_us.begin(), o.lat_us.end());
    done += o.done;
    good += o.good;
    good_cells += o.good_cells;
    good_tb_cells += o.good_tb_cells;
  }
};

/// The quiet entries of `steal_rate` (steal per second of each window or
/// call): those at most its quantile `q`.  For windows q = 0.1: on a
/// quiet host that is every window without steal, most of the run; on a
/// busy one, every window without steal if a tenth has none, else the
/// tenth the host disturbed least.
std::vector<bool> quiet(const std::vector<double>& steal_rate, double q) {
  const double cut = quantile(steal_rate, q);
  std::vector<bool> keep;
  for (const double r : steal_rate) keep.push_back(r <= cut);
  return keep;
}

/// A run's tallies per time window.  Other guests on a shared host take
/// CPU from this one in bursts (hypervisor steal); a `steal_sampler`
/// reads how much each window lost.  The figures pool the quiet windows
/// of each phase (see `quiet`): even 10 ms of steal in a 100 ms window
/// moves that window's serve p99 latency several-fold.  Work and
/// counts go to the window an item starts in; a latency counts only if
/// every window from its start to its end was quiet, so a burst of steal
/// just after a quiet window does not leak in.  The choice rests on the
/// host's steal count alone, never on the program's own timings, so a
/// slower program or a recurring stall moves the figures as it would
/// over the whole run.
class window_series {
 public:
  window_series(std::int64_t origin_ns, std::int64_t width_ns)
      : origin_(origin_ns), width_(width_ns), steal_(origin_ns, width_ns) {}

  tally& at(std::int64_t t_ns) { return w_[index(t_ns)].t; }

  /// Record a latency from `begin_ns` to `end_ns`.
  void latency(std::int64_t begin_ns, std::int64_t end_ns) {
    const std::size_t last = index(end_ns);
    w_[index(begin_ns)].lat.push_back(
        {static_cast<double>(end_ns - begin_ns) / 1e3, last});
  }

  /// One phase of a run: its window count and the share of its windows
  /// `quiet` keeps.
  struct phase {
    std::size_t windows;
    double keep;
  };
  /// Stop the sampler and pick the quiet windows, separately in each
  /// phase (the phases of a run load the host differently).  Windows
  /// past the phases, or that the sampler did not reach, are never quiet.
  void finish(const std::vector<phase>& phases) {
    end_ = now_ns();
    const std::vector<double>& steal = steal_.stop();
    std::size_t b = 0;
    for (const phase& p : phases) {
      std::vector<double> rate;
      for (std::size_t i = b; i < steal.size() && i - b < p.windows; ++i)
        rate.push_back(steal[i] / span_s(i, end_));
      for (const bool k : quiet(rate, p.keep)) keep_.push_back(k);
      b += p.windows;
      if (keep_.size() < b) break;
    }
  }

  /// Windows in [first, last) so far that saw no steal (while running).
  [[nodiscard]] std::size_t steal_free(std::size_t first, std::size_t last) {
    return steal_.steal_free(first, last);
  }

  struct pool {
    tally t;
    double span_s = 0.0;  ///< time the quiet windows cover
    std::size_t quiet = 0;
  };
  /// The quiet windows in [first, last) pooled.
  [[nodiscard]] pool pooled(std::size_t first, std::size_t last) const {
    pool out;
    for (std::size_t i = first; i < last && i < keep_.size(); ++i) {
      if (!keep_[i]) continue;
      ++out.quiet;
      out.span_s += span_s(i, end_);
      if (i >= w_.size()) continue;
      out.t.merge(w_[i].t);
      for (const auto& [us, end] : w_[i].lat)
        if (quiet_through(i, end)) out.t.lat_us.push_back(us);
    }
    return out;
  }

  /// Quantile `q` of each quiet window's latencies in [first, last) (the
  /// ones `pooled` counts; windows with fewer than `min_samples` are
  /// skipped), then the median over those windows.  A stall that recurs
  /// in half of the windows or more moves it; one burst does not.
  [[nodiscard]] double window_median(std::size_t first, std::size_t last,
                                     double q, std::size_t min_samples) const {
    std::vector<double> per_window, lat;
    for (std::size_t i = first; i < last && i < keep_.size() && i < w_.size(); ++i) {
      if (!keep_[i]) continue;
      lat.clear();
      for (const auto& [us, end] : w_[i].lat)
        if (quiet_through(i, end)) lat.push_back(us);
      if (lat.size() >= min_samples) per_window.push_back(quantile(lat, q));
    }
    return median(per_window);
  }

 private:
  std::size_t index(std::int64_t t_ns) {
    const auto i = static_cast<std::size_t>(std::max<std::int64_t>(0, t_ns - origin_) / width_);
    if (w_.size() <= i) w_.resize(i + 1);
    return i;
  }
  [[nodiscard]] bool quiet_through(std::size_t first, std::size_t last) const {
    for (std::size_t i = first; i <= last; ++i)
      if (i >= keep_.size() || !keep_[i]) return false;
    return true;
  }
  [[nodiscard]] double span_s(std::size_t i, std::int64_t end) const {
    const std::int64_t lo = origin_ + static_cast<std::int64_t>(i) * width_;
    return static_cast<double>(std::max<std::int64_t>(1, std::min(width_, end - lo))) * 1e-9;
  }

  struct window {
    tally t;
    std::vector<std::pair<double, std::size_t>> lat;  ///< (us, last window)
  };
  std::int64_t origin_, width_, end_ = 0;
  std::deque<window> w_;  ///< grows at the end: references stay valid
  steal_sampler steal_;
  std::vector<bool> keep_;
};

/// 100 ms: shorter windows find more steal-free stretches but pin less
/// of the steal to the right window (it is booked at the stolen CPU's
/// next tick); on a busy host 20 ms windows gave a higher serve p99.
constexpr std::int64_t kWindowNs = 100'000'000;  // serve: 1000 steady requests

/// One measured phase of a workload.
struct measured {
  metric_map m;
  std::uint64_t attempted = 0, failed = 0;
  std::size_t windows = 0, quiet_windows = 0;
  /// Closed loop: gap between consecutive library calls; open loop:
  /// generator lateness against the schedule (microseconds).
  std::vector<double> lag_us;
  /// Cost figure `trace.overhead` compares (higher = slower).
  double cost = 0.0;
};

/// The end-to-end figures every closed-loop workload reports, from the
/// quiet windows among the whole windows of its `dur` seconds (the last
/// call's overrun is left out); returns their pooled tally.
tally closed_loop_metrics(window_series& ws, double dur, measured& r) {
  const auto n = static_cast<std::size_t>(
      std::max(1.0, std::floor(dur * 1e9 / static_cast<double>(kWindowNs))));
  ws.finish({{n, 0.1}});
  auto [t, span, quiet] = ws.pooled(0, n);
  r.windows = n;
  r.quiet_windows = quiet;
  metric_map& m = r.m;
  m["gcups"] = {t.score.gcups(), "GCUPS"};
  m["traceback_gcups"] = {t.traceback.gcups(), "GCUPS"};
  m["latency_p50_us"] = {quantile(t.lat_us, 0.5), "us"};
  m["latency_p99_us"] = {quantile(t.lat_us, 0.99), "us"};
  m["goodput_rps"] = {static_cast<double>(t.good) / span, "1/s"};
  return std::move(t);
}

/// Untraced run: end-to-end metrics.  Traced run: an untraced and a
/// traced half, then the layer probes.
template <class State, class Measure, class Probe>
outcome drive(const run_args& a, State& st, metric_map setup,
              Measure&& measure, Probe&& probe) {
  outcome out;
  if (!a.trace) {
    measured r = measure(st, a.seconds, nullptr);
    out.metrics = std::move(r.m);
    out.metrics.merge(setup);
    out.attempted = r.attempted;
    out.failed = r.failed;
    out.windows = r.windows;
    out.quiet_windows = r.quiet_windows;
    out.metrics["peak_rss_mb"] = {peak_rss_mb(), "MiB"};
    return out;
  }
  const measured plain = measure(st, a.seconds / 2, nullptr);
  span_log log;
  const measured traced = measure(st, a.seconds / 2, &log);
  out.attempted = plain.attempted + traced.attempted;
  out.failed = plain.failed + traced.failed;
  trace_metrics(log, traced.lag_us,
                plain.cost > 0.0 ? traced.cost / plain.cost : 0.0,
                out.metrics);
  probe(st, out.metrics);
  if (!a.trace_out.empty() && !log.write_chrome_json(a.trace_out))
    std::fprintf(stderr, "perfbench: cannot write %s\n", a.trace_out.c_str());
  return out;
}

double probe_budget(const run_args& a) { return a.smoke ? 0.2 : 2.0; }

// ---------------------------------------------------------------------------
// reads_batch
// ---------------------------------------------------------------------------

struct reads_state {
  pair_set pool;
  std::vector<std::vector<anyseq::seq_pair>> batches;
  anyseq::aligner score{workload_options()};
  anyseq::aligner traceback{with_traceback(workload_options())};
  std::vector<alignment_result> out;
  std::size_t batch = 0;
};

constexpr std::size_t kTracebackSlice = 64;  // pairs per traceback batch
constexpr std::size_t kTracebackEvery = 8;   // score batches per one

std::span<const anyseq::seq_pair> traceback_slice(const reads_state& st,
                                                  std::size_t k) {
  const auto& b = st.batches[k % st.batches.size()];
  return {b.data(), std::min(kTracebackSlice, b.size())};
}

measured measure_reads(reads_state& st, double dur, span_log* log) {
  measured r;
  std::int64_t last_end = 0;
  const std::int64_t t_start = now_ns();
  window_series ws(t_start, kWindowNs);
  for (std::size_t k = 0; k == 0 || seconds_since(t_start) < dur; ++k) {
    const std::size_t b = k % st.batches.size();
    const auto& batch = st.batches[b];
    scoped_span root(log, "bench.batch", k);
    const std::int64_t t0 = now_ns();
    if (last_end != 0) r.lag_us.push_back(static_cast<double>(t0 - last_end) / 1e3);
    std::int64_t t1 = t0;
    r.attempted += batch.size();
    try {
      scoped_span call(log, "anyseq.aligner.align_batch_into", k, root.id());
      st.score.align_batch_into(batch, st.out);
      t1 = now_ns();
    } catch (const anyseq::error&) {
      r.failed += batch.size();
      continue;
    }
    std::uint64_t cells = 0;
    {
      scoped_span chk(log, "bench.check", k, root.id());
      for (std::size_t i = 0; i < batch.size(); ++i) {
        const std::size_t idx = b * st.batch + i;
        check_score("reads_batch", idx, st.out[i].score, st.pool.ref[idx]);
        cells += st.pool.cells(idx);
      }
    }
    const double s = static_cast<double>(t1 - t0) * 1e-9;
    tally& t = ws.at(t0);
    t.score.add(cells, batch.size(), s);
    t.good += batch.size();
    ws.latency(t0, t1);
    last_end = now_ns();

    if (k % kTracebackEvery != kTracebackEvery - 1) continue;
    const auto slice = traceback_slice(st, k / kTracebackEvery);
    const std::size_t base = (k / kTracebackEvery % st.batches.size()) * st.batch;
    r.attempted += slice.size();
    const std::int64_t u0 = now_ns();
    try {
      scoped_span call(log, "anyseq.aligner.align_batch_into", k, root.id());
      st.traceback.align_batch_into(slice, st.out);
    } catch (const anyseq::error&) {
      r.failed += slice.size();
      continue;
    }
    const std::int64_t u1 = now_ns();
    cells = 0;
    {
      scoped_span chk(log, "bench.check", k, root.id());
      for (std::size_t i = 0; i < slice.size(); ++i) {
        check_traceback("reads_batch", base + i, st.pool.q[base + i],
                        st.pool.s[base + i], st.out[i], st.pool.ref[base + i],
                        workload_options());
        cells += st.pool.cells(base + i);
      }
    }
    tally& tt = ws.at(u0);
    tt.traceback.add(cells, slice.size(), static_cast<double>(u1 - u0) * 1e-9);
    tt.good += slice.size();
    last_end = now_ns();
  }
  const tally t = closed_loop_metrics(ws, dur, r);
  r.m["pairs_per_s"] = {static_cast<double>(t.score.pairs) / t.score.seconds, "1/s"};
  r.cost = 1.0 / std::max(1e-12, r.m["gcups"].value);
  return r;
}

outcome run_reads_batch(const run_args& a) {
  metric_map setup;
  const std::size_t n_pairs = a.smoke ? 256 : 8192;
  const std::size_t per_batch = a.smoke ? 64 : 1024;
  auto st = repeated_setup(
      [&] {
        auto s = std::make_unique<reads_state>();
        s->pool = make_read_pairs(n_pairs, 135, 165, 165, a.seed);
        s->batch = per_batch;
        const auto all = s->pool.views();
        for (std::size_t i = 0; i < all.size(); i += per_batch)
          s->batches.emplace_back(all.begin() + static_cast<std::ptrdiff_t>(i),
                                  all.begin() + static_cast<std::ptrdiff_t>(
                                                    std::min(i + per_batch, all.size())));
        // Warm-up: one pass over every batch plus one traceback slice.
        for (const auto& b : s->batches) s->score.align_batch_into(b, s->out);
        s->traceback.align_batch_into(traceback_slice(*s, 0), s->out);
        return s;
      },
      setup);
  compute_reference(st->pool, a.corrupt_reference);
  return drive(a, *st, std::move(setup), measure_reads,
               [&](reads_state& s, metric_map& m) {
                 std::vector<call_shape> calls;
                 for (std::size_t i = 0; i < s.pool.size(); ++i)
                   calls.push_back({s.pool.q[i].size(), s.pool.s[i].size(),
                                    false});
                 probe_routes(calls, m);
                 probe_calls(s.pool, probe_budget(a), m);
                 probe_batches(s.pool, probe_budget(a), false, m);
                 m["anyseq.workspace_bytes"] = {
                     static_cast<double>(s.score.workspace_bytes()), "bytes"};
                 probe_precision(a.seed, a.smoke, probe_budget(a), m);
                 probe_service(s.pool, probe_budget(a), m);
               });
}

// ---------------------------------------------------------------------------
// long_pair
// ---------------------------------------------------------------------------

struct long_state {
  pair_set pair;
  anyseq::aligner a{workload_options()};
  alignment_result out;
};

measured measure_long(long_state& st, double dur, span_log* log) {
  measured r;
  // A 16 kbp call takes about a second, so with ~10 calls per run the
  // two latency figures are means, not percentiles.  Each call is its
  // own window (see window_series); with so few calls, the figures pool,
  // per kind, the calls whose steal rate is at most the median.
  struct call {
    double seconds, with_check_s, steal_rate;
  };
  std::vector<call> calls[2];  // score, traceback
  const auto& q = st.pair.q[0];
  const auto& s = st.pair.s[0];
  const std::uint64_t cells = st.pair.cells(0);
  std::int64_t last_end = 0;
  const std::int64_t t_start = now_ns();
  for (std::uint64_t k = 0; k == 0 || seconds_since(t_start) < dur; ++k) {
    for (const bool tb : {false, true}) {
      const std::uint64_t id = 2 * k + (tb ? 1 : 0);
      scoped_span root(log, "bench.call", id);
      st.a.set_options(tb ? with_traceback(workload_options())
                          : workload_options());
      const double steal0 = steal_seconds();
      const std::int64_t t0 = now_ns();
      if (last_end != 0) r.lag_us.push_back(static_cast<double>(t0 - last_end) / 1e3);
      ++r.attempted;
      try {
        scoped_span span(log, "anyseq.aligner.align_into", id, root.id());
        st.a.align_into(q.view(), s.view(), st.out);
      } catch (const anyseq::error&) {
        ++r.failed;
        continue;
      }
      const double sec = seconds_since(t0);
      {
        scoped_span chk(log, "bench.check", id, root.id());
        if (tb)
          check_traceback("long_pair", 0, q, s, st.out, st.pair.ref[0],
                          workload_options());
        else
          check_score("long_pair", 0, st.out.score, st.pair.ref[0]);
      }
      last_end = now_ns();
      const double with_check = static_cast<double>(last_end - t0) * 1e-9;
      calls[tb ? 1 : 0].push_back(
          {sec, with_check, (steal_seconds() - steal0) / with_check});
    }
  }
  throughput score, traceback;
  double busy_s = 0.0;  // quiet calls including their checks
  for (const bool tb : {false, true}) {
    std::vector<double> rate;
    for (const call& c : calls[tb ? 1 : 0]) rate.push_back(c.steal_rate);
    const std::vector<bool> keep = quiet(rate, 0.5);
    for (std::size_t i = 0; i < keep.size(); ++i) {
      if (!keep[i]) continue;
      (tb ? traceback : score).add(cells, 1, calls[tb ? 1 : 0][i].seconds);
      busy_s += calls[tb ? 1 : 0][i].with_check_s;
      ++r.quiet_windows;
    }
    r.windows += keep.size();
  }
  const auto n_quiet = static_cast<double>(score.pairs + traceback.pairs);
  const auto mean_us = [](const throughput& t) {
    return t.pairs > 0 ? t.seconds / static_cast<double>(t.pairs) * 1e6 : 0.0;
  };
  r.m["gcups"] = {score.gcups(), "GCUPS"};
  r.m["traceback_gcups"] = {traceback.gcups(), "GCUPS"};
  r.m["pairs_per_s"] = {n_quiet / (score.seconds + traceback.seconds), "1/s"};
  r.m["goodput_rps"] = {n_quiet / busy_s, "1/s"};
  // Too few calls for percentiles: the lower latency figure is the mean
  // score call, the upper one the mean (slower) traceback call.
  r.m["latency_p50_us"] = {mean_us(score), "us"};
  r.m["latency_p99_us"] = {mean_us(traceback), "us"};
  r.cost = 1.0 / std::max(1e-12, r.m["gcups"].value);
  return r;
}

outcome run_long_pair(const run_args& a) {
  metric_map setup;
  // Pair 0 of Table I (MTB / E. coli) scaled to ~16 kbp (smoke: ~1.5 kbp).
  const std::uint64_t scale = a.smoke ? 2900 : 275;
  auto st = repeated_setup(
      [&] {
        auto s = std::make_unique<long_state>();
        auto gp = anyseq::bio::make_pair(0, scale, a.seed);
        s->pair.add(std::move(gp.a), std::move(gp.b));
        // Warm-up: size the arena for the pair (a full 16 kbp call here
        // would make set-up as variable as the calls themselves).
        s->a.reserve(s->pair.q[0].size(), s->pair.s[0].size());
        return s;
      },
      setup);
  compute_reference(st->pair, a.corrupt_reference);
  return drive(a, *st, std::move(setup), measure_long,
               [&](long_state& s, metric_map& m) {
                 const auto n = s.pair.q[0].size(), mm = s.pair.s[0].size();
                 probe_routes({{n, mm, false}, {n, mm, true}}, m);
                 probe_calls(s.pair, probe_budget(a), m);
                 probe_batches(s.pair, probe_budget(a), false, m);
                 m["anyseq.workspace_bytes"] = {
                     static_cast<double>(s.a.workspace_bytes()), "bytes"};
                 probe_precision(a.seed, a.smoke, probe_budget(a), m);
                 probe_service(s.pair, probe_budget(a), m);
               });
}

// ---------------------------------------------------------------------------
// small_calls
// ---------------------------------------------------------------------------

struct small_state {
  pair_set pool;
  /// One call in four asks for a traceback.
  static bool traceback(std::size_t call) { return call % 4 == 3; }
};

measured measure_small(small_state& st, double dur, span_log* log) {
  measured r;
  const align_options score_opt = workload_options();
  const align_options tb_opt = with_traceback(score_opt);
  std::int64_t last_end = 0;
  const std::int64_t t_start = now_ns();
  window_series ws(t_start, kWindowNs);
  for (std::size_t k = 0; k == 0 || seconds_since(t_start) < dur; ++k) {
    const std::size_t i = k % st.pool.size();
    const bool tb = small_state::traceback(k);
    scoped_span root(log, "bench.call", k);
    ++r.attempted;
    alignment_result res;
    const std::int64_t t0 = now_ns();
    if (last_end != 0) r.lag_us.push_back(static_cast<double>(t0 - last_end) / 1e3);
    try {
      scoped_span call(log, "anyseq.align", k, root.id());
      res = anyseq::align(st.pool.q[i].view(), st.pool.s[i].view(),
                          tb ? tb_opt : score_opt);
    } catch (const anyseq::error&) {
      ++r.failed;
      continue;
    }
    const std::int64_t t1 = now_ns();
    const double sec = static_cast<double>(t1 - t0) * 1e-9;
    {
      scoped_span chk(log, "bench.check", k, root.id());
      if (tb)
        check_traceback("small_calls", i, st.pool.q[i], st.pool.s[i], res,
                        st.pool.ref[i], score_opt);
      else
        check_score("small_calls", i, res.score, st.pool.ref[i]);
    }
    tally& t = ws.at(t0);
    (tb ? t.traceback : t.score).add(st.pool.cells(i), 1, sec);
    ++t.good;
    ws.latency(t0, t1);
    last_end = now_ns();
  }
  const tally t = closed_loop_metrics(ws, dur, r);
  r.m["pairs_per_s"] = {static_cast<double>(t.score.pairs + t.traceback.pairs) /
                            (t.score.seconds + t.traceback.seconds),
                        "1/s"};
  r.cost = r.m["latency_p50_us"].value;
  return r;
}

outcome run_small_calls(const run_args& a) {
  metric_map setup;
  const std::size_t n_pairs = a.smoke ? 128 : 4096;
  auto st = repeated_setup(
      [&] {
        auto s = std::make_unique<small_state>();
        s->pool = make_read_pairs(n_pairs, 16, 300, 300, a.seed);
        // Warm the calling thread's one-shot handle on a slice of the pool.
        for (std::size_t k = 0; k < std::min<std::size_t>(256, n_pairs); ++k)
          (void)anyseq::align(s->pool.q[k].view(), s->pool.s[k].view(),
                              small_state::traceback(k)
                                  ? with_traceback(workload_options())
                                  : workload_options());
        return s;
      },
      setup);
  compute_reference(st->pool, a.corrupt_reference);
  return drive(a, *st, std::move(setup), measure_small,
               [&](small_state& s, metric_map& m) {
                 std::vector<call_shape> calls;
                 for (std::size_t i = 0; i < s.pool.size(); ++i)
                   calls.push_back({s.pool.q[i].size(), s.pool.s[i].size(),
                                    small_state::traceback(i)});
                 probe_routes(calls, m);
                 probe_calls(s.pool, probe_budget(a), m);
                 probe_batches(s.pool, probe_budget(a), true, m);
                 probe_precision(a.seed, a.smoke, probe_budget(a), m);
                 probe_service(s.pool, probe_budget(a), m);
               });
}

// ---------------------------------------------------------------------------
// serve_mixed
// ---------------------------------------------------------------------------

/// Traffic mix (shares of the request pool / of requests).
constexpr double kShortShare = 0.15;     // 20-40 bp, the int8 window
constexpr double kLongShare = 0.05;      // 250 bp
constexpr double kTracebackShare = 0.05;  // requests asking for a CIGAR
constexpr double kRepeatShare = 0.20;    // re-sends of a recent pair
constexpr double kInteractiveShare = 0.10;
constexpr std::size_t kRecentWindow = 256;
constexpr std::uint64_t kTraceEvery = 8;  // traced requests: one in eight
constexpr std::int64_t kSpinNs = 30'000;   // generator spins this close to due
/// Completion stamps lag the ticket turning ready by at most this poll
/// interval (plus the completer's wake-up).
constexpr auto kPoll = std::chrono::microseconds(10);
/// The steady phase may run up to this many times its planned length.
constexpr std::int64_t kSteadyStretch = 5;

struct serve_state {
  pair_set pool;
  std::vector<std::uint8_t> traceback;  ///< per pool entry
  pair_set warm;
  std::unique_ptr<svc::service_group> group;
};

/// One scheduled request.
struct request {
  std::int64_t due_off_ns;
  std::uint32_t idx;
  bool interactive;
};

std::vector<request> schedule(double rate, double dur, std::size_t pool,
                              anyseq::bio::xoshiro256& rng,
                              std::size_t& cursor) {
  std::vector<request> out;
  std::vector<std::uint32_t> recent;
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.uniform()) / rate;  // Poisson arrivals
    if (t >= dur) break;
    std::uint32_t idx;
    if (!recent.empty() && rng.uniform() < kRepeatShare) {
      idx = recent[rng.below(recent.size())];
    } else {
      idx = static_cast<std::uint32_t>(cursor++ % pool);
      if (recent.size() < kRecentWindow) recent.push_back(idx);
      else recent[cursor % kRecentWindow] = idx;
    }
    out.push_back({static_cast<std::int64_t>(t * 1e9), idx,
                   rng.uniform() < kInteractiveShare});
  }
  return out;
}

/// A submitted request waiting for completion.
struct in_flight {
  svc::ticket t;
  std::int64_t due, s0, s1;
  std::uint32_t idx;
  std::uint64_t id;
  bool overload;
};

measured measure_serve(serve_state& st, double dur, double steady_rps,
                       double overload_rps, double limit_us, std::uint64_t seed,
                       span_log* log, service_window* win) {
  measured r;
  const align_options score_opt = [] {
    align_options o = workload_options();
    o.threads = 1;  // parallelism comes from the shards and the pool
    return o;
  }();
  const align_options tb_opt = with_traceback(score_opt);
  anyseq::bio::xoshiro256 rng(seed * 977 + 13);
  std::size_t cursor = 0;
  // Each phase is a whole number of windows of about kWindowNs.
  const auto per_phase = std::max<std::int64_t>(
      1, std::llround(dur / 2 * 1e9 / static_cast<double>(kWindowNs)));
  const auto width_ns = static_cast<std::int64_t>(dur / 2 * 1e9) / per_phase;
  const double phase = static_cast<double>(per_phase * width_ns) * 1e-9;
  // The steady phase runs its planned windows, then goes on (up to
  // kSteadyStretch times as long) until an eighth of that count saw no
  // steal: the steady latencies come from those windows.
  const auto steal_free_goal = std::max<std::size_t>(1, static_cast<std::size_t>(per_phase) / 8);
  const auto steady = schedule(steady_rps, phase * kSteadyStretch, st.pool.size(), rng, cursor);
  const auto over = schedule(overload_rps, phase, st.pool.size(), rng, cursor);
  const auto limit_ns = static_cast<std::int64_t>(limit_us * 1e3);

  std::mutex mu;
  std::condition_variable cv;
  std::vector<in_flight> handoff;
  bool gen_done = false;
  // Windows keyed by each request's due time: the steady phase, then
  // the overload phase.
  std::optional<window_series> ws;
  std::uint64_t delivered_cells = 0, errors = 0;
  std::string check_error;
  std::int64_t t0 = 0;  // schedule origin, set before the threads start

  // Completion thread: stamps each request when its ticket turns ready,
  // then checks the result.  It sweeps all pending tickets (completions
  // come out of order) and between sweeps waits at most `kPoll` on the
  // oldest one; with nothing pending it sleeps until the next handoff.
  auto complete = [&] {
    std::vector<in_flight> pending, incoming;
    while (true) {
      bool done = false;
      {
        std::unique_lock lk(mu);
        if (pending.empty())
          cv.wait(lk, [&] { return !handoff.empty() || gen_done; });
        incoming.swap(handoff);
        done = gen_done;
      }
      for (auto& f : incoming) pending.push_back(std::move(f));
      incoming.clear();
      if (pending.empty()) {
        if (done) break;
        continue;
      }
      std::size_t keep = 0;
      for (std::size_t i = 0; i < pending.size(); ++i) {
        in_flight& f = pending[i];
        if (!f.t.ready()) {
          if (keep != i) pending[keep] = std::move(f);
          ++keep;
          continue;
        }
        const std::int64_t t_done = now_ns();
        tally& w = ws->at(f.due);
        const bool tb = st.traceback[f.idx] != 0;
        span_log* const slog = f.id % kTraceEvery == 0 ? log : nullptr;
        const int root = slog ? slog->add("bench.request", f.id, -1, f.due, f.due) : -1;
        try {
          const alignment_result res = f.t.get();
          const std::int64_t c0 = now_ns();
          try {
            if (tb)
              check_traceback("serve_mixed", f.idx, st.pool.q[f.idx],
                              st.pool.s[f.idx], res, st.pool.ref[f.idx],
                              score_opt);
            else
              check_score("serve_mixed", f.idx, res.score, st.pool.ref[f.idx]);
          } catch (const check_failure& e) {
            if (check_error.empty()) check_error = e.what();
          }
          const std::uint64_t cells = st.pool.cells(f.idx);
          ++w.done;
          delivered_cells += cells;
          ws->latency(f.due, t_done);
          if (t_done - f.due <= limit_ns) {
            ++w.good;
            (tb ? w.good_tb_cells : w.good_cells) += cells;
          }
          if (slog) slog->add("bench.check", f.id, root, c0, now_ns());
        } catch (const svc::deadline_error&) {
          // A shed request: a miss for goodput, not a failure.
        } catch (...) {
          ++errors;
        }
        if (slog) {
          slog->add("service.submit", f.id, root, f.s0, f.s1);
          slog->add("service.wait", f.id, root, f.s1, t_done);
          slog->close(root, now_ns());
        }
      }
      pending.resize(keep);
      if (!pending.empty()) (void)pending.front().t.wait_for(kPoll);
    }
  };

  const auto before = st.group->stats();
  const auto shards_before = shard_completed(*st.group);
  std::uint64_t refused = 0, id = 0;
  // Fine timer slack, so a short sleep wakes close to its deadline.
  prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
  t0 = now_ns();
  ws.emplace(t0, width_ns);
  std::thread completer(complete);
  // Stops and joins the completion thread on every exit path.
  struct join_guard {
    std::thread& t;
    std::mutex& mu;
    std::condition_variable& cv;
    bool& done;
    ~join_guard() {
      {
        std::lock_guard lk(mu);
        done = true;
      }
      cv.notify_one();
      t.join();
    }
  };
  std::optional<join_guard> stop_completer(std::in_place, completer, mu, cv, gen_done);
  auto n_steady = static_cast<std::size_t>(per_phase);  // steady windows run
  for (int ph = 0; ph < 2; ++ph) {
    const auto& reqs = ph == 0 ? steady : over;
    const std::int64_t base = t0 + ph * static_cast<std::int64_t>(n_steady) * width_ns;
    for (const request& q : reqs) {
      if (ph == 0 && q.due_off_ns >= static_cast<std::int64_t>(n_steady) * width_ns) {
        // Past the planned windows: stop at this window's start once
        // enough sampled windows were steal-free.
        const auto w = static_cast<std::size_t>(q.due_off_ns / width_ns);
        if (ws->steal_free(0, w) >= steal_free_goal) {
          n_steady = w;
          break;
        }
        n_steady = w + 1;
      }
      const std::int64_t due = base + q.due_off_ns;
      // Sleep until just before the due time, then spin the rest: a
      // spinning generator would take a core from the service threads.
      for (std::int64_t now = now_ns(); now < due; now = now_ns())
        if (due - now > kSpinNs)
          std::this_thread::sleep_for(std::chrono::nanoseconds(due - now - kSpinNs));
      svc::submit_options so;
      so.cls = q.interactive ? svc::request_class::interactive
                             : svc::request_class::bulk;
      if (ph == 1)
        so.deadline = std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(due + limit_ns));
      const std::int64_t s0 = now_ns();
      r.lag_us.push_back(static_cast<double>(s0 - due) / 1e3);
      ++r.attempted;
      try {
        auto t = st.group->submit(st.pool.q[q.idx].view(), st.pool.s[q.idx].view(),
                                  st.traceback[q.idx] ? tb_opt : score_opt, so);
        const std::int64_t s1 = now_ns();
        if (win) win->submit_us.push_back(static_cast<double>(s1 - s0) / 1e3);
        {
          std::lock_guard lk(mu);
          handoff.push_back({std::move(t), due, s0, s1, q.idx, id++, ph == 1});
        }
        cv.notify_one();
      } catch (const anyseq::error&) {
        ++refused;
      }
    }
  }
  stop_completer.reset();
  const double wall = seconds_since(t0);
  if (!check_error.empty()) throw check_failure(check_error);

  r.failed = refused + errors;
  // Latencies: the steady phase's requests.  Rates: requests due in the
  // overload phase, per second.  Both from the quiet windows; in the
  // steady phase those are the `steal_free_goal` least-stolen windows,
  // all steal-free ones if there are more (the share is set half a
  // window low so the nearest-rank cut lands on the goal).
  const auto n = n_steady, n_over = static_cast<std::size_t>(per_phase);
  ws->finish({{n, (static_cast<double>(steal_free_goal) - 0.5) / static_cast<double>(n)},
              {n_over, 0.1}});
  const auto calm = ws->pooled(0, n);
  const auto busy = ws->pooled(n, n + n_over);
  r.windows = n + n_over;
  r.quiet_windows = calm.quiet + busy.quiet;
  const tally& o = busy.t;
  const auto per_s = [&](std::uint64_t count) { return static_cast<double>(count) / busy.span_s; };
  // Steady latencies: per quiet window, then the median over those
  // windows.  Pooled, p99 is set by the few windows in which the host
  // took a core for milliseconds unnoticed by the steal count (on a
  // shared 4-core VM, steal-free windows' own p99s ranged 0.76-3.3 ms
  // around a 0.9 ms median).
  const auto min_samples = static_cast<std::size_t>(
      std::max(1.0, steady_rps * static_cast<double>(width_ns) * 1e-9 / 4));
  r.m["latency_p50_us"] = {ws->window_median(0, n, 0.5, min_samples), "us"};
  r.m["latency_p99_us"] = {ws->window_median(0, n, 0.99, min_samples), "us"};
  r.m["goodput_rps"] = {per_s(o.good), "1/s"};
  r.m["pairs_per_s"] = {per_s(o.done), "1/s"};
  r.m["gcups"] = {per_s(o.good_cells + o.good_tb_cells) * 1e-9, "GCUPS"};
  r.m["traceback_gcups"] = {per_s(o.good_tb_cells) * 1e-9, "GCUPS"};
  r.cost = r.m["latency_p50_us"].value;
  if (win) {
    win->before = before;
    win->after = st.group->stats();
    win->shard_completed = shard_completed(*st.group);
    for (std::size_t i = 0; i < win->shard_completed.size(); ++i)
      win->shard_completed[i] -= shards_before[i];
    win->delivered_cells = delivered_cells;
    win->wall_s = wall;
  }
  return r;
}

outcome run_serve_mixed(const run_args& a) {
  if (a.steady_rps <= 0 || a.overload_rps <= 0 || a.latency_limit_us <= 0)
    throw std::invalid_argument(
        "serve_mixed needs --steady-rps, --overload-rps and --latency-limit-us");
  metric_map setup;
  const std::size_t n_pool = a.smoke ? 512 : 16384;
  auto st = repeated_setup(
      [&] {
        auto s = std::make_unique<serve_state>();
        const auto n_short = static_cast<std::size_t>(kShortShare * n_pool);
        const auto n_long = static_cast<std::size_t>(kLongShare * n_pool);
        pair_set parts[3] = {
            make_read_pairs(n_pool - n_short - n_long, 135, 165, 165, a.seed),
            make_read_pairs(n_short, 20, 40, 40, a.seed + 1),
            make_read_pairs(n_long, 250, 250, 250, a.seed + 2)};
        // Interleave the three shapes in a seeded order.
        anyseq::bio::xoshiro256 rng(a.seed * 7919 + 3);
        std::size_t next[3] = {0, 0, 0};
        for (std::size_t k = 0; k < n_pool; ++k) {
          std::size_t which;
          do {
            const double u = rng.uniform();
            which = u < kShortShare ? 1 : u < kShortShare + kLongShare ? 2 : 0;
          } while (next[which] == parts[which].size());
          const std::size_t j = next[which]++;
          s->pool.add(std::move(parts[which].q[j]), std::move(parts[which].s[j]));
          s->traceback.push_back(rng.uniform() < kTracebackShare ? 1 : 0);
        }
        s->warm = make_read_pairs(a.smoke ? 64 : 1024, 20, 250, 250, a.seed + 3);
        s->group = std::make_unique<svc::service_group>(group_config());
        // Warm-up: the warm set through both routes, closed loop.
        align_options o = workload_options();
        o.threads = 1;
        std::vector<svc::ticket> ts;
        for (std::size_t i = 0; i < s->warm.size(); ++i)
          ts.push_back(s->group->submit(s->warm.q[i].view(), s->warm.s[i].view(),
                                        i % 16 == 0 ? with_traceback(o) : o));
        for (auto& t : ts) (void)t.get();
        return s;
      },
      setup);
  compute_reference(st->pool, a.corrupt_reference);

  // The traced half also arms the library's own lifecycle collector, so
  // `trace.overhead` covers both span sources.
  anyseq::service::trace::collector lifecycle({1 << 15, 32});
  service_window win;
  const auto measure = [&](serve_state& s, double dur, span_log* log) {
    if (log == nullptr)
      return measure_serve(s, dur, a.steady_rps, a.overload_rps,
                           a.latency_limit_us, a.seed, nullptr, nullptr);
    const armed_collector armed(lifecycle);
    return measure_serve(s, dur, a.steady_rps, a.overload_rps,
                         a.latency_limit_us, a.seed, log, &win);
  };
  return drive(a, *st, std::move(setup), measure,
               [&](serve_state& s, metric_map& m) {
                 service_metrics(win, lifecycle, m);
                 std::vector<call_shape> calls;
                 for (std::size_t i = 0; i < s.pool.size(); ++i)
                   calls.push_back({s.pool.q[i].size(), s.pool.s[i].size(),
                                    s.traceback[i] != 0});
                 probe_routes(calls, m);
                 // Same-shaped slice for the single-pair and batch layers.
                 pair_set slice;
                 for (std::size_t i = 0; i < std::min<std::size_t>(1024, s.pool.size()); ++i) {
                   slice.add(s.pool.q[i], s.pool.s[i]);
                   slice.ref.push_back(s.pool.ref[i]);
                 }
                 probe_calls(slice, probe_budget(a), m);
                 probe_batches(slice, probe_budget(a), true, m);
                 probe_precision(a.seed, a.smoke, probe_budget(a), m);
               });
}

}  // namespace

outcome run_workload(const run_args& a) {
  if (a.workload == "reads_batch") return run_reads_batch(a);
  if (a.workload == "long_pair") return run_long_pair(a);
  if (a.workload == "small_calls") return run_small_calls(a);
  if (a.workload == "serve_mixed") return run_serve_mixed(a);
  throw std::invalid_argument("unknown workload '" + a.workload + "'");
}

}  // namespace perfbench
