#include "layers.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <optional>

#include "parallel/thread_pool.hpp"

namespace perfbench {
namespace {

namespace svc = anyseq::service;
using anyseq::backend;

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Summed work and time of one probe configuration.
struct tally {
  std::uint64_t cells = 0;
  double seconds = 0.0;
  std::vector<double> us;  ///< per-call microseconds
  void add(std::uint64_t c, std::int64_t t0) {
    const double s = seconds_since(t0);
    cells += c;
    seconds += s;
    us.push_back(s * 1e6);
  }
  [[nodiscard]] double gcups() const {
    return seconds > 0.0 ? static_cast<double>(cells) / seconds * 1e-9 : 0.0;
  }
};

align_options threads1(align_options o) {
  o.threads = 1;
  return o;
}

align_options forced(align_options o, backend b) {
  o.exec = b;
  return o;
}

/// A handle for forced `b`, or none when this binary/CPU cannot run it.
std::optional<anyseq::aligner> handle_for(const align_options& o) {
  try {
    return std::optional<anyseq::aligner>(std::in_place, o);
  } catch (const anyseq::unsupported_backend_error&) {
    return std::nullopt;
  }
}

/// Run `body` in rounds until `budget_s` has passed (at least one round).
template <class Body>
void rounds(double budget_s, Body&& body) {
  const std::int64_t t0 = now_ns();
  for (std::size_t k = 0; k == 0 || seconds_since(t0) < budget_s; ++k) body(k);
}

}  // namespace

void probe_routes(const std::vector<call_shape>& calls, metric_map& out) {
  static const char* const kRoutes[] = {"tiled_score",  "small_score",
                                        "full_matrix",  "hirschberg",
                                        "precision_score", "bitpar_score"};
  anyseq::aligner score(workload_options());
  align_options tb_opt = workload_options();
  tb_opt.want_alignment = true;
  anyseq::aligner tb(tb_opt);
  std::map<std::string, double> n;
  for (const call_shape& c : calls)
    n[(c.traceback ? tb : score).plan(c.n, c.m).route] += 1.0;
  for (const char* r : kRoutes)
    out[std::string("anyseq.route_share.") + r] = {
        ratio(n[r], static_cast<double>(calls.size())), "frac"};
}

void probe_calls(const pair_set& p, double budget_s, metric_map& out) {
  const align_options d = workload_options();
  align_options tb_opt = d;
  tb_opt.want_alignment = true;
  const align_options t1 = threads1(d);
  anyseq::aligner h_default(d), h_t1(t1), h_scalar(forced(t1, backend::scalar)),
      h_tb(tb_opt);
  auto h_avx2 = handle_for(forced(t1, backend::simd_avx2));
  auto h_avx512 = handle_for(forced(t1, backend::simd_avx512));

  tally one_default, one_t1, def, single, scalar, avx2, avx512, tb;
  std::uint64_t ctx = 0;
  alignment_result r;
  rounds(budget_s, [&](std::size_t k) {
    const std::size_t i = k % p.size();
    const auto q = p.q[i].view(), s = p.s[i].view();
    const std::uint64_t cells = p.cells(i);
    const auto timed = [&](tally& t, auto&& call) {
      const std::int64_t t0 = now_ns();
      call();
      t.add(cells, t0);
      check_score("probe", i, r.score, p.ref[i]);
    };
    const std::uint64_t ctx0 = context_switches();
    timed(one_default, [&] { r = anyseq::align(q, s, d); });
    ctx += context_switches() - ctx0;
    timed(one_t1, [&] { r = anyseq::align(q, s, t1); });
    timed(def, [&] { h_default.align_into(q, s, r); });
    timed(single, [&] { h_t1.align_into(q, s, r); });
    timed(scalar, [&] { h_scalar.align_into(q, s, r); });
    if (h_avx2) timed(avx2, [&] { h_avx2->align_into(q, s, r); });
    if (h_avx512) timed(avx512, [&] { h_avx512->align_into(q, s, r); });
    timed(tb, [&] { h_tb.align_into(q, s, r); });
    check_traceback("probe", i, p.q[i], p.s[i], r, p.ref[i], d);
  });

  std::vector<double> overhead, spawn;
  for (std::size_t k = 0; k < one_t1.us.size(); ++k) {
    overhead.push_back(one_t1.us[k] - single.us[k]);
    spawn.push_back(one_default.us[k] - one_t1.us[k]);
  }
  out["anyseq.call_overhead_us"] = {median(overhead), "us"};
  out["parallel.spawn_overhead_us"] = {median(spawn), "us"};
  out["parallel.ctx_switches_per_call"] = {
      ratio(static_cast<double>(ctx), static_cast<double>(one_default.us.size())),
      "count"};
  out["parallel.wavefront.speedup"] = {ratio(def.gcups(), single.gcups()), "ratio"};
  out["tiled.wavefront.gcups_1t"] = {single.gcups(), "GCUPS"};
  out["tiled.hirschberg.tb_over_score"] = {ratio(tb.seconds, def.seconds), "ratio"};
  out["simd.intra.avx2_vs_scalar"] = {ratio(avx2.gcups(), scalar.gcups()), "ratio"};
  out["simd.intra.avx512_vs_scalar"] = {ratio(avx512.gcups(), scalar.gcups()), "ratio"};
}

void probe_batches(const pair_set& p, double budget_s, bool set_workspace,
                   metric_map& out) {
  const std::size_t n = std::min<std::size_t>(1024, p.size());
  const auto all = p.views();
  const std::span<const anyseq::seq_pair> batch(all.data(), n);
  std::uint64_t cells = 0;
  for (std::size_t i = 0; i < n; ++i) cells += p.cells(i);

  const align_options d = workload_options();
  const align_options t1 = threads1(d);
  anyseq::aligner h_default(d), h_t1(t1), h_scalar(forced(t1, backend::scalar));
  auto h_avx2 = handle_for(forced(t1, backend::simd_avx2));
  auto h_avx512 = handle_for(forced(t1, backend::simd_avx512));

  tally def, single, scalar, avx2, avx512;
  anyseq::batch_stats st;
  std::vector<alignment_result> res;
  const auto timed = [&](tally& t, anyseq::aligner& h) {
    const std::int64_t t0 = now_ns();
    h.align_batch_into(batch, res);
    t.add(cells, t0);
    for (std::size_t i = 0; i < n; ++i)
      check_score("batch probe", i, res[i].score, p.ref[i]);
  };
  rounds(budget_s, [&](std::size_t) {
    timed(def, h_default);
    const auto s = h_default.last_batch_stats();
    st.simd_pairs += s.simd_pairs;
    st.scalar_pairs += s.scalar_pairs;
    st.int8_pairs += s.int8_pairs;
    st.int16_pairs += s.int16_pairs;
    st.escalated_pairs += s.escalated_pairs;
    st.ragged_pairs += s.ragged_pairs;
    st.padded_cells += s.padded_cells;
    timed(single, h_t1);
    timed(scalar, h_scalar);
    if (h_avx2) timed(avx2, *h_avx2);
    if (h_avx512) timed(avx512, *h_avx512);
  });

  const double pairs = static_cast<double>(n * def.us.size());
  const auto frac = [&](std::uint64_t v) {
    return metric{ratio(static_cast<double>(v), pairs), "frac"};
  };
  out["parallel.batch.efficiency"] = {
      ratio(def.gcups(), static_cast<double>(anyseq::parallel::hardware_threads()) * single.gcups()), "ratio"};
  out["tiled.batch.gcups_1t"] = {single.gcups(), "GCUPS"};
  out["tiled.batch.simd_pair_frac"] = frac(st.simd_pairs);
  out["tiled.batch.scalar_pair_frac"] = frac(st.scalar_pairs);
  out["tiled.batch.ragged_pair_frac"] = frac(st.ragged_pairs);
  out["tiled.batch.int8_pair_frac"] = frac(st.int8_pairs);
  out["tiled.batch.int16_pair_frac"] = frac(st.int16_pairs);
  out["tiled.batch.escalated_pair_frac"] = frac(st.escalated_pairs);
  out["tiled.batch.padded_cell_frac"] = {
      ratio(static_cast<double>(st.padded_cells),
            static_cast<double>(def.cells + st.padded_cells)),
      "frac"};
  out["simd.inter.avx2_vs_scalar"] = {ratio(avx2.gcups(), scalar.gcups()), "ratio"};
  out["simd.inter.avx512_vs_scalar"] = {ratio(avx512.gcups(), scalar.gcups()), "ratio"};
  if (set_workspace)
    out["anyseq.workspace_bytes"] = {
        static_cast<double>(h_default.workspace_bytes()), "bytes"};
}

void probe_precision(std::uint64_t seed, bool smoke, double budget_s,
                     metric_map& out) {
  const std::size_t n = smoke ? 64 : 512;
  struct shape {
    const char* name;
    pair_set set;
  } shapes[] = {{"reads150", make_read_pairs(n, 150, 150, 150, seed + 11)},
                {"short", make_read_pairs(n, 20, 40, 40, seed + 12)}};
  for (auto& sh : shapes) {
    compute_reference(sh.set, false);
    const auto views = sh.set.views();
    std::uint64_t cells = 0;
    for (std::size_t i = 0; i < n; ++i) cells += sh.set.cells(i);
    using anyseq::score_precision;
    const score_precision modes[] = {score_precision::auto_select,
                                     score_precision::int8,
                                     score_precision::int16,
                                     score_precision::int32};
    std::vector<anyseq::aligner> handles;
    for (const auto m : modes) {
      align_options o = threads1(workload_options());
      o.precision = m;
      handles.emplace_back(o);
    }
    tally t[4];
    std::vector<alignment_result> res;
    rounds(budget_s / 2, [&](std::size_t) {
      for (std::size_t h = 0; h < handles.size(); ++h) {
        const std::int64_t t0 = now_ns();
        handles[h].align_batch_into(views, res);
        t[h].add(cells, t0);
        for (std::size_t i = 0; i < n; ++i)
          check_score("precision probe", i, res[i].score, sh.set.ref[i]);
      }
    });
    const double best = std::max({t[1].gcups(), t[2].gcups(), t[3].gcups()});
    out[std::string("simd.inter.auto_vs_best_forced.") + sh.name] = {
        ratio(t[0].gcups(), best), "ratio"};
  }
}

svc::service_group::config group_config() {
  svc::service_group::config cfg;
  cfg.shards = 2;
  cfg.cache_capacity = 4096;
  cfg.shard.max_batch = 64;
  cfg.shard.queue_capacity = 4096;
  cfg.shard.policy = svc::backpressure::block;
  return cfg;
}

std::vector<std::uint64_t> shard_completed(svc::service_group& g) {
  std::vector<std::uint64_t> out;
  for (std::size_t i = 0; i < g.shard_count(); ++i)
    out.push_back(g.shard(i).stats().completed);
  return out;
}

namespace {

/// Durations (us) per span name from the collector's Chrome JSON dump.
std::map<std::string, std::vector<double>> lifecycle_spans(
    const svc::trace::collector& c) {
  std::string doc(c.dump_chrome_json(nullptr, 0) + 1, '\0');
  c.dump_chrome_json(doc.data(), doc.size());
  std::map<std::string, std::vector<double>> out;
  const char* key = "{\"name\":\"";
  for (std::size_t pos = doc.find(key); pos != std::string::npos;
       pos = doc.find(key, pos + 1)) {
    const std::size_t b = pos + std::strlen(key);
    const std::size_t e = doc.find('"', b);
    const std::size_t end = doc.find('}', e);
    const std::size_t dur = doc.find("\"dur\":", e);
    if (dur == std::string::npos || dur > end) continue;  // an instant
    out[doc.substr(b, e - b)].push_back(std::strtod(doc.c_str() + dur + 6, nullptr));
  }
  return out;
}

std::uint64_t exec_delta(const anyseq::service::exec_snapshot& a,
                         const anyseq::service::exec_snapshot& b, bool ns) {
  std::uint64_t total = 0;
  for (std::size_t r = 0; r < anyseq::service::n_exec_routes; ++r)
    for (std::size_t v = 0; v < anyseq::service::n_exec_variants; ++v)
      total += ns ? b.at[r][v].ns - a.at[r][v].ns
                  : b.at[r][v].cells - a.at[r][v].cells;
  return total;
}

}  // namespace

void service_metrics(const service_window& w, const svc::trace::collector& c,
                     metric_map& out) {
  const auto& a = w.before;
  const auto& b = w.after;
  const auto d = [](std::uint64_t x, std::uint64_t y) {
    return static_cast<double>(y - x);
  };
  const double attempted = d(a.accepted, b.accepted) + d(a.rejected, b.rejected) +
                           d(a.quota_rejected, b.quota_rejected) +
                           d(a.quarantined, b.quarantined);
  out["service.submit_us.p50"] = {quantile(w.submit_us, 0.5), "us"};
  out["service.submit_us.p99"] = {quantile(w.submit_us, 0.99), "us"};
  out["service.cache.hit_frac"] = {
      ratio(d(a.cache_hits, b.cache_hits),
            d(a.cache_hits, b.cache_hits) + d(a.cache_misses, b.cache_misses)),
      "frac"};
  out["service.batch.occupancy"] = {
      ratio(d(a.batched_requests, b.batched_requests), d(a.batches, b.batches)),
      "count"};
  const double simd = d(a.batch_simd_pairs, b.batch_simd_pairs);
  out["service.batch.simd_pair_frac"] = {
      ratio(simd, simd + d(a.batch_scalar_pairs, b.batch_scalar_pairs)), "frac"};
  const double exec = ratio(static_cast<double>(exec_delta(a.exec, b.exec, false)),
                            static_cast<double>(exec_delta(a.exec, b.exec, true)));
  out["service.exec_gcups"] = {exec, "GCUPS"};
  out["service.delivered_over_exec"] = {
      ratio(static_cast<double>(w.delivered_cells) / std::max(w.wall_s, 1e-12) * 1e-9,
            exec),
      "ratio"};
  out["service.deadline_expired_frac"] = {
      ratio(d(a.deadline_expired, b.deadline_expired), attempted), "frac"};
  out["service.shed_frac"] = {ratio(d(a.shed, b.shed), attempted), "frac"};
  out["service.rejected_frac"] = {
      ratio(d(a.rejected, b.rejected) + d(a.quota_rejected, b.quota_rejected) +
                d(a.quarantined, b.quarantined),
            attempted),
      "frac"};
  double hi = 0.0, sum = 0.0;
  for (const auto v : w.shard_completed) {
    hi = std::max(hi, static_cast<double>(v));
    sum += static_cast<double>(v);
  }
  out["router.shard_imbalance"] = {
      ratio(hi, sum / static_cast<double>(std::max<std::size_t>(1, w.shard_completed.size()))),
      "ratio"};
  auto spans = lifecycle_spans(c);
  for (const char* s : {"cache_probe", "ring_wait", "batch_collect",
                        "workspace_wait", "kernel_execute", "complete"}) {
    const auto& v = spans[s];
    out[std::string("service.span.") + s + ".p50_us"] = {quantile(v, 0.5), "us"};
    out[std::string("service.span.") + s + ".p99_us"] = {quantile(v, 0.99), "us"};
  }
}

void probe_service(const pair_set& p, double budget_s, metric_map& out) {
  align_options o = threads1(workload_options());
  svc::trace::collector c({1 << 14, 32});
  service_window w;
  {
    svc::service_group g(group_config());
    w.before = g.stats();
    const auto shards0 = shard_completed(g);
    std::optional<armed_collector> armed(std::in_place, c);
    const std::int64_t t0 = now_ns();
    constexpr std::size_t kWindow = 256;
    std::size_t next = 0;
    while (next < p.size() && (next == 0 || seconds_since(t0) < budget_s)) {
      const std::size_t lo = next;
      std::vector<svc::ticket> ts;
      for (; next < p.size() && next - lo < kWindow; ++next) {
        const std::int64_t s0 = now_ns();
        ts.push_back(g.submit(p.q[next].view(), p.s[next].view(), o));
        w.submit_us.push_back(static_cast<double>(now_ns() - s0) / 1e3);
      }
      for (std::size_t i = lo; i < next; ++i) {
        check_score("service probe", i, ts[i - lo].get().score, p.ref[i]);
        w.delivered_cells += p.cells(i);
      }
    }
    w.wall_s = seconds_since(t0);
    g.shutdown(true);
    armed.reset();
    w.after = g.stats();
    w.shard_completed = shard_completed(g);
    for (std::size_t i = 0; i < shards0.size(); ++i) w.shard_completed[i] -= shards0[i];
  }
  service_metrics(w, c, out);
}

void trace_metrics(const span_log& log, const std::vector<double>& lag_us,
                   double overhead, metric_map& out) {
  std::map<std::string, double> layer;
  for (const auto& [name, s] : log.self_seconds())
    layer[name.substr(0, name.find('.'))] += s;
  const double root = log.root_seconds();
  for (const char* l : {"bench", "anyseq", "service"})
    out[std::string("trace.self_share.") + l] = {ratio(layer[l], root), "frac"};
  out["loadgen.lag_p99_us"] = {quantile(lag_us, 0.99), "us"};
  out["trace.overhead"] = {overhead, "ratio"};
}

}  // namespace perfbench
