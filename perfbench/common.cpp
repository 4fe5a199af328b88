#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "bio/random.hpp"
#include "bio/read_sim.hpp"
#include "bio/rng.hpp"

namespace perfbench {

align_options workload_options() {
  align_options o;
  o.kind = anyseq::align_kind::global;
  o.gap_open = -2;
  o.gap_extend = -1;
  return o;
}

align_options reference_options() {
  align_options o = workload_options();
  o.exec = anyseq::backend::scalar;
  o.threads = 1;
  o.precision = anyseq::score_precision::int32;
  return o;
}

std::vector<anyseq::seq_pair> pair_set::views() const {
  std::vector<anyseq::seq_pair> v;
  v.reserve(size());
  for (std::size_t i = 0; i < size(); ++i) v.push_back({q[i].view(), s[i].view()});
  return v;
}

pair_set make_read_pairs(std::size_t count, anyseq::index_t lo,
                         anyseq::index_t hi, anyseq::index_t read_length,
                         std::uint64_t seed) {
  anyseq::bio::genome_params gp;
  gp.length = 1 << 20;
  gp.seed = seed;
  const auto ref = anyseq::bio::random_genome("bench_reference", gp);
  anyseq::bio::read_sim_params rp;
  rp.read_length = read_length;
  rp.seed = seed ^ 0x5EEDu;
  auto reads = anyseq::bio::simulate_read_pairs(ref, count, rp);

  anyseq::bio::xoshiro256 rng(seed * 31 + 7);
  const auto span = static_cast<std::uint64_t>(hi - lo + 1);
  const auto trim = [&](const sequence& r) {
    const auto len = std::min<std::size_t>(
        r.codes().size(), static_cast<std::size_t>(lo) + rng.below(span));
    return sequence(r.name(), std::vector<anyseq::char_t>(
                                  r.codes().begin(),
                                  r.codes().begin() +
                                      static_cast<std::ptrdiff_t>(len)));
  };
  pair_set out;
  for (const auto& rp2 : reads) out.add(trim(rp2.first), trim(rp2.second));
  return out;
}

void compute_reference(pair_set& p, bool corrupt) {
  p.ref.assign(p.size(), 0);
  const int n_threads =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < n_threads; ++t)
    workers.emplace_back([&] {
      anyseq::aligner a(reference_options());
      alignment_result r;
      for (std::size_t i = next.fetch_add(1); i < p.size();
           i = next.fetch_add(1)) {
        a.align_into(p.q[i].view(), p.s[i].view(), r);
        p.ref[i] = r.score;
      }
    });
  for (auto& w : workers) w.join();
  if (corrupt && !p.ref.empty()) p.ref[p.size() / 2] += 1;
}

void check_score(const char* where, std::size_t idx, score_t got,
                 score_t ref) {
  if (got == ref) return;
  char msg[160];
  std::snprintf(msg, sizeof msg, "%s: pair %zu scored %d, reference %d",
                where, idx, static_cast<int>(got), static_cast<int>(ref));
  throw check_failure(msg);
}

void check_traceback(const char* where, std::size_t idx, const sequence& q,
                     const sequence& s, const alignment_result& r,
                     score_t ref, const align_options& opt) {
  check_score(where, idx, r.score, ref);
  const auto fail = [&](const char* why) {
    char msg[200];
    std::snprintf(msg, sizeof msg, "%s: pair %zu traceback %s (cigar %.40s)",
                  where, idx, why, r.cigar.c_str());
    throw check_failure(msg);
  };
  if (!r.has_alignment) fail("missing");
  std::size_t i = 0, j = 0;
  long long total = 0;
  char prev = 0;
  std::size_t k = 0;
  while (k < r.cigar.size()) {
    std::size_t run = 0;
    while (k < r.cigar.size() && r.cigar[k] >= '0' && r.cigar[k] <= '9')
      run = run * 10 + static_cast<std::size_t>(r.cigar[k++] - '0');
    if (k == r.cigar.size() || run == 0) fail("malformed");
    const char op = r.cigar[k++];
    switch (op) {
      case '=':
      case 'X':
        if (i + run > q.codes().size() || j + run > s.codes().size())
          fail("runs past a sequence end");
        for (std::size_t t = 0; t < run; ++t, ++i, ++j) {
          const bool same = q.codes()[i] == s.codes()[j];
          if (same != (op == '=')) fail("column disagrees with the pair");
          total += same ? opt.match : opt.mismatch;
        }
        break;
      case 'I':  // gap in q: consumes the subject
      case 'D':  // gap in s: consumes the query
        if (op == 'I' ? j + run > s.codes().size()
                      : i + run > q.codes().size())
          fail("runs past a sequence end");
        (op == 'I' ? j : i) += run;
        total += (prev == op ? 0LL : opt.gap_open) +
                 static_cast<long long>(run) * opt.gap_extend;
        break;
      default:
        fail("has an unknown op");
    }
    prev = op;
  }
  if (i != q.codes().size() || j != s.codes().size())
    fail("does not cover both sequences");
  if (total != ref) fail("re-scores to a different value");
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t context_switches() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
}

double steal_seconds() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double v[8] = {};
  if (!(stat >> cpu) || cpu != "cpu") return 0.0;
  for (double& x : v) stat >> x;
  return v[7] / static_cast<double>(sysconf(_SC_CLK_TCK));
}

steal_sampler::steal_sampler(std::int64_t origin_ns, std::int64_t width_ns)
    : origin_(origin_ns), width_(width_ns), thread_([this] { loop(); }) {}

steal_sampler::~steal_sampler() { (void)stop(); }

const std::vector<double>& steal_sampler::stop() {
  {
    std::lock_guard lk(mu_);
    stopping_ = true;
  }
  cv_.notify_one();
  if (thread_.joinable()) thread_.join();
  return per_window_;
}

std::size_t steal_sampler::steal_free(std::size_t first, std::size_t last) {
  std::lock_guard lk(mu_);
  std::size_t n = 0;
  for (std::size_t i = first; i < last && i < per_window_.size(); ++i)
    n += per_window_[i] == 0.0 ? 1 : 0;
  return n;
}

void steal_sampler::loop() {
  double last = steal_seconds();
  for (std::int64_t i = 1;; ++i) {
    const std::chrono::steady_clock::time_point end{
        std::chrono::nanoseconds(origin_ + i * width_)};
    std::unique_lock lk(mu_);
    const bool stopping = cv_.wait_until(lk, end, [&] { return stopping_; });
    lk.unlock();
    const double now = steal_seconds();
    lk.lock();
    per_window_.push_back(now - last);
    lk.unlock();
    last = now;
    if (stopping) return;
  }
}

}  // namespace perfbench
