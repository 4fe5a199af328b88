#include <algorithm>
#include <cstdio>

#include "common.hpp"

namespace perfbench {

namespace {
/// The file keeps the first spans only (self times use all of them).
constexpr std::size_t kMaxWrittenSpans = 100000;
}  // namespace

int span_log::open(const char* name, std::uint64_t request, int parent,
                   std::int64_t t0_ns) {
  spans_.push_back({name, request, parent, t0_ns, t0_ns});
  return static_cast<int>(spans_.size() - 1);
}

void span_log::close(int span, std::int64_t t1_ns) {
  spans_[static_cast<std::size_t>(span)].t1 = t1_ns;
}

int span_log::add(const char* name, std::uint64_t request, int parent,
                  std::int64_t t0_ns, std::int64_t t1_ns) {
  const int id = open(name, request, parent, t0_ns);
  close(id, t1_ns);
  return id;
}

std::map<std::string, double> span_log::self_seconds() const {
  // Children's intervals per parent, merged so overlapping children
  // (asynchronous work) are not subtracted twice.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans_.size());
  for (const span& s : spans_)
    if (s.parent >= 0)
      kids[static_cast<std::size_t>(s.parent)].push_back({s.t0, s.t1});
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& k = kids[i];
    std::sort(k.begin(), k.end());
    std::int64_t covered = 0, cur_lo = 0, cur_hi = 0;
    bool open_run = false;
    for (const auto& [lo0, hi0] : k) {
      const std::int64_t lo = std::max(lo0, spans_[i].t0);
      const std::int64_t hi = std::min(hi0, spans_[i].t1);
      if (hi <= lo) continue;
      if (open_run && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
      } else {
        if (open_run) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open_run = true;
      }
    }
    if (open_run) covered += cur_hi - cur_lo;
    self[spans_[i].name] +=
        static_cast<double>(spans_[i].t1 - spans_[i].t0 - covered) * 1e-9;
  }
  return self;
}

double span_log::root_seconds() const {
  double total = 0.0;
  for (const span& s : spans_)
    if (s.parent < 0) total += static_cast<double>(s.t1 - s.t0) * 1e-9;
  return total;
}

bool span_log::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t epoch = spans_.empty() ? 0 : spans_.front().t0;
  const std::size_t n = std::min(spans_.size(), kMaxWrittenSpans);
  std::fprintf(f,
               "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"spans\":%zu,"
               "\"written\":%zu},\"traceEvents\":[",
               spans_.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    const span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                 "\"args\":{\"span\":%zu,\"request\":%llu,\"parent\":%d}}",
                 i == 0 ? "" : ",", s.name,
                 static_cast<double>(s.t0 - epoch) / 1e3,
                 static_cast<double>(s.t1 - s.t0) / 1e3, i,
                 static_cast<unsigned long long>(s.request), s.parent);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
