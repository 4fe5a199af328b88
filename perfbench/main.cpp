/// anyseq_perfbench — the repository benchmark's measuring program.
///
///   anyseq_perfbench --workload NAME --seed N --seconds S --trace 0|1
///                    [--smoke] [--steady-rps R --overload-rps R
///                    --latency-limit-us L] [--trace-out FILE]
///                    [--corrupt-reference]
///
/// Prints a stamp line (host and build), then as its last line one JSON
/// object {"correct", "attempted", "failed", "metrics"}.  A wrong score
/// or traceback exits with code 3 and prints no result; a non-Release
/// build refuses to run (code 2).  perfbench/run.py builds this program
/// and supplies the serve rates from perfbench/config.json.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "simd/detect.hpp"
#include "workloads.hpp"

namespace {

using perfbench::run_args;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "anyseq_perfbench: %s\n", why);
  std::exit(2);
}

run_args parse(int argc, char** argv) {
  run_args a;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + k).c_str());
      return argv[++i];
    };
    const auto number = [&]() {
      const std::string v = value();
      char* end = nullptr;
      const double d = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !std::isfinite(d))
        usage(("bad number for " + k).c_str());
      return d;
    };
    if (k == "--workload") a.workload = value();
    else if (k == "--seed") a.seed = static_cast<std::uint64_t>(number());
    else if (k == "--seconds") a.seconds = number();
    else if (k == "--trace") { a.trace = number() != 0.0; have_trace = true; }
    else if (k == "--smoke") a.smoke = true;
    else if (k == "--corrupt-reference") a.corrupt_reference = true;
    else if (k == "--steady-rps") a.steady_rps = number();
    else if (k == "--overload-rps") a.overload_rps = number();
    else if (k == "--latency-limit-us") a.latency_limit_us = number();
    else if (k == "--trace-out") a.trace_out = value();
    else usage(("unknown argument " + k).c_str());
  }
  if (a.workload.empty() || !have_trace) usage("need --workload and --trace");
  if (a.seconds <= 0.0 || a.seconds > 60.0) usage("--seconds must be in (0, 60]");
  return a;
}

void print_stamp(const run_args& a) {
  std::printf(
      "{\"stamp\":{\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,"
      "\"trace\":%d,\"smoke\":%d,\"nproc\":%ld,\"hardware_concurrency\":%u,"
      "\"cpu\":\"%s\",\"backend\":\"%s\",\"library\":\"%s\","
      "\"compiler\":\"%s\",\"build_type\":\"%s\"}}\n",
      a.workload.c_str(), static_cast<unsigned long long>(a.seed), a.seconds,
      a.trace ? 1 : 0, a.smoke ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN),
      std::thread::hardware_concurrency(),
      anyseq::simd::describe(anyseq::simd::detect()).c_str(),
      anyseq::backend_name(), anyseq::version(), PERFBENCH_COMPILER,
      PERFBENCH_BUILD_TYPE);
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  constexpr bool optimized = false;
#else
  constexpr bool optimized = true;
#endif
  if (!optimized || std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "anyseq_perfbench: refusing to report from a %s build\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  const run_args a = parse(argc, argv);
  print_stamp(a);
  const double steal0 = perfbench::steal_seconds();
  perfbench::outcome out;
  try {
    out = perfbench::run_workload(a);
  } catch (const perfbench::check_failure& e) {
    std::fprintf(stderr, "anyseq_perfbench: WRONG OUTPUT: %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "anyseq_perfbench: %s\n", e.what());
    return 4;
  }
  for (const auto& [name, m] : out.metrics)
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "anyseq_perfbench: metric %s is not finite\n",
                   name.c_str());
      return 4;
    }
  std::printf("{\"host\":{\"steal_s\":%.3f,\"quiet_windows\":%zu,\"windows\":%zu}}\n",
              perfbench::steal_seconds() - steal0, out.quiet_windows, out.windows);
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  const char* sep = "";
  for (const auto& [name, m] : out.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                name.c_str(), m.value, m.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
  return 0;
}
