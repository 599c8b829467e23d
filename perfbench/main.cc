// tasfar_perfbench: runs one benchmark workload and prints its metrics.
//
//   tasfar_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads: adapt-pdr, serve-noisy. With
// --trace 0 it prints the end-to-end metrics, with --trace 1 the per-layer
// ones. The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Exit code 0 only when every
// correctness check passed. See README.md.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "tensor/simd/dispatch.h"
#include "util/thread_pool.h"
#include "workload.h"

namespace {

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

int Usage(const char* why) {
  std::fprintf(stderr,
               "tasfar_perfbench: %s\nusage: tasfar_perfbench --workload "
               "adapt-pdr|serve-noisy --seed N "
               "--seconds S --trace 0|1\n",
               why);
  return 2;
}

std::string Json(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      config.trace = value == "1";
    } else {
      return Usage(("unknown argument " + key).c_str());
    }
  }
  if (!have_workload || argc % 2 == 0) return Usage("missing arguments");
  if (!(config.seconds > 0.0)) return Usage("--seconds must be positive");
  if (!kOptimized) {
    std::fprintf(stderr,
                 "tasfar_perfbench: refusing to time an unoptimized build "
                 "(build type '%s'); configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }

  const char* env_threads = std::getenv("TASFAR_NUM_THREADS");
  std::printf(
      "stamp {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": "
      "%d, \"nproc\": %u, \"TASFAR_NUM_THREADS\": %s, \"pool_threads\": %zu, "
      "\"simd\": %s, \"compiler\": %s, \"build_type\": %s}\n",
      Json(config.workload).c_str(),
      static_cast<unsigned long long>(config.seed),
      Number(config.seconds).c_str(), config.trace ? 1 : 0,
      std::thread::hardware_concurrency(),
      Json(env_threads != nullptr ? env_threads : "").c_str(),
      tasfar::GetNumThreads(), Json(tasfar::simd::Kernels().name).c_str(),
      Json(__VERSION__).c_str(), Json(PERFBENCH_BUILD_TYPE).c_str());
  std::fflush(stdout);

  perfbench::RunResult result;
  try {
    if (config.workload == "adapt-pdr") {
      result = perfbench::RunAdaptWorkload(config, "pdr", 3);
    } else if (config.workload == "serve-noisy") {
      result = perfbench::RunServeWorkload(config);
    } else {
      return Usage(("unknown workload " + config.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tasfar_perfbench: %s\n", e.what());
    return 1;
  }
  for (const perfbench::Metric& m : result.metrics) {
    result.Check(std::isfinite(m.value), m.name + " is not finite");
  }
  if (result.attempted == 0) result.Check(false, "no operation attempted");

  std::printf("%-40s %16s  %-8s %8s\n", "metric", "value", "unit", "samples");
  for (const perfbench::Metric& m : result.metrics) {
    std::printf("%-40s %16.6g  %-8s %8zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  for (const std::string& f : result.failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  std::string line = "{\"correct\": ";
  line += result.correct() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& m = result.metrics[i];
    if (i > 0) line += ", ";
    line += Json(m.name) + ": {\"value\": " +
            (std::isfinite(m.value) ? Number(m.value) : "null") +
            ", \"unit\": " + Json(m.unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return result.correct() ? 0 : 1;
}
