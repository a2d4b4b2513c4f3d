// Repository benchmark binary: runs one workload in this process and
// prints, as its last stdout line, one JSON object
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {name: {value, unit}}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exits 1 when an output check failed or an operation failed,
// 2 on bad arguments or a build it refuses to measure.
//
//   perfbench --workload paper_stream|tenant_churn --seed N --seconds S
//             --trace 0|1 --work-dir DIR [--trace-file PATH]
//
// perfbench/run.py builds this binary and calls it; see perfbench/README.md.

#include <cpuid.h>
#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "bench.hpp"

#ifndef __has_feature
#define __has_feature(x) 0
#endif

/// Sanitizers compiled into this binary, however the flags were passed
/// ("" when none).
static constexpr const char* kSanitizers = ""
#if defined(__SANITIZE_ADDRESS__) || __has_feature(address_sanitizer)
                                    " address"
#endif
#if defined(__SANITIZE_THREAD__) || __has_feature(thread_sanitizer)
                                    " thread"
#endif
#if __has_feature(undefined_behavior_sanitizer)
                                    " undefined"
#endif
    ;

// GCC defines no macro for UBSan; its runtime, and so this handler, is linked
// in only when some object was compiled with -fsanitize=undefined.
extern "C" void __ubsan_handle_type_mismatch_v1(void*, void*) __attribute__((weak));

namespace {

using namespace perfbench;
namespace fs = std::filesystem;

Options parse(int argc, char** argv, std::string& trace_file) {
  Options opt;
  bool have_workload = false, have_dir = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
    const std::string v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      opt.seed = std::stoull(v);
    } else if (a == "--seconds") {
      opt.seconds = std::stod(v);
      if (!(opt.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
    } else if (a == "--trace") {
      if (v != "0" && v != "1") throw std::invalid_argument("--trace takes 0 or 1");
      opt.trace = v == "1";
    } else if (a == "--work-dir") {
      opt.work_dir = v;
      have_dir = true;
    } else if (a == "--trace-file") {
      trace_file = v;
    } else {
      throw std::invalid_argument("unknown flag " + a);
    }
  }
  if (!have_workload || !have_dir) throw std::invalid_argument("--workload and --work-dir are required");
  if (opt.workload != "paper_stream" && opt.workload != "tenant_churn")
    throw std::invalid_argument("unknown workload " + opt.workload);
  return opt;
}

/// Same rule scripts/bench_json.sh applies to bench_micro: only an
/// unsanitized Release-family build is measured.
bool build_is_measurable(std::string& why) {
  const std::string type = PERFBENCH_BUILD_TYPE;
  std::string sanitize = kSanitizers;
  if (&__ubsan_handle_type_mismatch_v1 != nullptr &&
      sanitize.find(" undefined") == std::string::npos)
    sanitize += " undefined";
  why = "build (type '" + type + "', sanitizers '" +
        (sanitize.empty() ? "none" : sanitize.substr(1)) + "')";
  return (type == "Release" || type == "RelWithDebInfo" || type == "MinSizeRel") &&
         sanitize.empty();
}

std::string cpu_model() {
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) < 0x80000004) return "unknown";
  for (unsigned leaf = 0; leaf < 3; ++leaf)
    __get_cpuid(0x80000002 + leaf, &regs[4 * leaf], &regs[4 * leaf + 1], &regs[4 * leaf + 2],
                &regs[4 * leaf + 3]);
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const auto b = s.find_first_not_of(' ');
  return b == std::string::npos ? "unknown" : s.substr(b);
}

/// Host fingerprint recorded with every result (JSON object text).
std::string host_fingerprint() {
  std::ostringstream os;
  auto kib = [](int name) { return sysconf(name) > 0 ? sysconf(name) / 1024 : 0; };
  os << "{\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN) << ", \"cpu\": \"" << cpu_model()
     << "\", \"l1d_kib\": " << kib(_SC_LEVEL1_DCACHE_SIZE)
     << ", \"l2_kib\": " << kib(_SC_LEVEL2_CACHE_SIZE)
     << ", \"l3_kib\": " << kib(_SC_LEVEL3_CACHE_SIZE) << ", \"pool_threads\": " << kPoolThreads
     << ", \"build\": \"" << PERFBENCH_BUILD_TYPE << "\"}";
  return os.str();
}

void print_self_times(const Tracer& tracer) {
  std::cout << "self time per span (count, total ms, self ms):\n";
  for (const auto& [name, st] : tracer.self_times())
    std::cout << "  " << std::left << std::setw(44) << name << std::right << std::setw(7)
              << st.count << std::fixed << std::setprecision(3) << std::setw(13) << st.total_ms
              << std::setw(13) << st.self_ms << std::defaultfloat << "\n";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// Removes the run's scratch directory on every exit path.
struct DirGuard {
  fs::path dir;
  ~DirGuard() {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
};

int run(int argc, char** argv) {
  std::string trace_file;
  Options opt;
  try {
    opt = parse(argc, argv, trace_file);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
  std::string why;
  if (!build_is_measurable(why)) {
    std::cerr << "perfbench: refusing to measure this " << why
              << "; configure with -DCMAKE_BUILD_TYPE=Release and no sanitizer\n";
    return 2;
  }

  fs::remove_all(opt.work_dir);
  fs::create_directories(opt.work_dir);
  DirGuard guard{opt.work_dir};

  std::cout << "host: " << host_fingerprint() << "\n";
  std::cout << "run: workload " << opt.workload << ", seed " << opt.seed << ", seconds "
            << opt.seconds << ", trace " << opt.trace << "\n";
  Tracer tracer(opt.trace);
  const Result r = opt.workload == "paper_stream" ? run_paper_stream(opt, tracer)
                                                  : run_tenant_churn(opt, tracer);

  std::uint64_t attempted = 0, failed = 0;
  for (const auto& [kind, n] : r.attempted) {
    const std::uint64_t f = r.failed.count(kind) ? r.failed.at(kind) : 0;
    std::cout << "operations: " << kind << " attempted " << n << ", succeeded " << n - f
              << ", failed " << f << "\n";
    attempted += n;
    failed += f;
  }
  for (const std::string& v : r.violations) std::cout << "check failed: " << v << "\n";
  if (r.violation_count > r.violations.size())
    std::cout << "check failed: ... " << r.violation_count - r.violations.size() << " more\n";

  if (opt.trace) {
    print_self_times(tracer);
    if (!trace_file.empty()) {
      if (!tracer.write_chrome_json(trace_file))
        throw std::runtime_error("cannot write trace file " + trace_file);
      std::cout << "trace: " << tracer.size() << " spans written to " << trace_file << "\n";
    }
  }

  const auto& metrics = opt.trace ? r.per_layer : r.end_to_end;
  bool finite = true;
  for (const auto& [name, m] : metrics)
    if (!std::isfinite(m.value)) {
      std::cout << "check failed: metric " << name << " is not finite\n";
      finite = false;
    }
  const bool correct = r.violation_count == 0 && finite;
  std::ostringstream js;
  js << std::setprecision(17) << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    js << (first ? "" : ", ") << json_string(name) << ": {\"value\": "
       << (std::isfinite(m.value) ? m.value : 0.0) << ", \"unit\": " << json_string(m.unit)
       << "}";
    first = false;
  }
  js << "}}";
  std::cout << js.str() << std::endl;
  return correct && failed == 0 && attempted > 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
