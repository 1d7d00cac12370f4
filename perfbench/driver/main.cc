// perfbench: the repository benchmark driver.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <path>] [--host-threads <n>]
//   perfbench --self-test
//
// Runs one workload, checks its outputs, prints diagnostics and one
// "metric <name> <value> <unit>" line per metric, and ends with a JSON
// line {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
// the end-to-end metrics; --trace 1 makes the traced run and reports the
// per-layer metrics. See README.md.
#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "driver/harness.h"
#include "driver/workloads.h"

namespace perfbench {
namespace {

using Runner = RunResult (*)(const RunConfig&);

const std::map<std::string, Runner>& Workloads() {
  static const std::map<std::string, Runner> kWorkloads = {
      {"train-paper", RunTrainPaper},
      {"train-parallel", RunTrainParallel},
      {"serve-zipf", RunServeZipf},
      {"mutate-failover", RunMutateFailover},
  };
  return kWorkloads;
}

/// The end-to-end metrics every untraced run prints, with their units.
const std::vector<std::pair<std::string, std::string>>& E2eMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"setup_s", "s"},
      {"ops_per_s", "1/s"},
      {"peak_rss_mb", "MB"},
      {"sim_ms_per_iter", "virtual_ms"},
      {"sim_iter_ms_p99", "virtual_ms"},
      {"sim_latency_ms_p50", "virtual_ms"},
      {"sim_latency_ms_p99", "virtual_ms"},
      {"sim_goodput_rps", "1/virtual_s"},
      {"sim_capacity_rps", "1/virtual_s"},
  };
  return kMetrics;
}

std::vector<Metric> LayerMetrics() {
  RunResult r;
  LayerSheet().EmitTo(&r);
  return r.layers;
}

/// Adds a violation for every expected metric that is missing, has the
/// wrong unit, or is not finite.
void CheckMetricSet(const std::vector<Metric>& got,
                    const std::vector<Metric>& want, RunResult* out) {
  std::map<std::string, const Metric*> by_name;
  for (const Metric& m : got) by_name[m.name] = &m;
  for (const Metric& w : want) {
    auto it = by_name.find(w.name);
    if (it == by_name.end()) {
      out->Violation("missing metric " + w.name);
    } else if (it->second->unit != w.unit) {
      out->Violation("metric " + w.name + " has unit " + it->second->unit +
                     ", want " + w.unit);
    } else if (!std::isfinite(it->second->value)) {
      out->Violation("metric " + w.name + " is not finite");
    }
  }
  if (got.size() != want.size()) {
    out->Violation("expected " + std::to_string(want.size()) +
                   " metrics, got " + std::to_string(got.size()));
  }
}

std::vector<Metric> ExpectedE2e() {
  std::vector<Metric> want;
  for (const auto& [name, unit] : E2eMetrics()) want.push_back({name, 0, unit});
  return want;
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void Print(const RunConfig& cfg, const RunResult& r) {
  std::printf("perfbench %s seed=%llu trace=%d\n", cfg.workload.c_str(),
              static_cast<unsigned long long>(cfg.seed), cfg.trace ? 1 : 0);
  for (const std::string& line : r.notes) std::printf("  %s\n", line.c_str());
  std::printf("  fingerprint %s\n", Hex(r.fingerprint).c_str());
  std::printf("  ops attempted %llu, failed %llu\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  const std::vector<Metric>& metrics = cfg.trace ? r.layers : r.e2e;
  for (const Metric& m : metrics) {
    std::printf("metric %-34s %-24s %s\n", m.name.c_str(), Num(m.value).c_str(),
                m.unit.c_str());
  }
  for (const std::string& v : r.violations) {
    std::printf("VIOLATION %s\n", v.c_str());
  }
  std::string json = "{\"correct\": ";
  json += r.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += JsonString(metrics[i].name) + ": {\"value\": " +
            Num(metrics[i].value) + ", \"unit\": " +
            JsonString(metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

RunResult RunChecked(const RunConfig& cfg) {
  RunResult r = Workloads().at(cfg.workload)(cfg);
  if (cfg.trace) {
    CheckMetricSet(r.layers, LayerMetrics(), &r);
  } else {
    CheckMetricSet(r.e2e, ExpectedE2e(), &r);
  }
  if (r.attempted == 0) r.Violation("no ops attempted");
  return r;
}

bool SameSim(const RunResult& a, const RunResult& b, const char* what,
             const std::string& workload) {
  bool same = a.fingerprint == b.fingerprint;
  for (const Metric& m : a.e2e) {
    if (m.name.rfind("sim_", 0) == 0 && m.value != b.Find(m.name)) {
      std::printf("  %s: %s %s vs %s\n", what, m.name.c_str(),
                  Num(m.value).c_str(), Num(b.Find(m.name)).c_str());
      same = false;
    }
  }
  std::printf("%s %s: %s\n", same ? "PASS" : "FAIL", workload.c_str(), what);
  return same;
}

/// Tiny-size self-test: every workload prints each metric it owns with
/// its unit and passes its output checks; sim_* values and fingerprints
/// repeat exactly for one seed; train-parallel at host_threads 3 matches
/// a host_threads 1 replay; mutate-failover with its crash matches the
/// run without it; the traced run prints every per-layer metric.
int SelfTest() {
  bool ok = true;
  auto check = [&](bool cond, const std::string& what) {
    std::printf("%s %s\n", cond ? "PASS" : "FAIL", what.c_str());
    ok = ok && cond;
  };
  for (const auto& [name, runner] : Workloads()) {
    RunConfig cfg;
    cfg.workload = name;
    cfg.seed = 7;
    cfg.seconds = 0.2;
    cfg.setups = 1;
    cfg.setup_seconds = 0;
    cfg.tiny = true;
    const RunResult a = RunChecked(cfg);
    const RunResult b = RunChecked(cfg);
    for (const std::string& v : a.violations) std::printf("  %s\n", v.c_str());
    check(a.correct() && b.correct(),
          name + ": output checks and every end-to-end metric with its unit");
    ok = SameSim(a, b, "two runs with one seed agree", name) && ok;
    if (name == "train-parallel") {
      RunConfig serial = cfg;
      serial.host_threads = 1;
      ok = SameSim(a, RunChecked(serial), "host_threads 3 matches 1", name) &&
           ok;
    }
    if (name == "mutate-failover") {
      RunConfig no_crash = cfg;
      no_crash.no_crash = true;
      ok = SameSim(a, RunChecked(no_crash), "crash matches no crash", name) &&
           ok;
    }
    RunConfig traced = cfg;
    traced.trace = true;
    const RunResult t = RunChecked(traced);
    for (const std::string& v : t.violations) std::printf("  %s\n", v.c_str());
    check(t.correct() && t.fingerprint == a.fingerprint,
          name + ": traced run prints every per-layer metric and keeps the "
                 "fingerprint");
  }
  std::printf("self-test %s\n", ok ? "passed" : "FAILED");
  return ok ? 0 : 1;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <path>] "
               "[--host-threads <n>]\n       perfbench --self-test\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  // Pin glibc's mmap and trim thresholds at their documented defaults.
  // Left dynamic, they grow after the first large free, so how much freed
  // memory stays resident depends on allocation history (how many
  // episodes ran), and peak RSS with it.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  mallopt(M_TRIM_THRESHOLD, 128 * 1024);
  RunConfig cfg;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") return SelfTest();
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      cfg.workload = val;
      have_workload = true;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(val.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(val.c_str(), &end);
    } else if (arg == "--trace") {
      cfg.trace = std::strtol(val.c_str(), &end, 10) != 0;
    } else if (arg == "--trace-out") {
      cfg.trace_out = val;
    } else if (arg == "--host-threads") {
      cfg.host_threads =
          static_cast<uint32_t>(std::strtoul(val.c_str(), &end, 10));
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
    if (end != nullptr && (*end != '\0' || end == val.c_str())) {
      return Usage(("bad value for " + arg + ": " + val).c_str());
    }
  }
  if (!have_workload || Workloads().count(cfg.workload) == 0) {
    return Usage("--workload must be one of train-paper, train-parallel, "
                 "serve-zipf, mutate-failover");
  }
  if (!(cfg.seconds > 0)) return Usage("--seconds must be positive");
  Print(cfg, RunChecked(cfg));
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
