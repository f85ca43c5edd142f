// perfbench -- the repository benchmark runner.
//
//   perfbench --workload compile_edit|compile_warm|serve --seed N
//             --seconds S --trace 0|1 --root DIR --xpdlc PATH --work DIR
//             --expected DIR [--inject-fault SPEC]
//
// --trace 0 measures the end-to-end metrics, --trace 1 the per-layer
// metrics (see workloads.h). Every metric is printed as a line with its
// unit and sample count; the last line of stdout is the JSON result
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status: 0 when every op was correct, 1 otherwise (including any
// set-up or verification failure, which prints no result).
#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "common.h"
#include "workloads.h"

namespace {

using perfbench::die;
using perfbench::require;

/// Every per-layer metric, with its unit. A traced run of any workload
/// prints all of them (see trace_all()).
struct LayerMetric {
  std::string name;
  std::string unit;
};

std::vector<LayerMetric> layer_metrics() {
  std::vector<LayerMetric> out = {
      {"xpdlc.compile_ms_p50.odroid_board", "ms"},
      {"xpdlc.compile_ms_p50.myriad_server", "ms"},
      {"xpdlc.compile_ms_p50.liu_gpu_server", "ms"},
      {"xpdlc.compile_ms_p50.XScluster", "ms"},
      {"tools.unattributed_ms", "ms"},
      {"repository.scan_ms", "ms"},
      {"repository.descriptors_parsed", "count"},
      {"cache.descriptor_hit_ratio", "ratio"},
      {"cache.descriptor_lookups", "count"},
      {"cache.artifact_load_ms", "ms"},
      {"cache.artifact_store_ms", "ms"},
      {"compose.compose_ms", "ms"},
      {"compose.static_analysis_ms", "ms"},
      {"compose.elements", "count"},
      {"runtime.build_ms", "ms"},
      {"runtime.serialize_ms", "ms"},
      {"runtime.nodes", "count"},
      {"runtime.artifact_bytes", "bytes"},
      {"io.write_ms", "ms"},
  };
  for (const char* prefix : {"net.request_ms.", "net.transport_ms.",
                             "net.response_bytes.", "service.handle_ms."}) {
    for (const char* cls :
         {"descriptor_304", "descriptor_200", "model", "query", "optimize"}) {
      const std::string name = std::string(prefix) + cls;
      out.push_back(
          {name, name.rfind("net.response_bytes.", 0) == 0 ? "bytes" : "ms"});
    }
  }
  out.insert(out.end(), {
                            {"net.failed", "count"},
                            {"runtime.deserialize_ms", "ms"},
                            {"query.select_ms", "ms"},
                            {"opt.compile_ms", "ms"},
                            {"opt.solve_ms", "ms"},
                            {"opt.nodes", "count"},
                            {"trace.overhead_ms", "ms"},
                        });
  return out;
}

/// Traced run: the workload's own family for 3/4 of the time, the other
/// family for the rest, so every per-layer metric exists on every
/// workload. The workload's own samples win where both measure a name.
perfbench::Outcome trace_all(const perfbench::Context& ctx,
                             const std::string& workload,
                             perfbench::Report& report) {
  perfbench::Samples own, companion;
  perfbench::Outcome outcome;
  const double main_s = ctx.seconds * 0.75;
  const double side_s = std::max(1.0, ctx.seconds * 0.25);
  if (workload == "serve") {
    outcome.add(perfbench::trace_serve(ctx, main_s, own, report));
    outcome.add(perfbench::trace_compile(ctx, perfbench::CompileMode::kEdit,
                                         side_s, companion, report));
  } else {
    auto mode = workload == "compile_edit" ? perfbench::CompileMode::kEdit
                                           : perfbench::CompileMode::kWarm;
    outcome.add(perfbench::trace_compile(ctx, mode, main_s, own, report));
    outcome.add(perfbench::trace_serve(ctx, side_s, companion, report));
  }
  for (const LayerMetric& m : layer_metrics()) {
    const perfbench::Samples& from = own.count(m.name) > 0 ? own : companion;
    const std::vector<double>* v = from.find(m.name);
    require(v != nullptr && !v->empty(),
            "traced run produced no samples for " + m.name);
    double value = m.name == "net.failed" ? (*v)[0] : perfbench::median(*v);
    report.metric(m.name, value, m.unit, v->size());
  }
  report.note("error_rate",
              static_cast<double>(outcome.failed) /
                  static_cast<double>(outcome.attempted),
              "ratio", outcome.attempted);
  return outcome;
}

std::uint64_t parse_u64(const char* flag, const char* text) {
  char* end = nullptr;
  unsigned long long v = std::strtoull(text, &end, 10);
  if (text[0] < '0' || text[0] > '9' || *end != '\0') {
    die(std::string("bad value for ") + flag + ": '" + text + "'");
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Context ctx;
  std::string workload;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (i + 1 >= argc) die("missing value for " + a);
    const char* v = argv[++i];
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      ctx.seed = parse_u64("--seed", v);
    } else if (a == "--seconds") {
      ctx.seconds = static_cast<double>(parse_u64("--seconds", v));
    } else if (a == "--trace") {
      trace = static_cast<int>(parse_u64("--trace", v));
    } else if (a == "--root") {
      ctx.root = v;
    } else if (a == "--xpdlc") {
      ctx.xpdlc = v;
    } else if (a == "--work") {
      ctx.work = v;
    } else if (a == "--expected") {
      ctx.expected_dir = v;
    } else if (a == "--inject-fault") {
      ctx.inject_fault = v;
    } else {
      die("unknown option " + a);
    }
  }
  require(workload == "compile_edit" || workload == "compile_warm" ||
              workload == "serve",
          "--workload must be compile_edit, compile_warm or serve");
  require(trace == 0 || trace == 1, "--trace must be 0 or 1");
  require(ctx.seconds >= 1, "--seconds must be at least 1");
  require(!ctx.root.empty() && !ctx.xpdlc.empty() && !ctx.work.empty() &&
              !ctx.expected_dir.empty(),
          "--root, --xpdlc, --work and --expected are required");
  require(std::filesystem::is_directory(ctx.root + "/models"),
          "no models/ under " + ctx.root);
  // The programs must only ever see the generated inputs: no inherited
  // cache, fault, job or tracing settings, here or in the children.
  for (const char* var : {"XPDL_FAULTS", "XPDL_NO_CACHE", "XPDL_CACHE_DIR",
                          "XPDL_JOBS", "XPDL_STATS", "XPDL_TRACE"}) {
    unsetenv(var);
  }
  for (const std::string& s : perfbench::systems()) {
    ctx.oracle[s] = perfbench::load_expected(ctx.expected_dir, s);
  }
  std::filesystem::create_directories(ctx.work);

  perfbench::Report report(workload);
  report.text("seed " + std::to_string(ctx.seed) + ", " +
              std::to_string(static_cast<int>(ctx.seconds)) + " s, trace " +
              std::to_string(trace));
  perfbench::Outcome outcome;
  if (trace == 1) {
    outcome = trace_all(ctx, workload, report);
  } else if (workload == "serve") {
    outcome = perfbench::run_serve(ctx, report);
  } else {
    outcome = perfbench::run_compile(
        ctx,
        workload == "compile_edit" ? perfbench::CompileMode::kEdit
                                   : perfbench::CompileMode::kWarm,
        report);
  }
  perfbench::remove_tree(ctx.work);
  const bool correct = outcome.failed == 0;
  report.finish(correct, outcome.attempted, outcome.failed);
  return correct ? 0 : 1;
}
