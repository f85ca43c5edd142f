// compile_edit / compile_warm: exec'd xpdlc compiles (end to end) and an
// in-process replay of xpdlc's --out-only path (per layer).
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "workloads.h"
#include "xpdl/cache/cache.h"
#include "xpdl/compose/compose.h"
#include "xpdl/repository/repository.h"
#include "xpdl/runtime/model.h"
#include "xpdl/util/io.h"

namespace perfbench {

namespace {

constexpr int kSetups = 7;
/// Ops per system in one block, in systems() order.
constexpr std::size_t kBlockShare[] = {1, 2, 3, 2};
constexpr std::size_t kBlockOps = 8;
/// Compiles per statistics window: two blocks, so every window has the
/// same system mix.
constexpr std::size_t kWindowOps = 2 * kBlockOps;

/// A scratch copy of models/ with its own snapshot cache, plus the
/// per-system reference artifact every later compile must reproduce.
class CompileBench {
 public:
  CompileBench(const Context& ctx, CompileMode mode, std::string tag)
      : ctx_(ctx),
        mode_(mode),
        dir_(ctx.work + "/" + tag),
        models_(dir_ + "/models"),
        cache_(dir_ + "/cache"),
        out_(dir_ + "/out"),
        rng_(ctx.seed * 0x100000001B3ULL +
             (mode == CompileMode::kEdit ? 1 : 2)) {}

  /// One set-up: fresh copy + snapshot cache, one cold compile per system.
  /// Returns its wall time in seconds; the artifacts are checked untimed.
  double setup() {
    double t0 = now_ms();
    remove_tree(dir_);
    copy_models(ctx_.root + "/models", models_);
    std::filesystem::create_directories(cache_);
    std::filesystem::create_directories(out_);
    std::vector<ExecResult> results;
    for (const std::string& s : systems()) results.push_back(exec(s, {}));
    double seconds = (now_ms() - t0) / 1e3;
    for (std::size_t i = 0; i < systems().size(); ++i) {
      const std::string& s = systems()[i];
      require(results[i].exit_code == 0,
              "set-up compile of " + s + " failed: " + read_stderr());
      std::string bytes = read_file(out_path(s));
      if (auto it = reference_.find(s); it != reference_.end()) {
        require(bytes == it->second,
                "set-up artifact of " + s + " differs from the first set-up");
      } else {
        std::string why = check_artifact(bytes, ctx_.oracle.at(s));
        require(why.empty(), "set-up artifact of " + s + ": " + why);
        reference_[s] = std::move(bytes);
      }
    }
    descriptors_.clear();
    for (const std::string& file : list_descriptors(models_)) {
      descriptors_.emplace_back(file, read_file(file));
    }
    return seconds;
  }

  /// Checks composed-element and id counts in-process (a warm hit replays
  /// them from the artifact snapshot). Untimed; dies on a mismatch.
  void check_counts() {
    for (const std::string& s : systems()) {
      xpdl::repository::Repository repo({models_});
      auto report = repo.scan(scan_options());
      require_ok(report, "scan of " + models_);
      xpdl::compose::Composer composer(repo);
      auto artifact = composer.compose_runtime(s);
      require_ok(artifact, "compose_runtime(" + s + ")");
      const Expected& x = ctx_.oracle.at(s);
      require(artifact->element_count == x.elements,
              s + ": " + std::to_string(artifact->element_count) +
                  " composed elements, expected " + std::to_string(x.elements));
      require(artifact->id_count == x.ids,
              s + ": " + std::to_string(artifact->id_count) +
                  " ids, expected " + std::to_string(x.ids));
      require(artifact->bytes == reference_.at(s),
              s + ": in-process artifact differs from xpdlc's");
    }
  }

  /// Seeded order within blocks of eight ops that hold odroid_board once,
  /// myriad_server twice, liu_gpu_server three times and XScluster twice.
  /// The fixed shares keep each quantile inside one system's spread
  /// (p50 in liu_gpu_server, p90 and p99 in XScluster) whatever the seed.
  std::string next_system() {
    if (block_.empty()) {
      for (std::size_t i = 0; i < systems().size(); ++i) {
        block_.insert(block_.end(), kBlockShare[i], systems()[i]);
      }
      rng_.shuffle(block_);
    }
    std::string system = block_.back();
    block_.pop_back();
    return system;
  }

  /// compile_edit: rewrites a seeded descriptor as its original bytes
  /// plus one seeded comment of fixed length. Comments do not pile up, so
  /// file sizes (and which files pass the snapshot cache's size threshold)
  /// stay the same for the whole run, whatever the seed.
  void maybe_edit() {
    if (mode_ != CompileMode::kEdit) return;
    const auto& [file, original] =
        descriptors_[rng_.below(descriptors_.size())];
    char comment[96];
    std::snprintf(comment, sizeof comment,
                  "<!-- perfbench edit %020llu %016llx -->\n",
                  static_cast<unsigned long long>(edits_++),
                  static_cast<unsigned long long>(rng_.next()));
    write_file(file, original + comment);
  }

  ExecResult exec(const std::string& system,
                  const std::vector<std::string>& extra_env) {
    return run_child({ctx_.xpdlc, "--repo", models_, "--model", system,
                      "--out", out_path(system), "--cache-dir", cache_,
                      "--quiet"},
                     dir_ + "/xpdlc.stderr", extra_env);
  }

  /// compile_edit: drops the composed-model and runtime snapshots, which
  /// the next edit makes unreachable (their keys include the repository
  /// digest), so the cache holds what a developer's would. Untimed.
  void drop_stale_snapshots() {
    if (mode_ != CompileMode::kEdit) return;
    for (const auto& entry : std::filesystem::directory_iterator(cache_)) {
      char kind = entry.path().filename().string()[0];
      if (kind == 'm' || kind == 'r') std::filesystem::remove(entry.path());
    }
  }

  /// Empty when the last exec'd compile of `system` wrote the reference
  /// artifact, else why not.
  std::string verify_output(const std::string& system, const ExecResult& r) {
    if (r.exit_code != 0) {
      return "xpdlc exited " + std::to_string(r.exit_code) + ": " +
             read_stderr();
    }
    if (read_file(out_path(system)) != reference_.at(system)) {
      return "artifact of " + system + " differs from the run's reference";
    }
    return {};
  }

  std::string verify_bytes(const std::string& system, const std::string& b) {
    return b == reference_.at(system)
               ? std::string()
               : "in-process artifact of " + system + " differs";
  }

  [[nodiscard]] xpdl::repository::ScanOptions scan_options() const {
    xpdl::repository::ScanOptions o;
    o.cache.enabled = true;
    o.cache.directory = cache_;
    return o;
  }

  [[nodiscard]] std::string out_path(const std::string& system) const {
    return out_ + "/" + system + ".xpdlrt";
  }
  [[nodiscard]] const std::string& models() const { return models_; }
  [[nodiscard]] const std::string& dir() const { return dir_; }

  std::string read_stderr() {
    std::string text = read_file(dir_ + "/xpdlc.stderr");
    while (!text.empty() && text.back() == '\n') text.pop_back();
    return text;
  }

 private:
  const Context& ctx_;
  CompileMode mode_;
  std::string dir_;
  std::string models_;
  std::string cache_;
  std::string out_;
  Rng rng_;
  /// (path, original bytes) of every descriptor in the copy.
  std::vector<std::pair<std::string, std::string>> descriptors_;
  std::vector<std::string> block_;
  std::uint64_t edits_ = 0;
  std::map<std::string, std::string> reference_;
};

const char* mode_name(CompileMode mode) {
  return mode == CompileMode::kEdit ? "compile_edit" : "compile_warm";
}

/// One in-process replay of xpdlc's --out-only path with a clock around
/// every layer call. Edit mode splits Composer::compose_runtime's miss
/// path into its layers (compose without analysis, the static analyses,
/// runtime build, serialize, artifact store); warm mode times the
/// compose_runtime hit.
struct Replay {
  std::string bytes;
  std::string error;
  double total_ms = 0.0;
  double layer_sum_ms = 0.0;
};

Replay traced_replay(CompileBench& bench, const std::string& system,
                     CompileMode mode, const std::string& store_dir,
                     std::uint64_t store_key, Samples& out) {
  Replay r;
  auto timed = [&](const char* layer, auto&& fn) {
    double t0 = now_ms();
    fn();
    double ms = now_ms() - t0;
    out.add(layer, ms);
    r.layer_sum_ms += ms;
  };
  double t_start = now_ms();
  xpdl::repository::Repository repo({bench.models()});
  xpdl::Result<xpdl::repository::ScanReport> report =
      xpdl::Status(xpdl::ErrorCode::kInternal, "not scanned");
  timed("repository.scan_ms",
        [&] { report = repo.scan(bench.scan_options()); });
  if (!report.is_ok()) {
    r.error = "scan: " + report.status().to_string();
    return r;
  }
  std::size_t lookups = report->cache_hits + report->cache_misses;
  out.add("repository.descriptors_parsed",
          static_cast<double>(report->cache_misses));
  out.add("cache.descriptor_lookups", static_cast<double>(lookups));
  if (lookups > 0) {
    out.add("cache.descriptor_hit_ratio",
            static_cast<double>(report->cache_hits) /
                static_cast<double>(lookups));
  }
  if (mode == CompileMode::kWarm) {
    xpdl::compose::Composer composer(repo);
    xpdl::Result<xpdl::compose::RuntimeArtifact> artifact =
        xpdl::Status(xpdl::ErrorCode::kInternal, "not composed");
    timed("cache.artifact_load_ms",
          [&] { artifact = composer.compose_runtime(system); });
    if (!artifact.is_ok()) {
      r.error = "compose_runtime: " + artifact.status().to_string();
      return r;
    }
    if (!artifact->cache_hit) {
      r.error = "warm compose_runtime of " + system + " missed the cache";
      return r;
    }
    r.bytes = std::move(artifact->bytes);
  } else {
    xpdl::compose::Options no_analysis;
    no_analysis.run_static_analysis = false;
    xpdl::compose::Composer composer(repo, no_analysis);
    xpdl::Result<xpdl::compose::ComposedModel> composed =
        xpdl::Status(xpdl::ErrorCode::kInternal, "not composed");
    timed("compose.compose_ms", [&] { composed = composer.compose(system); });
    if (!composed.is_ok()) {
      r.error = "compose: " + composed.status().to_string();
      return r;
    }
    std::vector<std::string> warnings = composed->warnings();
    xpdl::Status analysed;
    timed("compose.static_analysis_ms", [&] {
      analysed = xpdl::compose::run_static_analyses(*composed, warnings);
    });
    if (!analysed.is_ok()) {
      r.error = "static analysis: " + analysed.to_string();
      return r;
    }
    out.add("compose.elements",
            static_cast<double>(composed->root().subtree_size()));
    xpdl::Result<xpdl::runtime::Model> model =
        xpdl::Status(xpdl::ErrorCode::kInternal, "not built");
    timed("runtime.build_ms",
          [&] { model = xpdl::runtime::Model::from_composed(*composed); });
    if (!model.is_ok()) {
      r.error = "runtime build: " + model.status().to_string();
      return r;
    }
    out.add("runtime.nodes", static_cast<double>(model->node_count()));
    timed("runtime.serialize_ms", [&] { r.bytes = model->serialize(); });
    out.add("runtime.artifact_bytes", static_cast<double>(r.bytes.size()));
    // The same blob xpdlc stores, in a store of the benchmark's own: the
    // key Composer derives is private, and after an edit it is fresh
    // anyway, so this costs what the real store costs.
    xpdl::cache::Options store_options;
    store_options.directory = store_dir;
    xpdl::cache::SnapshotCache store(store_dir, store_options);
    xpdl::cache::BlobSnapshot blob;
    blob.bytes = r.bytes;
    blob.warnings = warnings;
    blob.stats = {composed->root().subtree_size(), composed->ids().size(),
                  model->node_count()};
    timed("cache.artifact_store_ms", [&] {
      store.store_blob(xpdl::cache::Kind::kRuntime, store_key, blob);
    });
  }
  xpdl::Status written;
  timed("io.write_ms", [&] {
    written = xpdl::io::write_file(bench.out_path(system), r.bytes);
  });
  if (!written.is_ok()) r.error = "write: " + written.to_string();
  r.total_ms = now_ms() - t_start;
  return r;
}

/// The same path without per-layer clocks: one timer around
/// scan + compose_runtime + write. Returns the wall time, or a negative
/// value on failure.
double untraced_replay(CompileBench& bench, const std::string& system) {
  double t0 = now_ms();
  xpdl::repository::Repository repo({bench.models()});
  auto report = repo.scan(bench.scan_options());
  if (!report.is_ok()) return -1.0;
  xpdl::compose::Composer composer(repo);
  auto artifact = composer.compose_runtime(system);
  if (!artifact.is_ok()) return -1.0;
  if (!xpdl::io::write_file(bench.out_path(system), artifact->bytes).is_ok()) {
    return -1.0;
  }
  double ms = now_ms() - t0;
  return bench.verify_bytes(system, artifact->bytes).empty() ? ms : -1.0;
}

void record_failure(Report& report, Outcome& outcome, const std::string& why) {
  ++outcome.failed;
  if (outcome.failed <= 5) report.text("FAILED op: " + why);
}

}  // namespace

Outcome run_compile(const Context& ctx, CompileMode mode, Report& report) {
  CompileBench bench(ctx, mode, mode_name(mode));
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) setups.push_back(bench.setup());
  bench.check_counts();

  Outcome outcome;
  std::vector<double> wall;
  std::map<std::string, std::vector<double>> by_system;
  double peak_rss = 0.0;
  HostSteal steal;
  double deadline = now_ms() + ctx.seconds * 1e3;
  while (now_ms() < deadline) {
    const std::string system = bench.next_system();
    bench.maybe_edit();
    std::vector<std::string> env;
    if (!ctx.inject_fault.empty() && outcome.attempted == 2) {
      env.push_back("XPDL_FAULTS=" + ctx.inject_fault);
    }
    ExecResult r = bench.exec(system, env);
    ++outcome.attempted;
    std::string why = bench.verify_output(system, r);
    bench.drop_stale_snapshots();
    if (!why.empty()) {
      record_failure(report, outcome, why);
      continue;
    }
    wall.push_back(r.wall_ms);
    by_system[system].push_back(r.wall_ms);
    peak_rss = std::max(peak_rss, r.peak_rss_mb);
  }
  const double steal_percent = steal.percent();
  require(!wall.empty(), "no compile succeeded");
  remove_tree(bench.dir());

  // Compiles run back to back, so an op ends when the compile time so far
  // has elapsed (the untimed checks between them do not count).
  std::vector<double> ends;
  double elapsed = 0.0;
  for (double ms : wall) ends.push_back(elapsed += ms);
  const RunFigures f = run_figures(wall, ends, kWindowOps);
  report.metric("setup_s", median(setups), "s", setups.size());
  report.metric("latency_ms_p50", f.p50, "ms", wall.size());
  report.metric("latency_ms_p90", f.p90, "ms", wall.size());
  report.metric("throughput_per_s", f.rate, "1/s", wall.size());
  report.metric("peak_rss_mb", peak_rss, "MB", wall.size());
  report.note("windows", static_cast<double>(f.windows), "count", wall.size());
  report.note("host steal during measurement", steal_percent, "%", 1);
  report.note("compile_ms_p50", f.p50, "ms", wall.size());
  report.note("compile_ms_p90", f.p90, "ms", wall.size());
  report.note("latency_ms_p99 (whole run)", quantile(wall, 0.99), "ms",
              wall.size());
  for (const std::string& s : systems()) {
    report.note("compile_ms_p50." + s, median(by_system[s]), "ms",
                by_system[s].size());
  }
  report.note("error_rate",
              static_cast<double>(outcome.failed) /
                  static_cast<double>(outcome.attempted),
              "ratio", outcome.attempted);
  return outcome;
}

Outcome trace_compile(const Context& ctx, CompileMode mode, double seconds,
                      Samples& layers, Report& report) {
  CompileBench bench(ctx, mode, std::string("trace_") + mode_name(mode));
  bench.setup();
  bench.check_counts();
  const std::string store_dir = bench.dir() + "/trace_store";
  std::uint64_t store_key = 1;

  // Layers off this workload's own path are sampled once per system in
  // set-up, so every per-layer metric exists on every run: the warm hit
  // (artifact load) on the primed copy, and the full miss path on a
  // second copy edited out of the way.
  Samples aux;
  for (const std::string& s : systems()) {
    Replay r = traced_replay(bench, s, CompileMode::kWarm, store_dir,
                             store_key++, aux);
    require(r.error.empty(), "set-up warm replay: " + r.error);
    require(bench.verify_bytes(s, r.bytes).empty(),
            "set-up warm replay of " + s + " differs");
  }
  {
    CompileBench side(ctx, CompileMode::kEdit,
                      std::string("trace_side_") + mode_name(mode));
    side.setup();
    for (const std::string& s : systems()) {
      side.maybe_edit();
      Replay r = traced_replay(side, s, CompileMode::kEdit, store_dir,
                               store_key++, aux);
      require(r.error.empty(), "set-up edit replay: " + r.error);
      require(side.verify_bytes(s, r.bytes).empty(),
              "set-up edit replay of " + s + " differs from xpdlc's artifact");
    }
    remove_tree(side.dir());
  }

  Outcome outcome;
  Samples own;
  std::map<std::string, std::vector<double>> e2e_by_system;
  std::vector<double> e2e, traced, untraced, unattributed;
  double deadline = now_ms() + seconds * 1e3;
  // At least one whole block, so every system has an end-to-end sample.
  for (std::size_t i = 0; now_ms() < deadline || i < kBlockOps; ++i) {
    const std::string system = bench.next_system();
    // 1. the exec'd compile, untraced: the end-to-end sample
    bench.maybe_edit();
    ExecResult x = bench.exec(system, {});
    ++outcome.attempted;
    if (std::string why = bench.verify_output(system, x); !why.empty()) {
      record_failure(report, outcome, why);
      continue;
    }
    // 2. the same path in-process without layer clocks, and 3. with a
    // clock around every layer; the two swap places every op so neither
    // always runs right after the exec'd compile.
    double u = -1.0;
    Samples op;
    Replay r;
    for (int step = 0; step < 2; ++step) {
      bench.maybe_edit();
      if ((step == 0) == (i % 2 == 0)) {
        u = untraced_replay(bench, system);
      } else {
        r = traced_replay(bench, system, mode, store_dir, store_key++, op);
        if (r.error.empty()) r.error = bench.verify_bytes(system, r.bytes);
      }
    }
    outcome.attempted += 2;
    if (u < 0) record_failure(report, outcome, "untraced replay of " + system);
    if (!r.error.empty()) record_failure(report, outcome, r.error);
    if (u < 0 || !r.error.empty()) continue;
    bench.drop_stale_snapshots();
    remove_tree(store_dir);
    own.append(op);
    e2e.push_back(x.wall_ms);
    e2e_by_system[system].push_back(x.wall_ms);
    untraced.push_back(u);
    traced.push_back(r.total_ms);
    unattributed.push_back(x.wall_ms - r.layer_sum_ms);
  }
  require(!e2e.empty(), "no traced compile succeeded");
  remove_tree(bench.dir());

  for (const std::string& s : systems()) {
    const auto& v = e2e_by_system[s];
    require(!v.empty(), "no traced compile of " + s);
    for (double ms : v) layers.add("xpdlc.compile_ms_p50." + s, ms);
  }
  for (double ms : unattributed) layers.add("tools.unattributed_ms", ms);
  // The workload's own samples win; set-up samples fill the layers the
  // workload never reaches.
  for (const char* name :
       {"repository.scan_ms", "repository.descriptors_parsed",
        "cache.descriptor_hit_ratio", "cache.descriptor_lookups",
        "cache.artifact_load_ms", "cache.artifact_store_ms",
        "compose.compose_ms", "compose.static_analysis_ms", "compose.elements",
        "runtime.build_ms", "runtime.serialize_ms", "runtime.nodes",
        "runtime.artifact_bytes", "io.write_ms"}) {
    const Samples& from = own.count(name) > 0 ? own : aux;
    require(from.count(name) > 0, std::string("no samples for ") + name);
    for (double v : *from.find(name)) layers.add(name, v);
  }
  double overhead = median(traced) - median(untraced);
  layers.add("trace.overhead_ms", overhead);
  report.note("compile_ms_p50 (exec'd, untraced)", median(e2e), "ms",
              e2e.size());
  report.note("in-process op, untraced", median(untraced), "ms",
              untraced.size());
  report.note("in-process op, traced", median(traced), "ms", traced.size());
  report.note("tracing overhead (traced - untraced)", overhead, "ms",
              traced.size());
  return outcome;
}

}  // namespace perfbench
