// Shared plumbing of the repository benchmark: clocks, the seeded PRNG,
// sample statistics, the metric report, the hand-written oracle and a
// small JSON reader for checking service responses.
//
// Nothing here calls into the code under test except where a function
// says so: the oracle files and the JSON reader are the benchmark's own,
// so a bug in the XPDL parsers cannot also corrupt the expected answers.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Prints `perfbench: error: <msg>` and exits 1. Setup and verification
/// failures end the run through here in every build type (no assert()).
[[noreturn]] void die(const std::string& msg);

/// die() unless `ok`.
inline void require(bool ok, const std::string& what) {
  if (!ok) die(what);
}

/// die() with `what` and the error unless `result` (a Result<T>) holds a
/// value.
template <typename R>
void require_ok(const R& result, const std::string& what) {
  if (!result.is_ok()) die(what + ": " + result.status().to_string());
}

/// Monotonic wall clock in milliseconds.
[[nodiscard]] double now_ms();

/// splitmix64: the workload generator. Same seed, same inputs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n).
  std::size_t below(std::size_t n) { return n == 0 ? 0 : next() % n; }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }

 private:
  std::uint64_t state_;
};

/// Quantile with linear interpolation between order statistics
/// (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(const std::vector<double>& v) {
  return quantile(v, 0.5);
}

/// Whole-run figures of one workload, taken over windows of the run.
struct RunFigures {
  double p50 = 0.0;   ///< ms
  double p90 = 0.0;   ///< ms
  double rate = 0.0;  ///< ops per second
  std::size_t windows = 0;
};

/// Splits ops (latency and completion time, in completion order) into
/// consecutive windows of `window` ops and takes each figure from the
/// quiet windows: the 10th percentile over windows of each window's p50
/// and p90, and the 90th percentile of the per-window rates. Interference
/// from other tenants of the host (preempted vCPUs, slow wake-ups) only
/// ever adds time and comes and goes within seconds, so the quiet windows
/// are the stable estimate of the program's own cost. A run too short for
/// four windows is one window.
[[nodiscard]] RunFigures run_figures(const std::vector<double>& latency_ms,
                                     const std::vector<double>& end_ms,
                                     std::size_t window);

/// Named samples, keyed by name.
class Samples {
 public:
  void add(const std::string& name, double value);
  void append(const Samples& other);
  [[nodiscard]] const std::vector<double>* find(const std::string& name) const;
  [[nodiscard]] std::size_t count(const std::string& name) const;

 private:
  std::map<std::string, std::vector<double>> values_;
};

/// One number of the JSON result.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The run's output: human-readable lines (every metric with its unit and
/// sample count) and the final one-line JSON result.
class Report {
 public:
  explicit Report(std::string workload) : workload_(std::move(workload)) {}
  /// A metric of the final JSON line (also printed as a line).
  void metric(const std::string& name, double value, const std::string& unit,
              std::size_t samples);
  /// A line for people only (not part of the JSON result).
  void note(const std::string& name, double value, const std::string& unit,
            std::size_t samples, const std::string& comment = {});
  void text(const std::string& line);
  /// Prints the JSON result as the last line of stdout.
  void finish(bool correct, std::uint64_t attempted, std::uint64_t failed);

 private:
  std::string workload_;
  std::vector<Metric> metrics_;
};

/// The four shipped systems, smallest composed model first.
inline const std::vector<std::string>& systems() {
  static const std::vector<std::string> kSystems = {
      "odroid_board", "myriad_server", "liu_gpu_server", "XScluster"};
  return kSystems;
}

/// Expected answers for one system, read from perfbench/expected/.
struct Expected {
  std::string system;
  std::size_t elements = 0;
  std::size_t ids = 0;
  std::size_t nodes = 0;
  std::size_t cores = 0;
  std::size_t devices = 0;
  std::size_t cuda_devices = 0;
  double static_power_w = 0.0;
  /// query string -> result count (the fixed query list).
  std::vector<std::pair<std::string, std::size_t>> queries;
  /// Minimum-energy plan at 1e9 cycles, no deadline: totals and the
  /// multiset of chosen states (state name -> number of domains).
  double energy_j = 0.0;
  double energy_time_s = 0.0;
  std::size_t domains = 0;
  std::map<std::string, std::size_t> energy_states;
  /// Minimum makespan at 1e9 cycles.
  double makespan_s = 0.0;
  /// Energy/makespan Pareto front at 1e9 cycles ((energy, time) points in
  /// increasing energy); empty when the front is not part of the workload.
  std::vector<std::pair<double, double>> pareto;
};

/// Loads expected/<system>.txt from `dir`; dies on any malformed line.
[[nodiscard]] Expected load_expected(const std::string& dir,
                                     const std::string& system);

/// |a - b| within a relative tolerance of 1e-6 (plus a tiny absolute one).
[[nodiscard]] bool close(double a, double b);

/// Checks a serialized runtime artifact against the oracle by loading it
/// with the runtime library. Returns an empty string when it matches, else
/// a description of the first mismatch.
[[nodiscard]] std::string check_artifact(const std::string& bytes,
                                         const Expected& expected);

/// A minimal JSON value for reading service responses.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;
  [[nodiscard]] const JsonValue* get(std::string_view key) const;
};

/// Parses `text`; returns false on malformed input.
[[nodiscard]] bool parse_json(std::string_view text, JsonValue& out);

// --- files and processes --------------------------------------------------

[[nodiscard]] std::string read_file(const std::string& path);
void write_file(const std::string& path, std::string_view bytes);
/// Copies the *.xpdl tree under `from` to `to` (replacing `to`), leaving
/// out snapshot-cache directories.
void copy_models(const std::string& from, const std::string& to);
/// Every *.xpdl file under `dir`, sorted.
[[nodiscard]] std::vector<std::string> list_descriptors(const std::string& dir);
void remove_tree(const std::string& path);

/// One exec'd child: wall time, exit status, peak RSS.
struct ExecResult {
  double wall_ms = 0.0;
  int exit_code = -1;  ///< -1 when killed by a signal
  double peak_rss_mb = 0.0;
};

/// Spawns `argv` with stdout to /dev/null and stderr to `stderr_path`,
/// waits for it with wait4(2) and returns its figures. `extra_env` entries
/// ("NAME=value") are added to an environment from which every XPDL_*
/// variable has been removed.
[[nodiscard]] ExecResult run_child(const std::vector<std::string>& argv,
                                   const std::string& stderr_path,
                                   const std::vector<std::string>& extra_env);

/// CPU time the hypervisor gave to other guests, as a share of all CPU
/// time since construction (from /proc/stat; 0 where unavailable).
/// Printed next to the figures so a disturbed run can be recognised.
class HostSteal {
 public:
  HostSteal() { read(total_, steal_); }
  [[nodiscard]] double percent() const;

 private:
  static void read(std::uint64_t& total, std::uint64_t& steal);
  std::uint64_t total_ = 0;
  std::uint64_t steal_ = 0;
};

/// This process's peak RSS in MB.
[[nodiscard]] double self_peak_rss_mb();

}  // namespace perfbench
