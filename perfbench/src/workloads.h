// The benchmark's workloads. Each definition records why it was chosen
// and which end-to-end metric a change to each layer should move, so a
// performance change can be stated as "moves X on W, no change on V".
//
// End-to-end metrics (untraced runs; every workload reports all of them):
//   setup_s           median of seven set-ups in the run
//   latency_ms_p50    one exec'd compile (compile_*) / one request (serve)
//   latency_ms_p90
//   throughput_per_s  compiles per second of compile time / requests per
//                     second of load time with 2 concurrent clients
//   peak_rss_mb       the xpdlc child's peak RSS from wait4 (compile_*) /
//                     this process's peak RSS (serve)
// Latency and throughput come from the quiet windows of the run (see
// run_figures() in common.h), because the host's other tenants add delay
// that comes and goes within seconds.
// latency_ms_p99 is printed but not part of the result: on compile_edit a
// 20 s run leaves fewer than ten samples beyond it, and on compile_warm it
// follows the host's scheduling stalls (quartile spread ~0.2 across runs).
// The human-readable lines also print the per-workload names
// (compile_ms_p50, compile_ms_p90, request_ms_p50, request_ms_p99,
// requests_per_s) and error_rate = failed / attempted ops, where a
// non-zero exit, a 5xx, a shed, a connection error and a wrong answer all
// count as failed.
//
// ---------------------------------------------------------------------------
// compile_edit
//   Each op appends a seeded XML comment to one seeded-chosen descriptor
//   in a scratch copy of models/ (to its original bytes, so comments do
//   not accumulate and file sizes stay fixed), then execs
//     xpdlc --repo <copy> --model <system> --out <file> --cache-dir <dir>
//           --quiet
//   over the four shipped systems (67 to 22,737 composed elements), in
//   seeded order within blocks of eight that hold odroid_board once,
//   myriad_server twice, liu_gpu_server three times and XScluster twice,
//   so p50 falls inside liu_gpu_server and p90/p99 inside XScluster.
//   Why: the compile that follows an edit. Descriptor snapshots mostly
//   hit, but the repository digest changes, so composition, static
//   analysis, runtime build, serialization and the durable artifact
//   snapshot store all run. XScluster sets the tail; process start
//   dominates the small systems. The comment leaves the output unchanged,
//   so every artifact is checked against the oracle.
//   Predictions:
//     repository.scan_ms            -> latency_ms_p50 (also compile_warm)
//     cache.descriptor_hit_ratio    -> latency_ms_p50
//     cache.artifact_store_ms       -> latency_ms_p90
//     compose.compose_ms            -> latency_ms_p90
//     compose.static_analysis_ms    -> latency_ms_p90
//     runtime.build_ms              -> latency_ms_p90
//     runtime.serialize_ms          -> latency_ms_p90
//     io.write_ms                   -> latency_ms_p50 (also compile_warm)
//
// compile_warm
//   The same invocation with no edit, so the artifact blob hits.
//   Why: the repeat compile build scripts run. The main workload for the
//   scan, snapshot reads, the file write and process start. It bypasses
//   compose, runtime build and serialize entirely: a compose-side change
//   predicts no change here.
//   Predictions:
//     repository.scan_ms            -> latency_ms_p50
//     cache.artifact_load_ms        -> latency_ms_p50
//     io.write_ms                   -> latency_ms_p50
//     tools.unattributed_ms         -> latency_ms_p50 (process start,
//                                      static init, output)
//     compose.* / runtime.build_ms / runtime.serialize_ms -> no change
//
// serve
//   An in-process net::HttpServer (2 workers) + net::RepoService over
//   loopback TCP, driven by 2 closed-loop client threads (one connection
//   per request, like the shipped transport). Set-up composes every ref
//   and compiles every opt::Engine, so no timed request composes. The
//   seeded mix, in blocks of 80 requests:
//     45 % GET /v1/descriptors/<name> with the current ETag  -> 304
//     10 % the same without an ETag                          -> 200
//     15 % GET /v1/models/<ref>       (6 KB to 1.44 MB bodies)
//     15 % GET /v1/query              fixed query list, four systems
//     15 % POST /v1/optimize/<ref>    energy, makespan or Pareto with
//                                     seeded cycles and deadline
//   Why: the only workload for net, query and opt, and for reading the
//   runtime format (every /v1/query deserializes the whole artifact).
//   Model, query and optimize requests share one service mutex, which
//   only shows with more than one connection. The runtime format is
//   written on compile_edit and read here, so a format change that trades
//   one cost for the other shows on both sides.
//   Predictions:
//     net.request_ms.<class>        -> latency_ms_p50
//     net.transport_ms.<class>      -> latency_ms_p50, throughput_per_s
//     service.handle_ms.<class>     -> latency_ms_p90 (request_ms_p99),
//                                      throughput_per_s
//     runtime.deserialize_ms        -> latency_ms_p90 (request_ms_p99)
//     query.select_ms               -> latency_ms_p90 (request_ms_p99)
//     opt.compile_ms, opt.solve_ms  -> latency_ms_p90 (request_ms_p99)
//     net.failed                    -> failed / error_rate
// ---------------------------------------------------------------------------
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common.h"

namespace perfbench {

/// Everything a workload needs to know about its run.
struct Context {
  std::string root;          ///< checkout root (holds models/)
  std::string xpdlc;         ///< the built xpdlc binary
  std::string work;          ///< scratch directory, removed afterwards
  std::string expected_dir;  ///< perfbench/expected
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Self-check only: XPDL_FAULTS plan for exactly one exec'd compile.
  std::string inject_fault;
  std::map<std::string, Expected> oracle;
};

/// Op accounting for error_rate.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void add(const Outcome& o) {
    attempted += o.attempted;
    failed += o.failed;
  }
};

enum class CompileMode { kEdit, kWarm };

/// Untraced compile workload: end-to-end metrics.
Outcome run_compile(const Context& ctx, CompileMode mode, Report& report);

/// Traced compile workload: per-layer samples of xpdlc's --out path
/// replayed in-process, plus the exec'd end-to-end samples they are
/// attributed against. Runs for `seconds`.
Outcome trace_compile(const Context& ctx, CompileMode mode, double seconds,
                      Samples& layers, Report& report);

/// Untraced serve workload: end-to-end metrics.
Outcome run_serve(const Context& ctx, Report& report);

/// Traced serve workload: per-layer samples for `seconds`.
Outcome trace_serve(const Context& ctx, double seconds, Samples& layers,
                    Report& report);

}  // namespace perfbench
