// perfbench: one benchmark for the dynamic SpGEMM kernels and the streaming
// node. Usage:
//
//   perfbench --workload <alg1-insert|alg2-update|node-ingest|node-serve>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--perturb <check>] [--out-dir <dir>] [--work-dir <dir>]
//
// --trace 0 prints the end-to-end metrics of one untraced pass. --trace 1
// runs an untraced pass and then a traced one (par::Profiler timing and
// trace on, plus the benchmark's own spans) and prints the per-layer
// metrics, including obs.trace_overhead.* = traced / untraced for each
// end-to-end metric. The last line of stdout is one JSON object; the exit
// code is 0 when every check passed, 3 when a check failed, 2 on bad usage.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

using pb::Metrics;
using pb::Options;
using pb::Result;

/// Every per-layer metric with its unit; a traced run prints all of them
/// (0 where the layer does no work on the workload).
const std::pair<const char*, const char*> kLayerMetrics[] = {
    {"par.alltoall_bytes_per_update", "B"},
    {"par.reduce_bytes_per_update", "B"},
    {"par.gather_bytes_per_update", "B"},
    {"par.p2p_bytes_per_update", "B"},
    {"par.bcast_bytes_per_update", "B"},
    {"par.collectives_per_batch", "count"},
    {"core.build_update_wall_ms", "ms"},
    {"core.build_update_cpu_ms", "ms"},
    {"core.redist_sort_ms", "ms"},
    {"core.redist_comm_ms", "ms"},
    {"core.local_construct_ms", "ms"},
    {"core.local_addition_ms", "ms"},
    {"core.alg1_wall_ms", "ms"},
    {"core.alg1_cpu_ms", "ms"},
    {"core.alg1_sendrecv_ms", "ms"},
    {"core.alg1_local_mult_ms", "ms"},
    {"core.alg1_scatter_ms", "ms"},
    {"core.alg1_reduce_scatter_ms", "ms"},
    {"core.alg1_cstar_nnz", "count"},
    {"core.alg2_pattern_wall_ms", "ms"},
    {"core.alg2_pattern_cpu_ms", "ms"},
    {"core.alg2_recompute_wall_ms", "ms"},
    {"core.alg2_recompute_cpu_ms", "ms"},
    {"core.alg2_bcast_ms", "ms"},
    {"core.alg2_cstar_nnz", "count"},
    {"core.alg2_ar_fraction", "ratio"},
    {"stream.drain_ms_p50", "ms"},
    {"stream.apply_ms_p50", "ms"},
    {"stream.apply_ms_p99", "ms"},
    {"stream.ops_per_epoch", "count"},
    {"stream.queue_blocked_ms", "ms"},
    {"persist.wal_append_ms_p50", "ms"},
    {"persist.wal_fsync_ms_p99", "ms"},
    {"persist.wal_bytes_per_op", "B"},
    {"persist.checkpoint_ms_p50", "ms"},
    {"serve.publish_ms_p50", "ms"},
    {"serve.snapshots_published", "count"},
    {"serve.eval_us_p99.edge-exists", "us"},
    {"serve.eval_us_p99.degree", "us"},
    {"serve.eval_us_p99.k-hop", "us"},
    {"serve.eval_us_p99.analytics-read", "us"},
    {"serve.admit_wait_us_p99", "us"},
    {"serve.cache_hit_ratio", "ratio"},
    {"analytics.hook_ms_p50", "ms"},
    {"analytics.hook_ms_p99", "ms"},
    {"analytics.hook_cpu_ms_p50", "ms"},
    {"gen.lateness_ms_max", "ms"},
};

/// The end-to-end metrics of an untraced run, with bounds in BENCHMARK.json.
const char* const kEndToEnd[] = {"setup_s", "peak_rss_mb", "comm_bytes_per_update", "cpu_us_per_op"};

/// Wall-clock rates and latencies: measured like the end-to-end metrics, but
/// their run-to-run spread on a shared host is wider than any useful bound.
/// A traced run reports them from its untraced pass.
const std::pair<const char*, const char*> kUnbounded[] = {
    {"batch_ms_p50", "ms"},   {"batch_ms_p90", "ms"},   {"ingest_ops_per_s", "ops/s"},
    {"visible_ms_p50", "ms"}, {"visible_ms_p99", "ms"}, {"query_ms_p50", "ms"},
    {"query_ms_p99", "ms"},
};

/// End-to-end metrics whose traced / untraced ratio is reported
/// (peak_rss_mb is a process-wide high-water mark, so it has none).
const char* const kOverheadMetrics[] = {
    "setup_s",        "batch_ms_p50",   "batch_ms_p90",   "comm_bytes_per_update", "cpu_us_per_op",
    "ingest_ops_per_s", "visible_ms_p50", "visible_ms_p99", "query_ms_p50",
    "query_ms_p99",
};

Result run_pass(const Options& o, bool traced) {
    if (o.workload == "alg1-insert") return pb::run_kernel(o, traced, false);
    if (o.workload == "alg2-update") return pb::run_kernel(o, traced, true);
    if (o.workload == "node-ingest") return pb::run_node(o, traced, false);
    return pb::run_node(o, traced, true);
}

void print_json(bool correct, const Result& r, const Metrics& m) {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    bool first = true;
    for (const auto& [name, vu] : m.all()) {
        const double v = std::isfinite(vu.first) ? vu.first : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                    name.c_str(), v, vu.second.c_str());
        first = false;
    }
    std::printf("}}\n");
}

int usage() {
    std::fprintf(stderr,
                 "usage: perfbench --workload <alg1-insert|alg2-update|node-ingest|node-serve> "
                 "--seed <n> --seconds <s> --trace <0|1> [--perturb <check>] [--out-dir <dir>] [--work-dir <dir>]\n");
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    Options o;
    for (int a = 1; a + 1 < argc; a += 2) {
        const std::string k = argv[a], v = argv[a + 1];
        if (k == "--workload") o.workload = v;
        else if (k == "--seed") o.seed = std::stoull(v);
        else if (k == "--seconds") o.seconds = std::stod(v);
        else if (k == "--trace") o.trace = v == "1";
        else if (k == "--perturb") o.perturb = v;
        else if (k == "--out-dir") o.out_dir = v;
        else if (k == "--work-dir") o.work_dir = v;
        else return usage();
    }
    if (o.workload != "alg1-insert" && o.workload != "alg2-update" &&
        o.workload != "node-ingest" && o.workload != "node-serve")
        return usage();
    if (!o.out_dir.empty()) std::filesystem::create_directories(o.out_dir);
    Result r = run_pass(o, false);
    r.e2e.set("peak_rss_mb", r.peak_rss_mb, "MiB");
    bool correct = r.check_failures.empty();
    Metrics out;
    for (const char* name : kEndToEnd) out.set(name, r.e2e.get(name), r.e2e.all().at(name).second);
    if (o.trace) {
        dsg::par::Profiler::set_trace_capacity(std::size_t{1} << 15);
        dsg::par::Profiler::set_enabled(true);
        dsg::par::Profiler::set_trace_enabled(true);
        Result t = run_pass(o, true);
        correct = correct && t.check_failures.empty();
        for (const auto& f : t.check_failures) r.check_failures.push_back("traced " + f);
        out = Metrics{};
        for (const auto& [name, unit] : kLayerMetrics) out.set(name, t.layer.get(name), unit);
        for (const auto& [name, unit] : kUnbounded) out.set(name, r.e2e.get(name), unit);
        for (const char* name : kOverheadMetrics) {
            const double base = r.e2e.get(name);
            out.set(std::string("obs.trace_overhead.") + name,
                    base != 0 ? t.e2e.get(name) / base : 0.0, "ratio");
        }
        for (const auto& n : t.notes) r.notes.push_back("traced " + n);
        r.attempted += t.attempted;
        r.failed += t.failed;
    }
    for (const auto& n : r.notes) std::printf("# %s\n", n.c_str());
    for (const auto& f : r.check_failures) std::printf("# CHECK FAILED: %s\n", f.c_str());
    if (!o.trace)
        for (const auto& [name, vu] : out.all())
            std::printf("# %-24s %14.4f %s\n", name.c_str(), vu.first, vu.second.c_str());
    print_json(correct, r, out);
    std::fflush(stdout);
    return correct ? 0 : 3;
}
