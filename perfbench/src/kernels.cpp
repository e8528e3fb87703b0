// The two kernel workloads: Algorithm 1 (alg1-insert) and Algorithm 2
// (alg2-update) on a 2 x 2 grid, closed loop with one batch in flight.
//
// Each batch runs between two barriers; rank 0 times it and reads the
// world's CommStats around it. A few untimed warm-up batches precede the
// timed window, so its first batches do not pay for first-touch pages. Traced passes additionally time every call
// into the program on each rank (wall and thread CPU time) and charge the
// par::Profiler phase totals to the step that spent them.
#include <cstdio>
#include <memory>

#include "common.hpp"
#include "core/dynamic_spgemm.hpp"
#include "core/general_spgemm.hpp"
#include "core/summa.hpp"
#include "core/update_ops.hpp"
#include "reference.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

using dsg::par::Comm;
using dsg::par::Phase;
using PT = dsg::sparse::PlusTimes<double>;
using MP = dsg::sparse::MinPlus<double>;
template <typename T>
using DistDyn = dsg::core::DistDynamicMatrix<T>;
using DistDcsr = dsg::core::DistDcsr<double>;

// ---- input make-up (see README.md) ---------------------------------------
constexpr int kScale = 17;                      // n = 131072
constexpr std::size_t kDegA = 16;               // A: 2.1 M non-zeros
constexpr std::size_t kDegB = 4;                // B: 0.5 M non-zeros
constexpr std::size_t kBatchPerRank = 64;       // updates per rank per batch
constexpr std::uint64_t kBatchCap = 100000;     // guard against runaway loops
constexpr std::uint64_t kWarmupBatches = 8;     // untimed, before the window

struct KernelInputs {
    index_t n = index_t{1} << kScale;
    std::vector<std::vector<Edge>> a, b;  // per-rank slices
};

KernelInputs make_inputs(std::uint64_t seed, bool general) {
    KernelInputs in;
    const auto per_rank_a = static_cast<std::size_t>(in.n) * kDegA / kRanks;
    const auto per_rank_b = static_cast<std::size_t>(in.n) * kDegB / kRanks;
    // (+,x) values stay small so every sum is exact; (min,+) weights in 1..16.
    const int amax = general ? 16 : 4, bmax = general ? 16 : 2;
    in.a = er_unique_slices(seed, 11, in.n, per_rank_a, kRanks, 1, amax);
    in.b = er_unique_slices(seed, 12, in.n, per_rank_b, kRanks, 1, bmax);
    return in;
}

/// Whether rank 0 wants another batch; every rank gets rank 0's verdict.
bool agree_continue(Comm& comm, bool mine) {
    const std::uint8_t go = comm.allreduce<std::uint8_t>(
        comm.rank() == 0 && mine ? 1 : 0, [](std::uint8_t a, std::uint8_t b) { return a | b; });
    return go != 0;
}

/// Compares this rank's block of C with the reference product: every stored
/// entry must equal the reference value, and the block must hold exactly
/// as many entries as the reference has inside it. Returns mismatches.
template <typename T>
std::uint64_t compare_block(const DistDyn<T>& c, const Csr& ref) {
    const auto& s = c.shape();
    const index_t c_lo = s.global_col(0), c_hi = c_lo + s.local_cols();
    std::uint64_t bad = 0;
    for (index_t u = 0; u < s.local_rows(); ++u) {
        const index_t i = s.global_row(u);
        const auto [b, e] = ref.range(i, c_lo, c_hi);
        if (e - b != c.local().row_size(u)) ++bad;
        for (const auto& entry : c.local().row(u)) {
            const double* v = ref.find(i, s.global_col(entry.col));
            if (v == nullptr || *v != entry.value) ++bad;
        }
    }
    return bad;
}

struct Shared {
    std::vector<double> setup_s;
    std::vector<double> batch_ms, visible_ms, query_ms;  // per timed batch
    std::vector<double> cstar_nnz, ar_fraction;
    double window_s = 0, peak_rss_mb = 0;
    double cpu0 = 0, cpu_s = 0;  // process CPU at the window's start; over it
    std::uint64_t batches = 0, warmup = 0, updates = 0, mismatches = 0;
    CommDelta comm;
    PhaseLedger ledger;
    SpanLog spans{kRanks};
    std::vector<std::string> notes;
    // Check state: per-rank final entries and the reference product.
    std::vector<std::vector<Edge>> parts = std::vector<std::vector<Edge>>(kRanks);
    Csr ref;
};

void release(Shared& sh) {
    sh.ref = Csr{};
    for (auto& p : sh.parts) p = {};
}

/// Collective. Ends the warm-up: drops what the warm-up batches recorded
/// and returns the start time of the timed window.
double start_window(Comm& comm, Shared& sh) {
    comm.barrier();
    if (comm.rank() == 0) {
        sh.warmup = sh.batches;
        sh.batches = 0;
        sh.batch_ms.clear();
        sh.visible_ms.clear();
        sh.query_ms.clear();
        sh.cstar_nnz.clear();
        sh.ar_fraction.clear();
        sh.comm = CommDelta{};
        sh.ledger.clear();
        sh.spans.clear();
        sh.cpu0 = process_cpu_s();
    }
    comm.barrier();
    return now_s();
}

/// Collective. Closes the timed window of `batches` timed batches.
void end_window(Comm& comm, Shared& sh, double t_start) {
    comm.barrier();
    if (comm.rank() == 0) {
        sh.window_s = now_s() - t_start;
        sh.cpu_s = process_cpu_s() - sh.cpu0;
        sh.updates = sh.batches * kBatchPerRank * kRanks;
        sh.peak_rss_mb = peak_rss_mb();
    }
}

// ---- Algorithm 1 -----------------------------------------------------------

void alg1_body(Comm& comm, const Options& o, const KernelInputs& in, Shared& sh, bool measure,
               double t_setup0) {
    using namespace dsg;
    const int rank = comm.rank();
    const index_t n = in.n;
    core::ProcessGrid grid(comm, 2, 2);
    auto A = core::build_dynamic_matrix<PT>(grid, n, n, in.a[static_cast<std::size_t>(rank)]);
    auto B = core::build_dynamic_matrix<PT>(grid, n, n, in.b[static_cast<std::size_t>(rank)]);
    auto C = core::summa_multiply<PT>(A, B);
    comm.barrier();
    if (rank == 0) sh.setup_s.push_back(now_s() - t_setup0);
    if (!measure) return;

    const auto c_nnz0 = C.global_nnz();
    std::vector<Edge> history;  // this rank's inserts, for the reference
    DistDcsr bstar(grid, n, n);  // B is static
    sh.ledger.sync(comm, "");
    double t_start = now_s();
    for (std::uint64_t k = 0;; ++k) {
        if (k == kWarmupBatches) t_start = start_window(comm, sh);
        if (!agree_continue(comm, k < kWarmupBatches || (now_s() - t_start < o.seconds && k < kBatchCap)))
            break;
        Rng rng(o.seed, 100 + static_cast<std::uint64_t>(rank), k);
        std::vector<Edge> batch(kBatchPerRank);
        for (auto& e : batch) e = er_edge(rng, n, 1, 4);
        history.insert(history.end(), batch.begin(), batch.end());
        const double t_arrive = now_s();
        comm.barrier();
        double t0 = 0;
        if (rank == 0) {
            t0 = now_s();
            sh.comm.start(comm);
        }
        const std::int64_t parent = sh.spans.next_index(rank);
        DistDcsr astar(grid, n, n);
        sh.spans.time(rank, "core.build_update", [&] {
            astar = core::build_update_matrix(grid, n, n, std::move(batch));
        }, parent);
        sh.ledger.sync(comm, "build");
        std::unique_ptr<DistDyn<double>> cstar;
        if (sh.spans.enabled) cstar = std::make_unique<DistDyn<double>>(grid, n, n);
        sh.spans.time(rank, "core.alg1", [&] {
            core::dynamic_spgemm_algebraic<PT>(C, A, astar, B, bstar, {}, cstar.get());
        }, parent);
        sh.ledger.sync(comm, "alg1");
        sh.spans.time(rank, "core.add_update", [&] { core::add_update<PT>(A, astar); }, parent);
        sh.ledger.sync(comm, "update");
        comm.barrier();
        if (rank == 0) {
            const double t1 = now_s();
            sh.comm.stop(comm);
            ++sh.batches;
            sh.batch_ms.push_back(1e3 * (t1 - t0));
            sh.visible_ms.push_back(1e3 * (t1 - t_arrive));
            // Read-your-writes read: the rows of C this batch changed here.
            double sum = 0;
            const auto& a = astar.local();
            for (std::size_t r = 0; r < a.row_count(); ++r)
                for (const auto& e : C.local().row(a.row_id(r))) sum += e.value;
            if (sum < 0) std::fputs("", stderr);  // keeps the read
            sh.query_ms.push_back(1e3 * (now_s() - t_arrive));
            sh.spans.add({"kernel.batch", 0, t0, t1 - t0, 0, -1});
        }
        if (cstar) {
            const double nnz = static_cast<double>(cstar->global_nnz());
            if (rank == 0) sh.cstar_nnz.push_back(nnz);
        }
    }
    end_window(comm, sh, t_start);

    // ---- check: C equals the serial (+,x) product of the final A and B.
    // Every rank hands over its inserts; rank 0 builds the reference.
    sh.parts[static_cast<std::size_t>(rank)] = std::move(history);
    comm.barrier();
    if (rank == 0) {
        std::vector<const std::vector<Edge>*> a_parts, b_parts;
        for (const auto& s : in.a) a_parts.push_back(&s);
        for (const auto& h : sh.parts) a_parts.push_back(&h);
        for (const auto& s : in.b) b_parts.push_back(&s);
        auto plus = [](double x, double y) { return x + y; };
        const Csr a = Csr::from(n, a_parts, plus);
        const Csr b = Csr::from(n, b_parts, plus);
        sh.ref = multiply(a, b, plus, [](double x, double y) { return x * y; });
        if (o.perturb == "product") sh.ref.val[sh.ref.nnz() / 2] += 1.0;
        sh.notes.push_back("inputs: ER n=2^" + std::to_string(kScale) + ", nnz(A0)=" +
                           std::to_string(static_cast<std::size_t>(n) * kDegA) + ", nnz(A final)=" +
                           std::to_string(a.nnz()) + ", nnz(B)=" + std::to_string(b.nnz()) +
                           ", nnz(C0)=" + std::to_string(c_nnz0) + ", nnz(C final)=" +
                           std::to_string(sh.ref.nnz()));
    }
    comm.barrier();
    const std::uint64_t bad = compare_block(C, sh.ref);
    const auto total_bad = comm.allreduce<std::uint64_t>(bad, [](auto x, auto y) { return x + y; });
    if (rank == 0) sh.mismatches = total_bad;
    comm.barrier();
    if (rank == 0) release(sh);
}

// ---- Algorithm 2 -----------------------------------------------------------

void alg2_body(Comm& comm, const Options& o, const KernelInputs& in, Shared& sh, bool measure,
               double t_setup0) {
    using namespace dsg;
    const int rank = comm.rank();
    const index_t n = in.n;
    core::ProcessGrid grid(comm, 2, 2);
    auto A = core::build_dynamic_matrix<MP>(grid, n, n, in.a[static_cast<std::size_t>(rank)]);
    auto B = core::build_dynamic_matrix<MP>(grid, n, n, in.b[static_cast<std::size_t>(rank)]);
    DistDyn<double> C(grid, n, n);
    DistDyn<std::uint64_t> F(grid, n, n);
    core::SummaOptions so;
    so.bloom_out = &F;
    core::summa<MP>(C, A, B, so);
    comm.barrier();
    if (rank == 0) sh.setup_s.push_back(now_s() - t_setup0);
    if (!measure) return;

    // The benchmark's replica of this rank's entries of A, so every op hits
    // an existing entry and the reference knows the final A.
    std::vector<Edge> live = in.a[static_cast<std::size_t>(rank)];
    DistDcsr bstar(grid, n, n);
    sh.ledger.sync(comm, "");
    double t_start = now_s();
    for (std::uint64_t k = 0;; ++k) {
        if (k == kWarmupBatches) t_start = start_window(comm, sh);
        if (!agree_continue(comm, k < kWarmupBatches || (now_s() - t_start < o.seconds && k < kBatchCap)))
            break;
        // Pick distinct live entries at the end of `live`: the last half get
        // a MASK (and are dropped below), the others a MERGE to a higher
        // weight.
        Rng rng(o.seed, 200 + static_cast<std::uint64_t>(rank), k);
        std::vector<Edge> merges, masks;
        const std::size_t m = kBatchPerRank;
        for (std::size_t t = 0; t < m; ++t) {
            const std::size_t last = live.size() - 1 - t;
            std::swap(live[last], live[rng.below(last + 1)]);
        }
        for (std::size_t t = 0; t < m; ++t) {
            Edge& e = live[live.size() - 1 - t];
            if (t < m / 2) {
                masks.push_back(e);
            } else {
                e.value += static_cast<double>(1 + rng.below(4));
                merges.push_back(e);
            }
        }
        live.resize(live.size() - masks.size());
        std::vector<Edge> all = merges;
        all.insert(all.end(), masks.begin(), masks.end());
        const double t_arrive = now_s();
        comm.barrier();
        double t0 = 0;
        if (rank == 0) {
            t0 = now_s();
            sh.comm.start(comm);
        }
        const std::int64_t parent = sh.spans.next_index(rank);
        DistDcsr astar(grid, n, n), um(grid, n, n), ud(grid, n, n);
        sh.spans.time(rank, "core.build_update", [&] {
            astar = core::build_update_matrix(grid, n, n, std::move(all));
        }, parent);
        sh.ledger.sync(comm, "build");
        DistDyn<std::uint64_t> cstar(grid, n, n);
        sh.spans.time(rank, "core.alg2_pattern", [&] {
            cstar = core::compute_pattern(A, astar, B, bstar);
        }, parent);
        sh.ledger.sync(comm, "pattern");
        sh.spans.time(rank, "core.build_update", [&] {
            um = core::build_update_matrix(grid, n, n, std::move(merges));
            ud = core::build_update_matrix(grid, n, n, std::move(masks));
        }, parent);
        sh.ledger.sync(comm, "build");
        sh.spans.time(rank, "core.merge_mask", [&] {
            core::merge_update(A, um);
            core::mask_delete(A, ud);
        }, parent);
        sh.ledger.sync(comm, "update");
        core::GeneralSpgemmStats st;
        sh.spans.time(rank, "core.alg2_recompute", [&] {
            st = core::general_dynamic_spgemm<MP>(C, F, A, B, cstar);
        }, parent);
        sh.ledger.sync(comm, "recompute");
        comm.barrier();
        if (rank == 0) {
            const double t1 = now_s();
            sh.comm.stop(comm);
            ++sh.batches;
            sh.batch_ms.push_back(1e3 * (t1 - t0));
            sh.visible_ms.push_back(1e3 * (t1 - t_arrive));
            // Read-your-writes read: the recomputed entries held here.
            double sum = 0;
            cstar.local().for_each([&](index_t u, index_t v, std::uint64_t) {
                if (const double* x = C.local().find(u, v)) sum += *x;
            });
            if (sum < 0) std::fputs("", stderr);  // keeps the read
            sh.query_ms.push_back(1e3 * (now_s() - t_arrive));
            sh.cstar_nnz.push_back(static_cast<double>(st.cstar_nnz_global));
            sh.ar_fraction.push_back(st.aprime_nnz_global == 0
                                         ? 0.0
                                         : static_cast<double>(st.ar_nnz_global) /
                                               static_cast<double>(st.aprime_nnz_global));
            sh.spans.add({"kernel.batch", 0, t0, t1 - t0, 0, -1});
        }
    }
    end_window(comm, sh, t_start);

    // ---- check: C equals the serial (min,+) product of the final A and B;
    // entries whose every contribution was deleted must be absent.
    sh.parts[static_cast<std::size_t>(rank)] = std::move(live);
    comm.barrier();
    if (rank == 0) {
        std::vector<const std::vector<Edge>*> a_parts, b_parts;
        for (const auto& f : sh.parts) a_parts.push_back(&f);
        for (const auto& s : in.b) b_parts.push_back(&s);
        auto mn = [](double x, double y) { return std::min(x, y); };
        const Csr a = Csr::from(n, a_parts, mn);
        const Csr b = Csr::from(n, b_parts, mn);
        sh.ref = multiply(a, b, mn, [](double x, double y) { return x + y; });
        if (o.perturb == "product") sh.ref.val[sh.ref.nnz() / 2] += 1.0;
        sh.notes.push_back("inputs: ER n=2^" + std::to_string(kScale) + ", nnz(A0)=" +
                           std::to_string(static_cast<std::size_t>(n) * kDegA) +
                           ", nnz(A final)=" + std::to_string(a.nnz()) + ", nnz(B)=" +
                           std::to_string(b.nnz()) + ", nnz(C final)=" + std::to_string(sh.ref.nnz()));
    }
    comm.barrier();
    const std::uint64_t bad = compare_block(C, sh.ref);
    const auto total_bad = comm.allreduce<std::uint64_t>(bad, [](auto x, auto y) { return x + y; });
    if (rank == 0) sh.mismatches = total_bad;
    comm.barrier();
    if (rank == 0) release(sh);
}

/// Per-layer metrics of a traced kernel pass.
void report_layers(Result& r, const Shared& sh, bool general) {
    const double per = 1e3 / (kRanks * std::max<double>(static_cast<double>(sh.batches), 1));
    auto phase_ms = [&](const std::string& step, Phase p) { return per * sh.ledger.seconds(step, p); };
    auto& L = r.layer;
    L.set("core.build_update_wall_ms", median(sh.spans.ms("core.build_update")), "ms");
    L.set("core.build_update_cpu_ms", median(sh.spans.ms("core.build_update", true)), "ms");
    L.set("core.redist_sort_ms", phase_ms("build", Phase::RedistSort), "ms");
    L.set("core.redist_comm_ms", phase_ms("build", Phase::RedistComm), "ms");
    L.set("core.local_construct_ms", phase_ms("build", Phase::LocalConstruct), "ms");
    L.set("core.local_addition_ms", phase_ms("update", Phase::LocalAddition), "ms");
    if (!general) {
        L.set("core.alg1_wall_ms", median(sh.spans.ms("core.alg1")), "ms");
        L.set("core.alg1_cpu_ms", median(sh.spans.ms("core.alg1", true)), "ms");
        L.set("core.alg1_sendrecv_ms", phase_ms("alg1", Phase::SendRecv), "ms");
        L.set("core.alg1_local_mult_ms", phase_ms("alg1", Phase::LocalMult), "ms");
        L.set("core.alg1_scatter_ms", phase_ms("alg1", Phase::Scatter), "ms");
        L.set("core.alg1_reduce_scatter_ms", phase_ms("alg1", Phase::ReduceScatter), "ms");
        L.set("core.alg1_cstar_nnz", median(sh.cstar_nnz), "count");
    } else {
        L.set("core.alg2_pattern_wall_ms", median(sh.spans.ms("core.alg2_pattern")), "ms");
        L.set("core.alg2_pattern_cpu_ms", median(sh.spans.ms("core.alg2_pattern", true)), "ms");
        L.set("core.alg2_recompute_wall_ms", median(sh.spans.ms("core.alg2_recompute")), "ms");
        L.set("core.alg2_recompute_cpu_ms", median(sh.spans.ms("core.alg2_recompute", true)), "ms");
        L.set("core.alg2_bcast_ms", phase_ms("recompute", Phase::Bcast), "ms");
        L.set("core.alg2_cstar_nnz", median(sh.cstar_nnz), "count");
        L.set("core.alg2_ar_fraction", median(sh.ar_fraction), "ratio");
    }
}

}  // namespace

Result run_kernel(const Options& o, bool traced, bool general) {
    Shared sh;
    sh.spans.enabled = traced;
    sh.ledger.enabled = traced;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const bool measure = rep == 0;
        const double t0 = now_s();
        const KernelInputs in = make_inputs(o.seed, general);
        dsg::par::run_world(kRanks, [&](Comm& comm) {
            if (general) alg2_body(comm, o, in, sh, measure, t0);
            else alg1_body(comm, o, in, sh, measure, t0);
        });
    }
    Result r;
    r.attempted = sh.warmup + sh.batches;
    r.failed = 0;
    r.check(sh.batches > 0, "no batch ran");
    r.check(sh.mismatches == 0,
            "product: " + std::to_string(sh.mismatches) + " entries of C differ from the serial reference");
    r.notes = sh.notes;
    r.notes.push_back("batches: " + std::to_string(sh.warmup) + " warm-up + " + std::to_string(sh.batches) +
                      " timed, x " + std::to_string(kBatchPerRank * kRanks) + " updates, window " +
                      std::to_string(sh.window_s) + " s");
    r.peak_rss_mb = sh.peak_rss_mb;
    auto& E = r.e2e;
    E.set("setup_s", median(sh.setup_s), "s");
    E.set("batch_ms_p50", quantile(sh.batch_ms, 0.5), "ms");
    E.set("batch_ms_p90", quantile(sh.batch_ms, 0.9), "ms");
    E.set("ingest_ops_per_s", static_cast<double>(sh.updates) / std::max(sh.window_s, 1e-9), "ops/s");
    E.set("cpu_us_per_op", 1e6 * sh.cpu_s / std::max<double>(static_cast<double>(sh.updates), 1), "us");
    E.set("visible_ms_p50", quantile(sh.visible_ms, 0.5), "ms");
    E.set("visible_ms_p99", quantile(sh.visible_ms, 0.99), "ms");
    E.set("query_ms_p50", quantile(sh.query_ms, 0.5), "ms");
    E.set("query_ms_p99", quantile(sh.query_ms, 0.99), "ms");
    report_comm(r, sh.comm, static_cast<double>(sh.updates), static_cast<double>(sh.batches));
    if (traced) {
        report_layers(r, sh, general);
        if (!o.out_dir.empty())
            sh.spans.dump(o.out_dir + "/" + o.workload + "-" + std::to_string(o.seed) + ".spans.jsonl");
    }
    return r;
}

}  // namespace pb
