// The two node workloads: a composed streaming node (EpochEngine +
// DurabilityManager + SnapshotStore on a 2 x 2 grid) fed by the benchmark's
// own producers.
//
//  - node-ingest: two closed-loop producers, each owning two rank queues;
//    no maintainer, no queries.
//  - node-serve: the same node plus the live triangle maintainer and a
//    ResultCache behind a background QueryExecutor; one open-loop producer
//    at a fixed write rate and one query client on a fixed arrival schedule.
//
// Every edge goes through at most one ADD, one MERGE and one MASK, in that
// order and on one queue. That is the engine's own order inside an epoch,
// so the final graph is a function of the ops pushed, whatever the epoch
// boundaries. ADDs bring new edges; MERGEs and MASKs take the oldest live
// edges of their queue (the pre-filled ones first), so the graph keeps its
// size however long a run lasts.
//
// Visibility is measured from outside: push times are recorded here, each
// queue's order is its producer's push order, the engine's epoch_log()
// gives how many ops of each queue every epoch drained, and the publish
// hook is tapped to see when each snapshot version went live.
#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <unistd.h>

#include "analytics/graph_maintainers.hpp"
#include "analytics/maintainer.hpp"
#include "common.hpp"
#include "core/update_ops.hpp"
#include "obs/metrics.hpp"
#include "persist/durability.hpp"
#include "reference.hpp"
#include "serve/query_executor.hpp"
#include "serve/result_cache.hpp"
#include "serve/snapshot_store.hpp"
#include "stream/epoch_engine.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

using namespace dsg;
using PT = sparse::PlusTimes<double>;
using Engine = stream::EpochEngine<PT>;
using Store = serve::SnapshotStore<double>;
using par::Comm;
using par::Phase;

// ---- input make-up (see README.md) ---------------------------------------
struct NodeSizing {
    int scale;               // n = 2^scale vertices
    bool skewed;             // R-MAT (true) or Erdos-Renyi edges
    std::size_t prefill;     // distinct pre-filled edges
    int producers;           // producer threads
    double write_rate;       // ops/s of the open-loop producer (0 = closed loop)
    double query_rate;       // queries/s of the client (0 = no client)
};
// node-ingest is skewed so long DHB rows use their hash index; node-serve is
// uniform so the triangle maintainer's cost does not hinge on which hubs a
// seed happens to draw. node-serve's traffic follows the repository's own
// serving loads: 2000 queries/s is the higher target rate of
// bench/bench_slo_serving.cpp, and one write per nine reads is the ratio of
// the serving-read-heavy scenario of src/stream/workloads.hpp.
constexpr double kQueryRate = 2000;
constexpr NodeSizing kIngest{18, true, 1'500'000, 2, 0, 0};
constexpr NodeSizing kServe{14, false, 65'536, 1, kQueryRate / 9, kQueryRate};
/// Op mix, repeated per queue: 7 ADDs, 2 MERGEs, 7 MASKs in 16 ops, so
/// the graph neither grows nor shrinks.
constexpr Kind kMix[16] = {Kind::Add,  Kind::Mask, Kind::Add,  Kind::Mask, Kind::Add,  Kind::Merge,
                           Kind::Mask, Kind::Add,  Kind::Mask, Kind::Add,  Kind::Merge, Kind::Mask,
                           Kind::Add,  Kind::Mask, Kind::Add,  Kind::Mask};
constexpr std::uint64_t kPublishEvery = 4;       // epochs per published snapshot
constexpr std::uint64_t kCheckpointStride = 64;  // epochs per checkpoint
constexpr std::uint64_t kSampleEvery = 31;       // checked share of the queries
                                                 // (odd, so every class is sampled)
constexpr int kServeSetupReps = 11;              // node-serve sets up in ~0.2 s
/// node-serve's epoch period in seconds: the engine's 20 ms drain deadline
/// plus a typical epoch's work fit in it with room to spare.
constexpr double kServeEpochPeriod = 0.05;

struct NodeInputs {
    NodeSizing sz;
    std::unique_ptr<Rmat> rmat;
    std::vector<std::vector<Edge>> prefill;  // per rank, for the initial build
    KeySet prefill_pairs;
    std::vector<std::vector<Edge>> lanes;  // per queue: pre-filled edges, oldest first
};

std::size_t mix_index(std::uint64_t k) {
    k ^= k >> 31;
    k *= 0x7fb5d329728ea185ull;
    return static_cast<std::size_t>(k ^ (k >> 27));
}

NodeInputs make_inputs(std::uint64_t seed, const NodeSizing& sz) {
    NodeInputs in;
    in.sz = sz;
    in.rmat = std::make_unique<Rmat>(sz.scale, seed, sz.skewed);
    in.prefill.resize(kRanks);
    in.prefill_pairs = KeySet(sz.prefill);
    Rng rng(seed, 21);
    std::vector<Edge> all;
    all.reserve(sz.prefill);
    while (all.size() < sz.prefill) {
        const auto [i, j] = in.rmat->edge(rng);
        if (i == j || !in.prefill_pairs.insert(pair_key(i, j))) continue;
        all.push_back({i, j, static_cast<double>(1 + rng.below(8))});
    }
    for (std::size_t x = 0; x < all.size(); ++x) in.prefill[x % kRanks].push_back(all[x]);
    for (std::size_t k = all.size() - 1; k > 0; --k) std::swap(all[k], all[rng.below(k + 1)]);
    in.lanes.resize(kRanks);
    for (std::size_t x = 0; x < all.size(); ++x) in.lanes[x % kRanks].push_back(all[x]);
    return in;
}

/// One producer's deterministic op sequence. Each queue it feeds is a lane
/// holding that queue's live edges, oldest first; MERGEd edges wait in a
/// second list to be MASKed next. At any time the lanes hold exactly the
/// edges the ops pushed so far leave alive, with their values: the
/// benchmark's replay of the graph.
class OpSource {
public:
    OpSource(const NodeInputs& in, std::uint64_t seed, int p, std::vector<int> queues)
        : in_(&in), rng_(seed, 300 + static_cast<std::uint64_t>(p)), p_(p), queues_(std::move(queues)),
          lanes_(queues_.size()), seen_(26) {
        for (std::size_t l = 0; l < queues_.size(); ++l) {
            const auto& pre = in.lanes[static_cast<std::size_t>(queues_[l])];
            lanes_[l].live.assign(pre.begin(), pre.end());
        }
    }
    [[nodiscard]] const std::vector<int>& queues() const { return queues_; }

    /// The next op for lane l (the l-th queue of this producer).
    Op next(std::size_t l) {
        Lane& lane = lanes_[l];
        const Kind kind = kMix[lane.k++ % 16];
        if (kind == Kind::Merge && !lane.live.empty()) {
            Edge e = lane.live.front();
            lane.live.pop_front();
            e.value += static_cast<double>(1 + rng_.below(4));
            lane.merged.push_back(e);
            return {Kind::Merge, e};
        }
        if (kind == Kind::Mask && !(lane.merged.empty() && lane.live.empty())) {
            auto& from = lane.merged.empty() ? lane.live : lane.merged;
            const Edge e = from.front();
            from.pop_front();
            return {Kind::Mask, e};
        }
        for (;;) {
            const auto [i, j] = in_->rmat->edge(rng_);
            const std::uint64_t key = pair_key(i, j);
            if (i == j || mix_index(key) % static_cast<std::size_t>(in_->sz.producers) !=
                              static_cast<std::size_t>(p_))
                continue;
            if (in_->prefill_pairs.contains(key) || !seen_.insert(key)) continue;
            const Edge e{i, j, static_cast<double>(1 + rng_.below(8))};
            lane.live.push_back(e);
            return {Kind::Add, e};
        }
    }
    /// Calls fn(edge) for every edge the ops so far leave alive.
    template <typename Fn>
    void for_each_live(Fn&& fn) const {
        for (const auto& lane : lanes_) {
            for (const auto& e : lane.live) fn(e);
            for (const auto& e : lane.merged) fn(e);
        }
    }

private:
    struct Lane {
        std::deque<Edge> live, merged;
        std::uint64_t k = 0;
    };
    const NodeInputs* in_;
    Rng rng_;
    int p_;
    std::vector<int> queues_;
    std::vector<Lane> lanes_;
    BloomSet seen_;  // ADDed pairs of this producer (2^26 bits)
};

stream::StreamOp<double> to_stream(const Op& op) {
    const auto kind = op.kind == Kind::Add     ? stream::OpKind::Add
                      : op.kind == Kind::Merge ? stream::OpKind::Merge
                                               : stream::OpKind::Mask;
    return {kind, op.e};
}

/// Engine stand-in handed to SnapshotStore::attach: forwards the publish
/// hook to the engine, wrapped so the benchmark sees when each publication
/// finished.
struct PublishTap {
    Engine& engine;
    std::function<void(std::uint64_t version)> before;
    std::function<void(std::uint64_t version, double start)> done;
    [[nodiscard]] const stream::EngineConfig& config() const { return engine.config(); }
    void set_publish_hook(Engine::PublishHook hook) {
        engine.set_publish_hook([this, hook = std::move(hook)](std::uint64_t v) {
            if (before) before(v);
            const double t0 = now_s();
            hook(v);
            if (done) done(v, t0);
        });
    }
};

/// Histogram reading over a window (instruments cannot be reset).
struct HistWindow {
    obs::Histogram* h;
    obs::Histogram::Reading begin{};
    explicit HistWindow(const char* name) : h(&obs::registry().histogram(name)) {}
    void start() { begin = h->read(); }
    /// Quantile of the samples recorded since start(), in ms.
    [[nodiscard]] double ms(double q) const {
        auto r = h->read();
        for (std::size_t b = 0; b < r.buckets.size(); ++b) r.buckets[b] -= begin.buckets[b];
        r.count -= begin.count;
        r.sum -= begin.sum;
        return r.quantile(q) * 1e-6;
    }
};

struct Sample {
    serve::Query q;
    serve::QueryResult r;
};

/// A pushed op as recorded for the checks (values are small integers, so a
/// float holds them exactly).
struct PackedOp {
    std::uint32_t row, col;
    float value;
    Kind kind;
    static PackedOp of(const Op& op) {
        return {static_cast<std::uint32_t>(op.e.row), static_cast<std::uint32_t>(op.e.col),
                static_cast<float>(op.e.value), op.kind};
    }
    [[nodiscard]] Op op() const {
        return {kind, {static_cast<index_t>(row), static_cast<index_t>(col), static_cast<double>(value)}};
    }
};

struct NodeShared {
    const NodeInputs* in = nullptr;
    std::vector<double> setup_s;
    std::array<Engine*, kRanks> engines{};
    Store* store = nullptr;
    serve::QueryExecutor<double>* exec = nullptr;
    std::vector<std::unique_ptr<OpSource>> sources;  // one per producer
    // Per queue, in push order: push time (s after t_start) and, when
    // queries are checked, the op.
    std::array<std::vector<float>, kRanks> push_t;
    std::array<std::vector<PackedOp>, kRanks> ops;
    bool record_ops = false;
    // Per rank: ops drained from its queue by each applied epoch.
    std::array<std::vector<std::size_t>, kRanks> drained;
    std::vector<std::pair<std::uint64_t, double>> published;  // (version, time)
    std::vector<double> publish_ms, hook_ms, hook_cpu_ms;
    // Traced passes, rank 0, per applied epoch: (version, thread CPU ms from
    // the start of the epoch to its publish hook, less the analytics hook's).
    std::vector<std::pair<std::uint64_t, double>> pre_publish_cpu_ms;
    double pump_cpu0 = 0, last_hook_cpu_ms = 0;
    double t_start = 0, t_end = 0, peak_rss_mb = 0;
    // Process CPU at the window's start and over it, and the CPU spent by
    // the benchmark's own load threads (producers, query client).
    double cpu0 = 0, cpu_s = 0;
    std::mutex load_mx;
    double load_cpu_s = 0;
    std::uint64_t applied = 0, wal_bytes = 0, published_in_window = 0;
    std::atomic<std::uint64_t> push_failed{0};  // pushes refused by a closed queue
    std::vector<stream::EpochStats> log0;  // rank 0's epoch log
    CommDelta comm;
    double write_lateness_ms = 0, query_lateness_ms = 0;  // open-loop schedules
    std::array<double, par::kPhaseCount> phase_s{};
    double blocked_ms = 0;
    std::array<std::uint64_t, kRanks> blocked_begin{};
    // Queries.
    std::vector<double> query_ms;
    std::uint64_t issued = 0, ok = 0, hits = 0;
    std::vector<Sample> samples;
    // Final state for the checks.
    std::shared_ptr<const serve::Snapshot<double>> last;
    std::uint64_t final_version = 0;
    bool epochs_logged = false;
    std::array<double, 3> wal_ms{};  // WAL append p50, fsync p99, checkpoint p50
};

/// Pushes src's next op for lane l; false once the queue is closed.
bool push_next(NodeShared& sh, OpSource& src, std::size_t l) {
    const auto q = static_cast<std::size_t>(src.queues()[l]);
    const Op op = src.next(l);
    const double t = now_s();
    if (!sh.engines[q]->queue().push(to_stream(op))) return false;
    sh.push_t[q].push_back(static_cast<float>(t - sh.t_start));
    if (sh.record_ops) sh.ops[q].push_back(PackedOp::of(op));
    return true;
}

/// Adds the calling load thread's CPU time to the benchmark's own share.
void count_load_cpu(NodeShared& sh) {
    const double c = thread_cpu_s();
    std::lock_guard lock(sh.load_mx);
    sh.load_cpu_s += c;
}

/// Closed-loop producer: pushes to its queues in turn, each push waiting
/// while the queue is full, until the window closes.
void closed_producer(NodeShared& sh, OpSource& src, double seconds) {
    const std::size_t lanes = src.queues().size();
    for (std::uint64_t k = 0; now_s() - sh.t_start < seconds;)
        for (int burst = 0; burst < 64; ++burst, ++k)
            if (!push_next(sh, src, k % lanes)) ++sh.push_failed;
    for (const int q : src.queues()) sh.engines[static_cast<std::size_t>(q)]->queue().producer_done();
    count_load_cpu(sh);
}

/// Open-loop producer: op k is due at t_start + k / rate and goes to queue
/// k mod 4, whether or not the node kept up.
void open_producer(NodeShared& sh, OpSource& src, double rate, double seconds) {
    const std::size_t lanes = src.queues().size();
    for (std::uint64_t k = 0;; ++k) {
        const double due = sh.t_start + static_cast<double>(k) / rate;
        if (due - sh.t_start >= seconds) break;
        const double wait = due - now_s();
        if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
        sh.write_lateness_ms = std::max(sh.write_lateness_ms, 1e3 * (now_s() - due));
        if (!push_next(sh, src, k % lanes)) ++sh.push_failed;
    }
    for (const int q : src.queues()) sh.engines[static_cast<std::size_t>(q)]->queue().producer_done();
    count_load_cpu(sh);
}

/// The query client: query k is due at t_start + k / rate. Replies are
/// taken in submission order by a receiver thread, as on one pipelined
/// connection; latency runs from the due time to the reply.
void query_client(NodeShared& sh, std::uint64_t seed, double rate, double seconds) {
    struct Pending {
        std::uint64_t k;
        double due;
        serve::Query q;
        std::future<serve::QueryResult> f;
    };
    std::mutex mx;
    std::condition_variable cv;
    std::deque<Pending> inflight;
    bool done = false;
    double late = 0;
    std::thread receiver([&] {
        for (;;) {
            Pending p;
            {
                std::unique_lock lock(mx);
                cv.wait(lock, [&] { return done || !inflight.empty(); });
                if (inflight.empty()) return;
                p = std::move(inflight.front());
                inflight.pop_front();
            }
            const serve::QueryResult r = p.f.get();
            sh.query_ms.push_back(1e3 * (now_s() - p.due));
            if (r.status == serve::QueryStatus::Ok) ++sh.ok;
            if (r.cache_hit) ++sh.hits;
            if (p.k % kSampleEvery == 0) sh.samples.push_back({p.q, r});
        }
        count_load_cpu(sh);
    });
    const index_t n = sh.in->rmat->n();
    Rng rng(seed, 400);
    // Skewed keys: vertex index n * u^4 of a fixed relabelling, so that
    // P(key < t * n) = t^(1/4), the read-key skew (zipf_skew = 4) of the
    // serving-read-heavy scenario in src/stream/workloads.hpp. A small hot
    // set draws most queries and the cache hits on part of them.
    auto key = [&] {
        const double u = rng.unit();
        const auto x = static_cast<std::uint64_t>(static_cast<double>(n) * u * u * u * u);
        return static_cast<index_t>(mix_index(x) % static_cast<std::uint64_t>(n));
    };
    for (std::uint64_t k = 0;; ++k) {
        const double due = sh.t_start + static_cast<double>(k) / rate;
        if (due - sh.t_start >= seconds) break;
        // The equal rotation of bench/bench_slo_serving.cpp.
        serve::Query q;
        switch (k % 4) {
            case 0: q = {serve::QueryKind::EdgeExists, key(), key(), 1, ""}; break;
            case 1: q = {serve::QueryKind::Degree, key(), 0, 1, ""}; break;
            case 2: q = {serve::QueryKind::KHop, key(), 0, 2, ""}; break;
            default: q = {serve::QueryKind::AnalyticsRead, 0, 0, 1, "triangles"};
        }
        const double wait = due - now_s();
        if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
        late = std::max(late, 1e3 * (now_s() - due));
        auto f = sh.exec->submit(q);
        ++sh.issued;
        {
            std::lock_guard lock(mx);
            inflight.push_back({k, due, std::move(q), std::move(f)});
        }
        cv.notify_one();
    }
    {
        std::lock_guard lock(mx);
        done = true;
    }
    cv.notify_one();
    receiver.join();
    sh.query_lateness_ms = late;
    count_load_cpu(sh);
}

void node_body(Comm& comm, const Options& o, NodeShared& sh, bool serve_mode, bool measure,
               double t_setup0, const std::filesystem::path& wal_dir, bool traced) {
    const int rank = comm.rank();
    const auto& in = *sh.in;
    const index_t n = in.rmat->n();
    core::ProcessGrid grid(comm, 2, 2);
    auto A = core::build_dynamic_matrix<PT>(grid, n, n, in.prefill[static_cast<std::size_t>(rank)]);
    Engine engine(A);  // default queue, epoch trigger and deadline
    sh.engines[static_cast<std::size_t>(rank)] = &engine;
    analytics::AnalyticsHub<double> hub;
    if (serve_mode) {
        auto& tri = hub.emplace<analytics::LiveTriangleMaintainer>(grid, n);
        tri.seed(in.prefill[static_cast<std::size_t>(rank)]);
        engine.set_epoch_hook([&](const stream::EpochDelta<double>& d) {
            const double t0 = now_s(), c0 = thread_cpu_s();
            hub.on_epoch(d);
            if (rank == 0) {
                sh.hook_ms.push_back(1e3 * (now_s() - t0));
                sh.last_hook_cpu_ms = 1e3 * (thread_cpu_s() - c0);
                sh.hook_cpu_ms.push_back(sh.last_hook_cpu_ms);
            }
        });
    }
    persist::PersistConfig pcfg;
    pcfg.dir = wal_dir;
    pcfg.checkpoint_stride = kCheckpointStride;
    persist::DurabilityManager<PT> durable(engine, A, pcfg, persist::DurabilityManager<PT>::Start::Fresh,
                                           serve_mode ? &hub : nullptr);
    PublishTap tap{engine, nullptr, nullptr};
    if (rank == 0 && traced)
        tap.before = [&](std::uint64_t v) {
            sh.pre_publish_cpu_ms.emplace_back(v, 1e3 * (thread_cpu_s() - sh.pump_cpu0) - sh.last_hook_cpu_ms);
        };
    if (rank == 0)
        tap.done = [&](std::uint64_t v, double t0) {
            if (sh.store->current_version() == v &&
                (sh.published.empty() || sh.published.back().first != v)) {
                sh.published.emplace_back(v, now_s());
                sh.publish_ms.push_back(1e3 * (now_s() - t0));
            }
        };
    sh.store->attach(tap, A, serve_mode ? &hub : nullptr);
    comm.barrier();
    if (rank == 0) {
        sh.setup_s.push_back(now_s() - t_setup0);
        sh.published.emplace_back(0, now_s());
    }
    if (!measure) return;

    // ---- timed window
    engine.queue().register_producer();
    HistWindow wal_append("persist_wal_append_ns"), wal_fsync("persist_wal_fsync_ns"),
        ckpt("persist_checkpoint_ns");
    comm.barrier();
    std::vector<std::thread> threads;
    if (rank == 0) {
        wal_append.start();
        wal_fsync.start();
        ckpt.start();
        for (int r = 0; r < kRanks; ++r)
            sh.blocked_begin[static_cast<std::size_t>(r)] =
                obs::registry().counter("stream_queue_blocked_ns", {{"rank", std::to_string(r)}}).value();
        sh.comm.start(comm);
        if (traced) {
            par::Profiler::reset();
            par::Profiler::clear_trace();
        }
        sh.published_in_window = sh.store->published();
        sh.load_cpu_s = 0;
        sh.cpu0 = process_cpu_s();
        sh.t_start = now_s();
        if (in.sz.write_rate > 0) {
            threads.emplace_back(open_producer, std::ref(sh), std::ref(*sh.sources[0]), in.sz.write_rate,
                                 o.seconds);
            threads.emplace_back(query_client, std::ref(sh), o.seed, in.sz.query_rate, o.seconds);
        } else {
            for (auto& src : sh.sources)
                threads.emplace_back(closed_producer, std::ref(sh), std::ref(*src), o.seconds);
        }
    }
    if (serve_mode) comm.barrier();  // every rank sees t_start
    for (std::uint64_t k = 1, more = 1; more != 0; ++k) {
        // node-serve applies its epochs on a fixed schedule: epoch k starts
        // at t_start + k * period, or at once when the previous one ran
        // late. Its maintainer costs the same per epoch whatever the epoch
        // holds, so a cadence set by how fast the host happened to run would
        // carry host noise into the cost per operation.
        if (serve_mode) {
            const double wait = sh.t_start + static_cast<double>(k) * kServeEpochPeriod - now_s();
            if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
        }
        if (rank == 0 && traced) {
            sh.pump_cpu0 = thread_cpu_s();
            sh.last_hook_cpu_ms = 0;
        }
        more = engine.pump() ? 1 : 0;
    }
    comm.barrier();
    if (rank == 0) {
        sh.t_end = now_s();
        for (auto& t : threads) t.join();
        sh.cpu_s = process_cpu_s() - sh.cpu0 - sh.load_cpu_s;
        sh.peak_rss_mb = peak_rss_mb();
    }
    // Publish whatever the cadence left unpublished, so the last snapshot
    // holds every applied op (a node's shutdown publication).
    std::uint64_t version = 0;
    for (const auto& e : engine.epoch_log())
        if (e.global_ops > 0) {
            ++version;
            sh.drained[static_cast<std::size_t>(rank)].push_back(e.drained);
        }
    if (version % kPublishEvery != 0) {
        const double t0 = now_s();
        sh.store->publish_now(A, rank, version);
        if (rank == 0) {
            sh.published.emplace_back(version, now_s());
            sh.publish_ms.push_back(1e3 * (now_s() - t0));
        }
    }
    const auto applied = comm.allreduce<std::uint64_t>(engine.stats().local_ops,
                                                       [](auto a, auto b) { return a + b; });
    const auto wal = comm.allreduce<std::uint64_t>(durable.stats().bytes_logged,
                                                   [](auto a, auto b) { return a + b; });
    comm.barrier();
    if (rank == 0) {
        sh.comm.stop(comm);
        sh.applied = applied;
        sh.wal_bytes = wal;
        sh.final_version = version;
        sh.log0 = engine.epoch_log();
        sh.last = sh.store->current();
        sh.published_in_window = sh.store->published() - sh.published_in_window;
        for (int r = 0; r < kRanks; ++r)
            sh.blocked_ms += 1e-6 * static_cast<double>(
                                        obs::registry()
                                            .counter("stream_queue_blocked_ns", {{"rank", std::to_string(r)}})
                                            .value() -
                                        sh.blocked_begin[static_cast<std::size_t>(r)]);
        for (std::size_t p = 0; p < par::kPhaseCount; ++p)
            sh.phase_s[p] = par::Profiler::total_seconds(static_cast<Phase>(p));
        sh.wal_ms = {wal_append.ms(0.5), wal_fsync.ms(0.99), ckpt.ms(0.5)};
        sh.epochs_logged = engine.epoch_log().size() == engine.stats().epochs;
    }
    comm.barrier();
}

}  // namespace
}  // namespace pb

namespace pb {
namespace {

/// The final graph the ops pushed must produce, as (key_of(i, j), value)
/// sorted by key: the edges the producers' lanes hold alive.
std::vector<std::pair<std::uint64_t, double>> replay_final(const NodeShared& sh) {
    std::vector<std::pair<std::uint64_t, double>> out;
    for (const auto& src : sh.sources)
        src->for_each_live([&](const Edge& e) { out.emplace_back(key_of(e.row, e.col), e.value); });
    std::sort(out.begin(), out.end());
    return out;
}

/// The benchmark's own answer to a query on the replayed graph.
double expected_answer(const serve::Query& q, const Replay& g, double triangles) {
    switch (q.kind) {
        case serve::QueryKind::EdgeExists: return g.find(q.row, q.col) != nullptr ? 1.0 : 0.0;
        case serve::QueryKind::Degree: return static_cast<double>(g.degree(q.row));
        case serve::QueryKind::KHop: return static_cast<double>(reach_count(g, q.row, q.hops));
        case serve::QueryKind::AnalyticsRead: return triangles;
    }
    return -1;
}

/// Mean nnz(C*) of the triangle maintainer's Algorithm 1 calls, as the
/// epochs' net edge changes imply it (the maintainer passes no C* out).
/// Each epoch inserts the absent pairs I and removes the present pairs R it
/// was sent (a MASK wins over an ADD; MERGEs are skipped), both directions.
/// With S the adjacency before the epoch, its four calls produce C* = S*I,
/// I*(S+I), and then (S+I)*R twice: removed entries are pruned only after
/// the last call.
double maintainer_cstar_nnz(const NodeShared& sh, index_t n) {
    std::vector<std::unordered_set<index_t>> adj(static_cast<std::size_t>(n));
    auto nbrs = [&](index_t v) -> std::unordered_set<index_t>& { return adj[static_cast<std::size_t>(v)]; };
    for (const auto& part : sh.in->prefill)
        for (const auto& e : part) nbrs(e.row).insert(e.col), nbrs(e.col).insert(e.row);
    using Pairs = std::vector<std::pair<index_t, index_t>>;
    std::unordered_set<std::uint64_t> pattern;
    auto left = [&](const Pairs& u) {  // pattern of S * U
        pattern.clear();
        for (const auto& [k, j] : u)
            for (const index_t i : nbrs(k)) pattern.insert(key_of(i, j));
        return pattern.size();
    };
    auto right = [&](const Pairs& u) {  // pattern of U * S
        pattern.clear();
        for (const auto& [i, k] : u)
            for (const index_t j : nbrs(k)) pattern.insert(key_of(i, j));
        return pattern.size();
    };
    std::array<std::size_t, kRanks> cursor{};
    std::uint64_t total = 0, calls = 0;
    for (std::size_t e = 0;; ++e) {
        std::unordered_map<std::uint64_t, bool> net;  // pair -> saw a MASK
        bool any = false;
        for (std::size_t q = 0; q < kRanks; ++q) {
            if (e >= sh.drained[q].size()) continue;
            any = true;
            for (std::size_t x = 0; x < sh.drained[q][e]; ++x) {
                const Op op = sh.ops[q][cursor[q]++].op();
                if (op.kind == Kind::Merge) continue;
                auto [it, fresh] = net.try_emplace(pair_key(op.e.row, op.e.col), op.kind == Kind::Mask);
                if (!fresh && op.kind == Kind::Mask) it->second = true;
            }
        }
        if (!any) break;
        Pairs ins, rem;
        for (const auto& [key, masked] : net) {
            const index_t i = key_row(key), j = key_col(key);
            const bool present = nbrs(i).count(j) != 0;
            if (masked && present) rem.insert(rem.end(), {{i, j}, {j, i}});
            if (!masked && !present) ins.insert(ins.end(), {{i, j}, {j, i}});
        }
        total += left(ins);
        for (const auto& [i, j] : ins) nbrs(i).insert(j);
        total += right(ins) + left(rem) + right(rem);
        for (const auto& [i, j] : rem) nbrs(i).erase(j);
        calls += 4;
    }
    return calls == 0 ? 0.0 : static_cast<double>(total) / static_cast<double>(calls);
}

void check_and_report(const Options& o, NodeShared& sh, bool serve_mode, bool traced, Result& r) {
    const auto& in = *sh.in;
    const index_t n = in.rmat->n();
    std::uint64_t pushed = 0;
    for (const auto& q : sh.push_t) pushed += q.size();
    r.attempted = pushed + sh.push_failed + sh.issued;
    r.failed = sh.push_failed + (pushed - std::min(pushed, sh.applied)) + (sh.issued - sh.ok);
    r.check(sh.epochs_logged, "stream: epoch log truncated, visibility cannot be mapped");

    // ---- visibility: the ops of queue q drained by the e-th applied epoch
    // belong to version e + 1 and became visible with the first
    // publication of that version or a later one.
    std::vector<double> visible;
    visible.reserve(pushed);
    std::size_t seen = 0;
    for (int q = 0; q < kRanks; ++q) {
        const auto qi = static_cast<std::size_t>(q);
        std::size_t x = 0;
        auto pub = sh.published.begin();
        for (std::size_t e = 0; e < sh.drained[qi].size(); ++e) {
            while (pub != sh.published.end() && pub->first < e + 1) ++pub;
            for (std::size_t end = x + sh.drained[qi][e]; x < end && x < sh.push_t[qi].size(); ++x)
                if (pub != sh.published.end()) {
                    const double t = static_cast<double>(sh.push_t[qi][x]);
                    visible.push_back(1e3 * (pub->second - sh.t_start - t));
                    ++seen;
                }
        }
        r.check(x == sh.push_t[qi].size(), "stream: queue " + std::to_string(q) + " drained " +
                                               std::to_string(x) + " of " +
                                               std::to_string(sh.push_t[qi].size()) + " ops");
    }
    r.check(seen == pushed, "serve: " + std::to_string(pushed - seen) +
                                " applied ops never reached a published snapshot");

    // ---- the last published snapshot equals the replay of the ops pushed.
    auto want = replay_final(sh);
    if (o.perturb == "replay") want[want.size() / 2].second += 1;
    std::uint64_t bad = 0;
    std::size_t pos = 0;
    std::vector<std::pair<index_t, double>> row;
    for (index_t i = 0; i < n; ++i) {
        row.clear();
        sh.last->for_row(i, [&](index_t j, double v) { row.emplace_back(j, v); });
        std::sort(row.begin(), row.end());
        for (const auto& [j, v] : row) {
            if (pos < want.size() && want[pos].first == key_of(i, j) && want[pos].second == v) ++pos;
            else ++bad;
        }
        while (pos < want.size() && key_row(want[pos].first) == i) ++pos, ++bad;
    }
    r.check(sh.last->version() == sh.final_version && sh.last->nnz() == want.size() && bad == 0,
            "replay: last snapshot (version " + std::to_string(sh.last->version()) + ", nnz " +
                std::to_string(sh.last->nnz()) + ") differs from the replay (version " +
                std::to_string(sh.final_version) + ", nnz " + std::to_string(want.size()) +
                ") in " + std::to_string(bad) + " entries");
    r.notes.push_back(std::string("graph: ") + (in.sz.skewed ? "R-MAT" : "ER") + " n=2^" +
                      std::to_string(in.sz.scale) + ", prefill " +
                      std::to_string(in.sz.prefill) + ", final nnz " + std::to_string(want.size()) +
                      ", ops " + std::to_string(pushed) + ", applied epochs " +
                      std::to_string(sh.final_version));

    if (serve_mode) {
        // ---- the frozen triangle readout equals an independent count.
        std::vector<std::uint64_t> pairs;
        pairs.reserve(want.size());
        for (const auto& [k, v] : want) pairs.push_back(pair_key(key_row(k), key_col(k)));
        double tri_want = static_cast<double>(triangle_count(n, pairs));
        if (o.perturb == "triangles") tri_want += 1;
        const auto got = sh.last->analytics("triangles");
        r.check(got && *got == tri_want, "triangles: readout " + std::to_string(got ? *got : -1.0) +
                                             " != independent count " + std::to_string(tri_want));
        // ---- a seeded sample of answers matches the benchmark's own
        // evaluation on the graph replayed to the answering version.
        std::sort(sh.samples.begin(), sh.samples.end(),
                  [](const Sample& a, const Sample& b) { return a.r.version < b.r.version; });
        Replay g(n);
        for (const auto& part : in.prefill)
            for (const auto& e : part) g.apply({Kind::Add, e});
        std::array<std::size_t, kRanks> cursor{};
        std::uint64_t at = 0, wrong = 0, checked = 0;
        double tri = -1;
        for (std::size_t s = 0; s < sh.samples.size(); ++s) {
            const Sample& smp = sh.samples[s];
            if (smp.r.status != serve::QueryStatus::Ok) continue;
            for (; at < smp.r.version; ++at, tri = -1)
                for (int q = 0; q < kRanks; ++q) {
                    const auto qi = static_cast<std::size_t>(q);
                    const std::size_t count = at < sh.drained[qi].size() ? sh.drained[qi][at] : 0;
                    for (std::size_t x = 0; x < count; ++x) g.apply(sh.ops[qi][cursor[qi]++].op());
                }
            if (smp.q.kind == serve::QueryKind::AnalyticsRead && tri < 0)
                tri = static_cast<double>(triangle_count(n, g.pairs()));
            double expect = expected_answer(smp.q, g, tri);
            if (o.perturb == "queries" && checked == 0) expect += 1;
            ++checked;
            if (expect != smp.r.value) ++wrong;
        }
        r.check(checked > 0 && wrong == 0, "queries: " + std::to_string(wrong) + " of " +
                                               std::to_string(checked) + " sampled answers differ");
        r.notes.push_back("queries: issued " + std::to_string(sh.issued) + ", ok " + std::to_string(sh.ok) +
                          ", cache hits " + std::to_string(sh.hits) + ", sampled " + std::to_string(checked));
    }

    // ---- end-to-end metrics
    std::vector<double> epoch_ms, apply_ms, drain_ms, ops_per_epoch;
    for (const auto& e : sh.log0) {
        if (e.global_ops == 0) continue;
        epoch_ms.push_back(e.apply_ms + e.hook_ms + e.publish_ms + e.persist_ms);
        apply_ms.push_back(e.apply_ms);
        drain_ms.push_back(e.drain_ms);
        ops_per_epoch.push_back(static_cast<double>(e.global_ops));
    }
    auto& E = r.e2e;
    E.set("batch_ms_p50", quantile(epoch_ms, 0.5), "ms");
    E.set("batch_ms_p90", quantile(epoch_ms, 0.9), "ms");
    E.set("ingest_ops_per_s", static_cast<double>(sh.applied) / std::max(sh.t_end - sh.t_start, 1e-9), "ops/s");
    // Without a query client, a read that arrives with a write is answered
    // once the write is visible.
    const double vis50 = quantile(visible, 0.5), vis99 = quantile(visible, 0.99);
    E.set("visible_ms_p50", vis50, "ms");
    E.set("visible_ms_p99", vis99, "ms");
    E.set("query_ms_p50", serve_mode ? quantile(sh.query_ms, 0.5) : vis50, "ms");
    E.set("query_ms_p99", serve_mode ? quantile(sh.query_ms, 0.99) : vis99, "ms");
    r.peak_rss_mb = sh.peak_rss_mb;
    // The program's CPU (process CPU less the load threads') per write
    // applied and query answered.
    E.set("cpu_us_per_op", 1e6 * sh.cpu_s / std::max<double>(static_cast<double>(sh.applied + sh.ok), 1), "us");
    report_comm(r, sh.comm, static_cast<double>(sh.applied), static_cast<double>(apply_ms.size()));
    if (!traced) return;

    // ---- per-layer metrics
    auto& L = r.layer;
    const double per = 1e3 / (kRanks * std::max<double>(static_cast<double>(apply_ms.size()), 1));
    auto phase_ms = [&](Phase p) { return per * sh.phase_s[static_cast<std::size_t>(p)]; };
    L.set("stream.drain_ms_p50", quantile(drain_ms, 0.5), "ms");
    L.set("stream.apply_ms_p50", quantile(apply_ms, 0.5), "ms");
    L.set("stream.apply_ms_p99", quantile(apply_ms, 0.99), "ms");
    L.set("stream.ops_per_epoch", median(ops_per_epoch), "count");
    L.set("stream.queue_blocked_ms", sh.blocked_ms, "ms");
    L.set("core.redist_sort_ms", phase_ms(Phase::RedistSort), "ms");
    L.set("core.redist_comm_ms", phase_ms(Phase::RedistComm), "ms");
    L.set("core.local_construct_ms", phase_ms(Phase::LocalConstruct), "ms");
    L.set("core.local_addition_ms", phase_ms(Phase::LocalAddition), "ms");
    L.set("persist.wal_append_ms_p50", sh.wal_ms[0], "ms");
    L.set("persist.wal_fsync_ms_p99", sh.wal_ms[1], "ms");
    L.set("persist.wal_bytes_per_op", static_cast<double>(sh.wal_bytes) / std::max<double>(1, static_cast<double>(sh.applied)), "B");
    L.set("persist.checkpoint_ms_p50", sh.wal_ms[2], "ms");
    L.set("serve.publish_ms_p50", median(sh.publish_ms), "ms");
    L.set("serve.snapshots_published", static_cast<double>(sh.published_in_window), "count");

    // The engine calls build_update_matrix inside its apply (Phase::
    // StreamApply); the apply's time outside its top-level LocalAddition
    // spans (the local application of A*) is the build. Its CPU is rank 0's
    // thread CPU from the start of the epoch to the publish hook, less the
    // analytics hook's and the LocalAddition wall time: the build plus the
    // drain's and the WAL append's small CPU cost, which the engine gives
    // no hook to separate.
    const auto trace = par::Profiler::collect_trace();
    std::unordered_map<std::uint32_t, std::vector<const par::TraceSpan*>> by_thread;
    for (const auto& s : trace.spans) by_thread[s.tid].push_back(&s);
    std::vector<double> build_ms, build_cpu_ms;
    std::unordered_map<std::int64_t, double> rank0_add_ms;  // by epoch version
    for (auto& [tid, spans] : by_thread) {
        std::sort(spans.begin(), spans.end(),
                  [](const par::TraceSpan* a, const par::TraceSpan* b) { return a->start_ns < b->start_ns; });
        for (std::size_t x = 0; x < spans.size(); ++x) {
            const par::TraceSpan& a = *spans[x];
            if (a.phase != Phase::StreamApply) continue;
            const std::uint64_t end = a.start_ns + a.dur_ns;
            std::uint64_t add_ns = 0, covered = 0;
            for (std::size_t y = x + 1; y < spans.size() && spans[y]->start_ns < end; ++y)
                if (spans[y]->phase == Phase::LocalAddition && spans[y]->start_ns >= covered) {
                    add_ns += spans[y]->dur_ns;
                    covered = spans[y]->start_ns + spans[y]->dur_ns;
                }
            build_ms.push_back(1e-6 * static_cast<double>(a.dur_ns - std::min(add_ns, a.dur_ns)));
            if (a.rank == 0) rank0_add_ms[a.epoch] = 1e-6 * static_cast<double>(add_ns);
        }
    }
    for (const auto& [version, cpu] : sh.pre_publish_cpu_ms) {
        const auto it = rank0_add_ms.find(static_cast<std::int64_t>(version));
        if (it != rank0_add_ms.end()) build_cpu_ms.push_back(std::max(cpu - it->second, 0.0));
    }
    L.set("core.build_update_wall_ms", median(build_ms), "ms");
    L.set("core.build_update_cpu_ms", median(build_cpu_ms), "ms");
    if (!serve_mode) return;
    const double alg1 = phase_ms(Phase::SendRecv) + phase_ms(Phase::LocalMult) +
                        phase_ms(Phase::Scatter) + phase_ms(Phase::ReduceScatter);
    L.set("core.alg1_wall_ms", alg1, "ms");
    // The maintainer's calls cannot be timed from outside; the CPU of its
    // hook (four Algorithm 1 calls, one redistribution and a count) bounds
    // theirs.
    L.set("core.alg1_cpu_ms", median(sh.hook_cpu_ms), "ms");
    L.set("core.alg1_cstar_nnz", maintainer_cstar_nnz(sh, n), "count");
    L.set("core.alg1_sendrecv_ms", phase_ms(Phase::SendRecv), "ms");
    L.set("core.alg1_local_mult_ms", phase_ms(Phase::LocalMult), "ms");
    L.set("core.alg1_scatter_ms", phase_ms(Phase::Scatter), "ms");
    L.set("core.alg1_reduce_scatter_ms", phase_ms(Phase::ReduceScatter), "ms");
    std::array<std::vector<double>, serve::kQueryKindCount> eval_us;
    std::vector<double> admit_us;
    for (const auto& s : trace.spans) {
        if (s.phase == Phase::ServeQuery && s.qclass >= 0 &&
            static_cast<std::size_t>(s.qclass) < serve::kQueryKindCount)
            eval_us[static_cast<std::size_t>(s.qclass)].push_back(1e-3 * static_cast<double>(s.dur_ns));
        if (s.phase == Phase::ServeAdmit) admit_us.push_back(1e-3 * static_cast<double>(s.dur_ns));
    }
    for (std::size_t k = 0; k < serve::kQueryKindCount; ++k)
        L.set(std::string("serve.eval_us_p99.") + serve::query_kind_name(static_cast<serve::QueryKind>(k)),
              quantile(eval_us[k], 0.99), "us");
    L.set("serve.admit_wait_us_p99", quantile(admit_us, 0.99), "us");
    L.set("serve.cache_hit_ratio",
          static_cast<double>(sh.hits) / std::max<double>(1, static_cast<double>(sh.issued)), "ratio");
    L.set("analytics.hook_ms_p50", quantile(sh.hook_ms, 0.5), "ms");
    L.set("analytics.hook_ms_p99", quantile(sh.hook_ms, 0.99), "ms");
    L.set("analytics.hook_cpu_ms_p50", quantile(sh.hook_cpu_ms, 0.5), "ms");
    L.set("gen.lateness_ms_max", std::max(sh.write_lateness_ms, sh.query_lateness_ms), "ms");
}

}  // namespace

Result run_node(const Options& o, bool traced, bool serve_mode) {
    const NodeSizing& sz = serve_mode ? kServe : kIngest;
    const std::filesystem::path wal_dir = std::filesystem::path(o.work_dir) /
                                          ("wal-" + o.workload + "-" + std::to_string(::getpid()));
    NodeShared sh;
    std::unique_ptr<NodeInputs> in;
    Result r;
    const int reps = serve_mode ? kServeSetupReps : kSetupReps;
    for (int rep = 0; rep < reps; ++rep) {
        const bool measure = rep == 0;
        sh.sources.clear();
        in.reset();
        const double t0 = now_s();
        in = std::make_unique<NodeInputs>(make_inputs(o.seed, sz));
        sh.in = in.get();
        sh.record_ops = serve_mode;
        for (int p = 0; p < sz.producers; ++p) {
            std::vector<int> queues;
            for (int q = 0; q < kRanks; ++q)
                if (q * sz.producers / kRanks == p) queues.push_back(q);
            sh.sources.push_back(std::make_unique<OpSource>(*in, o.seed, p, std::move(queues)));
        }
        serve::StoreConfig scfg;
        scfg.publish_every = kPublishEvery;
        Store store(scfg);
        serve::ResultCache cache;
        if (serve_mode) store.set_cache(&cache);
        sh.store = &store;
        std::unique_ptr<serve::QueryExecutor<double>> exec;
        if (serve_mode) {
            serve::ExecutorConfig ecfg;
            ecfg.pending_capacity = 1 << 14;
            ecfg.deadline = std::chrono::seconds(30);
            ecfg.cache = &cache;
            exec = std::make_unique<serve::QueryExecutor<double>>(store, ecfg);
        }
        sh.exec = exec.get();
        par::run_world(kRanks, [&](Comm& comm) {
            node_body(comm, o, sh, serve_mode, measure, t0, wal_dir, traced);
        });
        if (exec) exec->stop();
        std::filesystem::remove_all(wal_dir);
        if (measure) check_and_report(o, sh, serve_mode, traced, r);
    }
    r.e2e.set("setup_s", median(sh.setup_s), "s");
    r.notes.push_back("set-ups: " + std::to_string(sh.setup_s.size()) + ", first " +
                      std::to_string(sh.setup_s.front()) + " s, min " +
                      std::to_string(quantile(sh.setup_s, 0)) + " s, max " +
                      std::to_string(quantile(sh.setup_s, 1)) + " s");
    std::error_code ec;
    std::filesystem::remove(o.work_dir, ec);  // only if empty
    return r;
}

}  // namespace pb
