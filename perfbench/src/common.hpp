// Shared plumbing of the benchmark: options, clocks, statistics, the
// per-run metric sink, and the benchmark's own span log.
//
// Nothing here includes the program's headers except par/comm.hpp and
// par/profiler.hpp, which the span helpers need to bracket collective steps.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "par/comm.hpp"
#include "par/profiler.hpp"

namespace pb {

using Clock = std::chrono::steady_clock;

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /// Name of the check whose reference copy gets one entry perturbed
    /// (empty = none). Used by the check self-test.
    std::string perturb;
    /// Directory for the span dump of traced runs (empty = no dump).
    std::string out_dir;
    /// Scratch directory for the node's WAL and checkpoints; created and
    /// removed by the run.
    std::string work_dir = ".perfbench-work";
};

/// Seconds on the steady clock since an arbitrary process-wide origin.
inline double now_s() {
    static const Clock::time_point origin = Clock::now();
    return std::chrono::duration<double>(Clock::now() - origin).count();
}

/// CPU time consumed by the calling thread, in seconds.
inline double thread_cpu_s() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// CPU time consumed by every thread of this process, in seconds.
inline double process_cpu_s() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Peak resident set of this process (VmHWM), in MiB.
inline double peak_rss_mb() {
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    return 0;
}

/// Linear-interpolated quantile (q in [0, 1]) of a sorted sample; 0 when
/// empty.
inline double sorted_quantile(const std::vector<double>& v, double q) {
    if (v.empty()) return 0;
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double quantile(std::vector<double> v, double q) {
    std::sort(v.begin(), v.end());
    return sorted_quantile(v, q);
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// splitmix64: the benchmark's only source of randomness, so the inputs are
/// a function of the seed alone.
struct Rng {
    std::uint64_t s;
    explicit Rng(std::uint64_t seed) : s(seed * 0x9e3779b97f4a7c15ull + 0x632be59bd9b4e019ull) {}
    Rng(std::uint64_t seed, std::uint64_t stream, std::uint64_t sub = 0)
        : Rng(seed ^ (stream * 0xbf58476d1ce4e5b9ull) ^ (sub * 0x94d049bb133111ebull)) {}
    std::uint64_t next() {
        std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }
    /// Uniform in [0, bound).
    std::uint64_t below(std::uint64_t bound) {
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(next()) * bound) >> 64);
    }
    /// Uniform in [0, 1).
    double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

/// Ordered name -> (value, unit) map printed as the run's "metrics" object.
class Metrics {
public:
    void set(const std::string& name, double value, const std::string& unit) {
        values_[name] = {value, unit};
    }
    [[nodiscard]] const std::map<std::string, std::pair<double, std::string>>& all() const {
        return values_;
    }
    [[nodiscard]] double get(const std::string& name) const {
        const auto it = values_.find(name);
        return it == values_.end() ? 0.0 : it->second.first;
    }

private:
    std::map<std::string, std::pair<double, std::string>> values_;
};

/// Outcome of one workload pass.
struct Result {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> check_failures;  ///< empty = every check passed
    Metrics e2e;    ///< end-to-end metrics
    Metrics layer;  ///< per-layer metrics (filled by traced passes)
    std::vector<std::string> notes;  ///< human-readable lines (input make-up)
    double peak_rss_mb = 0;          ///< VmHWM at the end of the timed window

    void check(bool ok, const std::string& what) {
        if (!ok) check_failures.push_back(what);
    }
};

/// One span of the benchmark's own trace: a timed call into a layer.
struct Span {
    std::string name;
    int rank = -1;
    double start_s = 0;
    double wall_s = 0;
    double cpu_s = 0;
    std::int64_t parent = -1;  ///< index of the enclosing span on this rank
};

/// Per-rank span logs, kept in memory and dumped at the end of a traced run.
/// Each rank thread appends only to its own log, so no locking is needed.
class SpanLog {
public:
    explicit SpanLog(int ranks = 0) : logs_(static_cast<std::size_t>(ranks + 1)) {}
    bool enabled = false;

    /// Times fn() as a span of `rank` (slot `ranks` is for non-rank threads).
    template <typename Fn>
    void time(int rank, const std::string& name, Fn&& fn, std::int64_t parent = -1) {
        if (!enabled) {
            fn();
            return;
        }
        Span s;
        s.name = name;
        s.rank = rank;
        s.parent = parent;
        s.start_s = now_s();
        const double c0 = thread_cpu_s();
        fn();
        s.cpu_s = thread_cpu_s() - c0;
        s.wall_s = now_s() - s.start_s;
        logs_[slot(rank)].push_back(std::move(s));
    }
    /// Drops every span (call while no rank thread records).
    void clear() {
        for (auto& log : logs_) log.clear();
    }
    /// Records an already measured span.
    void add(Span s) {
        if (enabled) logs_[slot(s.rank)].push_back(std::move(s));
    }
    [[nodiscard]] std::int64_t next_index(int rank) const {
        return static_cast<std::int64_t>(logs_[slot(rank)].size());
    }
    /// Wall (or CPU) times in ms of every span with this name, all ranks.
    [[nodiscard]] std::vector<double> ms(const std::string& name, bool cpu = false) const {
        std::vector<double> out;
        for (const auto& log : logs_)
            for (const auto& s : log)
                if (s.name == name) out.push_back(1e3 * (cpu ? s.cpu_s : s.wall_s));
        return out;
    }
    void dump(const std::string& path) const {
        std::ofstream out(path);
        for (const auto& log : logs_)
            for (const auto& s : log)
                out << "{\"name\":\"" << s.name << "\",\"rank\":" << s.rank
                    << ",\"start_s\":" << s.start_s << ",\"wall_s\":" << s.wall_s
                    << ",\"cpu_s\":" << s.cpu_s << ",\"parent\":" << s.parent << "}\n";
    }

private:
    [[nodiscard]] std::size_t slot(int rank) const {
        return rank < 0 ? logs_.size() - 1 : static_cast<std::size_t>(rank);
    }
    std::vector<std::vector<Span>> logs_;
};

/// Accumulates par::Profiler phase totals per named step of a collective
/// loop. Traced runs bracket each step with sync points (barrier, rank 0
/// reads the process-wide totals, barrier), so a phase's time lands in the
/// step that spent it.
class PhaseLedger {
public:
    bool enabled = false;

    /// Collective. Reads the totals at a point where no rank is inside a
    /// step, and charges the difference since the previous read to `step`.
    void sync(dsg::par::Comm& comm, const std::string& step) {
        if (!enabled) return;
        comm.barrier();
        if (comm.rank() == 0) {
            std::array<double, dsg::par::kPhaseCount> now{};
            for (std::size_t p = 0; p < now.size(); ++p)
                now[p] = dsg::par::Profiler::total_seconds(static_cast<dsg::par::Phase>(p));
            if (!step.empty()) {
                auto& acc = steps_[step];
                for (std::size_t p = 0; p < now.size(); ++p) acc[p] += now[p] - last_[p];
            }
            last_ = now;
        }
        comm.barrier();
    }
    /// Forgets every charge (call while no rank is inside a step).
    void clear() { steps_.clear(); }
    /// Seconds of `phase` charged to `step`, summed over all ranks.
    [[nodiscard]] double seconds(const std::string& step, dsg::par::Phase phase) const {
        const auto it = steps_.find(step);
        return it == steps_.end() ? 0.0 : it->second[static_cast<std::size_t>(phase)];
    }

private:
    std::array<double, dsg::par::kPhaseCount> last_{};
    std::map<std::string, std::array<double, dsg::par::kPhaseCount>> steps_;
};

/// Comm volume over a window, read from the world's CommStats.
struct CommDelta {
    dsg::par::CommStats::Snapshot begin{}, total{};
    void start(const dsg::par::Comm& comm) { begin = comm.stats().snapshot(); }
    /// Adds the traffic since start() to the running total.
    void stop(const dsg::par::Comm& comm) {
        const auto e = comm.stats().snapshot();
        total.p2p_messages += e.p2p_messages - begin.p2p_messages;
        total.p2p_bytes += e.p2p_bytes - begin.p2p_bytes;
        total.bcast_bytes += e.bcast_bytes - begin.bcast_bytes;
        total.alltoall_bytes += e.alltoall_bytes - begin.alltoall_bytes;
        total.reduce_bytes += e.reduce_bytes - begin.reduce_bytes;
        total.gather_bytes += e.gather_bytes - begin.gather_bytes;
        total.barriers += e.barriers - begin.barriers;
        total.collectives += e.collectives - begin.collectives;
    }
};

/// Fills the par.* per-layer metrics and the comm_bytes_per_update metric.
inline void report_comm(Result& r, const CommDelta& c, double updates, double batches) {
    const double u = std::max(updates, 1.0);
    r.e2e.set("comm_bytes_per_update", static_cast<double>(c.total.total_bytes()) / u, "B");
    r.layer.set("par.alltoall_bytes_per_update", static_cast<double>(c.total.alltoall_bytes) / u, "B");
    r.layer.set("par.reduce_bytes_per_update", static_cast<double>(c.total.reduce_bytes) / u, "B");
    r.layer.set("par.gather_bytes_per_update", static_cast<double>(c.total.gather_bytes) / u, "B");
    r.layer.set("par.p2p_bytes_per_update", static_cast<double>(c.total.p2p_bytes) / u, "B");
    r.layer.set("par.bcast_bytes_per_update", static_cast<double>(c.total.bcast_bytes) / u, "B");
    r.layer.set("par.collectives_per_batch",
                static_cast<double>(c.total.collectives) / std::max(batches, 1.0), "count");
}

/// Set-ups per run; setup_s is their median. The first set-up is the
/// measured one, so the timed window runs in a fresh process.
inline constexpr int kSetupReps = 5;
inline constexpr int kRanks = 4;  // a 2 x 2 grid

}  // namespace pb
