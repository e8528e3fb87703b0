// The answer key: serial reference computations written from the
// definitions, sharing no code with the program's algorithms.
//  - Csr + multiply(): the serial product over (+,x) or (min,+);
//  - Replay: the graph that results from a set of pushed ops;
//  - triangle_count() and reach_count(): an independent triangle count and
//    a k-hop BFS over the replayed graph.
#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "inputs.hpp"

namespace pb {

/// Compressed sparse rows with sorted column indices.
struct Csr {
    index_t n = 0;
    std::vector<std::size_t> ptr;
    std::vector<index_t> col;
    std::vector<double> val;

    /// Builds from triples, combining duplicates of (i, j) with `add`.
    template <typename Add>
    static Csr from(index_t n, const std::vector<const std::vector<Edge>*>& parts, Add add) {
        Csr m;
        m.n = n;
        m.ptr.assign(static_cast<std::size_t>(n) + 1, 0);
        std::size_t total = 0;
        for (const auto* p : parts) {
            total += p->size();
            for (const auto& e : *p) ++m.ptr[static_cast<std::size_t>(e.row) + 1];
        }
        for (std::size_t r = 0; r < static_cast<std::size_t>(n); ++r) m.ptr[r + 1] += m.ptr[r];
        std::vector<std::size_t> fill(m.ptr.begin(), m.ptr.end() - 1);
        std::vector<std::pair<index_t, double>> tmp(total);
        for (const auto* p : parts)
            for (const auto& e : *p) tmp[fill[static_cast<std::size_t>(e.row)]++] = {e.col, e.value};
        // Sort each row and combine duplicates.
        std::vector<std::size_t> out_ptr(m.ptr.size(), 0);
        m.col.reserve(total);
        m.val.reserve(total);
        for (std::size_t r = 0; r < static_cast<std::size_t>(n); ++r) {
            auto b = tmp.begin() + static_cast<std::ptrdiff_t>(m.ptr[r]);
            auto e = tmp.begin() + static_cast<std::ptrdiff_t>(m.ptr[r + 1]);
            std::sort(b, e, [](const auto& x, const auto& y) { return x.first < y.first; });
            for (auto it = b; it != e; ++it) {
                if (m.col.size() > out_ptr[r] && m.col.back() == it->first)
                    m.val.back() = add(m.val.back(), it->second);
                else {
                    m.col.push_back(it->first);
                    m.val.push_back(it->second);
                }
            }
            out_ptr[r + 1] = m.col.size();
        }
        m.ptr = std::move(out_ptr);
        return m;
    }
    [[nodiscard]] std::size_t nnz() const { return col.size(); }

    /// Index range of row i's entries with column in [lo, hi).
    [[nodiscard]] std::pair<std::size_t, std::size_t> range(index_t i, index_t lo, index_t hi) const {
        const auto b = col.begin() + static_cast<std::ptrdiff_t>(ptr[static_cast<std::size_t>(i)]);
        const auto e = col.begin() + static_cast<std::ptrdiff_t>(ptr[static_cast<std::size_t>(i) + 1]);
        return {static_cast<std::size_t>(std::lower_bound(b, e, lo) - col.begin()),
                static_cast<std::size_t>(std::lower_bound(b, e, hi) - col.begin())};
    }
    /// Value at (i, j), or nullptr when absent.
    [[nodiscard]] const double* find(index_t i, index_t j) const {
        const auto [b, e] = range(i, j, j + 1);
        return b == e ? nullptr : &val[b];
    }
};

/// Serial row-by-row product C = A B with a dense accumulator; `add` and
/// `mul` are the semiring operations. Entries that no term reaches are absent.
template <typename Add, typename Mul>
Csr multiply(const Csr& a, const Csr& b, Add add, Mul mul) {
    Csr c;
    c.n = a.n;
    c.ptr.assign(static_cast<std::size_t>(a.n) + 1, 0);
    std::vector<double> acc(static_cast<std::size_t>(b.n), 0);
    std::vector<std::uint8_t> hit(static_cast<std::size_t>(b.n), 0);
    std::vector<index_t> touched;
    for (index_t i = 0; i < a.n; ++i) {
        touched.clear();
        for (std::size_t x = a.ptr[static_cast<std::size_t>(i)]; x < a.ptr[static_cast<std::size_t>(i) + 1]; ++x) {
            const index_t k = a.col[x];
            for (std::size_t y = b.ptr[static_cast<std::size_t>(k)]; y < b.ptr[static_cast<std::size_t>(k) + 1]; ++y) {
                const auto j = static_cast<std::size_t>(b.col[y]);
                const double term = mul(a.val[x], b.val[y]);
                if (hit[j] == 0) {
                    hit[j] = 1;
                    acc[j] = term;
                    touched.push_back(b.col[y]);
                } else {
                    acc[j] = add(acc[j], term);
                }
            }
        }
        std::sort(touched.begin(), touched.end());
        for (const index_t j : touched) {
            c.col.push_back(j);
            c.val.push_back(acc[static_cast<std::size_t>(j)]);
            hit[static_cast<std::size_t>(j)] = 0;
        }
        c.ptr[static_cast<std::size_t>(i) + 1] = c.col.size();
    }
    return c;
}

/// Op kinds of the streamed writes (the benchmark's own copy of the ADD /
/// MERGE / MASK vocabulary).
enum class Kind : std::uint8_t { Add, Merge, Mask };

struct Op {
    Kind kind;
    Edge e;
};

/// The graph a node should hold after a set of ops: directed entries with
/// values, plus out-adjacency for degree and BFS. Every op touches an edge
/// no other op touches, so the order of application is immaterial.
class Replay {
public:
    explicit Replay(index_t n) : adj_(static_cast<std::size_t>(n)) {}

    void apply(const Op& op) {
        const std::uint64_t k = key_of(op.e.row, op.e.col);
        switch (op.kind) {
            case Kind::Add:
            case Kind::Merge:
                if (values_.insert_or_assign(k, op.e.value).second)
                    adj_[static_cast<std::size_t>(op.e.row)].push_back(op.e.col);
                break;
            case Kind::Mask:
                if (values_.erase(k) != 0) {
                    auto& row = adj_[static_cast<std::size_t>(op.e.row)];
                    row.erase(std::find(row.begin(), row.end(), op.e.col));
                }
                break;
        }
    }
    /// Keys of the unordered pairs {i, j} of the stored entries.
    [[nodiscard]] std::vector<std::uint64_t> pairs() const {
        std::vector<std::uint64_t> out;
        out.reserve(values_.size());
        for (const auto& [k, v] : values_) out.push_back(pair_key(key_row(k), key_col(k)));
        return out;
    }
    [[nodiscard]] const double* find(index_t i, index_t j) const {
        const auto it = values_.find(key_of(i, j));
        return it == values_.end() ? nullptr : &it->second;
    }
    [[nodiscard]] std::size_t degree(index_t i) const { return adj_[static_cast<std::size_t>(i)].size(); }
    [[nodiscard]] const std::vector<index_t>& row(index_t i) const { return adj_[static_cast<std::size_t>(i)]; }

private:
    std::unordered_map<std::uint64_t, double> values_;
    std::vector<std::vector<index_t>> adj_;
};

/// Vertices reachable from src in 1..hops directed steps, src excluded.
inline std::size_t reach_count(const Replay& g, index_t src, int hops) {
    std::vector<index_t> frontier{src}, next;
    std::unordered_map<index_t, bool> seen{{src, true}};
    std::size_t reached = 0;
    for (int h = 0; h < hops; ++h) {
        next.clear();
        for (const index_t u : frontier)
            for (const index_t v : g.row(u))
                if (seen.emplace(v, true).second) {
                    ++reached;
                    next.push_back(v);
                }
        frontier.swap(next);
    }
    return reached;
}

/// Triangles of the undirected simple graph on the given pairs (self-loops
/// and repeated pairs ignored): orient each edge from lower to higher
/// (degree, id) and intersect the sorted out-lists.
inline std::uint64_t triangle_count(index_t n, const std::vector<std::uint64_t>& pairs) {
    std::vector<std::uint64_t> uniq;
    uniq.reserve(pairs.size());
    for (const auto k : pairs)
        if (key_row(k) != key_col(k)) uniq.push_back(k);
    std::sort(uniq.begin(), uniq.end());
    uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());
    std::vector<std::size_t> deg(static_cast<std::size_t>(n), 0);
    for (const auto k : uniq) {
        ++deg[static_cast<std::size_t>(key_row(k))];
        ++deg[static_cast<std::size_t>(key_col(k))];
    }
    auto before = [&](index_t a, index_t b) {
        const auto da = deg[static_cast<std::size_t>(a)], db = deg[static_cast<std::size_t>(b)];
        return da != db ? da < db : a < b;
    };
    std::vector<std::vector<index_t>> out(static_cast<std::size_t>(n));
    for (const auto k : uniq) {
        index_t a = key_row(k), b = key_col(k);
        if (!before(a, b)) std::swap(a, b);
        out[static_cast<std::size_t>(a)].push_back(b);
    }
    for (auto& l : out) std::sort(l.begin(), l.end());
    std::uint64_t count = 0;
    for (index_t u = 0; u < n; ++u)
        for (const index_t v : out[static_cast<std::size_t>(u)]) {
            const auto& lu = out[static_cast<std::size_t>(u)];
            const auto& lv = out[static_cast<std::size_t>(v)];
            std::size_t x = 0, y = 0;
            while (x < lu.size() && y < lv.size()) {
                if (lu[x] < lv[y]) ++x;
                else if (lu[x] > lv[y]) ++y;
                else { ++count; ++x; ++y; }
            }
        }
    return count;
}

}  // namespace pb
