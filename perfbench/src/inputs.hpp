// The benchmark's own inputs: edge generators and the key sets that keep
// streamed edges unique. None of it calls the program, so a change to the
// program cannot change the load it is measured under.
#pragma once

#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "common.hpp"
#include "sparse/types.hpp"

namespace pb {

using dsg::sparse::index_t;
using Edge = dsg::sparse::Triple<double>;

/// Packs (i, j) with i, j < 2^32 into one key.
inline std::uint64_t key_of(index_t i, index_t j) {
    return (static_cast<std::uint64_t>(i) << 32) | static_cast<std::uint64_t>(j);
}
inline index_t key_row(std::uint64_t k) { return static_cast<index_t>(k >> 32); }
inline index_t key_col(std::uint64_t k) { return static_cast<index_t>(k & 0xffffffffu); }
/// Key of the unordered pair {i, j}.
inline std::uint64_t pair_key(index_t i, index_t j) {
    return i < j ? key_of(i, j) : key_of(j, i);
}

/// Open-addressing set of 64-bit keys (the value ~0 is reserved).
class KeySet {
public:
    explicit KeySet(std::size_t expected = 16) {
        std::size_t cap = 16;
        while (cap < 2 * expected) cap <<= 1;
        slots_.assign(cap, kEmpty);
    }
    /// Inserts k; false if it was already present.
    bool insert(std::uint64_t k) {
        if (2 * (size_ + 1) > slots_.size()) grow();
        return put(k);
    }
    [[nodiscard]] bool contains(std::uint64_t k) const {
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t h = mix(k) & mask;; h = (h + 1) & mask) {
            if (slots_[h] == k) return true;
            if (slots_[h] == kEmpty) return false;
        }
    }

private:
    static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
    static std::size_t mix(std::uint64_t k) {
        k ^= k >> 33;
        k *= 0xff51afd7ed558ccdull;
        k ^= k >> 33;
        return static_cast<std::size_t>(k);
    }
    bool put(std::uint64_t k) {
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t h = mix(k) & mask;; h = (h + 1) & mask) {
            if (slots_[h] == k) return false;
            if (slots_[h] == kEmpty) {
                slots_[h] = k;
                ++size_;
                return true;
            }
        }
    }
    void grow() {
        std::vector<std::uint64_t> old(slots_.size() * 2, kEmpty);
        old.swap(slots_);
        size_ = 0;
        for (const auto k : old)
            if (k != kEmpty) put(k);
    }
    std::vector<std::uint64_t> slots_;
    std::size_t size_ = 0;
};

/// Bloom filter over 64-bit keys: insert() may call a new key seen (at a
/// rate set by the size), never the reverse. Generators use it to keep
/// streamed edges unique in a few bits per key; a false positive only
/// skips a fresh edge.
class BloomSet {
public:
    explicit BloomSet(int log2_bits)
        : bits_(std::size_t{1} << (log2_bits - 6), 0), mask_((std::size_t{1} << log2_bits) - 1) {}
    /// Inserts k; false if it was (possibly) present already.
    bool insert(std::uint64_t k) {
        bool fresh = false;
        for (std::uint64_t h = 0; h < 3; ++h) {
            const std::size_t b = slot(k, h);
            auto& word = bits_[b >> 6];
            const std::uint64_t bit = std::uint64_t{1} << (b & 63);
            fresh = fresh || (word & bit) == 0;
            word |= bit;
        }
        return fresh;
    }

private:
    [[nodiscard]] std::size_t slot(std::uint64_t k, std::uint64_t h) const {
        k += (h + 1) * 0x9e3779b97f4a7c15ull;
        k = (k ^ (k >> 30)) * 0xbf58476d1ce4e5b9ull;
        k = (k ^ (k >> 27)) * 0x94d049bb133111ebull;
        return static_cast<std::size_t>(k ^ (k >> 31)) & mask_;
    }
    std::vector<std::uint64_t> bits_;
    std::size_t mask_;
};

/// Erdos-Renyi edge: both endpoints uniform in [0, n), value an integer in
/// [vmin, vmax] so that sums and products stay exact in doubles.
inline Edge er_edge(Rng& rng, index_t n, int vmin, int vmax) {
    const auto i = static_cast<index_t>(rng.below(static_cast<std::uint64_t>(n)));
    const auto j = static_cast<index_t>(rng.below(static_cast<std::uint64_t>(n)));
    const auto v = static_cast<double>(
        vmin + static_cast<int>(rng.below(static_cast<std::uint64_t>(vmax - vmin + 1))));
    return {i, j, v};
}

/// Distinct Erdos-Renyi edges (duplicates dropped), generated in `parts`
/// independent streams so each rank's slice is its own stream.
inline std::vector<std::vector<Edge>> er_unique_slices(std::uint64_t seed, std::uint64_t stream,
                                                       index_t n, std::size_t per_part,
                                                       int parts, int vmin, int vmax) {
    KeySet seen(per_part * static_cast<std::size_t>(parts));
    std::vector<std::vector<Edge>> out(static_cast<std::size_t>(parts));
    for (int p = 0; p < parts; ++p) {
        Rng rng(seed, stream, static_cast<std::uint64_t>(p));
        auto& part = out[static_cast<std::size_t>(p)];
        part.reserve(per_part);
        while (part.size() < per_part) {
            const Edge e = er_edge(rng, n, vmin, vmax);
            if (seen.insert(key_of(e.row, e.col))) part.push_back(e);
        }
    }
    return out;
}

/// R-MAT generator (a, b, c, d) = (0.57, 0.19, 0.19, 0.05) with a seeded
/// vertex relabelling, so hubs are spread over the grid but rows stay long.
/// With skewed = false it draws both endpoints uniformly (Erdos-Renyi).
class Rmat {
public:
    Rmat(int scale, std::uint64_t seed, bool skewed = true)
        : scale_(scale), skewed_(skewed), perm_(std::size_t{1} << scale) {
        std::iota(perm_.begin(), perm_.end(), index_t{0});
        Rng rng(seed, 0x5eed);
        for (std::size_t k = perm_.size() - 1; k > 0; --k)
            std::swap(perm_[k], perm_[rng.below(k + 1)]);
    }
    [[nodiscard]] index_t n() const { return static_cast<index_t>(perm_.size()); }
    std::pair<index_t, index_t> edge(Rng& rng) const {
        if (!skewed_) {
            const auto i = static_cast<index_t>(rng.below(perm_.size()));
            return {i, static_cast<index_t>(rng.below(perm_.size()))};
        }
        index_t i = 0, j = 0;
        for (int level = 0; level < scale_; ++level) {
            const double u = rng.unit();
            const int quad = u < 0.57 ? 0 : u < 0.76 ? 1 : u < 0.95 ? 2 : 3;
            i = (i << 1) | (quad >> 1);
            j = (j << 1) | (quad & 1);
        }
        return {perm_[static_cast<std::size_t>(i)], perm_[static_cast<std::size_t>(j)]};
    }

private:
    int scale_;
    bool skewed_;
    std::vector<index_t> perm_;
};

}  // namespace pb
