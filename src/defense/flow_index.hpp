// Dense ids for flow keys (DESIGN.md §15).
//
// The defense plane's per-flow state — norm-screen references, adaptive
// step tracks, reference labels — is indexed by a dense id instead of a
// string-keyed map: a key is hashed once, when it is first seen, and every
// later row of the flow indexes a vector. sorted() restores the ascending
// key order the checkpoints have always been written in.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/string_hash.hpp"

namespace orev::defense {

class FlowIndex {
 public:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  /// Id of `key`, assigning the next one on first sight.
  std::uint32_t intern(std::string_view key) {
    const auto it = ids_.find(key);
    if (it != ids_.end()) return it->second;
    const auto id = static_cast<std::uint32_t>(keys_.size());
    keys_.emplace_back(key);
    ids_.emplace(keys_.back(), id);
    return id;
  }

  /// Id of `key`, or kNone when it was never interned.
  std::uint32_t find(std::string_view key) const {
    const auto it = ids_.find(key);
    return it == ids_.end() ? kNone : it->second;
  }

  const std::string& key(std::uint32_t id) const { return keys_[id]; }
  std::size_t size() const { return keys_.size(); }

  /// Every id, in ascending key order.
  std::vector<std::uint32_t> sorted() const {
    std::vector<std::uint32_t> out(keys_.size());
    for (std::size_t i = 0; i < out.size(); ++i)
      out[i] = static_cast<std::uint32_t>(i);
    std::sort(out.begin(), out.end(), [this](std::uint32_t a, std::uint32_t b) {
      return keys_[a] < keys_[b];
    });
    return out;
  }

 private:
  std::unordered_map<std::string, std::uint32_t, util::StringHash,
                     std::equal_to<>>
      ids_;
  std::vector<std::string> keys_;  // by id
};

}  // namespace orev::defense
