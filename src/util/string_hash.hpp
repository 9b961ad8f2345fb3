// Transparent string hash: lets unordered containers keyed by std::string
// be probed with a std::string_view (or a literal) without building a
// temporary std::string. Pair it with std::equal_to<>.
#pragma once

#include <cstddef>
#include <functional>
#include <string_view>

namespace orev::util {

struct StringHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
};

}  // namespace orev::util
