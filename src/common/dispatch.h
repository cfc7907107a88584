// Compile-time dispatch of a per-call decision.
//
// A solver loop that tests a flag on every row or arc pays for it even
// when the flag is fixed for the whole call. WithFlag makes the one
// runtime test at the call and hands the loop the answer as a type, so
// the loop body is written once and compiled once per value, each copy
// testing the flag with `if constexpr`:
//
//   WithFlag(f.has_blend(), [&](auto blend) {
//     for (...) {
//       if constexpr (blend) sum += ...;
//     }
//   });

#ifndef D2PR_COMMON_DISPATCH_H_
#define D2PR_COMMON_DISPATCH_H_

#include <type_traits>
#include <utility>

namespace d2pr {

/// \brief Returns fn(std::true_type{}) when `flag` holds and
/// fn(std::false_type{}) otherwise. Both calls must return one type.
template <typename Fn>
decltype(auto) WithFlag(bool flag, Fn&& fn) {
  if (flag) return std::forward<Fn>(fn)(std::true_type{});
  return std::forward<Fn>(fn)(std::false_type{});
}

}  // namespace d2pr

#endif  // D2PR_COMMON_DISPATCH_H_
