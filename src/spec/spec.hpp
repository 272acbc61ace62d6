// The spec-language kernel (DESIGN.md §14): every rule for turning spec
// text into values. The attack, detect, platoon, fault, chaos and campaign
// languages keep only their own keys, bounds and constructors.
//
// Grammar of the key=value languages:
//   named := name [":" pairs]        "chi2:threshold=9.21,window=16"
//   pairs := [pair] ("," [pair])*    "n=8,attacked=3"
//   pair  := key "=" value
// Names and keys are [A-Za-z0-9_]+. A value is any non-empty text; a value
// in double quotes may hold the separators, and the quotes are stripped.
// Empty pairs are skipped. Numbers are finite and use the whole token;
// integers are unsigned decimal digits within a bound, so they cannot wrap.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace safe::spec {

enum class Status {
  kOk = 0,
  kMalformed,  ///< grammar error, bad value, or unknown key
  kUnknown,    ///< well-formed, but the name is not registered
};

/// The outcome of checking one spec.
struct Check {
  Status status = Status::kOk;
  std::string message;  ///< empty on kOk

  [[nodiscard]] bool ok() const { return status == Status::kOk; }
};

/// `text` without leading and trailing whitespace.
[[nodiscard]] std::string trim(std::string_view text);

/// `text` without one pair of enclosing double quotes, if it has them.
[[nodiscard]] std::string unquote(std::string_view text);

/// Splits `text` at every character of `seps` that lies outside double
/// quotes. Tokens keep their quotes and blanks, and empty tokens are kept.
/// std::nullopt when a quote is left open.
[[nodiscard]] std::optional<std::vector<std::string>> split(
    std::string_view text, std::string_view seps);

/// The whole token as a finite double.
[[nodiscard]] std::optional<double> to_double(std::string_view token);

/// The whole token as unsigned decimal digits whose value is at most `max`.
[[nodiscard]] std::optional<std::uint64_t> to_uint(
    std::string_view token,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/// on/true/1 or off/false/0.
[[nodiscard]] std::optional<bool> to_bool(std::string_view token);

/// The key=value pairs of one spec, taken by type. Each taker consumes its
/// key and leaves `out` untouched when the key is absent. The first error
/// is kept; finish() reports it, or else the first key nobody took.
class Params {
 public:
  /// Parses `name[:pairs]`; `domain` ("attack spec") prefixes messages.
  static Params named(std::string domain, std::string_view text);
  /// Parses bare `pairs`.
  static Params pairs(std::string domain, std::string_view text);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] bool empty() const { return values_.empty(); }
  [[nodiscard]] bool has(const std::string& key) const {
    return values_.count(key) > 0;
  }

  /// The raw value; false when the key is absent.
  bool take(const std::string& key, std::string& out);
  /// A finite number.
  void number(const std::string& key, double& out);
  /// An integer in [lo, hi]; `hi` must fit in T.
  template <typename T>
  void integer(const std::string& key, T& out, std::uint64_t lo = 0,
               std::uint64_t hi = static_cast<std::uint64_t>(
                   std::numeric_limits<T>::max())) {
    std::uint64_t value = 0;
    if (take_uint(key, lo, hi, value)) out = static_cast<T>(value);
  }
  /// on/off/true/false/1/0.
  void flag(const std::string& key, bool& out);

  /// Keeps "<domain>: <message>" as the error unless one is already kept.
  void fail(const std::string& message);
  /// fail(message) unless `condition` holds.
  void require(bool condition, const std::string& message) {
    if (!condition) fail(message);
  }

  [[nodiscard]] bool ok() const { return check_.ok(); }
  [[nodiscard]] Check finish() const;

 private:
  explicit Params(std::string domain) : domain_(std::move(domain)) {}
  void parse_pairs(std::string_view body, std::string_view text);
  bool take_uint(const std::string& key, std::uint64_t lo, std::uint64_t hi,
                 std::uint64_t& out);

  std::string domain_;
  std::string name_;
  std::map<std::string, std::string> values_;
  Check check_;
};

}  // namespace safe::spec
