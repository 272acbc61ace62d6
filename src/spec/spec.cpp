#include "spec/spec.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <stdexcept>

namespace safe::spec {

namespace {

/// True for a non-empty name of ASCII letters, digits and underscores.
bool valid_name(std::string_view name) {
  if (name.empty()) return false;
  for (const char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '_') {
      return false;
    }
  }
  return true;
}

}  // namespace

std::string trim(std::string_view text) {
  std::size_t b = 0;
  std::size_t e = text.size();
  const auto blank = [](char c) {
    return std::isspace(static_cast<unsigned char>(c)) != 0;
  };
  while (b < e && blank(text[b])) ++b;
  while (e > b && blank(text[e - 1])) --e;
  return std::string(text.substr(b, e - b));
}

std::string unquote(std::string_view text) {
  if (text.size() >= 2 && text.front() == '"' && text.back() == '"') {
    text = text.substr(1, text.size() - 2);
  }
  return std::string(text);
}

std::optional<std::vector<std::string>> split(std::string_view text,
                                              std::string_view seps) {
  std::vector<std::string> tokens(1);
  bool in_quotes = false;
  for (const char c : text) {
    if (c == '"') in_quotes = !in_quotes;
    if (!in_quotes && seps.find(c) != std::string_view::npos) {
      tokens.emplace_back();
    } else {
      tokens.back() += c;
    }
  }
  if (in_quotes) return std::nullopt;
  return tokens;
}

// std::from_chars takes no leading blanks or '+', never wraps a '-' into an
// unsigned value, and ignores the locale.
std::optional<double> to_double(std::string_view token) {
  double value = 0.0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc{} || ptr != end || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

std::optional<std::uint64_t> to_uint(std::string_view token,
                                     std::uint64_t max) {
  std::uint64_t value = 0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc{} || ptr != end || value > max) return std::nullopt;
  return value;
}

std::optional<bool> to_bool(std::string_view token) {
  if (token == "on" || token == "true" || token == "1") return true;
  if (token == "off" || token == "false" || token == "0") return false;
  return std::nullopt;
}

std::uint64_t flag_uint(std::string_view flag, std::string_view value,
                        std::uint64_t max) {
  if (const auto parsed = to_uint(value, max)) return *parsed;
  const std::string expected =
      max == std::numeric_limits<std::uint64_t>::max()
          ? "a non-negative integer"
          : "an integer in [0, " + std::to_string(max) + "]";
  throw std::invalid_argument(std::string(flag) + " expects " + expected +
                              ", got `" + std::string(value) + "`");
}

double flag_double(std::string_view flag, std::string_view value) {
  if (const auto parsed = to_double(value)) return *parsed;
  throw std::invalid_argument(std::string(flag) +
                              " expects a finite number, got `" +
                              std::string(value) + "`");
}

Params Params::named(std::string domain, std::string_view text) {
  Params params(std::move(domain));
  const std::size_t colon = text.find(':');
  params.name_ = std::string(text.substr(0, colon));
  if (!valid_name(params.name_)) {
    params.fail("bad name `" + params.name_ + "` in `" + std::string(text) +
                "`");
  } else if (colon != std::string_view::npos) {
    params.parse_pairs(text.substr(colon + 1), text);
  }
  return params;
}

Params Params::pairs(std::string domain, std::string_view text) {
  Params params(std::move(domain));
  params.parse_pairs(text, text);
  return params;
}

void Params::parse_pairs(std::string_view body, std::string_view text) {
  const std::string where = " in `" + std::string(text) + "`";
  const auto tokens = split(body, ",");
  if (!tokens) return fail("unterminated quote" + where);
  for (const std::string& token : *tokens) {
    if (token.empty()) continue;
    const std::size_t eq = token.find('=');
    // The value must be non-empty before unquoting: `""` is an empty value.
    if (eq == std::string::npos || eq == 0 || eq + 1 == token.size()) {
      return fail("bad token `" + token + "`" + where);
    }
    std::string key = token.substr(0, eq);
    if (!valid_name(key)) return fail("bad key `" + key + "`" + where);
    if (values_.count(key) > 0) {
      return fail("duplicate key `" + key + "`" + where);
    }
    values_.emplace(std::move(key), unquote(token.substr(eq + 1)));
  }
}

bool Params::take(const std::string& key, std::string& out) {
  const auto it = values_.find(key);
  if (it == values_.end()) return false;
  out = std::move(it->second);
  values_.erase(it);
  return true;
}

void Params::number(const std::string& key, double& out) {
  std::string raw;
  if (!take(key, raw)) return;
  if (const auto value = to_double(raw)) {
    out = *value;
  } else {
    fail("`" + key + "` must be a finite number, got `" + raw + "`");
  }
}

bool Params::take_uint(const std::string& key, std::uint64_t lo,
                       std::uint64_t hi, std::uint64_t& out) {
  std::string raw;
  if (!take(key, raw)) return false;
  const auto value = to_uint(raw, hi);
  if (value && *value >= lo) {
    out = *value;
    return true;
  }
  fail("`" + key + "` must be an integer in [" + std::to_string(lo) + ", " +
       std::to_string(hi) + "], got `" + raw + "`");
  return false;
}

void Params::flag(const std::string& key, bool& out) {
  std::string raw;
  if (!take(key, raw)) return;
  if (const auto value = to_bool(raw)) {
    out = *value;
  } else {
    fail("`" + key + "` must be on/off/true/false/1/0, got `" + raw + "`");
  }
}

void Params::fail(const std::string& message) {
  if (check_.ok()) check_ = Check{Status::kMalformed, domain_ + ": " + message};
}

Check Params::finish() const {
  if (!check_.ok() || values_.empty()) return check_;
  std::string message =
      domain_ + ": unknown key `" + values_.begin()->first + "`";
  if (!name_.empty()) message += " for `" + name_ + "`";
  return Check{Status::kMalformed, std::move(message)};
}

}  // namespace safe::spec
