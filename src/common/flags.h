#ifndef PIPERISK_COMMON_FLAGS_H_
#define PIPERISK_COMMON_FLAGS_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"

namespace piperisk {

/// Minimal command-line parser for the piperisk tool:
///   tool <command> [--key value]... [--switch]... [positional]...
/// Flags may use "--key value" or "--key=value". Unknown flags are kept and
/// can be rejected by the caller via `unknown_ok`.
class CommandLine {
 public:
  /// Parses argv (excluding argv[0]). The first non-flag token becomes the
  /// command; later non-flag tokens are positionals.
  static Result<CommandLine> Parse(int argc, const char* const* argv);

  const std::string& command() const { return command_; }
  const std::vector<std::string>& positionals() const { return positionals_; }

  bool Has(const std::string& key) const { return values_.count(key) != 0; }

  /// String flag with default.
  std::string GetString(const std::string& key,
                        const std::string& fallback) const;

  /// Typed getters; fail on parse errors, return fallback when absent.
  Result<double> GetDouble(const std::string& key, double fallback) const;
  Result<long long> GetInt(const std::string& key, long long fallback) const;
  /// GetInt narrowed to int; fails, naming the flag, when the value is
  /// outside int's range instead of silently truncating it.
  Result<int> GetInt32(const std::string& key, int fallback) const;
  bool GetBool(const std::string& key, bool fallback) const;

  /// All flags that were provided but are not in `known` (for strict
  /// commands that reject typos).
  std::vector<std::string> UnknownFlags(
      const std::vector<std::string>& known) const;

 private:
  std::string command_;
  std::vector<std::string> positionals_;
  std::unordered_map<std::string, std::string> values_;
};

}  // namespace piperisk

#endif  // PIPERISK_COMMON_FLAGS_H_
