#include "common/flags.h"

#include <algorithm>
#include <limits>

#include "common/strings.h"

namespace piperisk {

Result<CommandLine> CommandLine::Parse(int argc, const char* const* argv) {
  CommandLine cl;
  int i = 0;
  while (i < argc) {
    std::string token = argv[i];
    if (StartsWith(token, "--")) {
      std::string body = token.substr(2);
      if (body.empty()) {
        return Status::InvalidArgument("bare '--' is not a valid flag");
      }
      size_t eq = body.find('=');
      if (eq != std::string::npos) {
        cl.values_[body.substr(0, eq)] = body.substr(eq + 1);
        ++i;
      } else if (i + 1 < argc && !StartsWith(argv[i + 1], "--")) {
        cl.values_[body] = argv[i + 1];
        i += 2;
      } else {
        cl.values_[body] = "true";  // boolean switch
        ++i;
      }
    } else {
      if (cl.command_.empty()) {
        cl.command_ = token;
      } else {
        cl.positionals_.push_back(token);
      }
      ++i;
    }
  }
  return cl;
}

std::string CommandLine::GetString(const std::string& key,
                                   const std::string& fallback) const {
  auto it = values_.find(key);
  return it != values_.end() ? it->second : fallback;
}

Result<double> CommandLine::GetDouble(const std::string& key,
                                      double fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  auto parsed = ParseDouble(it->second);
  if (!parsed.ok()) {
    return Status::InvalidArgument("flag --" + key + ": " +
                                   parsed.status().message());
  }
  return *parsed;
}

Result<long long> CommandLine::GetInt(const std::string& key,
                                      long long fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  auto parsed = ParseInt(it->second);
  if (!parsed.ok()) {
    return Status::InvalidArgument("flag --" + key + ": " +
                                   parsed.status().message());
  }
  return *parsed;
}

Result<int> CommandLine::GetInt32(const std::string& key, int fallback) const {
  PIPERISK_ASSIGN_OR_RETURN(long long value, GetInt(key, fallback));
  if (value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max()) {
    return Status::InvalidArgument("flag --" + key + ": " +
                                   std::to_string(value) +
                                   " is out of range for an int");
  }
  return static_cast<int>(value);
}

bool CommandLine::GetBool(const std::string& key, bool fallback) const {
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  std::string v = ToLowerAscii(it->second);
  return v == "true" || v == "1" || v == "yes" || v == "on";
}

std::vector<std::string> CommandLine::UnknownFlags(
    const std::vector<std::string>& known) const {
  std::vector<std::string> out;
  for (const auto& [key, value] : values_) {
    (void)value;
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      out.push_back(key);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace piperisk
