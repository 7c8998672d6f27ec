#include "util/flags.hpp"

#include <stdexcept>

namespace idea {

Flags::Flags(int argc, char** argv) : program_(argc > 0 ? argv[0] : "") {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      throw std::invalid_argument("unexpected positional argument: " + arg);
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";  // bare boolean flag
    }
  }
}

Flags::Flags(int argc, char** argv,
             std::initializer_list<std::string_view> accepted)
    : Flags(argc, argv) {
  for (const auto& [name, value] : values_) {
    bool known = false;
    for (const std::string_view a : accepted) known = known || a == name;
    if (known) continue;
    std::string message = "unknown flag --" + name + "; " + program_ +
                          " accepts";
    for (const std::string_view a : accepted) {
      message += " --";
      message += a;
    }
    throw std::invalid_argument(message);
  }
}

bool Flags::has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string Flags::get_string(const std::string& name,
                              const std::string& fallback) const {
  auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Flags::get_int(const std::string& name,
                            std::int64_t fallback) const {
  auto it = values_.find(name);
  return it == values_.end() ? fallback : std::stoll(it->second);
}

double Flags::get_double(const std::string& name, double fallback) const {
  auto it = values_.find(name);
  return it == values_.end() ? fallback : std::stod(it->second);
}

bool Flags::get_bool(const std::string& name, bool fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

}  // namespace idea
