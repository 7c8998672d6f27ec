#pragma once
/// \file flags.hpp
/// \brief Minimal command-line flag parsing for bench and example binaries.
///
/// Supports `--name value` and `--name=value`.  A binary that declares the
/// names it accepts gets every other name rejected, so a typo such as
/// `--stric` fails loudly instead of silently dropping a gate.  This keeps
/// the bench binaries dependency-free and scriptable
/// (e.g. `fig7_hint --hint 0.85 --seed 42 --csv out.csv`).

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>

namespace idea {

class Flags {
 public:
  /// Parse argv; throws std::invalid_argument on malformed input.  Any
  /// flag name is kept.
  Flags(int argc, char** argv);
  /// Parse argv, accepting only the names in `accepted`; throws
  /// std::invalid_argument on malformed input or on any other name.
  Flags(int argc, char** argv,
        std::initializer_list<std::string_view> accepted);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get_string(const std::string& name,
                                       const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  /// Name of the executable (argv[0]).
  [[nodiscard]] const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
};

}  // namespace idea
