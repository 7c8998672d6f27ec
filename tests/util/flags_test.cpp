#include "util/flags.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace idea {
namespace {

Flags make(std::vector<std::string> args) {
  std::vector<char*> argv;
  static std::vector<std::string> storage;
  storage = std::move(args);
  argv.push_back(storage.empty() ? nullptr : storage.front().data());
  for (auto& s : storage) argv.push_back(s.data());
  argv[0] = storage.front().data();
  // Rebuild properly: argv[0] = program, rest = flags.
  argv.clear();
  for (auto& s : storage) argv.push_back(s.data());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, SpaceSeparated) {
  Flags f = make({"prog", "--hint", "0.95", "--seed", "42"});
  EXPECT_DOUBLE_EQ(f.get_double("hint", 0.0), 0.95);
  EXPECT_EQ(f.get_int("seed", 0), 42);
  EXPECT_EQ(f.program(), "prog");
}

TEST(Flags, EqualsSeparated) {
  Flags f = make({"prog", "--hint=0.85", "--name=fig7"});
  EXPECT_DOUBLE_EQ(f.get_double("hint", 0.0), 0.85);
  EXPECT_EQ(f.get_string("name", ""), "fig7");
}

TEST(Flags, BareBoolean) {
  Flags f = make({"prog", "--verbose", "--count", "3"});
  EXPECT_TRUE(f.get_bool("verbose", false));
  EXPECT_EQ(f.get_int("count", 0), 3);
}

TEST(Flags, Defaults) {
  Flags f = make({"prog"});
  EXPECT_FALSE(f.has("missing"));
  EXPECT_EQ(f.get_string("missing", "dft"), "dft");
  EXPECT_EQ(f.get_int("missing", 7), 7);
  EXPECT_DOUBLE_EQ(f.get_double("missing", 1.5), 1.5);
  EXPECT_TRUE(f.get_bool("missing", true));
}

TEST(Flags, BoolSpellings) {
  Flags f = make({"prog", "--a", "true", "--b", "1", "--c", "yes",
                  "--d", "false"});
  EXPECT_TRUE(f.get_bool("a", false));
  EXPECT_TRUE(f.get_bool("b", false));
  EXPECT_TRUE(f.get_bool("c", false));
  EXPECT_FALSE(f.get_bool("d", true));
}

TEST(Flags, RejectsPositional) {
  EXPECT_THROW(make({"prog", "positional"}), std::invalid_argument);
}

Flags make_declared(std::vector<std::string> args) {
  static std::vector<std::string> storage;
  storage = std::move(args);
  std::vector<char*> argv;
  for (auto& s : storage) argv.push_back(s.data());
  return Flags(static_cast<int>(argv.size()), argv.data(),
               {"smoke", "strict", "seed"});
}

TEST(Flags, DeclaredNamesAreAccepted) {
  Flags f = make_declared({"prog", "--smoke", "--seed=7", "--strict"});
  EXPECT_TRUE(f.get_bool("smoke", false));
  EXPECT_TRUE(f.get_bool("strict", false));
  EXPECT_EQ(f.get_int("seed", 0), 7);
}

TEST(Flags, RejectsUndeclaredNames) {
  // A typo must not silently drop a gate, and --help is not a flag.
  EXPECT_THROW(make_declared({"prog", "--smoke", "--stric"}),
               std::invalid_argument);
  EXPECT_THROW(make_declared({"prog", "--help"}), std::invalid_argument);
  EXPECT_THROW(make_declared({"prog", "--sed=7"}), std::invalid_argument);
  try {
    make_declared({"prog", "--stric"});
    FAIL() << "no exception";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--stric"), std::string::npos);
  }
}

TEST(Flags, UndeclaredFormKeepsAnyName) {
  Flags f = make({"prog", "--anything", "1"});
  EXPECT_EQ(f.get_int("anything", 0), 1);
}

}  // namespace
}  // namespace idea
