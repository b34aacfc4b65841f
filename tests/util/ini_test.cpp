#include "util/ini.hpp"

#include <gtest/gtest.h>

namespace scal::util {
namespace {

TEST(IniFile, ParsesSectionsAndKeys) {
  const IniFile ini = IniFile::parse(
      "top = 1\n"
      "# comment\n"
      "[grid]\n"
      "nodes = 250\n"
      "rms = LOWEST\n"
      "\n"
      "[tuner]\n"
      "e0 = 0.4\n");
  EXPECT_EQ(ini.size(), 4u);
  EXPECT_EQ(ini.get_string("top", ""), "1");
  EXPECT_EQ(ini.get_int("grid.nodes", 0), 250);
  EXPECT_EQ(ini.get_string("grid.rms", ""), "LOWEST");
  EXPECT_DOUBLE_EQ(ini.get_double("tuner.e0", 0.0), 0.4);
}

TEST(IniFile, TrimsWhitespaceAndHandlesSemicolons) {
  const IniFile ini = IniFile::parse(
      "  [ s ]  \n"
      "  key   =   spaced value  \n"
      "; also a comment\n");
  EXPECT_EQ(ini.get_string("s.key", ""), "spaced value");
}

TEST(IniFile, MissingKeysFallBack) {
  const IniFile ini = IniFile::parse("");
  EXPECT_FALSE(ini.has("a.b"));
  EXPECT_EQ(ini.get_string("a.b", "dflt"), "dflt");
  EXPECT_EQ(ini.get_int("a.b", 9), 9);
  EXPECT_DOUBLE_EQ(ini.get_double("a.b", 1.5), 1.5);
  EXPECT_TRUE(ini.get_bool("a.b", true));
}

TEST(IniFile, BoolVocabulary) {
  const IniFile ini = IniFile::parse(
      "a = true\nb = 0\nc = yes\nd = off\n");
  EXPECT_TRUE(ini.get_bool("a", false));
  EXPECT_FALSE(ini.get_bool("b", true));
  EXPECT_TRUE(ini.get_bool("c", false));
  EXPECT_FALSE(ini.get_bool("d", true));
}

TEST(IniFile, TypeErrorsNameTheKey) {
  const IniFile ini = IniFile::parse("[s]\nx = abc\n");
  try {
    ini.get_int("s.x", 0);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("s.x"), std::string::npos);
  }
  EXPECT_THROW(ini.get_double("s.x", 0.0), std::runtime_error);
  EXPECT_THROW(ini.get_bool("s.x", false), std::runtime_error);
}

TEST(IniFile, RejectsTrailingJunkOnNumbers) {
  const IniFile ini = IniFile::parse("x = 12abc\n");
  EXPECT_THROW(ini.get_int("x", 0), std::runtime_error);
  // A non-finite double is not a number either: an infinite horizon
  // would run forever, a NaN one would abort mid-run.
  for (const char* text : {"12abc", "nan", "inf", "-inf", "infinity"}) {
    const IniFile d = IniFile::parse(std::string("x = ") + text + "\n");
    EXPECT_THROW(d.get_double("x", 0.0), std::runtime_error) << text;
  }
}

TEST(ParseFinite, ReadsWholeFiniteNumbersOnly) {
  EXPECT_EQ(scal::util::parse_finite("2.5"), 2.5);
  EXPECT_EQ(scal::util::parse_finite("-1e3"), -1000.0);
  for (const char* text : {"", "2x", "1 2", "nan", "inf", "-inf", "1e999"}) {
    EXPECT_FALSE(scal::util::parse_finite(text).has_value()) << text;
  }
}

TEST(IniFile, ParseErrorsCarryLineNumbers) {
  try {
    IniFile::parse("good = 1\nbad line without equals\n");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
  EXPECT_THROW(IniFile::parse("[unclosed\n"), std::runtime_error);
  EXPECT_THROW(IniFile::parse("[]\n"), std::runtime_error);
  EXPECT_THROW(IniFile::parse(" = value\n"), std::runtime_error);
}

TEST(IniFile, RoundTripsThroughToString) {
  IniFile ini;
  ini.set("alpha", "1");
  ini.set("grid.nodes", "250");
  ini.set_double("tuner.e0", 0.4);
  ini.set_bool("grid.flag", true);
  ini.set_int("grid.count", -3);
  const IniFile reparsed = IniFile::parse(ini.to_string());
  EXPECT_EQ(reparsed.values(), ini.values());
}

TEST(IniFile, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/scal_ini_test.ini";
  IniFile ini;
  ini.set("s.k", "v");
  ini.save(path);
  const IniFile loaded = IniFile::load(path);
  EXPECT_EQ(loaded.get_string("s.k", ""), "v");
  std::remove(path.c_str());
  EXPECT_THROW(IniFile::load("/nonexistent/nope.ini"), std::runtime_error);
}

}  // namespace
}  // namespace scal::util
