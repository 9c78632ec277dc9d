#include "util/ini.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace mlec {
namespace {

TEST(Ini, ParsesSectionsAndKeys) {
  const auto ini = IniFile::parse_string(
      "top = 1\n"
      "[alpha]\n"
      "name = hello world  \n"
      "count = 42\n"
      "\n"
      "# comment\n"
      "; also a comment\n"
      "[beta]\n"
      "ratio = 0.25\n");
  EXPECT_EQ(ini.entries(), 4u);
  EXPECT_EQ(ini.get_string("", "top", "?"), "1");
  EXPECT_EQ(ini.get_string("alpha", "name", "?"), "hello world");
  EXPECT_EQ(ini.get_size("alpha", "count", 0), 42u);
  EXPECT_DOUBLE_EQ(ini.get_double("beta", "ratio", 0.0), 0.25);
}

TEST(Ini, FallbacksWhenAbsent) {
  const auto ini = IniFile::parse_string("[s]\nk = v\n");
  EXPECT_FALSE(ini.has("s", "missing"));
  EXPECT_EQ(ini.get_string("s", "missing", "fb"), "fb");
  EXPECT_DOUBLE_EQ(ini.get_double("s", "missing", 2.5), 2.5);
  EXPECT_EQ(ini.get_size("other", "k", 7), 7u);
  EXPECT_TRUE(ini.get_bool("s", "missing", true));
}

TEST(Ini, BooleanSpellings) {
  const auto ini = IniFile::parse_string(
      "[b]\na = true\nb = Yes\nc = 1\nd = off\ne = FALSE\n");
  EXPECT_TRUE(ini.get_bool("b", "a", false));
  EXPECT_TRUE(ini.get_bool("b", "b", false));
  EXPECT_TRUE(ini.get_bool("b", "c", false));
  EXPECT_FALSE(ini.get_bool("b", "d", true));
  EXPECT_FALSE(ini.get_bool("b", "e", true));
}

TEST(Ini, LaterDuplicatesWin) {
  const auto ini = IniFile::parse_string("[s]\nk = 1\nk = 2\n");
  EXPECT_EQ(ini.get_size("s", "k", 0), 2u);
}

TEST(Ini, MalformedInputRejected) {
  EXPECT_THROW(IniFile::parse_string("not a pair\n"), PreconditionError);
  EXPECT_THROW(IniFile::parse_string("[unclosed\n"), PreconditionError);
  EXPECT_THROW(IniFile::parse_string("[]\n"), PreconditionError);
  EXPECT_THROW(IniFile::parse_string("= value\n"), PreconditionError);
}

// Fuzz-derived regressions: shapes the INI fuzzer generates must produce
// line-numbered diagnostics (or parse benignly), never crash or hang.
TEST(Ini, FuzzDuplicateSectionsMergeWithLaterWins) {
  const auto ini =
      IniFile::parse_string("[datacenter]\nracks = 6\n[datacenter]\nracks = 12\n");
  EXPECT_EQ(ini.get_size("datacenter", "racks", 0), 12u);
}

TEST(Ini, FuzzTruncatedLineDiagnosedWithLineNumber) {
  try {
    IniFile::parse_string("[code]\nmlec = (2+1)/(3+1)\nscheme");
    FAIL() << "truncated key-only line must not parse";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos) << e.what();
  }
}

TEST(Ini, FuzzNonUtf8BytesAreCarriedOpaquely) {
  // Values are byte strings, not text: invalid UTF-8 must survive untouched.
  const std::string value = "\xff\xfe\x80"
                            "caf\xc3\xa9";
  const auto ini = IniFile::parse_string("[scenario]\nname = " + value + "\n");
  EXPECT_EQ(ini.get_string("scenario", "name", ""), value);
}

TEST(Ini, FuzzControlBytesInKeyPositionDiagnosed) {
  EXPECT_THROW(IniFile::parse_string("\x01\x02\x03\n"), PreconditionError);
  EXPECT_NO_THROW(IniFile::parse_string("\x01\x02 = \x03\n"));  // odd but well-formed
}

TEST(Ini, FuzzWhitespaceOnlyAndUnterminatedFinalLine) {
  EXPECT_EQ(IniFile::parse_string("  \t\r\n\n \t").entries(), 0u);
  const auto ini = IniFile::parse_string("[s]\nk = v");  // no trailing newline
  EXPECT_EQ(ini.get_string("s", "k", ""), "v");
}

TEST(Ini, MalformedValuesRejectedOnAccess) {
  const auto ini = IniFile::parse_string("[s]\nnum = abc\nint = 2.5\nflag = maybe\n");
  EXPECT_THROW(ini.get_double("s", "num", 0.0), PreconditionError);
  EXPECT_THROW(ini.get_size("s", "int", 0), PreconditionError);
  EXPECT_THROW(ini.get_bool("s", "flag", false), PreconditionError);

  // Integers are read exactly: no detour through double, no wrap-around.
  const auto ints = IniFile::parse_string(
      "[s]\nneg = -1\nfrac = 2.5e0\nbig = 18446744073709551616\nhuge = 1e20\n"
      "tail = 12x\nhex = 0x10\nexp = 1e\nempty_exp = e3\ndot = .\n");
  for (const char* key : {"neg", "frac", "big", "huge", "tail", "hex", "exp", "empty_exp", "dot"}) {
    SCOPED_TRACE(key);
    try {
      (void)ints.get_size("s", key, 0);
      ADD_FAILURE() << "accepted";
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("ini [s] ") + key), std::string::npos)
          << e.what();
    }
  }
}

TEST(Ini, IntegersAreExactUpToUint64Max) {
  const auto ini = IniFile::parse_string(
      "[sim]\nseed = 9007199254740993\nmax = 18446744073709551615\nsci = 2e3\n"
      "dec = 1.5e1\nzeros = 000\nfixed = 120.0\n");
  EXPECT_EQ(ini.get_size("sim", "seed", 0), 9007199254740993ULL);  // 2^53 + 1
  EXPECT_EQ(ini.get_size("sim", "max", 0), 18446744073709551615ULL);
  EXPECT_EQ(ini.get_size("sim", "sci", 0), 2000u);
  EXPECT_EQ(ini.get_size("sim", "dec", 0), 15u);
  EXPECT_EQ(ini.get_size("sim", "zeros", 7), 0u);
  EXPECT_EQ(ini.get_size("sim", "fixed", 0), 120u);
  EXPECT_EQ(ini.get_size("sim", "absent", 7), 7u);
  EXPECT_EQ(parse_uint64("1e19", "--seed"), 10000000000000000000ULL);
  EXPECT_THROW(parse_uint64("2e19", "--seed"), PreconditionError);
}

}  // namespace
}  // namespace mlec
