// End-to-end tests of the ifsyn_tool binary. Its one-shot subcommands
// (synth, check, conform, explore) are a batch of one through
// serve::Service::execute, so:
//
//   - exit codes and stdout equal the Service's response to the same
//     request, on every example spec and builtin;
//   - synth's --report is that report plus the measured-traffic section;
//   - a flag value serve's schema rejects is a usage error (exit 2)
//     carrying serve's message.
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "check/trace_miner.hpp"
#include "core/report.hpp"
#include "obs/trace_sink.hpp"
#include "serve/service.hpp"
#include "sim/interpreter.hpp"

namespace ifsyn {
namespace {

namespace fs = std::filesystem;

struct ToolRun {
  int exit_code = -1;
  std::string out;
  std::string err;
};

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

fs::path scratch_file(const std::string& name) {
  return fs::temp_directory_path() /
         ("ifsyn_tool_test_" + std::to_string(::getpid()) + "_" + name);
}

ToolRun run_tool(const std::vector<std::string>& args) {
  const fs::path err_path = scratch_file("stderr");
  std::string command = std::string("'") + IFSYN_TOOL + "'";
  for (const std::string& arg : args) command += " '" + arg + "'";
  command += " 2>'" + err_path.string() + "'";
  ToolRun run;
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return run;
  char buffer[4096];
  for (std::size_t n; (n = std::fread(buffer, 1, sizeof buffer, pipe)) > 0;) {
    run.out.append(buffer, n);
  }
  const int status = ::pclose(pipe);
  if (WIFEXITED(status)) run.exit_code = WEXITSTATUS(status);
  run.err = read_file(err_path);
  fs::remove(err_path);
  return run;
}

std::string spec_file(const std::string& name) {
  return std::string(IFSYN_SOURCE_DIR) + "/examples/specs/" + name + ".ifs";
}

const std::vector<std::string> kTargets = {
    spec_file("fig3"),  spec_file("dma_stream"), spec_file("flc_kernel"),
    "builtin:flc",      "builtin:am",            "builtin:ethernet",
    "builtin:fig3",
};

serve::Response execute(const serve::Request& request) {
  serve::Service service;
  return service.execute(request);
}

/// One subcommand's flags and the request they must map to.
struct Case {
  std::vector<std::string> before_target;
  std::vector<std::string> after_target;
  serve::RequestOp op;
  void (*configure)(serve::RequestOptions&);
};

const std::vector<Case> kCases = {
    {{}, {"--arbitrate"}, serve::RequestOp::kSynth,
     [](serve::RequestOptions& o) { o.arbitrate = true; }},
    {{"check"}, {}, serve::RequestOp::kCheck, [](serve::RequestOptions&) {}},
    {{"conform"}, {"--arbitrate"}, serve::RequestOp::kCheck,
     [](serve::RequestOptions& o) {
       o.conform = true;
       o.arbitrate = true;
     }},
    {{"explore"}, {"--protocols", "full,fixed", "--top-k", "2"},
     serve::RequestOp::kExplore,
     [](serve::RequestOptions& o) {
       o.protocols = std::vector<spec::ProtocolKind>{
           spec::ProtocolKind::kFullHandshake, spec::ProtocolKind::kFixedDelay};
       o.top_k = 2;
     }},
};

TEST(IfsynToolTest, OneShotSubcommandsAnswerExactlyLikeTheService) {
  for (const Case& c : kCases) {
    for (const std::string& target : kTargets) {
      std::vector<std::string> args = c.before_target;
      args.push_back(target);
      args.insert(args.end(), c.after_target.begin(), c.after_target.end());
      SCOPED_TRACE((c.before_target.empty() ? "synth" : c.before_target[0]) +
                   " " + target);

      serve::Request request;
      request.op = c.op;
      request.target = target;
      c.configure(request.options);
      const serve::Response expected = execute(request);
      ASSERT_FALSE(expected.report.empty()) << expected.error.message;

      const ToolRun run = run_tool(args);
      EXPECT_EQ(run.exit_code, expected.ok ? 0 : 1) << run.err;
      EXPECT_EQ(run.out, expected.report);
      // Every shipped spec must check and conform clean.
      if (c.op == serve::RequestOp::kCheck) {
        EXPECT_EQ(run.exit_code, 0);
      }
    }
  }
}

// Without --arbitrate, fig3's two masters share the bus unserialized, so
// the miner skips that lane: conform must not call the run clean.
TEST(IfsynToolTest, ConformWithASkippedLaneExitsNonZero) {
  const ToolRun run = run_tool({"conform", spec_file("fig3")});
  EXPECT_EQ(run.exit_code, 1) << run.out << run.err;
  EXPECT_NE(run.out.find("conform INCOMPLETE: 0 lane(s)"), std::string::npos)
      << run.out;
  EXPECT_NE(run.err.find("[conform_incomplete]"), std::string::npos)
      << run.err;
}

TEST(IfsynToolTest, SynthAndExploreAcceptBuiltins) {
  const ToolRun synth = run_tool({"builtin:fig3"});
  EXPECT_EQ(synth.exit_code, 0) << synth.err;
  EXPECT_EQ(synth.out.rfind("# Interface synthesis report: fig3", 0), 0u)
      << synth.out;

  const ToolRun explore = run_tool({"explore", "builtin:flc"});
  EXPECT_EQ(explore.exit_code, 0) << explore.err;
  EXPECT_EQ(explore.out.rfind("# Design-space exploration: flc_kernel", 0),
            0u)
      << explore.out;
}

TEST(IfsynToolTest, ReportFileIsTheServiceReportPlusMeasuredTraffic) {
  // Every protocol's traffic is mined, so fig3 gets the section under
  // each of them, with one transaction per channel.
  const struct {
    const char* spec;
    const char* protocol;
    spec::ProtocolKind kind;
  } cases[] = {
      {"fig3", "full", spec::ProtocolKind::kFullHandshake},
      {"dma_stream", "full", spec::ProtocolKind::kFullHandshake},
      {"flc_kernel", "full", spec::ProtocolKind::kFullHandshake},
      {"fig3", "half", spec::ProtocolKind::kHalfHandshake},
      {"fig3", "fixed", spec::ProtocolKind::kFixedDelay},
      {"fig3", "wired", spec::ProtocolKind::kHardwiredPort},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(std::string(c.spec) + " " + c.protocol);
    serve::Request request;
    request.op = serve::RequestOp::kSynth;
    request.target = spec_file(c.spec);
    request.options.arbitrate = true;
    request.options.protocol = c.kind;
    const serve::Response expected = execute(request);
    ASSERT_TRUE(expected.artifacts && expected.artifacts->refined);
    const spec::System& refined = *expected.artifacts->refined;
    const sim::SimulationRun traced =
        sim::simulate(refined, serve::kDefaultMaxTime, /*trace=*/true);
    ASSERT_TRUE(traced.result.status.is_ok());
    const check::ConformanceReport mined =
        check::mine_and_diff(refined, traced.kernel->trace());
    ASSERT_TRUE(mined.clean()) << mined.to_string();
    ASSERT_FALSE(mined.traffic.empty());
    if (std::string(c.spec) == "fig3") {
      for (const check::ChannelTraffic& ct : mined.traffic[0].channels) {
        EXPECT_EQ(ct.transactions, 1) << ct.channel;
      }
    }

    const fs::path report = scratch_file("report.md");
    const ToolRun run =
        run_tool({request.target, "--arbitrate", "--protocol", c.protocol,
                  "--report", report.string()});
    EXPECT_EQ(run.exit_code, 0) << run.err;
    EXPECT_EQ(run.out, expected.report + "wrote synthesis report to " +
                           report.string() + "\n");
    EXPECT_EQ(read_file(report),
              expected.report + core::render_traffic_markdown(
                                    mined, traced.result.end_time));
    fs::remove(report);
  }
}

TEST(IfsynToolTest, ChromeTraceIsTheRequestsTraceFile) {
  const fs::path trace = scratch_file("trace.json");
  const ToolRun run = run_tool(
      {spec_file("fig3"), "--arbitrate", "--chrome-trace", trace.string()});
  EXPECT_EQ(run.exit_code, 0) << run.err;
  std::string error;
  EXPECT_TRUE(obs::validate_trace_json(read_file(trace), &error)) << error;
  fs::remove(trace);
}

TEST(IfsynToolTest, RejectedFlagValuesAreUsageErrorsWithServesMessage) {
  const std::string fig3 = spec_file("fig3");
  const struct {
    std::vector<std::string> args;
    const char* message;
  } cases[] = {
      {{fig3, "--fixed-delay", "abc"}, "fixed_delay must be an integer"},
      {{fig3, "--fixed-delay", "0"}, "fixed_delay out of range"},
      {{"check", fig3, "--protocol", "bogus"}, "unknown protocol 'bogus'"},
      {{"conform", fig3, "--max-time", "-1"}, "max_time out of range"},
      {{"explore", fig3, "--threads", "0"}, "threads out of range"},
      {{"explore", fig3, "--top-k", "-3"}, "top_k out of range"},
      {{"explore", fig3, "--protocols", "full,nope"}, "unknown protocol 'nope'"},
      {{"explore", fig3, "--widths", "5"}, "--widths wants LO:HI"},
      {{"explore", fig3, "--widths", "8:4"}, "min_width exceeds max_width"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.message);
    const ToolRun run = run_tool(c.args);
    EXPECT_EQ(run.exit_code, 2);
    EXPECT_NE(run.err.find(c.message), std::string::npos) << run.err;
    EXPECT_EQ(run.out, "");
  }
}

}  // namespace
}  // namespace ifsyn
