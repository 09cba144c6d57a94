// Tests for the Chrome trace_event sink: event recording, thread-track
// metadata, the schema validator (both accepting our own output and
// rejecting malformed documents), and the RAII Span/ScopedTimer helpers.
#include "obs/trace_sink.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/scoped_timer.hpp"
#include "util/json.hpp"

namespace ifsyn::obs {
namespace {

TEST(TraceSinkTest, RecordsAllEventKinds) {
  TraceSink sink;
  sink.duration_event("phase", "synth", 10, 25);
  sink.instant_event("estimate w8", "explore");
  sink.counter_event("queue_depth", 3);
  EXPECT_EQ(sink.event_count(), 3u);

  const std::string json = sink.to_json();
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\": 25"), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(json.find("\"s\": \"t\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"C\""), std::string::npos);
  EXPECT_NE(json.find("\"args\": {\"value\": 3}"), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"synth\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
}

TEST(TraceSinkTest, ThreadNamesBecomeMetadataEvents) {
  TraceSink sink;
  sink.set_thread_name("worker 0");
  sink.instant_event("tick", "");
  const std::string json = sink.to_json();
  EXPECT_NE(json.find("\"name\": \"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"M\""), std::string::npos);
  EXPECT_NE(json.find("{\"name\": \"worker 0\"}"), std::string::npos);

  std::string error;
  EXPECT_TRUE(validate_trace_json(json, &error)) << error;
}

TEST(TraceSinkTest, DistinctThreadsGetDistinctSmallTids) {
  TraceSink sink;
  const int main_tid = sink.current_tid();
  int worker_tid = -1;
  std::thread worker([&] { worker_tid = sink.current_tid(); });
  worker.join();
  EXPECT_EQ(main_tid, 0);
  EXPECT_EQ(worker_tid, 1);
  EXPECT_EQ(sink.current_tid(), 0);  // stable on re-query
}

TEST(TraceSinkTest, OwnOutputPassesValidation) {
  TraceSink sink;
  sink.set_thread_name("main");
  sink.duration_event("span \"quoted\"", "cat\\egory", 0, 5);
  sink.instant_event("event\nwith newline", "explore");
  sink.counter_event("busy", -7);
  std::string error;
  EXPECT_TRUE(validate_trace_json(sink.to_json(), &error)) << error;

  // The empty trace is also a valid document.
  TraceSink empty;
  EXPECT_TRUE(validate_trace_json(empty.to_json(), &error)) << error;
}

// Regression: the trace sink, event log and metrics snapshot used to
// escape only '"', '\\' and '\n', so a tab, CR or other control byte in a
// name (a serve request id, say) produced JSON that strict readers reject
// while this validator's own lenient parser accepted it.
TEST(TraceSinkTest, ControlCharactersInNamesStayValidJson) {
  const std::string odd = "a\tb\rc\x01" "d";

  TraceSink sink;
  sink.set_thread_name("worker " + odd);
  sink.duration_event("span " + odd, "cat" + odd, 0, 5);
  RequestContext request;
  request.trace_id = "t" + odd;
  sink.instant_event("instant", "serve", &request);
  const std::string trace = sink.to_json();
  std::string error;
  EXPECT_TRUE(validate_trace_json(trace, &error)) << error;
  Result<Json> parsed = parse_json(trace);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status();
  const JsonArray& events = parsed->find("traceEvents")->as_array();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].find("args")->find("name")->as_string(),
            "worker " + odd);
  EXPECT_EQ(events[1].find("name")->as_string(), "span " + odd);
  EXPECT_EQ(events[2].find("args")->find("trace_id")->as_string(),
            "t" + odd);

  EventLog log;
  log.log_at(1, Severity::kWarn, "serve" + odd, "message " + odd,
             {{"key" + odd, "value " + odd}});
  std::string line = log.to_jsonl();
  ASSERT_FALSE(line.empty());
  line.pop_back();  // the JSONL newline
  parsed = parse_json(line);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status();
  EXPECT_EQ(parsed->find("component")->as_string(), "serve" + odd);
  EXPECT_EQ(parsed->find("fields")->find("key" + odd)->as_string(),
            "value " + odd);

  MetricsRegistry registry;
  registry.counter("requests" + odd).add(3);
  registry.counter("wall" + odd, Determinism::kWallClock).add(1);
  for (const std::string& json :
       {registry.snapshot().to_json(),
        registry.snapshot().deterministic_json()}) {
    parsed = parse_json(json);
    ASSERT_TRUE(parsed.is_ok()) << parsed.status() << "\n" << json;
  }
  EXPECT_EQ(parsed->find("requests" + odd)->as_number(), 3);
}

TEST(TraceSinkTest, ValidatorRejectsMalformedDocuments) {
  std::string error;

  EXPECT_FALSE(validate_trace_json("not json at all", &error));
  EXPECT_FALSE(error.empty());

  EXPECT_FALSE(validate_trace_json("[1, 2, 3]", &error));
  EXPECT_NE(error.find("not an object"), std::string::npos);

  EXPECT_FALSE(validate_trace_json("{\"displayTimeUnit\": \"ms\"}", &error));
  EXPECT_NE(error.find("traceEvents"), std::string::npos);

  // Event missing its name.
  EXPECT_FALSE(validate_trace_json(
      "{\"traceEvents\": [{\"ph\": \"i\", \"ts\": 1, \"pid\": 1, "
      "\"tid\": 0}]}",
      &error));
  EXPECT_NE(error.find("name"), std::string::npos);

  // Complete event without a duration.
  EXPECT_FALSE(validate_trace_json(
      "{\"traceEvents\": [{\"name\": \"x\", \"ph\": \"X\", \"ts\": 1, "
      "\"pid\": 1, \"tid\": 0}]}",
      &error));
  EXPECT_NE(error.find("dur"), std::string::npos);

  // Counter event without args.
  EXPECT_FALSE(validate_trace_json(
      "{\"traceEvents\": [{\"name\": \"c\", \"ph\": \"C\", \"ts\": 1, "
      "\"pid\": 1, \"tid\": 0}]}",
      &error));
  EXPECT_NE(error.find("args"), std::string::npos);

  // A raw control character inside a string: strict JSON (and
  // scripts/validate_trace_json.py) rejects it, so this validator does too.
  EXPECT_FALSE(validate_trace_json(
      "{\"traceEvents\": [{\"name\": \"a\tb\", \"ph\": \"i\", "
      "\"ts\": 1, \"pid\": 1, \"tid\": 0}]}",
      &error));
  EXPECT_NE(error.find("control character"), std::string::npos) << error;

  // Non-metadata event without a timestamp.
  EXPECT_FALSE(validate_trace_json(
      "{\"traceEvents\": [{\"name\": \"i\", \"ph\": \"i\", \"pid\": 1, "
      "\"tid\": 0}]}",
      &error));
  EXPECT_NE(error.find("ts"), std::string::npos);
}

// Regression: the validator's mini-parser used to mishandle \uXXXX
// escapes, so a trace whose process/thread name came from an external
// producer with escaped non-ASCII characters failed validation.
TEST(TraceSinkTest, UnicodeEscapesInNamesDecodeAndValidate) {
  std::string error;

  // BMP escape (\u00e9 = é) and an astral surrogate pair (\ud83d\ude80)
  // inside a thread_name metadata event plus an ordinary event name.
  EXPECT_TRUE(validate_trace_json(
      "{\"traceEvents\": ["
      "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, "
      "\"args\": {\"name\": \"r\\u00e9acteur \\ud83d\\ude80\"}},"
      "{\"name\": \"caf\\u00e9 tick\", \"ph\": \"i\", \"ts\": 1, "
      "\"pid\": 1, \"tid\": 0}]}",
      &error))
      << error;

  // Malformed escapes stay positioned errors, not silent acceptance.
  EXPECT_FALSE(validate_trace_json(
      "{\"traceEvents\": [{\"name\": \"\\uZZZZ\", \"ph\": \"i\", "
      "\"ts\": 1, \"pid\": 1, \"tid\": 0}]}",
      &error));
  EXPECT_NE(error.find("non-hex digit"), std::string::npos) << error;

  EXPECT_FALSE(validate_trace_json(
      "{\"traceEvents\": [{\"name\": \"\\udc00\", \"ph\": \"i\", "
      "\"ts\": 1, \"pid\": 1, \"tid\": 0}]}",
      &error));
  EXPECT_NE(error.find("lone low surrogate"), std::string::npos) << error;

  EXPECT_FALSE(validate_trace_json(
      "{\"traceEvents\": [{\"name\": \"\\ud83d oops\", \"ph\": \"i\", "
      "\"ts\": 1, \"pid\": 1, \"tid\": 0}]}",
      &error));
  EXPECT_NE(error.find("high surrogate"), std::string::npos) << error;

  EXPECT_FALSE(validate_trace_json("{\"traceEvents\": [{\"name\": \"\\u00",
                                   &error));
  EXPECT_NE(error.find("truncated"), std::string::npos) << error;

  EXPECT_FALSE(validate_trace_json(
      "{\"traceEvents\": [{\"name\": \"\\q\", \"ph\": \"i\", "
      "\"ts\": 1, \"pid\": 1, \"tid\": 0}]}",
      &error));
  EXPECT_NE(error.find("unknown escape"), std::string::npos) << error;
}

TEST(TraceSinkTest, FlowAndAsyncRoundTripValidates) {
  TraceSink sink;
  sink.async_begin("request r1", "serve", 7);
  sink.flow_begin("queue r1", "serve", 7);
  sink.duration_event("submit r1", "serve", 0, 3);
  std::thread worker([&] {
    sink.duration_event("execute r1", "serve", 5, 40);
    sink.flow_end("queue r1", "serve", 7);
  });
  worker.join();
  sink.async_end("request r1", "serve", 7);

  const std::string json = sink.to_json();
  EXPECT_NE(json.find("\"ph\": \"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"f\""), std::string::npos);
  EXPECT_NE(json.find("\"bp\": \"e\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"e\""), std::string::npos);
  EXPECT_NE(json.find("\"id\": 7"), std::string::npos);
  std::string error;
  EXPECT_TRUE(validate_trace_json(json, &error)) << error;
}

TEST(TraceSinkTest, RequestContextTagsEvents) {
  TraceSink sink;
  RequestContext ctx{"t42", 42};
  sink.instant_event("tick", "serve", &ctx);
  {
    Span span(&sink, "phase", "serve", &ctx);
  }
  const std::string json = sink.to_json();
  // Both events carry the owning request's trace id in args.
  std::size_t first = json.find("\"trace_id\": \"t42\"");
  ASSERT_NE(first, std::string::npos);
  EXPECT_NE(json.find("\"trace_id\": \"t42\"", first + 1), std::string::npos);
  std::string error;
  EXPECT_TRUE(validate_trace_json(json, &error)) << error;
}

TEST(TraceSinkTest, ValidatorRejectsBadFlowBindings) {
  std::string error;

  // Flow start without a matching finish.
  EXPECT_FALSE(validate_trace_json(
      "{\"traceEvents\": [{\"name\": \"q\", \"ph\": \"s\", \"ts\": 1, "
      "\"pid\": 1, \"tid\": 0, \"id\": 9}]}",
      &error));
  EXPECT_NE(error.find("never finished"), std::string::npos);

  // Flow finish binding to an id that was never started.
  EXPECT_FALSE(validate_trace_json(
      "{\"traceEvents\": [{\"name\": \"q\", \"ph\": \"f\", \"bp\": \"e\", "
      "\"ts\": 1, \"pid\": 1, \"tid\": 0, \"id\": 9}]}",
      &error));
  EXPECT_NE(error.find("no matching"), std::string::npos);

  // The same id opened twice while live.
  EXPECT_FALSE(validate_trace_json(
      "{\"traceEvents\": ["
      "{\"name\": \"q\", \"ph\": \"s\", \"ts\": 1, \"pid\": 1, \"tid\": 0, "
      "\"id\": 9},"
      "{\"name\": \"q\", \"ph\": \"s\", \"ts\": 2, \"pid\": 1, \"tid\": 0, "
      "\"id\": 9}]}",
      &error));
  EXPECT_NE(error.find("twice"), std::string::npos);

  // Flow event missing its id entirely.
  EXPECT_FALSE(validate_trace_json(
      "{\"traceEvents\": [{\"name\": \"q\", \"ph\": \"s\", \"ts\": 1, "
      "\"pid\": 1, \"tid\": 0}]}",
      &error));
  EXPECT_NE(error.find("id"), std::string::npos);
}

TEST(TraceSinkTest, ValidatorRejectsBadAsyncSpans) {
  std::string error;

  // Async end without a begin.
  EXPECT_FALSE(validate_trace_json(
      "{\"traceEvents\": [{\"name\": \"r\", \"ph\": \"e\", \"cat\": "
      "\"serve\", \"ts\": 1, \"pid\": 1, \"tid\": 0, \"id\": 3}]}",
      &error));
  EXPECT_NE(error.find("no matching"), std::string::npos);

  // Async begin never closed.
  EXPECT_FALSE(validate_trace_json(
      "{\"traceEvents\": [{\"name\": \"r\", \"ph\": \"b\", \"cat\": "
      "\"serve\", \"ts\": 1, \"pid\": 1, \"tid\": 0, \"id\": 3}]}",
      &error));
  EXPECT_NE(error.find("never ended"), std::string::npos);

  // Async event without the category that scopes its id.
  EXPECT_FALSE(validate_trace_json(
      "{\"traceEvents\": [{\"name\": \"r\", \"ph\": \"b\", \"ts\": 1, "
      "\"pid\": 1, \"tid\": 0, \"id\": 3}]}",
      &error));
  EXPECT_NE(error.find("cat"), std::string::npos);
}

TEST(TraceSinkTest, SpanIsNoOpWithoutSink) {
  // Must not crash or allocate a clock read path.
  Span span(nullptr, "nothing", "none");
}

TEST(TraceSinkTest, SpanEmitsOneCompleteEvent) {
  TraceSink sink;
  { Span span(&sink, "work", "test"); }
  ASSERT_EQ(sink.event_count(), 1u);
  const std::string json = sink.to_json();
  EXPECT_NE(json.find("\"name\": \"work\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  std::string error;
  EXPECT_TRUE(validate_trace_json(json, &error)) << error;
}

TEST(TraceSinkTest, ScopedTimerIsNoOpWithEmptyContext) {
  ObsContext ctx;  // both pointers null
  EXPECT_FALSE(ctx.enabled());
  ScopedTimer timer(ctx, "t.us", "span", "cat");
}

TEST(TraceSinkTest, ScopedTimerFeedsWallClockCounterAndTrace) {
  MetricsRegistry reg;
  TraceSink sink;
  ObsContext ctx{&reg, &sink};
  EXPECT_TRUE(ctx.enabled());
  { ScopedTimer timer(ctx, "test.phase_us", "phase", "test"); }

  EXPECT_EQ(sink.event_count(), 1u);
  const MetricsSnapshot snap = reg.snapshot();
  const MetricsSnapshot::Entry* e = snap.find("test.phase_us");
  ASSERT_NE(e, nullptr);
  // Phase durations are host-clock values and must not leak into the
  // deterministic section.
  EXPECT_EQ(e->determinism, Determinism::kWallClock);
  EXPECT_EQ(snap.deterministic_json().find("test.phase_us"),
            std::string::npos);
}

TEST(TraceSinkTest, TimestampsAreMonotonicSinceConstruction) {
  TraceSink sink;
  const std::uint64_t a = sink.now_us();
  const std::uint64_t b = sink.now_us();
  EXPECT_LE(a, b);
}

}  // namespace
}  // namespace ifsyn::obs
