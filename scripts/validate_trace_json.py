#!/usr/bin/env python3
"""Validate Chrome trace_event JSON files emitted by obs::TraceSink.

Mirrors the C++ validator in src/obs/trace_sink.cpp (the two must agree;
tests/obs/trace_sink_test.cpp pins the C++ side, this script is what CI
runs against artifacts). The C++ side reads the document with the
project's one JSON parser (src/util/json.cpp), whose rules match this
script's: strict json.loads (raw control characters inside strings are
rejected) plus a walk that rejects lone \\u surrogates. Every string the
program writes goes through util's json_quote, which escapes all control
characters, so its own traces pass both. Checked rules:

Syntax
  - the file is strict JSON with no lone surrogate escapes

Structure
  - top level is an object with a "traceEvents" array

Per event
  - "name" (string), "ph" (one-char string), "pid" and "tid" (numbers)
    are required
  - "ts" (number) is required except for metadata events (ph "M")
  - complete events (ph "X") require a numeric "dur"
  - counter ("C") and metadata ("M") events require an "args" object
  - flow events (ph "s", "t", "f") and async events (ph "b", "n", "e")
    require an "id" (number or string)
  - async events additionally require a string "cat" (they are matched
    per (cat, id, name))

Cross-event bindings
  - a flow id must open with "s" before any "t"/"f" referencing it (in
    array order — TraceSink emits "s" before handing the id to another
    thread precisely so this holds), must not open twice while live,
    and must be closed by "f" by end of trace
  - async spans must balance: every "e" needs a prior unmatched "b"
    with the same (cat, id, name), and every "b" must be closed

Usage: validate_trace_json.py FILE [FILE...]
Exits non-zero on the first violation, printing the offending file,
event index, and rule.
"""

import json
import sys

FLOW_PHASES = {"s", "t", "f"}
ASYNC_PHASES = {"b", "n", "e"}


def reject_lone_surrogates(path, value, context="document"):
    """Python's json decodes \\uD800-style lone surrogates into unpaired
    surrogate code points instead of erroring; the C++ validator rejects
    them as malformed escapes. Walk every decoded string so the two sides
    keep agreeing."""
    if isinstance(value, str):
        for ch in value:
            if 0xD800 <= ord(ch) <= 0xDFFF:
                raise SystemExit(
                    f"{path}: lone surrogate in string of {context}")
    elif isinstance(value, dict):
        for key, item in value.items():
            reject_lone_surrogates(path, key, context)
            reject_lone_surrogates(path, item, context)
    elif isinstance(value, list):
        for item in value:
            reject_lone_surrogates(path, item, context)


def fail(path, index, message):
    raise SystemExit(f"{path}: event {index}: {message}")


def check_event(path, index, event):
    if not isinstance(event, dict):
        fail(path, index, "event is not an object")
    name = event.get("name")
    if not isinstance(name, str):
        fail(path, index, 'missing string "name"')
    ph = event.get("ph")
    if not isinstance(ph, str) or len(ph) != 1:
        fail(path, index, 'missing one-char string "ph"')
    for key in ("pid", "tid"):
        if isinstance(event.get(key), bool) or not isinstance(
                event.get(key), (int, float)):
            fail(path, index, f'missing numeric "{key}"')
    if ph != "M":
        if isinstance(event.get("ts"), bool) or not isinstance(
                event.get("ts"), (int, float)):
            fail(path, index, 'missing numeric "ts"')
    if ph == "X":
        if isinstance(event.get("dur"), bool) or not isinstance(
                event.get("dur"), (int, float)):
            fail(path, index, 'complete event missing numeric "dur"')
    if ph in ("C", "M"):
        if not isinstance(event.get("args"), dict):
            fail(path, index, f'"{ph}" event missing "args" object')
    if ph in FLOW_PHASES or ph in ASYNC_PHASES:
        event_id = event.get("id")
        if isinstance(event_id, bool) or not isinstance(
                event_id, (int, float, str)):
            fail(path, index, f'"{ph}" event missing "id"')
    if ph in ASYNC_PHASES:
        if not isinstance(event.get("cat"), str):
            fail(path, index, f'async "{ph}" event missing string "cat"')


def check_bindings(path, events):
    # flow id -> index of the live "s" event
    live_flows = {}
    # (cat, id, name) -> [depth, index of first unmatched "b"]
    async_spans = {}
    for index, event in enumerate(events):
        ph = event["ph"]
        if ph in FLOW_PHASES:
            flow_id = event["id"]
            if ph == "s":
                if flow_id in live_flows:
                    fail(path, index,
                         f'flow id {flow_id!r} opened twice without "f" '
                         f'(first at event {live_flows[flow_id]})')
                live_flows[flow_id] = index
            else:  # "t" or "f"
                if flow_id not in live_flows:
                    fail(path, index,
                         f'flow "{ph}" references id {flow_id!r} with no '
                         f'prior "s"')
                if ph == "f":
                    del live_flows[flow_id]
        elif ph in ASYNC_PHASES and ph != "n":
            key = (event["cat"], event["id"], event["name"])
            depth, first = async_spans.get(key, (0, index))
            if ph == "b":
                async_spans[key] = (depth + 1, first if depth else index)
            else:  # "e"
                if depth == 0:
                    fail(path, index,
                         f'async "e" for {key!r} with no matching "b"')
                async_spans[key] = (depth - 1, first)
    for flow_id, index in sorted(live_flows.items(), key=lambda kv: kv[1]):
        fail(path, index, f'flow id {flow_id!r} opened by "s" but never '
                          f'closed by "f"')
    for key, (depth, first) in sorted(async_spans.items(),
                                      key=lambda kv: kv[1][1]):
        if depth != 0:
            fail(path, first, f'async span {key!r} opened by "b" but never '
                              f'closed by "e"')


def validate(path):
    with open(path, "r", encoding="utf-8") as f:
        try:
            data = json.load(f)
        except ValueError as e:
            raise SystemExit(f"{path}: invalid JSON: {e}")
    if not isinstance(data, dict):
        raise SystemExit(f"{path}: top-level value must be an object")
    reject_lone_surrogates(path, data)
    events = data.get("traceEvents")
    if not isinstance(events, list):
        raise SystemExit(f'{path}: missing "traceEvents" array')
    for index, event in enumerate(events):
        check_event(path, index, event)
    check_bindings(path, events)
    flows = sum(1 for e in events if e["ph"] == "s")
    print(f"{path}: OK ({len(events)} events, {flows} flows)")


def main(argv):
    if len(argv) < 2:
        raise SystemExit("usage: validate_trace_json.py FILE [FILE...]")
    for path in argv[1:]:
        validate(path)


if __name__ == "__main__":
    main(sys.argv)
