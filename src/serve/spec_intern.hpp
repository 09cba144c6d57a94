// ifsyn/serve/spec_intern.hpp
//
// Content-addressed interning of specifications for the serve front end.
// Every request names a spec — a `.ifs` file path, inline source text, or
// a `builtin:` case-study name — and many requests name the *same* spec:
// a batch manifest sweeping options over one design, a serve loop fed by
// CI. The interner resolves each to a parsed, validated, immutable
// spec::System exactly once per content hash and shares it (requests
// clone their own mutable copy; the interned System itself is never
// mutated).
//
// The content hash doubles as the request's `spec_hash` — the scope
// qualifier for the cross-request estimation store (explore/
// estimation_cache) and the identity echoed in responses. File targets
// hash the file *bytes*, so editing a spec on disk naturally misses the
// cache; builtins hash a versioned sentinel (they are compiled in and
// immutable for the process lifetime).
//
// Bounded LRU, same discipline as the other shared stores: capacity 0 =
// unbounded; hit/miss/eviction counters are obs-registry-backed.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "core/interface_synthesizer.hpp"
#include "obs/metrics.hpp"
#include "spec/system.hpp"
#include "util/status.hpp"

namespace ifsyn::serve {

/// 128-bit hex content hash (two independently seeded 64-bit FNV-1a
/// passes) plus a length tag — the same shape as the bytecode program
/// cache's key.
std::string content_hash(std::string_view text);

/// Per-spec synthesis defaults a builtin carries with it: the calibration
/// and arbitration its case study is defined with. Explicit request
/// options override these.
struct SpecDefaults {
  bool arbitrate = false;
  std::map<std::string, long long> compute_cycles_override;
};

struct InternedSpec {
  std::string hash;  ///< content hash; the request's spec_hash
  std::shared_ptr<const spec::System> system;
  SpecDefaults defaults;
};

class SpecInterner {
 public:
  /// Null counters are replaced with private ones. `capacity` == 0 means
  /// unbounded.
  explicit SpecInterner(std::size_t capacity = 0,
                        obs::Counter* hits = nullptr,
                        obs::Counter* misses = nullptr,
                        obs::Counter* evictions = nullptr);

  /// Resolve a request target: "builtin:<name>" or a spec file path.
  Result<InternedSpec> intern_target(const std::string& target);

  /// Intern inline spec source text.
  Result<InternedSpec> intern_source(const std::string& source);

  std::size_t size() const;

 private:
  struct Entry {
    InternedSpec spec;
    std::list<std::string>::iterator lru;
  };

  /// Insert-or-get under the lock; parsing happened outside. Two racing
  /// parsers of the same content produce identical systems, so first
  /// insert wins and the loser's work is discarded — simpler than the
  /// future idiom and harmless for a parse-bound cache.
  InternedSpec insert_locked(InternedSpec spec);
  Result<InternedSpec> lookup(const std::string& hash, bool* found);

  mutable std::mutex mu_;
  std::map<std::string, Entry> map_;
  std::list<std::string> lru_;  // front = most recent
  std::size_t capacity_;
  obs::Counter own_hits_, own_misses_, own_evictions_;
  obs::Counter* hits_;
  obs::Counter* misses_;
  obs::Counter* evictions_;
};

}  // namespace ifsyn::serve
