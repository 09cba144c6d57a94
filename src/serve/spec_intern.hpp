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
// The store is obs::MemoCache, the same compute-once cache behind the
// other shared stores: racing requests for one spec parse it once,
// capacity 0 = unbounded, hit/miss/eviction counters are obs-registry-
// backed. Parsing is a pure function of the bytes, so the cached value
// is the parse outcome, a system or a parse error: a spec that fails to
// parse fails again from memory. Only file-read failures and unknown
// builtin names are not cached (there are no bytes to key them on).
#pragma once

#include <map>
#include <memory>
#include <string>

#include "obs/memo_cache.hpp"
#include "spec/system.hpp"
#include "util/content_hash.hpp"
#include "util/status.hpp"

namespace ifsyn::serve {

/// The spec hash is util's content_hash of the spec bytes.
using ifsyn::content_hash;

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
                        obs::Counter* evictions = nullptr)
      : cache_(capacity, hits, misses, evictions) {}

  /// Resolve a request target: "builtin:<name>" or a spec file path. A
  /// relative path resolves against the process's working directory.
  Result<InternedSpec> intern_target(const std::string& target);

  /// Intern inline spec source text.
  Result<InternedSpec> intern_source(const std::string& source);

  std::size_t size() const { return cache_.size(); }

 private:
  obs::MemoCache<std::string, Result<InternedSpec>> cache_;
};

}  // namespace ifsyn::serve
