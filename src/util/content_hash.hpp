// ifsyn/util/content_hash.hpp
//
// The content hash the shared stores key on: the spec interner hashes
// spec bytes with it, the bytecode program cache hashes a system's
// printed IR. A collision would silently hand out the wrong artifact, so
// the hash is two independently seeded 64-bit FNV-1a passes (128 bits,
// hex) plus a length tag: "<32 hex digits>-<byte count>".
#pragma once

#include <string>
#include <string_view>

namespace ifsyn {

std::string content_hash(std::string_view text);

}  // namespace ifsyn
