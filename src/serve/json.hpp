// ifsyn/serve/json.hpp
//
// The serve protocol speaks the project's one JSON codec (util/json.hpp);
// these names keep the serve-qualified spelling its callers use.
#pragma once

#include "util/json.hpp"

namespace ifsyn::serve {

using ifsyn::Json;
using ifsyn::JsonArray;
using ifsyn::JsonObject;
using ifsyn::json_quote;
using ifsyn::parse_json;

}  // namespace ifsyn::serve
