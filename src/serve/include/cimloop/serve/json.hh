/**
 * @file
 * The serve protocol's JSON names. The parser, escaper and writer live
 * in cimloop/common/json.hh; this header only re-exports them into
 * cimloop::serve.
 */
#ifndef CIMLOOP_SERVE_JSON_HH
#define CIMLOOP_SERVE_JSON_HH

#include "cimloop/common/json.hh"

namespace cimloop::serve {

using cimloop::JsonValue;
using cimloop::jsonEscape;
using cimloop::kJsonMaxDepth;
using cimloop::parseJson;
using cimloop::writeJson;

} // namespace cimloop::serve

#endif // CIMLOOP_SERVE_JSON_HH
