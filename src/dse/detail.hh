/**
 * @file
 * Rendering helpers shared by the sweep exporters (report.cc) and the
 * on-disk journal (journal.cc). Internal to src/dse — not installed.
 */
#ifndef CIMLOOP_DSE_DETAIL_HH
#define CIMLOOP_DSE_DETAIL_HH

#include <string>

namespace cimloop::dse::detail {

/** Fixed-notation-free numeric rendering shared by CSV/JSON/table. */
std::string fmtNum(double v);

/** Shortest round-trip rendering (%.17g) — the journal stores metrics
 *  with this so a resumed run reproduces them bit-exactly. */
std::string fmtFull(double v);

/** Escapes a CSV field (quotes it when it holds , " CR or LF). */
std::string csvField(const std::string& s);

} // namespace cimloop::dse::detail

#endif // CIMLOOP_DSE_DETAIL_HH
