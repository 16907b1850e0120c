/**
 * @file
 * The `cimloop serve` daemon: a long-lived evaluation server speaking
 * the NDJSON protocol (see protocol.hh) over a Unix domain socket.
 *
 *   cimloop serve --listen /tmp/cimloop.sock --cache-mb 64 --threads 8
 *
 * Lifecycle:
 *  - binds the socket (unlinking a stale path first), prints one
 *    "listening on PATH" line to stderr, and accepts connections;
 *  - each connection is handled on its own thread, requests on one
 *    connection strictly in order (responses line up with requests),
 *    different connections concurrently — they share the per-action
 *    cache, so identical concurrent requests coalesce into one compute;
 *  - a request runs on a worker thread while the connection thread
 *    watches the socket: a client that drops mid-request cancels its
 *    token cooperatively (same machinery as --timeout);
 *  - a `shutdown` request finishes in-flight work, then the daemon
 *    exits 0; SIGINT/SIGTERM cancel in-flight work and exit 128+signo.
 *
 * The process-wide per-action cache and obs counters deliberately
 * persist across requests (the point of a daemon); --cache-mb arms the
 * cache's LRU byte budget for the process lifetime.
 */
#ifndef CIMLOOP_SERVE_SERVER_HH
#define CIMLOOP_SERVE_SERVER_HH

#include <ostream>
#include <string>
#include <vector>

#include "cimloop/serve/protocol.hh"

namespace cimloop::serve {

/** `cimloop serve` flags. */
struct ServeFlags
{
    ServeConfig config;
    bool help = false;
};

/**
 * Parses serve's own flags (argv after the `serve` word) into @p out;
 * returns false with a message in @p error on a bad flag. Integer flags
 * go through parseIntFlag: --threads must lie in [1, INT_MAX],
 * --cache-mb in [0, SIZE_MAX >> 20] (so the byte budget does not
 * overflow) and --max-line-bytes in [1024, INT64_MAX].
 */
bool parseServeFlags(const std::vector<std::string>& args, ServeFlags& out,
                     std::string& error);

/** Usage text for `cimloop serve --help`. */
std::string serveUsage();

/**
 * Runs the daemon until shutdown: parses serve flags (argv after the
 * `serve` word), binds, serves, and returns the process exit code
 * (0 after a `shutdown` request, 2 for bad flags, 1 for bind/listen
 * failures, 128+signo when a signal stopped it).
 */
int runServe(const std::vector<std::string>& args, std::ostream& out,
             std::ostream& err);

} // namespace cimloop::serve

#endif // CIMLOOP_SERVE_SERVER_HH
