#include "cimloop/serve/server.hh"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <future>
#include <limits>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "cimloop/cli/cli.hh"
#include "cimloop/common/cancel.hh"
#include "cimloop/common/util.hh"
#include "cimloop/engine/evaluate.hh"
#include "cimloop/serve/protocol.hh"

namespace cimloop::serve {

namespace {

/** Everything the accept loop and connection threads share. */
struct ServerContext
{
    ServerState state;
    /** Process-level token: SIGINT/SIGTERM cancel it (reason Signal);
     *  connection threads and request monitors poll it. */
    CancelToken token;
};

/** A connection thread and the flag it raises as it finishes, so the
 *  accept loop can join it then instead of holding its stack until
 *  shutdown. */
struct Connection
{
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
};

/** send() the whole buffer; MSG_NOSIGNAL so a vanished client yields
 *  EPIPE instead of killing the daemon with SIGPIPE. */
bool
writeAll(int fd, const std::string& data)
{
    std::size_t off = 0;
    while (off < data.size()) {
        ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                           MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

/**
 * Runs one request on a worker thread while this (connection) thread
 * watches the socket and the process token: a client that hangs up
 * mid-request — or a signal hitting the daemon — cancels the request's
 * token, and the evaluation stack unwinds at its next deterministic
 * boundary exactly as --timeout does. The worker always finishes (it
 * polls the token), so the response future is always redeemed.
 */
std::string
runRequest(ServerContext& ctx, ClientState& client, int fd,
           const std::string& line)
{
    CancelToken token;
    std::future<std::string> worker =
        std::async(std::launch::async, [&ctx, &client, &line, &token] {
            return handleRequestLine(ctx.state, client, line, token);
        });
    for (;;) {
        if (worker.wait_for(std::chrono::milliseconds(50)) ==
            std::future_status::ready) {
            return worker.get();
        }
        if (ctx.token.cancelled()) {
            token.cancel(ctx.token.reason() == CancelReason::Signal
                             ? CancelReason::Signal
                             : CancelReason::User);
            continue;
        }
        // events=0: poll still reports POLLERR/POLLHUP, so a fully
        // closed peer is detected without consuming pipelined input.
        struct pollfd p = {fd, 0, 0};
        if (::poll(&p, 1, 0) > 0 && (p.revents & (POLLERR | POLLHUP)))
            token.cancel(CancelReason::User);
    }
}

/**
 * One connection: split the byte stream into lines, answer each in
 * order. Requests on one connection are sequential (responses line up
 * with requests); concurrency comes from multiple connections.
 */
void
serveConnection(ServerContext& ctx, int fd,
                const std::shared_ptr<ClientState>& client)
{
    std::string pending;
    bool discarding = false; // inside an oversized line, seeking '\n'
    char buf[64 * 1024];

    for (;;) {
        std::size_t nl;
        while ((nl = pending.find('\n')) != std::string::npos) {
            std::string line = pending.substr(0, nl);
            pending.erase(0, nl + 1);
            if (!line.empty() && line.back() == '\r')
                line.pop_back();
            if (line.find_first_not_of(" \t") == std::string::npos)
                continue; // blank keep-alive lines get no response
            std::string resp = runRequest(ctx, *client, fd, line);
            if (!writeAll(fd, resp + "\n"))
                return;
            if (ctx.state.shutdownRequested.load(
                    std::memory_order_acquire))
                return; // graceful: this response was the last
        }

        if (ctx.state.shutdownRequested.load(std::memory_order_acquire) ||
            ctx.token.cancelled())
            return;

        if (!discarding &&
            pending.size() > ctx.state.config.maxLineBytes) {
            // No newline in sight and over budget: reject now and skip
            // input until the line ends, keeping memory bounded.
            ctx.state.errorsTotal.fetch_add(1, std::memory_order_relaxed);
            client->errors.fetch_add(1, std::memory_order_relaxed);
            std::string resp = errorResponse(
                "null", "protocol",
                "request line exceeds " +
                    std::to_string(ctx.state.config.maxLineBytes) +
                    " bytes");
            if (!writeAll(fd, resp + "\n"))
                return;
            pending.clear();
            discarding = true;
        }

        struct pollfd p = {fd, POLLIN, 0};
        int rc = ::poll(&p, 1, 100);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            return;
        }
        if (rc == 0)
            continue;
        if (p.revents & (POLLERR | POLLNVAL))
            return;
        if (p.revents & POLLIN) {
            ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
            if (n <= 0)
                return; // EOF (orderly close) or error
            std::size_t off = 0;
            if (discarding) {
                const char* nlp = static_cast<const char*>(
                    std::memchr(buf, '\n', static_cast<std::size_t>(n)));
                if (!nlp)
                    continue; // still inside the oversized line
                off = static_cast<std::size_t>(nlp - buf) + 1;
                discarding = false;
            }
            pending.append(buf + off, static_cast<std::size_t>(n) - off);
        } else if (p.revents & POLLHUP) {
            return;
        }
    }
}

} // namespace

bool
parseServeFlags(const std::vector<std::string>& args, ServeFlags& out,
                std::string& error)
{
    std::size_t i = 0;
    const auto value = [&](const std::string& flag,
                           std::string& v) -> bool {
        if (i + 1 >= args.size()) {
            error = flag + " requires a value";
            return false;
        }
        v = args[++i];
        return true;
    };
    // The cache budget is --cache-mb << 20 bytes, so its bound keeps that
    // shift inside size_t.
    constexpr std::int64_t kMaxCacheMb =
        static_cast<std::int64_t>(std::numeric_limits<std::size_t>::max() >>
                                  20);
    constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
    constexpr std::int64_t kInt64Max =
        std::numeric_limits<std::int64_t>::max();
    const auto number = [&](const std::string& flag, std::int64_t lo,
                            std::int64_t hi) -> std::optional<std::int64_t> {
        std::string s;
        if (!value(flag, s))
            return std::nullopt;
        return parseIntFlag(flag, s, lo, hi, error);
    };

    for (; i < args.size(); ++i) {
        const std::string& flag = args[i];
        if (flag == "--listen") {
            if (!value(flag, out.config.listenPath))
                return false;
        } else if (flag == "--cache-mb") {
            std::optional<std::int64_t> n = number(flag, 0, kMaxCacheMb);
            if (!n)
                return false;
            out.config.cacheMb = static_cast<std::size_t>(*n);
        } else if (flag == "--threads") {
            std::optional<std::int64_t> n = number(flag, 1, kIntMax);
            if (!n)
                return false;
            out.config.defaultThreads = static_cast<int>(*n);
        } else if (flag == "--max-line-bytes") {
            std::optional<std::int64_t> n = number(flag, 1024, kInt64Max);
            if (!n)
                return false;
            out.config.maxLineBytes = static_cast<std::size_t>(*n);
        } else if (flag == "--help" || flag == "-h") {
            out.help = true;
        } else {
            error = "unknown serve flag: " + flag;
            return false;
        }
    }
    if (!out.help && out.config.listenPath.empty()) {
        error = "serve requires --listen PATH";
        return false;
    }
    return true;
}

std::string
serveUsage()
{
    return "usage: cimloop serve --listen PATH [options]\n"
           "\n"
           "Long-lived evaluation daemon: newline-delimited JSON requests\n"
           "over a Unix socket, one response line per request (see\n"
           "docs/architecture.md, \"The evaluation server\").\n"
           "\n"
           "  --listen PATH        Unix socket path to bind (required).\n"
           "                       A stale path is unlinked first.\n"
           "  --cache-mb N         LRU byte budget for the cross-request\n"
           "                       per-action cache (0 = unlimited).\n"
           "  --threads N          default worker threads per request\n"
           "                       (a request's \"threads\" field wins).\n"
           "  --max-line-bytes N   reject request lines longer than this\n"
           "                       (default 1048576).\n"
           "  --help               this text.\n"
           "\n"
           "Request kinds: ping, evaluate, sweep, metrics, shutdown.\n"
           "Responses to evaluate/sweep carry the byte-identical stdout\n"
           "of the equivalent one-shot invocation at the same seed.\n"
           "Exit: 0 after a shutdown request, 128+signo on a signal.\n";
}

int
runServe(const std::vector<std::string>& args, std::ostream& out,
         std::ostream& err)
{
    ServeFlags flags;
    std::string error;
    if (!parseServeFlags(args, flags, error)) {
        err << "cimloop serve: " << error << "\n\n" << serveUsage();
        return cli::ExitUsage;
    }
    if (flags.help) {
        out << serveUsage();
        return cli::ExitOk;
    }

    if (flags.config.cacheMb > 0) {
        engine::setPerActionCacheBudget(flags.config.cacheMb << 20);
    }

    ServerContext ctx;
    ctx.state.config = flags.config;
    const std::string& path = flags.config.listenPath;

    sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        err << "cimloop serve: socket path too long (max "
            << sizeof(addr.sun_path) - 1 << " bytes): " << path << "\n";
        return cli::ExitFatal;
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

    int listen_fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listen_fd < 0) {
        err << "cimloop serve: socket(): " << std::strerror(errno)
            << "\n";
        return cli::ExitFatal;
    }
    ::unlink(path.c_str()); // stale socket from a previous daemon
    if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) < 0 ||
        ::listen(listen_fd, 16) < 0) {
        err << "cimloop serve: cannot listen on " << path << ": "
            << std::strerror(errno) << "\n";
        ::close(listen_fd);
        return cli::ExitFatal;
    }

    // One greppable readiness line; stdout stays clean for scripts.
    err << "cimloop serve: listening on " << path << std::endl;

    installSignalCancel(ctx.token);

    std::vector<Connection> connections;
    for (;;) {
        std::erase_if(connections, [](Connection& c) {
            if (!c.done->load(std::memory_order_acquire))
                return false;
            c.thread.join();
            return true;
        });
        if (ctx.state.shutdownRequested.load(std::memory_order_acquire) ||
            ctx.token.cancelled())
            break;
        struct pollfd p = {listen_fd, POLLIN, 0};
        int rc = ::poll(&p, 1, 100);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            err << "cimloop serve: poll(): " << std::strerror(errno)
                << "\n";
            break;
        }
        if (rc == 0 || !(p.revents & POLLIN))
            continue;
        int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd < 0)
            continue;
        auto client = std::make_shared<ClientState>();
        client->clientId =
            ctx.state.clientsTotal.fetch_add(1, std::memory_order_relaxed) +
            1;
        Connection conn;
        conn.done = std::make_shared<std::atomic<bool>>(false);
        conn.thread = std::thread([&ctx, fd, client, done = conn.done] {
            serveConnection(ctx, fd, client);
            ::close(fd);
            done->store(true, std::memory_order_release);
        });
        connections.push_back(std::move(conn));
    }

    ::close(listen_fd);
    for (Connection& c : connections)
        c.thread.join();
    uninstallSignalCancel();
    ::unlink(path.c_str());

    if (ctx.token.cancelled() &&
        ctx.token.reason() == CancelReason::Signal) {
        const int sig = lastCancelSignal();
        err << "cimloop serve: stopped by signal\n";
        return sig > 0 ? 128 + sig : cli::ExitInterrupt;
    }
    err << "cimloop serve: shutdown complete\n";
    return cli::ExitOk;
}

} // namespace cimloop::serve
