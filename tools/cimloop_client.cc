/**
 * @file
 * Minimal NDJSON client for `cimloop serve`, used by the serve e2e
 * harness (tests/tools/serve_e2e.sh) and handy for manual poking:
 *
 *   cimloop_client --socket /tmp/cimloop.sock --input requests.ndjson
 *   echo '{"id":1,"kind":"ping"}' | cimloop_client --socket S
 *
 * Sends one request line at a time and waits for its response line
 * (strict request/response lockstep, so output order is deterministic).
 * By default prints each raw response line to stdout. With
 * --extract-stdout it instead parses each response and writes the
 * decoded "stdout" field to stdout and "stderr" to stderr — exactly the
 * bytes the equivalent one-shot CLI run would have written, which is
 * what the e2e test byte-compares.
 *
 * Connects with retry (the daemon may still be binding), and exits 0
 * iff every response had "ok":true.
 */
#include <cerrno>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "cimloop/common/json.hh"

namespace {

using cimloop::JsonValue;
using cimloop::parseJson;

int
usage(std::ostream& os, int rc)
{
    os << "usage: cimloop_client --socket PATH [--input FILE]\n"
          "                      [--extract-stdout] [--connect-timeout-s N]\n"
          "\n"
          "Reads NDJSON requests from FILE (default stdin), sends them to\n"
          "a cimloop serve daemon one at a time, and prints each response\n"
          "line. --extract-stdout instead re-emits each response's stdout\n"
          "and stderr fields verbatim. Exits 0 iff every response is ok.\n";
    return rc;
}

/** Connects to the Unix socket, retrying while the daemon starts up. */
int
connectWithRetry(const std::string& path, double timeout_s,
                 std::string& error)
{
    sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        error = "socket path too long: " + path;
        return -1;
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

    const int attempts = static_cast<int>(timeout_s * 10.0) + 1;
    for (int i = 0; i < attempts; ++i) {
        int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (fd < 0) {
            error = std::string("socket(): ") + std::strerror(errno);
            return -1;
        }
        if (::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)) == 0) {
            return fd;
        }
        error = std::string("connect(") + path +
                "): " + std::strerror(errno);
        ::close(fd);
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    return -1;
}

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

/** Reads one '\n'-terminated line from the socket via @p carry. */
bool
readLine(int fd, std::string& carry, std::string& line)
{
    for (;;) {
        std::size_t nl = carry.find('\n');
        if (nl != std::string::npos) {
            line = carry.substr(0, nl);
            carry.erase(0, nl + 1);
            return true;
        }
        char buf[64 * 1024];
        ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false; // server closed before a full line arrived
        carry.append(buf, static_cast<std::size_t>(n));
    }
}

} // namespace

int
main(int argc, char** argv)
{
    std::string socket_path;
    std::string input_path;
    bool extract_stdout = false;
    double connect_timeout_s = 10.0;

    std::vector<std::string> args(argv + 1, argv + argc);
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string& a = args[i];
        const auto value = [&](std::string& v) -> bool {
            if (i + 1 >= args.size())
                return false;
            v = args[++i];
            return true;
        };
        if (a == "--socket") {
            if (!value(socket_path))
                return usage(std::cerr, 2);
        } else if (a == "--input") {
            if (!value(input_path))
                return usage(std::cerr, 2);
        } else if (a == "--extract-stdout") {
            extract_stdout = true;
        } else if (a == "--connect-timeout-s") {
            std::string s;
            if (!value(s))
                return usage(std::cerr, 2);
            connect_timeout_s = std::strtod(s.c_str(), nullptr);
        } else if (a == "--help" || a == "-h") {
            return usage(std::cout, 0);
        } else {
            std::cerr << "cimloop_client: unknown flag: " << a << "\n";
            return usage(std::cerr, 2);
        }
    }
    if (socket_path.empty()) {
        std::cerr << "cimloop_client: --socket PATH is required\n";
        return usage(std::cerr, 2);
    }

    std::ifstream file;
    std::istream* in = &std::cin;
    if (!input_path.empty()) {
        file.open(input_path);
        if (!file) {
            std::cerr << "cimloop_client: cannot open " << input_path
                      << "\n";
            return 1;
        }
        in = &file;
    }

    std::string error;
    int fd = connectWithRetry(socket_path, connect_timeout_s, error);
    if (fd < 0) {
        std::cerr << "cimloop_client: " << error << "\n";
        return 1;
    }

    bool all_ok = true;
    std::string carry;
    std::string request;
    while (std::getline(*in, request)) {
        if (request.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        if (!writeAll(fd, request + "\n")) {
            std::cerr << "cimloop_client: send failed: "
                      << std::strerror(errno) << "\n";
            ::close(fd);
            return 1;
        }
        std::string response;
        if (!readLine(fd, carry, response)) {
            std::cerr << "cimloop_client: server closed the connection\n";
            ::close(fd);
            return 1;
        }

        auto doc = parseJson(response);
        const JsonValue* ok =
            doc && doc->isObject() ? doc->get("ok") : nullptr;
        if (!ok || !ok->isBool() || !ok->boolean)
            all_ok = false;

        if (extract_stdout) {
            if (doc && doc->isObject()) {
                if (const JsonValue* o = doc->get("stdout");
                    o && o->isString())
                    std::cout << o->text;
                if (const JsonValue* e = doc->get("stderr");
                    e && e->isString())
                    std::cerr << e->text;
                if (const JsonValue* err_obj = doc->get("error");
                    err_obj && err_obj->isObject()) {
                    if (const JsonValue* m = err_obj->get("message");
                        m && m->isString())
                        std::cerr << "error: " << m->text << "\n";
                }
            }
        } else {
            std::cout << response << "\n";
        }
    }
    std::cout.flush();
    ::close(fd);
    return all_ok ? 0 : 1;
}
