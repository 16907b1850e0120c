/**
 * @file
 * A scratch directory private to one test process. ctest runs every
 * test in its own process and several at once, so a fixed file name
 * under the temp directory is shared between concurrent tests; a name
 * under scratchDir() is not.
 */
#pragma once

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace cimloop::support {

/** <temp>/cimloop_test_<pid>/, created on first use and removed when
 *  the process that created it exits. */
inline const std::filesystem::path&
scratchDir()
{
    struct Dir
    {
        pid_t owner = ::getpid();
        std::filesystem::path path =
            std::filesystem::temp_directory_path() /
            ("cimloop_test_" + std::to_string(owner));

        Dir() { std::filesystem::create_directories(path); }

        ~Dir()
        {
            // A forked child inherits this object; only the creator
            // removes the directory.
            if (::getpid() == owner) {
                std::error_code ec;
                std::filesystem::remove_all(path, ec);
            }
        }
    };
    static const Dir dir;
    return dir.path;
}

/** The path of @p name inside scratchDir(). */
inline std::string
scratchPath(const std::string& name)
{
    return (scratchDir() / name).string();
}

} // namespace cimloop::support
