#pragma once

/// \file files.hpp
/// File-name, input and output helpers shared by the frontends, the flows
/// and the tools, so every file fails the same way and every format is
/// picked by the same extension rule.

#include <string>
#include <string_view>

namespace genfv::util {

/// Extension of the last path component, without the dot, lower-cased
/// ("design.AIG" -> "aig"); empty when that component has none.
std::string lower_extension(const std::string& path);

/// Write `content` to `path`, replacing the file. Throws
/// UsageError("cannot write '<path>'") when the file cannot be opened or a
/// byte of it cannot be written (a full disk, /dev/full), so a failed
/// output is never reported as written.
void write_file(const std::string& path, std::string_view content);

/// The bytes of `path`, exactly as stored. Throws UsageError("cannot read
/// '<path>'") when the file cannot be opened or a read fails (a directory
/// opens but cannot be read), so unreadable input is never taken for an
/// empty file.
std::string read_file(const std::string& path);

}  // namespace genfv::util
