#include "util/files.hpp"

#include <fstream>

#include "util/status.hpp"
#include "util/strings.hpp"

namespace genfv::util {

std::string lower_extension(const std::string& path) {
  const std::size_t slash = path.find_last_of("/\\");
  const std::size_t dot = path.rfind('.');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash)) {
    return "";
  }
  return to_lower(std::string_view(path).substr(dot + 1));
}

void write_file(const std::string& path, std::string_view content) {
  std::ofstream out(path, std::ios::binary);
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  out.close();  // flushes; a failed flush sets failbit
  if (!out) throw UsageError("cannot write '" + path + "'");
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string content;
  char chunk[1 << 16];
  // istream::read turns a failing read (EISDIR) into badbit; only a clean
  // end of file leaves eofbit without badbit.
  while (in.read(chunk, sizeof chunk) || in.gcount() > 0) {
    content.append(chunk, static_cast<std::size_t>(in.gcount()));
  }
  if (in.bad() || !in.eof()) throw UsageError("cannot read '" + path + "'");
  return content;
}

}  // namespace genfv::util
