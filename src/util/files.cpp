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

}  // namespace genfv::util
