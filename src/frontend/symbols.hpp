#pragma once

/// \file symbols.hpp
/// Shared name hygiene for the standard-format frontends (AIGER, BTOR2).
///
/// Both formats allow symbol names that are not legal genfv identifiers
/// (brackets, dots, arbitrary bytes) or that collide with each other; both
/// also allow symbols to be absent entirely. Every name that enters an
/// `ir::TransitionSystem` through a frontend goes through a SymbolTable,
/// which guarantees two things the rest of the pipeline depends on:
///
///  * every claimed name is a valid SVA identifier ([A-Za-z_][A-Za-z0-9_]*),
///    so `ir::to_string` output for frontend-sourced systems re-parses
///    through the SVA compiler — this is what makes `--emit-lemmas` /
///    `--use-lemmas` files work for parsed designs;
///  * names are unique within the system (collisions get a numeric suffix),
///    and unnamed objects get stable synthesized names (`in_3`, `latch_0`,
///    `bad_1`) keyed on their position, so per-property engine overrides
///    (`--property pdr:bad_0`) address the same property run after run.

#include <string>
#include <unordered_set>

namespace genfv::frontend {

class SymbolTable {
 public:
  /// Sanitize `desired` into a fresh legal identifier; when `desired` is
  /// empty, synthesize `<fallback_prefix><index>`. Either way the returned
  /// name is unique among all names this table has handed out.
  std::string claim(const std::string& desired, const std::string& fallback_prefix,
                    std::size_t index) {
    std::string base = sanitize(desired);
    if (base.empty()) base = fallback_prefix + std::to_string(index);
    std::string name = base;
    for (int suffix = 2; !taken_.insert(name).second; ++suffix) {
      name = base + "_" + std::to_string(suffix);
    }
    return name;
  }

  /// True when `name` has already been handed out.
  bool contains(const std::string& name) const { return taken_.count(name) != 0; }

  /// Turn an arbitrary byte string into a legal identifier ("" when nothing
  /// survives). Illegal characters become '_'; a leading digit gets a '_'
  /// prefix.
  static std::string sanitize(const std::string& raw) {
    std::string out;
    out.reserve(raw.size());
    for (const char c : raw) {
      const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_';
      out.push_back(ok ? c : '_');
    }
    // All-underscore results carry no information; synthesize instead.
    if (out.find_first_not_of('_') == std::string::npos) return "";
    if (out[0] >= '0' && out[0] <= '9') out.insert(out.begin(), '_');
    return out;
  }

 private:
  std::unordered_set<std::string> taken_;
};

/// The system name a design file implies: "path/to/foo.aag" -> "foo".
inline std::string design_stem(std::string path) {
  if (const std::size_t slash = path.find_last_of("/\\"); slash != std::string::npos) {
    path.erase(0, slash + 1);
  }
  if (const std::size_t dot = path.rfind('.'); dot != std::string::npos && dot > 0) {
    path.erase(dot);
  }
  return path;
}

}  // namespace genfv::frontend
