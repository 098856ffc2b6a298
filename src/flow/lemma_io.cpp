#include "flow/lemma_io.hpp"

#include <optional>
#include <sstream>

#include "util/files.hpp"
#include "util/status.hpp"
#include "util/strings.hpp"

namespace genfv::flow {

std::string render_lemma_file(const std::string& design,
                              const std::vector<std::string>& lemma_svas) {
  std::ostringstream out;
  out << "# genfv-lemmas 1\n";
  if (!design.empty()) out << "# design: " << design << '\n';
  out << "# lemmas: " << lemma_svas.size() << '\n';
  for (const std::string& sva : lemma_svas) {
    // One lemma per line; flatten any embedded newline so the file stays
    // line-oriented.
    std::string one_line = sva;
    for (char& ch : one_line) {
      if (ch == '\n') ch = ' ';
    }
    one_line = util::trim(one_line);
    // A lemma that would read back as a blank or comment line vanishes on
    // re-parse — a silent loss the count header cannot repair. Reject it
    // here, at the writer, where the caller can still see which lemma.
    if (one_line.empty()) {
      throw UsageError("render_lemma_file: lemma flattens to an empty line");
    }
    if (one_line[0] == '#') {
      throw UsageError("render_lemma_file: lemma '" + one_line +
                       "' would re-parse as a comment");
    }
    out << one_line << '\n';
  }
  return out.str();
}

std::vector<std::string> parse_lemma_file(const std::string& text) {
  std::vector<std::string> lemmas;
  std::optional<std::size_t> declared;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const std::string trimmed = util::trim(line);
    if (trimmed.empty()) continue;
    if (trimmed[0] == '#') {
      // Honor the writer's count header so truncated or hand-mangled files
      // fail loudly instead of silently dropping lemmas.
      const std::string prefix = "# lemmas:";
      if (trimmed.rfind(prefix, 0) == 0) {
        declared = util::parse_number<std::size_t>(
            "lemma file count header", util::trim(trimmed.substr(prefix.size())));
      }
      continue;
    }
    lemmas.push_back(trimmed);
  }
  if (declared.has_value() && *declared != lemmas.size()) {
    throw UsageError("lemma file declares " + std::to_string(*declared) +
                     " lemma(s) but " + std::to_string(lemmas.size()) +
                     " parsed — truncated or edited file?");
  }
  return lemmas;
}

void write_lemma_file(const std::string& path, const std::string& design,
                      const std::vector<std::string>& lemma_svas) {
  util::write_file(path, render_lemma_file(design, lemma_svas));
}

std::vector<std::string> read_lemma_file(const std::string& path) {
  return parse_lemma_file(util::read_file(path));
}

}  // namespace genfv::flow
