#include "synth/langmap.h"

#include <unordered_map>

namespace spider {

namespace {

// Ordered by the target popularity ranking in the synthetic facility,
// chosen to reproduce the paper's reported orderings: IEEE's top five all
// popular, shell 5th, Fortran 6th, Prolog 8th, COBOL 12th, Ada 16th, and
// emerging languages (Go/Scala/Swift) present but rare.
constexpr LanguageInfo kLanguages[] = {
    {"C", 1, {"c", "h", nullptr}, 1.00},
    {"Python", 3, {"py", "pyc", nullptr}, 0.82},
    {"C++", 4, {"cpp", "hpp", "cc", "cxx", nullptr}, 0.74},
    {"Java", 2, {"java", "jar", nullptr}, 0.72},
    {"Shell", 18, {"sh", "bash", "csh", nullptr}, 0.68},
    {"Fortran", 28, {"f", "f90", "F", "f77", nullptr}, 0.50},
    {"R", 5, {"R", "r", nullptr}, 0.34},
    {"Prolog", 37, {"pl", "pro", nullptr}, 0.30},
    {"Matlab", 13, {"m", nullptr}, 0.28},
    {"Javascript", 6, {"js", nullptr}, 0.22},
    {"Perl", 14, {"pm", "perl", nullptr}, 0.18},
    {"COBOL", 41, {"cob", "cbl", nullptr}, 0.20},
    {"PHP", 8, {"php", nullptr}, 0.13},
    {"Ruby", 10, {"rb", nullptr}, 0.11},
    {"Lua", 26, {"lua", nullptr}, 0.09},
    {"Ada", 40, {"adb", "ads", nullptr}, 0.08},
    {"Go", 12, {"go", nullptr}, 0.07},
    {"Scala", 20, {"scala", nullptr}, 0.06},
    {"Swift", 16, {"swift", nullptr}, 0.05},
    {"Julia", 31, {"jl", nullptr}, 0.045},
    {"Haskell", 23, {"hs", nullptr}, 0.04},
    {"Tcl", 35, {"tcl", nullptr}, 0.035},
    {"Lisp", 27, {"lisp", "el", nullptr}, 0.03},
    {"Pascal", 33, {"pas", nullptr}, 0.025},
    {"Erlang", 29, {"erl", nullptr}, 0.02},
    {"D", 24, {"di", nullptr}, 0.018},
    {"Rust", 22, {"rs", nullptr}, 0.015},
    {"Groovy", 30, {"groovy", nullptr}, 0.012},
    {"Kotlin", 38, {"kt", nullptr}, 0.010},
    {"Dart", 34, {"dart", nullptr}, 0.008},
};

}  // namespace

std::span<const LanguageInfo> languages() { return kLanguages; }

int language_for_extension(std::string_view ext) {
  // Built once: one hashed probe instead of a compare against every listed
  // extension, which is what most (unmapped, data) extensions would cost.
  static const std::unordered_map<std::string_view, int> table = [] {
    std::unordered_map<std::string_view, int> t;
    for (std::size_t i = 0; i < std::size(kLanguages); ++i) {
      for (const char* const* e = kLanguages[i].exts; *e != nullptr; ++e) {
        t.emplace(*e, static_cast<int>(i));  // the first listing wins
      }
    }
    return t;
  }();
  const auto it = table.find(ext);
  return it == table.end() ? -1 : it->second;
}

int language_index(std::string_view name) {
  for (std::size_t i = 0; i < std::size(kLanguages); ++i) {
    if (name == kLanguages[i].name) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace spider
