#pragma once

#include <cstddef>

namespace v6mon::analysis {

/// The paper's 15 evaluation artifacts, in the order `full_study` prints
/// them.
enum class Artifact : std::size_t {
  kFig1,
  kFig3a,
  kFig3b,
  kTable2,
  kTable3,
  kTable4,
  kTable5,
  kTable6,
  kTable7,
  kTable8,
  kTable9,
  kTable10,
  kTable11,
  kTable12,
  kTable13,
};
inline constexpr std::size_t kNumArtifacts = 15;

/// One artifact of the paper: what it is, where `full_study` writes the
/// reproduced table, and the values the paper published for it.
struct PaperReference {
  const char* title;  ///< Printed above the reproduced table.
  const char* csv;    ///< File name under full_study_out/.
  const char* paper;  ///< Published values plus the shape to reproduce.
};

/// The reference entry of artifact `a`.
[[nodiscard]] const PaperReference& paper_reference(Artifact a);

}  // namespace v6mon::analysis
