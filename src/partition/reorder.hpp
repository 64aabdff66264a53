// Locality renumbering policy: order cells and faces so every
// (domain, temporal level, locality) object class of the task generator
// becomes one contiguous id range.
//
// The task graph's unit of work is the (domain × class) object list
// (taskgraph/generate.hpp). On a mesh in generator order those lists are
// scattered index vectors and the solver kernels execute them as an
// indirect gather/scatter — the classic locality bottleneck of
// unstructured FV codes. This module exports a MeshPermutation that
// sorts cells domain-major, class-minor, space-filling-curve-ordered
// within each class, and sorts faces by their task class with boundary
// faces collected in a tail sub-range, so that:
//
//   * each class's objects are a [begin, end) range (taskgraph detects
//     this and the solvers switch to streaming range kernels);
//   * inside a range, SFC order keeps adjacent objects geometrically
//     adjacent (cells a face touches are close to the face's position in
//     its own range);
//   * the branchy boundary-vs-interior test hoists out of the flux loop,
//     because boundary faces occupy their own sub-range.
//
// Cells and faces are classified through taskgraph's header-only
// Classifier (taskgraph/class_indexer.hpp), the rules the generator
// itself runs; the property tests require every class list on a
// renumbered mesh to be contiguous.
#pragma once

#include <string>
#include <vector>

#include "mesh/mesh.hpp"
#include "mesh/reorder.hpp"
#include "support/types.hpp"

namespace tamp::partition {

/// User-facing layout knob (flusim --reorder).
enum class Reorder { none, locality };

[[nodiscard]] const char* to_string(Reorder r);
/// Parse "none" | "locality" (throws precondition_error).
Reorder parse_reorder(const std::string& name);

/// Build the locality permutation for `mesh` decomposed by
/// `domain_of_cell`. Deterministic: ties in the space-filling-curve
/// order break by original id.
[[nodiscard]] mesh::MeshPermutation build_locality_permutation(
    const mesh::Mesh& mesh, const std::vector<part_t>& domain_of_cell,
    part_t ndomains);

/// A renumbered decomposition bundle: the permuted mesh, the permutation
/// that produced it, and the domain vector relabelled to match.
struct ReorderedDecomposition {
  mesh::Mesh mesh;
  mesh::MeshPermutation permutation;
  std::vector<part_t> domain_of_cell;
};

/// Convenience: permute `mesh` + `domain_of_cell` with the locality
/// layout in one step.
[[nodiscard]] ReorderedDecomposition reorder_for_locality(
    const mesh::Mesh& mesh, const std::vector<part_t>& domain_of_cell,
    part_t ndomains);

}  // namespace tamp::partition
