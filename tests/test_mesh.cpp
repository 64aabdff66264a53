// Unit tests for the mesh module: builder, invariants, levels, I/O.
#include <gtest/gtest.h>

#include <cctype>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "mesh/generators.hpp"
#include "mesh/io.hpp"
#include "mesh/levels.hpp"
#include "mesh/mesh.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"

namespace tamp::mesh {
namespace {

Mesh two_cell_mesh() {
  MeshBuilder mb(2);
  mb.set_cell(0, 1.0, {0.5, 0.5, 0.5});
  mb.set_cell(1, 1.0, {1.5, 0.5, 0.5});
  mb.add_interior_face(0, 1, 1.0, {1, 0, 0});
  mb.add_boundary_face(0, 1.0, {-1, 0, 0});
  mb.add_boundary_face(1, 1.0, {1, 0, 0});
  return mb.build();
}

TEST(MeshBuilder, BasicTopology) {
  const Mesh m = two_cell_mesh();
  EXPECT_EQ(m.num_cells(), 2);
  EXPECT_EQ(m.num_faces(), 3);
  EXPECT_EQ(m.num_interior_faces(), 1);
  EXPECT_NO_THROW(m.validate());
  EXPECT_EQ(m.face_other_cell(0, 0), 1);
  EXPECT_EQ(m.face_other_cell(0, 1), 0);
  EXPECT_TRUE(m.is_boundary_face(1));
  EXPECT_FALSE(m.is_boundary_face(0));
  EXPECT_EQ(m.cell_faces(0).size(), 2u);
}

TEST(MeshBuilder, RejectsInvalidInput) {
  MeshBuilder mb(2);
  EXPECT_THROW(mb.set_cell(0, -1.0, {}), precondition_error);
  EXPECT_THROW(mb.set_cell(5, 1.0, {}), precondition_error);
  EXPECT_THROW(mb.add_interior_face(0, 0, 1.0, {1, 0, 0}), precondition_error);
  EXPECT_THROW(mb.add_interior_face(0, 7, 1.0, {1, 0, 0}), precondition_error);
  EXPECT_THROW(mb.add_boundary_face(0, 0.0, {1, 0, 0}), precondition_error);
}

TEST(MeshBuilder, RequiresAllCellsSet) {
  MeshBuilder mb(2);
  mb.set_cell(0, 1.0, {});
  EXPECT_THROW(mb.build(), precondition_error);
}

TEST(Mesh, LevelAssignmentAndFaceLevels) {
  Mesh m = two_cell_mesh();
  m.set_cell_levels({2, 0});
  EXPECT_EQ(m.max_level(), 2);
  EXPECT_EQ(m.cell_level(0), 2);
  // Interior face between levels 2 and 0 refreshes at the finer rate.
  EXPECT_EQ(m.face_level(0), 0);
  // Boundary face of cell 0 inherits its cell's level.
  EXPECT_EQ(m.face_level(1), 2);
}

TEST(Mesh, LevelVectorSizeChecked) {
  Mesh m = two_cell_mesh();
  EXPECT_THROW(m.set_cell_levels({0}), precondition_error);
  EXPECT_THROW(m.set_cell_levels({0, -1}), precondition_error);
}

TEST(Mesh, DualGraphMatchesInteriorFaces) {
  const Mesh m = make_lattice_mesh(3, 3, 3);
  const auto g = m.dual_graph();
  EXPECT_EQ(g.num_vertices(), 27);
  EXPECT_EQ(g.num_edges(), m.num_interior_faces());
  EXPECT_NO_THROW(g.validate());
}

TEST(Lattice, CountsAndGeometry) {
  const Mesh m = make_lattice_mesh(4, 3, 2, 0.5);
  EXPECT_EQ(m.num_cells(), 24);
  EXPECT_NO_THROW(m.validate());
  // Interior faces: (3*3*2) + (4*2*2) + (4*3*1) = 18+16+12 = 46.
  EXPECT_EQ(m.num_interior_faces(), 46);
  EXPECT_DOUBLE_EQ(m.cell_volume(0), 0.125);
}

TEST(Lattice, ClosedCellSurfaces) {
  // Σ area·normal over each cell's faces must vanish (closed polyhedra).
  const Mesh m = make_lattice_mesh(3, 2, 2);
  for (index_t c = 0; c < m.num_cells(); ++c) {
    Vec3 net{};
    for (const index_t f : m.cell_faces(c)) {
      const double sign = m.face_cell(f, 0) == c ? 1.0 : -1.0;
      net += sign * m.face_area(f) * m.face_normal(f);
    }
    EXPECT_NEAR(norm(net), 0.0, 1e-12);
  }
}

TEST(GradedBox, GeometryConsistent) {
  const Mesh m = make_graded_box_mesh(6, 5, 4, 1.2);
  EXPECT_NO_THROW(m.validate());
  for (index_t c = 0; c < m.num_cells(); ++c) {
    Vec3 net{};
    for (const index_t f : m.cell_faces(c)) {
      const double sign = m.face_cell(f, 0) == c ? 1.0 : -1.0;
      net += sign * m.face_area(f) * m.face_normal(f);
    }
    EXPECT_NEAR(norm(net), 0.0, 1e-9) << "cell " << c;
  }
}

TEST(Levels, OperatingCost) {
  EXPECT_EQ(operating_cost(0, 3), 8);
  EXPECT_EQ(operating_cost(3, 3), 1);
  EXPECT_EQ(operating_cost(2, 2), 1);
  EXPECT_EQ(operating_cost(0, 0), 1);
}

TEST(Levels, CensusMatchesAssignment) {
  Mesh m = make_lattice_mesh(4, 4, 4);
  std::vector<level_t> levels(64, 0);
  for (int i = 0; i < 16; ++i) levels[static_cast<std::size_t>(i)] = 1;
  for (int i = 16; i < 24; ++i) levels[static_cast<std::size_t>(i)] = 2;
  m.set_cell_levels(levels);
  const LevelCensus census = level_census(m);
  EXPECT_EQ(census.total_cells, 64);
  EXPECT_EQ(census.cells_per_level[0], 40);
  EXPECT_EQ(census.cells_per_level[1], 16);
  EXPECT_EQ(census.cells_per_level[2], 8);
  EXPECT_NEAR(census.cell_fraction(0), 40.0 / 64.0, 1e-12);
  // computation: 40·4 + 16·2 + 8·1 = 200
  EXPECT_EQ(census.total_computation(), 200);
  EXPECT_NEAR(census.computation_fraction(0), 160.0 / 200.0, 1e-12);
}

TEST(Levels, QuantileAssignmentHitsFractions) {
  Mesh m = make_lattice_mesh(10, 10, 10);
  std::vector<double> field(1000);
  for (int i = 0; i < 1000; ++i)
    field[static_cast<std::size_t>(i)] = static_cast<double>(i);
  assign_levels_by_quantiles(m, field, {0.1, 0.3, 0.6});
  const LevelCensus census = level_census(m);
  EXPECT_EQ(census.cells_per_level[0], 100);
  EXPECT_EQ(census.cells_per_level[1], 300);
  EXPECT_EQ(census.cells_per_level[2], 600);
  // Smallest field values land in level 0.
  EXPECT_EQ(m.cell_level(0), 0);
  EXPECT_EQ(m.cell_level(999), 2);
}

TEST(Levels, QuantileFractionsMustSumToOne) {
  Mesh m = make_lattice_mesh(2, 2, 2);
  std::vector<double> field(8, 0.0);
  EXPECT_THROW(assign_levels_by_quantiles(m, field, {0.5, 0.2}),
               precondition_error);
}

TEST(Levels, CflAssignment) {
  // Graded box: spacing doubles over ~4 cells at ratio 1.2 per cell, so
  // several levels appear and level 0 sits at the refined corner.
  Mesh m = make_graded_box_mesh(16, 16, 16, 1.15);
  const auto levels = assign_levels_by_cfl(m, 4);
  EXPECT_EQ(levels.size(), 4096u);
  EXPECT_EQ(m.cell_level(0), 0);  // smallest cell
  EXPECT_GE(m.max_level(), 2);
  // Levels are monotone in cell size.
  for (index_t c = 0; c + 1 < 16; ++c)
    EXPECT_LE(m.cell_level(c), m.cell_level(c + 1));
}

TEST(Levels, SmoothingRemovesJumps) {
  Mesh m = make_lattice_mesh(6, 1, 1);
  m.set_cell_levels({0, 3, 3, 3, 3, 1});
  const index_t lowered = smooth_level_jumps(m, 1);
  // Jumps capped at 1 everywhere; cells only ever lowered.
  for (index_t f = 0; f < m.num_faces(); ++f) {
    if (m.is_boundary_face(f)) continue;
    EXPECT_LE(std::abs(m.cell_level(m.face_cell(f, 0)) -
                       m.cell_level(m.face_cell(f, 1))),
              1);
  }
  EXPECT_EQ(m.cell_level(0), 0);
  EXPECT_EQ(m.cell_level(1), 1);  // lowered from 3
  EXPECT_EQ(m.cell_level(2), 2);
  EXPECT_GT(lowered, 0);
}

TEST(Levels, SmoothingIdempotentAndMonotone) {
  TestMeshSpec spec;
  spec.target_cells = 5000;
  Mesh m = make_cube_mesh(spec);  // CUBE has 2-level jumps by census
  const auto before = m.cell_levels();
  smooth_level_jumps(m, 1);
  const auto once = m.cell_levels();
  for (index_t c = 0; c < m.num_cells(); ++c)
    EXPECT_LE(once[static_cast<std::size_t>(c)],
              before[static_cast<std::size_t>(c)]);  // never raised
  EXPECT_EQ(smooth_level_jumps(m, 1), 0);            // fixpoint
  EXPECT_EQ(m.cell_levels(), once);
}

TEST(Levels, SmoothingNoOpOnSmoothMesh) {
  TestMeshSpec spec;
  spec.target_cells = 4000;
  Mesh m = make_cylinder_mesh(spec);
  smooth_level_jumps(m, 1);
  // Cylinder levels are concentric bands: few if any changes, and a
  // second pass certainly does nothing.
  EXPECT_EQ(smooth_level_jumps(m, 1), 0);
}

TEST(MeshIo, RoundtripPreservesEverything) {
  Mesh m = make_graded_box_mesh(3, 3, 3, 1.3);
  assign_levels_by_cfl(m, 3);
  std::ostringstream os;
  write_mesh(m, os);
  std::istringstream is(os.str());
  const Mesh back = read_mesh(is);
  ASSERT_EQ(back.num_cells(), m.num_cells());
  ASSERT_EQ(back.num_faces(), m.num_faces());
  EXPECT_EQ(back.max_level(), m.max_level());
  for (index_t c = 0; c < m.num_cells(); ++c) {
    EXPECT_DOUBLE_EQ(back.cell_volume(c), m.cell_volume(c));
    EXPECT_EQ(back.cell_level(c), m.cell_level(c));
  }
  for (index_t f = 0; f < m.num_faces(); ++f) {
    EXPECT_DOUBLE_EQ(back.face_area(f), m.face_area(f));
    EXPECT_EQ(back.face_cell(f, 0), m.face_cell(f, 0));
    EXPECT_EQ(back.face_cell(f, 1), m.face_cell(f, 1));
  }
  EXPECT_NO_THROW(back.validate());
}

TEST(MeshIo, RejectsMalformedInput) {
  std::istringstream bad1("not-a-mesh 1");
  EXPECT_THROW(read_mesh(bad1), runtime_failure);
  std::istringstream bad2("tamp-mesh 2\ncells 1");
  EXPECT_THROW(read_mesh(bad2), runtime_failure);
  // Records the builder would refuse are rejected as malformed input.
  const char* bad_records[] = {
      // face naming cell 9 in a 1-cell mesh, as either cell
      "tamp-mesh 1\ncells 1\n1.0 0 0 0 0\nfaces 1\n0 9 1.0 1 0 0\n",
      "tamp-mesh 1\ncells 1\n1.0 0 0 0 0\nfaces 1\n9 -1 1.0 1 0 0\n",
      // boundary marker other than -1
      "tamp-mesh 1\ncells 2\n1.0 0 0 0 0\n1.0 1 0 0 0\nfaces 1\n0 -5 1.0 1 0 0\n",
      // face joining a cell to itself
      "tamp-mesh 1\ncells 2\n1.0 0 0 0 0\n1.0 1 0 0 0\nfaces 1\n1 1 1.0 1 0 0\n",
      // non-positive cell volume
      "tamp-mesh 1\ncells 1\n0.0 0 0 0 0\nfaces 0\n",
      // non-positive face area
      "tamp-mesh 1\ncells 2\n1.0 0 0 0 0\n1.0 1 0 0 0\nfaces 1\n0 1 -1.0 1 0 0\n",
      // zero face normal (MeshBuilder would read it as (1, 0, 0))
      "tamp-mesh 1\ncells 2\n1.0 0 0 0 0\n1.0 1 0 0 0\nfaces 1\n0 1 1.0 0 0 0\n",
      // face normal whose norm overflows
      "tamp-mesh 1\ncells 2\n1.0 0 0 0 0\n1.0 1 0 0 0\nfaces 1\n0 1 1.0 1e200 1e200 0\n",
      // cells that no face names
      "tamp-mesh 1\ncells 2\n1.0 0 0 0 0\n1.0 1 0 0 0\nfaces 0\n",
      "tamp-mesh 1\ncells 3\n1.0 0 0 0 0\n1.0 1 0 0 0\n1.0 2 0 0 0\nfaces 1\n0 1 1.0 1 0 0\n",
  };
  for (const char* text : bad_records) {
    std::istringstream bad(text);
    EXPECT_THROW(read_mesh(bad), runtime_failure) << text;
  }
  // A header that claims 2^31 - 1 cells, followed by one record: the
  // missing records are the error, not a ~73 GB allocation.
  std::istringstream bad4("tamp-mesh 1\ncells 2147483647\n1.0 0 0 0 0\n");
  EXPECT_THROW(read_mesh(bad4), runtime_failure);
}

// Seeded mutations of a small mesh file: whatever read_mesh makes of the
// input, it is a mesh that passes validate() or a runtime_failure —
// never another exception type, a crash or a hang.
TEST(MeshIo, FuzzedInputIsAValidMeshOrARuntimeFailure) {
  std::ostringstream os;
  write_mesh(make_graded_box_mesh(3, 3, 2, 1.2), os);
  const std::string base = os.str();
  // Whitespace-separated token spans of the unmutated file.
  std::vector<std::pair<std::size_t, std::size_t>> tokens;
  for (std::size_t i = 0; i < base.size();) {
    if (std::isspace(static_cast<unsigned char>(base[i])) != 0) {
      ++i;
      continue;
    }
    const std::size_t b = i;
    while (i < base.size() &&
           std::isspace(static_cast<unsigned char>(base[i])) == 0)
      ++i;
    tokens.emplace_back(b, i - b);
  }
  const char* dictionary[] = {
      "0",          "-0",          "1",          "-1",     "2",    "0.0",
      "1e-170",     "1e-320",      "1e200",      "1e400",  "nan",  "inf",
      "2147483647", "-2147483648", "2147483648", "127",    "128",  "cells",
      "faces",      "tamp-mesh",   "",           "+",      "-",    ".",
      "0x10",       "1,5",         "99999999999999999999", "\n\n"};
  const char bytes[] = "0123456789-+.e \n\tx";

  Rng rng(20240601);
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.below(n));
  };
  const Stopwatch clock;
  int accepted = 0, rejected = 0, cases = 0;
  // The case count fits well inside the time box in a Release or
  // RelWithDebInfo build; the clock stops a sanitizer build early.
  for (; cases < 6000 && clock.seconds() < 1.5; ++cases) {
    std::string text = base;
    const std::size_t mutations = 1 + pick(3);
    for (std::size_t m = 0; m < mutations; ++m) {
      // Token edits address the unmutated spans; skip any an earlier
      // edit of this case moved out of range.
      const auto& [tb, tl] = tokens[pick(tokens.size())];
      switch (pick(7)) {
        case 0:  // overwrite a byte
          text[pick(text.size())] = bytes[pick(sizeof bytes - 1)];
          break;
        case 1:  // insert a byte
          text.insert(text.begin() + static_cast<std::ptrdiff_t>(
                                         pick(text.size() + 1)),
                      bytes[pick(sizeof bytes - 1)]);
          break;
        case 2:  // delete a few bytes
          text.erase(pick(text.size()), 1 + pick(8));
          break;
        case 3:  // replace a token
          if (tb + tl <= text.size())
            text.replace(tb, tl, dictionary[pick(std::size(dictionary))]);
          break;
        case 4:  // delete a token
          if (tb + tl <= text.size()) text.erase(tb, tl);
          break;
        case 5:  // duplicate a token
          if (tb + tl <= text.size())
            text.insert(tb, text.substr(tb, tl) + " ");
          break;
        default:  // truncate
          text.resize(pick(text.size() + 1));
          break;
      }
      if (text.empty()) break;
    }
    std::istringstream in(text);
    try {
      const Mesh mesh = read_mesh(in);
      ++accepted;
      try {
        mesh.validate();
      } catch (const std::exception& e) {
        ADD_FAILURE() << "read_mesh returned a mesh that fails validate() ("
                      << e.what() << ") for input:\n"
                      << text;
        break;
      }
    } catch (const runtime_failure&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "read_mesh threw something other than runtime_failure ("
                    << e.what() << ") for input:\n"
                    << text;
      break;
    }
  }
  // Both outcomes occur, so the mutations neither always break nor
  // never touch the file.
  EXPECT_GT(accepted, 0) << cases << " cases";
  EXPECT_GT(rejected, 0) << cases << " cases";
}

}  // namespace
}  // namespace tamp::mesh
