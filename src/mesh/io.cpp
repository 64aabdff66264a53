#include "mesh/io.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

namespace tamp::mesh {

void write_mesh(const Mesh& mesh, std::ostream& os) {
  os << "tamp-mesh 1\n";
  os << "cells " << mesh.num_cells() << '\n';
  os.precision(17);
  for (index_t c = 0; c < mesh.num_cells(); ++c) {
    const Vec3 p = mesh.cell_centroid(c);
    os << mesh.cell_volume(c) << ' ' << p.x << ' ' << p.y << ' ' << p.z << ' '
       << static_cast<int>(mesh.cell_level(c)) << '\n';
  }
  os << "faces " << mesh.num_faces() << '\n';
  for (index_t f = 0; f < mesh.num_faces(); ++f) {
    const Vec3 n = mesh.face_normal(f);
    os << mesh.face_cell(f, 0) << ' ' << mesh.face_cell(f, 1) << ' '
       << mesh.face_area(f) << ' ' << n.x << ' ' << n.y << ' ' << n.z << '\n';
  }
}

void save_mesh(const Mesh& mesh, const std::string& path) {
  std::ofstream out(path);
  if (!out.good()) throw runtime_failure("cannot open mesh output: " + path);
  write_mesh(mesh, out);
  if (!out.good()) throw runtime_failure("error writing mesh to: " + path);
}

Mesh read_mesh(std::istream& is) {
  auto fail = [](const std::string& what) -> Mesh {
    throw runtime_failure("malformed tamp-mesh input: " + what);
  };
  // Validate every record here, so a malformed file is a runtime_failure
  // naming the record, never a MeshBuilder precondition_error.
  const auto positive = [](double v) { return std::isfinite(v) && v > 0.0; };
  const auto record = [](const char* kind, index_t i) {
    return std::string(kind) + " record " + std::to_string(i);
  };

  std::string magic;
  int version = 0;
  if (!(is >> magic >> version) || magic != "tamp-mesh" || version != 1)
    return fail("bad header");

  std::string token;
  index_t ncells = 0;
  if (!(is >> token >> ncells) || token != "cells" || ncells <= 0)
    return fail("bad cell count");

  // The header's cell count is a claim, not a size to allocate: the
  // records grow as they arrive, and the builder sizes itself only once
  // the last one has been read.
  std::vector<double> volumes;
  std::vector<Vec3> centroids;
  std::vector<level_t> levels;
  for (index_t c = 0; c < ncells; ++c) {
    double vol = 0;
    Vec3 p;
    int level = 0;
    if (!(is >> vol >> p.x >> p.y >> p.z >> level))
      return fail(record("cell", c));
    if (level < 0 || level > 127)
      return fail(record("cell", c) + ": level out of range");
    if (!positive(vol))
      return fail(record("cell", c) + ": volume not finite and positive");
    volumes.push_back(vol);
    centroids.push_back(p);
    levels.push_back(static_cast<level_t>(level));
  }
  MeshBuilder mb(ncells);
  for (index_t c = 0; c < ncells; ++c)
    mb.set_cell(c, volumes[static_cast<std::size_t>(c)],
                centroids[static_cast<std::size_t>(c)]);

  index_t nfaces = 0;
  if (!(is >> token >> nfaces) || token != "faces" || nfaces < 0)
    return fail("bad face count");
  std::vector<char> named(static_cast<std::size_t>(ncells), 0);
  for (index_t f = 0; f < nfaces; ++f) {
    index_t a = 0, b = 0;
    double area = 0;
    Vec3 n;
    if (!(is >> a >> b >> area >> n.x >> n.y >> n.z))
      return fail(record("face", f));
    if (a < 0 || a >= ncells || (b != invalid_index && (b < 0 || b >= ncells)))
      return fail(record("face", f) + ": cell id out of range");
    if (a == b) return fail(record("face", f) + ": joins a cell to itself");
    if (!positive(area))
      return fail(record("face", f) + ": area not finite and positive");
    // MeshBuilder normalises the normal, falling back to (1, 0, 0) for a
    // zero one: accept only a normal that normalises to unit length.
    const double length = norm(n);
    if (!positive(length) || !(std::abs(norm(n / length) - 1.0) < 1e-9))
      return fail(record("face", f) + ": normal not finite and non-zero");
    named[static_cast<std::size_t>(a)] = 1;
    if (b == invalid_index) {
      mb.add_boundary_face(a, area, n);
    } else {
      named[static_cast<std::size_t>(b)] = 1;
      mb.add_interior_face(a, b, area, n);
    }
  }
  const auto faceless = std::find(named.begin(), named.end(), char{0});
  if (faceless != named.end())
    return fail(record("cell", static_cast<index_t>(faceless - named.begin())) +
                ": named by no face");

  Mesh mesh = mb.build();
  mesh.set_cell_levels(std::move(levels));
  return mesh;
}

Mesh load_mesh(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) throw runtime_failure("cannot open mesh input: " + path);
  return read_mesh(in);
}

}  // namespace tamp::mesh
