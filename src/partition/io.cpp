#include "partition/io.hpp"

#include <fstream>
#include <istream>
#include <limits>
#include <ostream>

#include "support/check.hpp"

namespace tamp::partition {

void write_partition(const std::vector<part_t>& domain_of_cell,
                     part_t ndomains, std::ostream& os) {
  TAMP_EXPECTS(ndomains >= 1, "need at least one domain");
  os << "tamp-partition " << domain_of_cell.size() << ' ' << ndomains << '\n';
  for (const part_t d : domain_of_cell) {
    TAMP_EXPECTS(d >= 0 && d < ndomains, "domain id out of declared range");
    os << d << '\n';
  }
}

void save_partition(const std::vector<part_t>& domain_of_cell,
                    part_t ndomains, const std::string& path) {
  std::ofstream out(path);
  if (!out.good())
    throw runtime_failure("cannot open partition output: " + path);
  write_partition(domain_of_cell, ndomains, out);
  if (!out.good()) throw runtime_failure("error writing partition: " + path);
}

std::vector<part_t> read_partition(std::istream& is, part_t& ndomains_out) {
  std::string magic;
  long long ncells = 0;
  long long ndomains = 0;
  if (!(is >> magic >> ncells >> ndomains) || magic != "tamp-partition" ||
      ncells < 0 || ncells > std::numeric_limits<index_t>::max() ||
      ndomains < 1 || ndomains > std::numeric_limits<part_t>::max())
    throw runtime_failure("malformed tamp-partition header");
  // The header's cell count is a claim, not a size to allocate: the
  // vector grows only as records actually arrive.
  std::vector<part_t> part;
  for (long long c = 0; c < ncells; ++c) {
    long long d = -1;
    if (!(is >> d) || d < 0 || d >= ndomains)
      throw runtime_failure("malformed tamp-partition record at cell " +
                            std::to_string(c));
    part.push_back(static_cast<part_t>(d));
  }
  ndomains_out = static_cast<part_t>(ndomains);
  return part;
}

std::vector<part_t> load_partition(const std::string& path,
                                   part_t& ndomains_out) {
  std::ifstream in(path);
  if (!in.good()) throw runtime_failure("cannot open partition input: " + path);
  return read_partition(in, ndomains_out);
}

}  // namespace tamp::partition
