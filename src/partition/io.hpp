// Partition (cell → domain) persistence.
//
// Lets decompositions be saved, exchanged with external tools, and fed
// to the standalone flusim executable (mirroring the paper's FLUSIM,
// which takes "a domain decomposition" as an input file). Format: one
// line `tamp-partition <ncells> <ndomains>`, then one domain id per line.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "support/types.hpp"

namespace tamp::partition {

void write_partition(const std::vector<part_t>& domain_of_cell,
                     part_t ndomains, std::ostream& os);
void save_partition(const std::vector<part_t>& domain_of_cell,
                    part_t ndomains, const std::string& path);

/// Returns the assignment; `ndomains_out` receives the declared count.
/// Throws runtime_failure on malformed input.
std::vector<part_t> read_partition(std::istream& is, part_t& ndomains_out);
std::vector<part_t> load_partition(const std::string& path,
                                   part_t& ndomains_out);

}  // namespace tamp::partition
