// The benchmark's workloads. Each factory builds the op schedule from the
// seed, then sets the system up (timed into Workload::setup()).

#ifndef KDCBENCH_WORKLOADS_H_
#define KDCBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <memory>

#include "kdcbench/harness.h"
#include "src/cluster/population.h"

namespace kdcbench {

inline constexpr char kRealm[] = "ATHENA.MIT.EDU";

inline kcluster::PopulationConfig MakePopulationConfig(size_t users, size_t services) {
  kcluster::PopulationConfig pc;
  pc.users = users;
  pc.services = services;
  pc.realm = kRealm;
  return pc;
}

std::unique_ptr<Workload> MakeV5Login(uint64_t seed);
std::unique_ptr<Workload> MakeV5Session(uint64_t seed);
std::unique_ptr<Workload> MakeClusterChurn(uint64_t seed);

}  // namespace kdcbench

#endif  // KDCBENCH_WORKLOADS_H_
