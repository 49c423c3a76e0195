#ifndef TANE_PERFBENCH_ORACLE_H_
#define TANE_PERFBENCH_ORACLE_H_

#include <cstdint>
#include <string>

#include "core/result.h"
#include "relation/relation.h"

namespace perfbench {

/// Re-verifies a seeded sample of `result` against the raw rows of
/// `relation`, sharing no code with the partition engine: counts come from
/// sorting row ids on their dictionary codes. For each sampled dependency
/// X → A it checks that the g3 removal count is within ⌊ε·|r|⌋ and equals
/// the reported error, and that every X\{B} → A fails; for each sampled key
/// K, that K has no duplicate rows and every K\{B} has some. Returns an
/// empty string on success, else the first failure.
std::string VerifySample(const tane::Relation& relation,
                         const tane::DiscoveryResult& result, double epsilon,
                         uint64_t seed, int max_fds, int max_keys);

}  // namespace perfbench

#endif  // TANE_PERFBENCH_ORACLE_H_
