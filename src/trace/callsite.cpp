#include "trace/callsite.hpp"

#include <map>
#include <mutex>
#include <sstream>

#include "analysis/race/annotate.hpp"

namespace cham::trace {

namespace {
// One global intern table shared by every rank — and, in the epoch-parallel
// pilot, by real threads, so it carries a real mutex. For ChamRace it is
// modelled as an atomic container (RACE_ATOMIC), NOT as a ScopedSync
// region: the table is interned-only (insert-if-absent, value immutable
// once present), so its internal lock is an implementation detail that
// must not contribute happens-before edges. Every CallScope interns, so
// modelling the lock would serialize the whole program under the analyzer
// and mask unrelated conflicts (the classic lock-based-HB false negative;
// see docs/RACE.md).
std::mutex& sites_mutex() {
  static std::mutex m;
  return m;
}
std::map<std::uint64_t, std::string>& site_names() {
  static std::map<std::uint64_t, std::string> names;
  return names;
}
}  // namespace

std::uint64_t intern_site(std::string_view name) {
  const std::uint64_t id = site_id(name);
  RACE_ATOMIC("trace.sites", 0, 0);
  const std::lock_guard<std::mutex> lock(sites_mutex());
  site_names().try_emplace(id, name);
  return id;
}

std::vector<std::pair<std::uint64_t, std::string>> export_sites() {
  RACE_ATOMIC("trace.sites", 0, 0);
  const std::lock_guard<std::mutex> lock(sites_mutex());
  const auto& names = site_names();
  return {names.begin(), names.end()};  // std::map: already sorted by id
}

void import_sites(
    const std::vector<std::pair<std::uint64_t, std::string>>& sites) {
  RACE_ATOMIC("trace.sites", 0, 0);
  const std::lock_guard<std::mutex> lock(sites_mutex());
  for (const auto& [id, name] : sites) site_names().try_emplace(id, name);
}

std::string site_name(std::uint64_t site) {
  RACE_ATOMIC("trace.sites", 0, 0);
  const std::lock_guard<std::mutex> lock(sites_mutex());
  const auto& names = site_names();
  if (const auto it = names.find(site); it != names.end()) return it->second;
  std::ostringstream os;
  os << "site:0x" << std::hex << site;
  return os.str();
}

}  // namespace cham::trace
