#include "oran/rbac.hpp"

#include "util/check.hpp"

namespace orev::oran {

namespace {
/// Exact match, or prefix match for a pattern ending in '*' ("*" alone
/// matches everything). Compares in place: no prefix copy per check.
bool pattern_matches(std::string_view pattern, std::string_view ns) {
  if (!pattern.empty() && pattern.back() == '*') {
    pattern.remove_suffix(1);
    return ns.substr(0, pattern.size()) == pattern;
  }
  return ns == pattern;
}
}  // namespace

bool Permission::matches(std::string_view ns) const {
  return pattern_matches(ns_pattern, ns);
}

void Rbac::define_role(const std::string& role,
                       std::vector<Permission> perms) {
  OREV_CHECK(!role.empty(), "role name must be non-empty");
  roles_[role] = std::move(perms);
  ++generation_;
}

bool Rbac::has_role(const std::string& role) const {
  return roles_.count(role) > 0;
}

void Rbac::assign_role(const std::string& app_id, const std::string& role) {
  OREV_CHECK(roles_.count(role) > 0, "assigning undefined role: " + role);
  OREV_CHECK(!app_id.empty(), "app id must be non-empty");
  assignments_[app_id].insert(role);
  ++generation_;
}

void Rbac::revoke_role(const std::string& app_id, const std::string& role) {
  const auto it = assignments_.find(app_id);
  if (it == assignments_.end()) return;
  it->second.erase(role);
  ++generation_;
}

void Rbac::set_attribute(const std::string& app_id, const std::string& key,
                         const std::string& value) {
  attributes_[app_id][key] = value;
  ++generation_;
}

void Rbac::add_abac_rule(AbacRule rule) {
  abac_rules_.push_back(std::move(rule));
  ++generation_;
}

bool Rbac::allowed(const std::string& app_id, const std::string& ns,
                   Op op) const {
  const auto attrs_it = attributes_.find(app_id);

  // Deny rules first: any matching ABAC deny is final.
  bool abac_allow = false;
  if (attrs_it != attributes_.end()) {
    for (const AbacRule& r : abac_rules_) {
      if (r.op != op) continue;
      if (!pattern_matches(r.ns_pattern, ns)) continue;
      const auto a = attrs_it->second.find(r.attr_key);
      if (a == attrs_it->second.end() || a->second != r.attr_value) continue;
      if (r.effect == Effect::kDeny) return false;
      abac_allow = true;
    }
  }
  if (abac_allow) return true;

  const auto roles_it = assignments_.find(app_id);
  if (roles_it == assignments_.end()) return false;
  for (const std::string& role : roles_it->second) {
    const auto role_it = roles_.find(role);
    if (role_it == roles_.end()) continue;
    for (const Permission& p : role_it->second) {
      if (p.matches(ns) && p.grants(op)) return true;
    }
  }
  return false;
}

std::set<std::string> Rbac::roles_of(const std::string& app_id) const {
  const auto it = assignments_.find(app_id);
  return it == assignments_.end() ? std::set<std::string>{} : it->second;
}

}  // namespace orev::oran
