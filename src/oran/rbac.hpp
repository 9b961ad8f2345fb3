// Role-Based and Attribute-Based Access Control for RIC platform services.
//
// Models the O-RAN WG11 access-control requirements referenced in §2.2
// (REQ-SEC-NEAR-RT-1, REQ-SEC-NonRTRIC-7/8): RBAC roles grant namespace-
// scoped read/write permissions on the SDL; ABAC rules refine decisions
// from app attributes (vendor, function type). Deny rules override allows.
//
// The paper's threat model hinges on *misconfigured* policies — e.g. a
// telemetry-processing app granted write access to namespaces other apps
// consume. The engine makes both correct and misconfigured policies
// expressible so tests can demonstrate the difference.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace orev::oran {

enum class Op { kRead, kWrite };

/// Namespace-pattern permission. Patterns are exact strings or prefixes
/// ending in '*' ("telemetry/*"); "*" matches everything.
struct Permission {
  std::string ns_pattern;
  bool read = false;
  bool write = false;

  bool matches(std::string_view ns) const;
  bool grants(Op op) const { return op == Op::kRead ? read : write; }
};

enum class Effect { kAllow, kDeny };

/// ABAC rule: if the app's attribute `attr_key` equals `attr_value` and the
/// namespace matches, apply `effect` to operations of kind `op`.
struct AbacRule {
  std::string attr_key;
  std::string attr_value;
  std::string ns_pattern;
  Op op = Op::kRead;
  Effect effect = Effect::kDeny;
};

class Rbac {
 public:
  /// Define (or replace) a role as a set of permissions.
  void define_role(const std::string& role, std::vector<Permission> perms);

  bool has_role(const std::string& role) const;

  /// Assign a defined role to an app; throws CheckError if undefined.
  void assign_role(const std::string& app_id, const std::string& role);

  /// Withdraw a role from an app (no-op when it was not assigned).
  void revoke_role(const std::string& app_id, const std::string& role);

  /// Set an ABAC attribute on an app.
  void set_attribute(const std::string& app_id, const std::string& key,
                     const std::string& value);

  void add_abac_rule(AbacRule rule);

  /// Decision procedure: ABAC deny rules override everything; otherwise
  /// any matching role permission or ABAC allow rule grants access.
  /// Unknown apps are always denied (zero-trust default).
  bool allowed(const std::string& app_id, const std::string& ns,
               Op op) const;

  /// Roles currently assigned to an app.
  std::set<std::string> roles_of(const std::string& app_id) const;

  /// Policy generation: bumped by every mutation above (role definition,
  /// assignment, revocation, attribute, ABAC rule). A cached decision
  /// taken at generation g is still the engine's answer while
  /// generation() == g — oran::SdlHandle re-decides when it moves.
  /// Mutations must not race with decisions (as for the maps themselves).
  std::uint64_t generation() const { return generation_; }

 private:
  std::uint64_t generation_ = 0;
  std::map<std::string, std::vector<Permission>> roles_;
  std::map<std::string, std::set<std::string>> assignments_;
  std::map<std::string, std::map<std::string, std::string>> attributes_;
  std::vector<AbacRule> abac_rules_;
};

}  // namespace orev::oran
