// Sets (or, with a null value, unsets) one environment variable for a
// scope and restores its previous state on exit. Tests that pin
// IFSYN_SIM_ENGINE or IFSYN_SIM_OPT use it so that a whole-suite setting
// (CI runs every test under IFSYN_SIM_ENGINE=ast and under
// IFSYN_SIM_OPT=0) stays in force for the tests that follow.
#pragma once

#include <cstdlib>
#include <optional>
#include <string>

namespace ifsyn {

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) saved_ = old;
    set(value);
  }
  ~ScopedEnv() { set(saved_ ? saved_->c_str() : nullptr); }

  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

  /// Change the value within the scope; null unsets the variable.
  void set(const char* value) const {
    if (value != nullptr) {
      ::setenv(name_.c_str(), value, 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  std::optional<std::string> saved_;
};

}  // namespace ifsyn
